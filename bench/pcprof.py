#!/usr/bin/env python3
"""PC-sampling profiler for an OCaml native executable, for hosts without perf.

Runs COMMAND as a traced child (ptrace, x86-64 Linux), stops it at a fixed
rate, reads its program counter and records two names per sample:

  leaf    the function the program counter is in;
  caller  the first OCaml function on the way out of it: the leaf itself
          when it is OCaml code, else (a C leaf: runtime, GC, libm) the
          OCaml function that called into C.  An OCaml-to-C call pushes
          its return address at the top of the domain's C stack
          (Caml_state->c_stack); when that address lies in OCaml code
          (a [@@noalloc] external) it names the caller, and when it lies
          in caml_c_call, the OCaml return address is the word at the
          saved OCaml stack pointer (Caml_state->current_stack->sp).

Only the traced process's main thread is sampled.  Usage:

  python3 bench/pcprof.py [--hz 500] [--top 40] [--group NAME=SYM,SYM ...] \\
      -- _build/default/perfbench/main.exe --workload grid-relax \\
         --seed 4242 --seconds 16 --trace 0

Symbols are printed without the "caml" prefix and the numeric suffix
(camlLp__Simplex__price_1234 -> Lp.Simplex.price).  --group sums the
leaf shares of the named functions (matched on the printed name, "."
and all) into one line, e.g. --group pricing=Lp.Simplex.price,...
"""

import argparse
import bisect
import collections
import ctypes
import os
import re
import signal
import subprocess
import sys
import time

PTRACE_TRACEME = 0
PTRACE_CONT = 7
PTRACE_GETREGS = 12

# struct user_regs_struct (x86-64): indices of the registers read.
REG_RIP, REG_FS_BASE = 16, 21

# Caml_state field offsets (OCaml 5.1 domain_state.tbl, 8 bytes a field).
CURRENT_STACK_OFS = 5 * 8
C_STACK_OFS = 8 * 8

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


def ptrace(req, pid, addr=0, data=0):
    r = libc.ptrace(req, pid, ctypes.c_void_p(addr), ctypes.c_void_p(data))
    if r == -1:
        e = ctypes.get_errno()
        raise OSError(e, os.strerror(e))
    return r


class Symbols:
    """Text symbols of the executable (nm), and its TLS layout (readelf)."""

    def __init__(self, exe):
        self.addrs, self.names = [], []
        self.tls = {}
        out = subprocess.run(["nm", "-n", "--defined-only", exe],
                             capture_output=True, text=True, check=True).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) != 3:
                continue
            addr, kind, name = int(parts[0], 16), parts[1], parts[2]
            if kind in "tTwW":
                self.addrs.append(addr)
                self.names.append(name)
            elif name == "caml_state":
                self.tls[name] = addr
        self.tls_size = None
        hdr = subprocess.run(["readelf", "-lW", exe], capture_output=True,
                             text=True, check=True).stdout
        for line in hdr.splitlines():
            f = line.split()
            if f and f[0] == "TLS":
                memsz, align = int(f[5], 16), int(f[7], 16)
                self.tls_size = (memsz + align - 1) // align * align

    def lookup(self, addr):
        k = bisect.bisect_right(self.addrs, addr) - 1
        return self.names[k] if k >= 0 else None


OCAML_NAME = re.compile(r"^caml[A-Z]")


def is_ocaml(name):
    return name is not None and OCAML_NAME.match(name) is not None


def pretty(name):
    if name is None:
        return "?"
    if is_ocaml(name):
        name = re.sub(r"_\d+$", "", name[4:])
        return name.replace("__", ".")
    return name


class Maps:
    """The child's file mappings: the executable's load address, and the
    file any other code address belongs to (shared libraries)."""

    def __init__(self, pid, exe):
        self.pid, self.real = pid, os.path.realpath(exe)
        self.read()

    def read(self):
        self.ranges, self.base = [], None
        with open("/proc/%d/maps" % self.pid) as f:
            for line in f:
                parts = line.split()
                if len(parts) < 6:
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                path = os.path.realpath(parts[5]) if parts[5].startswith("/") else parts[5]
                self.ranges.append((lo, hi, path))
                if path == self.real and int(parts[2], 16) == 0 and self.base is None:
                    self.base = lo
        if self.base is None:
            raise RuntimeError("executable mapping not found")

    def file_of(self, addr, retry=True):
        for lo, hi, path in self.ranges:
            if lo <= addr < hi:
                return path
        if retry:  # a library mapped since the last read
            self.read()
            return self.file_of(addr, retry=False)
        return None

    def symbol(self, syms, addr):
        """The executable's symbol at [addr], or [library] outside it."""
        path = self.file_of(addr)
        if path == self.real:
            return syms.lookup(addr - self.base)
        return "[%s]" % os.path.basename(path) if path else "[unknown]"


def read_word(mem, addr):
    try:
        return int.from_bytes(os.pread(mem, 8, addr), "little")
    except OSError:
        return None


def caller_of_c(mem, syms, maps, regs):
    """The OCaml function that called into C, or None."""
    if syms.tls_size is None or "caml_state" not in syms.tls:
        return None
    state = read_word(mem, regs[REG_FS_BASE] - syms.tls_size + syms.tls["caml_state"])
    if not state:
        return None
    c_stack = read_word(mem, state + C_STACK_OFS)
    if c_stack:
        ret = read_word(mem, c_stack - 8)
        if ret is not None:
            name = maps.symbol(syms, ret)
            if is_ocaml(name):
                return name
    stack = read_word(mem, state + CURRENT_STACK_OFS)
    sp = read_word(mem, stack) if stack else None
    ret = read_word(mem, sp) if sp else None
    name = maps.symbol(syms, ret) if ret is not None else None
    return name if is_ocaml(name) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--hz", type=float, default=500.0, help="samples per second")
    ap.add_argument("--top", type=int, default=40, help="rows per table")
    ap.add_argument("--group", action="append", default=[],
                    help="NAME=SYM,SYM: report the summed leaf share of these functions")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command")
    exe = cmd[0] if os.path.sep in cmd[0] else subprocess.run(
        ["which", cmd[0]], capture_output=True, text=True, check=True).stdout.strip()
    syms = Symbols(exe)

    pid = os.fork()
    if pid == 0:
        ptrace(PTRACE_TRACEME, 0)
        os.execvp(cmd[0], cmd)
    _, status = os.waitpid(pid, 0)  # stopped at exec
    maps = Maps(pid, exe)
    mem = os.open("/proc/%d/mem" % pid, os.O_RDONLY)
    regs = (ctypes.c_ulong * 27)()
    leaves, pairs = collections.Counter(), collections.Counter()
    samples = 0
    period = 1.0 / args.hz
    ptrace(PTRACE_CONT, pid)
    while True:
        time.sleep(period)
        try:
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            break
        _, status = os.waitpid(pid, 0)
        if os.WIFEXITED(status) or os.WIFSIGNALED(status):
            break
        sig = os.WSTOPSIG(status)
        if sig != signal.SIGSTOP:
            # A signal of the program's own: deliver it, and let our
            # SIGSTOP arrive at the next wait.
            ptrace(PTRACE_CONT, pid, 0, sig)
            continue
        ptrace(PTRACE_GETREGS, pid, 0, ctypes.addressof(regs))
        leaf = maps.symbol(syms, regs[REG_RIP])
        caller = leaf if is_ocaml(leaf) else caller_of_c(mem, syms, maps, regs)
        leaves[pretty(leaf)] += 1
        pairs[(pretty(leaf), pretty(caller))] += 1
        samples += 1
        ptrace(PTRACE_CONT, pid)
    os.close(mem)
    code = os.WEXITSTATUS(status) if os.WIFEXITED(status) else 1

    out = sys.stderr
    print("# %d samples at %g Hz" % (samples, args.hz), file=out)
    if samples == 0:
        return code
    for g in args.group:
        name, _, members = g.partition("=")
        members = set(members.split(","))
        n = sum(c for s, c in leaves.items() if s in members)
        print("# group %-20s %6.2f %%" % (name, 100.0 * n / samples), file=out)
    print("# leaf share", file=out)
    for s, c in leaves.most_common(args.top):
        print("%6.2f %%  %s" % (100.0 * c / samples, s), file=out)
    print("# C leaf <- first OCaml caller", file=out)
    c_pairs = collections.Counter({k: c for k, c in pairs.items() if k[0] != k[1]})
    for (s, c_name), c in c_pairs.most_common(args.top):
        print("%6.2f %%  %s <- %s" % (100.0 * c / samples, s, c_name), file=out)
    return code


if __name__ == "__main__":
    sys.exit(main())
