#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe from source
with dune (inside the checkout's _build, with dune's shared cache off so
nothing is written outside the checkout), then runs it with the same
arguments.  The last line of standard output is the result JSON; build
output goes to standard error.  Exits non-zero without a result when the
build fails, e.g. when the solver sources are missing.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
        timeout=900)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
