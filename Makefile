.PHONY: all build test bench-smoke bench-micro bench-bnb bench-service \
	bench-profile bench-colgen doc check clean

all: build

build:
	dune build

test: build
	dune runtest

# Fast end-to-end smoke of the parallel bench harness: Figure 3 only,
# quick scale, two worker domains, deterministic work clock (the default,
# so the tables are reproducible byte for byte).
bench-smoke: build
	dune exec bench/main.exe -- --quick --figures 3 --jobs 2 --only figures

# Deterministic simplex micro bench on the default simplex path
# (Forrest–Tomlin basis, devex partial pricing); writes BENCH_simplex.json
# (per-case solves, pivots, work-clock ticks, wall time, node-LP
# basis-update telemetry, the kernel A/B timings).  Exits nonzero when the
# reach-based sparse solves lose their 2x floor over the dense scans, a
# case spends over 10% more ticks than the file it replaces, or the
# emitted file fails validation.  Every BENCH_*.json uses one schema,
# tvnep-bench/1 (bench/record.ml); delete a file to re-baseline it.
bench-micro: build
	dune exec bench/main.exe -- --only micro

# Parallel branch-and-bound gate: solves the same contended cΣ search at
# jobs 1, 2 and 4 on the deterministic work clock, fails if any level's
# (status, objective, bound, nodes, iters, ticks) differs from jobs=1 or
# (on >= 4-core hosts) jobs=4 is < 2x faster, and writes BENCH_bnb.json
# (schema tvnep-bench/1).
bench-bnb: build
	dune exec bench/main.exe -- --only bnb

# Online service gate: serves one churn stream (arrivals + departures)
# once per configuration on the deterministic work clock (the engine
# decides each arrival once, in event order, so there is no jobs level
# to sweep).  Fails if any run re-evaluates an arrival
# (Stats.service_reevals > 0), if fewer than 30% of the arrivals depart
# inside the stream, if ignoring departures does not strictly lose
# admissions and revenue, if any rung (exact, greedy, budget, and
# priced on the dedicated pricing run) never fired, if the rounding
# ablation regresses (the Rounded chain must decide arrivals at the
# rounded rung, admit >= the greedy-only chain and spend <= the exact
# chain's ticks), or if any run's committed state fails the validator;
# writes BENCH_service.json (schema tvnep-bench/1, validated after
# writing, each run carrying the engine summary and its per-arrival
# records).
bench-service: build
	dune exec bench/main.exe -- --only service

# Profiling smoke gate: the contended cΣ solve with a span recorder
# attached, at jobs 1 and 4.  Fails if profiling perturbs the solve, the
# recorder is unbalanced, spans do not nest, per-phase self ticks do not
# sum to the solve's work ticks, an export fails to parse back, or the
# exported spans (domain tags zeroed) differ across jobs levels.
bench-profile: build
	dune exec bench/main.exe -- --only profile

# Column-generation gate: the path-form restricted master vs the arc-form
# LP on a ~10x substrate (9x10 grid, 8-vlink requests), deterministic
# work clock.  Fails unless the converged master matches the arc LP
# objective, costs strictly fewer work ticks and keeps its flow columns
# <= 20% of the arc form's; pricing is serial, so both forms solve once
# at jobs 1.  Writes and validates BENCH_colgen.json (schema
# tvnep-bench/1).
bench-colgen: build
	dune exec bench/main.exe -- --only colgen

# API documentation via odoc, when the toolchain has it; a clean skip
# otherwise (the docs below are the odoc comments in the .mli files).
# Under `make check` this is a hard gate whenever odoc is installed: a
# doc-comment syntax error fails the build instead of rotting silently.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
	  dune build @doc && \
	  echo "docs: _build/default/_doc/_html/index.html"; \
	else \
	  echo "odoc not installed; skipping HTML docs (the .mli files carry \
	the same documentation)"; \
	fi

check: build test doc bench-smoke bench-micro bench-bnb bench-service \
	bench-profile bench-colgen

clean:
	dune clean
