PYTHON ?= python
JOBS ?=

export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint sweep sweep-full analysis-smoke faults-smoke faults \
	serve-smoke serve-load chaos-smoke figures perfbench clean-cache

# Tier-1 verification.
test:
	$(PYTHON) -m pytest -x -q

# Style/correctness lint: ruff when installed, AST fallback otherwise.
lint:
	$(PYTHON) tools/lint.py

# CI smoke: 2-cell cold+warm parallel sweep against a temp disk cache;
# fails unless the warm pass is pure cache hits with identical records.
sweep:
	$(PYTHON) -m repro sweep --smoke $(if $(JOBS),--jobs $(JOBS))

# The full matrix + figures (disk-cached, all cores by default).
sweep-full:
	$(PYTHON) -m repro sweep $(if $(JOBS),--jobs $(JOBS))

# CI smoke for the static-elision axis (docs/ANALYSIS.md): the
# analysis/IR/differential suites, then a sweep smoke whose JSON
# carries the 4-way gradual figure (baseline vs elided vs chklb vs
# typed with the recovered fraction) and a fault smoke that gates the
# elision SDC silent/abort shift.  The elided config stays exempt from
# the committed perf gate (GATE_CONFIGS pins the paper triple).
analysis-smoke:
	$(PYTHON) -m pytest -q tests/test_analysis.py tests/test_ir_views.py \
		tests/test_elided_differential.py
	$(PYTHON) -m repro sweep --smoke $(if $(JOBS),--jobs $(JOBS)) \
		$(if $(GRADUAL_JSON),--json $(GRADUAL_JSON))
	$(PYTHON) -m repro faults --smoke $(if $(JOBS),--jobs $(JOBS))

# CI smoke: tiny fixed-seed fault-injection campaign run at 1 and N
# jobs; fails unless the reports are identical and the typed configs
# detect more tag-plane corruptions than baseline (docs/RELIABILITY.md).
faults-smoke:
	$(PYTHON) -m repro faults --smoke $(if $(JOBS),--jobs $(JOBS)) \
		$(if $(FAULTS_JSON),--json $(FAULTS_JSON))

# Full fault-injection campaign over the matrix (disk-cached goldens).
faults:
	$(PYTHON) -m repro faults $(if $(JOBS),--jobs $(JOBS))

# CI smoke: boot the execution daemon as a subprocess and assert the
# acceptance contract — 3 concurrent clients get counters identical to
# an in-process run, a cache-hit bench never builds the worker pool,
# and SIGTERM drains in-flight requests before exit (docs/API.md).
serve-smoke:
	$(PYTHON) -m repro serve --smoke $(if $(JOBS),--jobs $(JOBS)) \
		$(if $(SERVE_JSON),--json $(SERVE_JSON))

# CI SLO gate: boot a 2-shard consistent-hash routed tier over a
# throwaway shared cache, replay zipf-skewed run/bench/sweep traffic,
# write the BENCH_serve.json artifact (+ router log) and fail on any
# SLO violation — p99 under load, sustained QPS, zero errors, zero
# dropped in-flight requests on drain, byte-identical sampled replies
# (docs/SERVING.md).
serve-load:
	$(PYTHON) -m repro loadgen --smoke $(if $(JOBS),--jobs $(JOBS)) \
		--json $(or $(SERVE_LOAD_JSON),BENCH_serve.json) \
		--router-log $(or $(ROUTER_LOG),router.log)

# CI chaos gate: boot a supervised 2-shard tier, replay the pinned-seed
# fault schedule (shard SIGKILL + SIGSTOP stall mid-load), write the
# BENCH_chaos.json artifact (+ router/shard logs) and fail on any chaos
# SLO violation — zero lost, zero duplicated, bounded MTTR, ring back
# to full strength (docs/RELIABILITY.md).
chaos-smoke:
	$(PYTHON) -m repro chaos --smoke \
		--json $(or $(CHAOS_JSON),BENCH_chaos.json) \
		--router-log $(or $(ROUTER_LOG),router.log) \
		--log-dir $(or $(CHAOS_LOGS),chaos-logs)

# Regenerate benchmarks/results/ (shares the sweep via the disk cache).
figures:
	$(PYTHON) -m pytest -q benchmarks/

# Host-side simulator performance: reference loop vs trace engine, and
# attributed reference loop vs attributed blocks, over the figure-5
# sweep; writes BENCH_simperf.json.
perfbench:
	$(PYTHON) tools/perfbench.py --out BENCH_simperf.json

clean-cache:
	rm -rf benchmarks/.cache
