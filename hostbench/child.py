"""One workload process: set-up, then (unless ``--mode setup``) the timed
phase.  Started by ``run.py``; speaks JSON lines on stdout.

The first line, printed the moment set-up is done, carries the
``time.monotonic()`` reading at that instant, less the time the
calibration kernel took between set-up steps (the launcher subtracts its
own reading taken just before starting this process, so interpreter
start and imports are inside ``setup_s``), and the calibration kernel
timings taken during and right after set-up.  The second line carries
the measurements.
"""

import argparse
import json
import os
import sys
import time

import common

# Protocol lines go to the real stdout; anything else the program might
# print is sent to stderr.
_PROTOCOL = sys.stdout
sys.stdout = sys.stderr

#: A timed phase that has not reached its minimum op count after this
#: many seconds gives up: the run is too slow to measure.
HARD_LIMIT_S = 150.0


def _emit(payload):
    _PROTOCOL.write(json.dumps(payload) + "\n")
    _PROTOCOL.flush()


def timed_phase(workload, seconds, min_ops, tracer=None):
    """Issue the seed's ops one at a time (closed loop) for ``seconds``
    and at least ``min_ops`` ops, stopping only at the end of a round;
    returns ``(records, calibrations, peak RSS in KiB)``.

    Whole rounds (a sweep pass, one run of every hot cell, a block of
    19 requests) give every run the same mix of ops, whatever the
    seed; only the order changes.  The calibration kernel runs between
    every two ops, i.e. right before and right after each timed op.
    Only ``execute`` is timed; bookkeeping and checks happen outside.

    With a ``tracer``, rounds alternate traced and untraced (starting
    traced), so the two halves share the machine's drift and the
    process's warm-up and the difference between them is the tracing
    overhead.
    """
    calibrations = [common.calibrate()]
    records = []
    peak_rss_kb = None
    # VmHWM only grows: reading it after a fixed number of whole rounds
    # makes it cover the same ops on every run of a seed.
    peak_at = -(-min_ops // workload.round_ops) * workload.round_ops
    started = time.monotonic()
    schedule = workload.schedule()
    index = 0
    traced = False
    while index < min_ops or index % workload.round_ops \
            or time.monotonic() - started < seconds:
        if time.monotonic() - started > HARD_LIMIT_S:
            raise RuntimeError("timed phase too slow: %d ops in %.0f s"
                               % (index, HARD_LIMIT_S))
        if tracer is not None and index % workload.round_ops == 0:
            traced = (index // workload.round_ops) % 2 == 0
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
        spec = next(schedule)
        workload.begin(index, spec)
        if traced:
            tracer.op = index
            span = tracer.begin("op")
        t0 = time.perf_counter()
        outcome = workload.execute(spec)
        latency = time.perf_counter() - t0
        if traced:
            tracer.end(span)
            tracer.op = -1
        record = workload.check(spec, outcome)
        record.latency = latency
        record.traced = traced
        records.append(record)
        index += 1
        if index == peak_at:
            peak_rss_kb = workload.peak_rss_kb()
        calibrations.append(common.calibrate())
    if tracer is not None:
        tracer.uninstall()
    return records, calibrations, peak_rss_kb


def end_to_end(records, calibrations, min_ops, peak_rss_kb):
    """Drift-corrected end-to-end metrics of one timed phase (all but
    ``setup_s``, which the launcher measures)."""
    factor = common.drift_factor(calibrations)
    latencies = [r.latency for r in records]
    busy = sum(latencies) * factor
    return {
        "p50_ms": common.median(latencies) * factor * 1e3,
        "p90_ms": common.p90(latencies) * factor * 1e3,
        "ops_per_s": sum(1 for r in records if r.ok) / busy,
        "sim_mips": sum(r.instructions for r in records) / busy / 1e6,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "sim_mcycles": sum(r.cycles for r in records[:min_ops]) / 1e6,
    }


def raw_figures(records):
    latencies = [r.latency for r in records]
    return {"raw_p50_ms": common.median(latencies) * 1e3,
            "raw_ops_per_s": sum(1 for r in records if r.ok)
            / sum(latencies)}


def counter_figures(records):
    """Deterministic modelled-machine figures from the ops' returned
    counters, summed and read through the program's own definitions."""
    from repro.uarch.counters import Counters
    total = Counters()
    for record in records:
        if record.counters is None:
            continue
        for name in ("core_instructions", "host_instructions", "cycles",
                     "icache_misses", "dcache_misses", "branch_mispredicts",
                     "type_hits", "type_misses"):
            setattr(total, name, getattr(total, name)
                    + getattr(record.counters, name))
    return {
        "uarch.cpi": total.cpi,
        "uarch.icache_mpki": total.icache_mpki,
        "uarch.dcache_mpki": total.dcache_mpki,
        "uarch.branch_mpki": total.branch_mpki,
        "sim.type_hit_rate": total.type_hit_rate,
    }


def span_figures(tracer, factor):
    """Per-layer host figures from the spans, drift-corrected."""
    figures = tracer.layer_figures()

    def median_ms(name):
        entry = figures.get(name)
        return common.median(entry["self_ms"]) * factor if entry else 0.0

    def total_ms(name):
        entry = figures.get(name)
        return sum(entry["self_ms"]) * factor if entry else 0.0

    run = figures.get("uarch.run")
    quicken = figures.get("analysis.quicken")
    tables = tracer.table_counts()
    return {
        "engines.compile_ms": median_ms("engines.compile"),
        "engines.prepare_ms": median_ms("engines.prepare"),
        "sim.memory_init_ms": median_ms("sim.memory_init"),
        "sim.blocks_compiled": tables["blocks_compiled"],
        "sim.block_compile_ms": total_ms("sim.block_compile"),
        "sim.traces_formed": tables["traces_formed"],
        "sim.traces_retired": tables["traces_retired"],
        "sim.trace_record_ms": total_ms("sim.trace_record"),
        "sim.compile_failures": tables["compile_failures"],
        "uarch.run_ms": median_ms("uarch.run"),
        "uarch.run_mips": sum(run["values"]) / (run["inclusive_s"] * factor)
        / 1e6 if run else 0.0,
        "isa.assemblies": figures.get("isa.assemble", {}).get("count", 0),
        "isa.assemble_ms": median_ms("isa.assemble"),
        "analysis.quicken_ms": median_ms("analysis.quicken"),
        "analysis.sites": common.median(quicken["values"]) if quicken
        else 0,
        "bench.cache_store_ms": median_ms("bench.cache_store"),
    }


def trace_overhead_pct(records):
    """How much longer an op takes traced than untraced, in percent: the
    median over op labels of their traced-to-untraced median latency
    ratio, over ops simulated (not cache-served) in both."""
    latencies = {}
    for r in records:
        if r.ok and not r.cached:
            latencies.setdefault(r.label, ([], []))[not r.traced].append(
                r.latency)
    ratios = [common.median(traced) / common.median(untraced)
              for traced, untraced in latencies.values()
              if traced and untraced]
    return 100.0 * (common.median(ratios) - 1.0) if ratios else 0.0


def run_traced(workload, tracer, seconds, min_ops, span_path):
    """One timed phase alternating traced and untraced rounds, then the
    end-of-run checks, traced; returns the records, the checks' report
    and the per-layer metrics."""
    # At least one traced and one untraced round.
    records, calibrations, _peak = timed_phase(
        workload, seconds, max(min_ops, 2 * workload.round_ops), tracer)
    # serve-zipf's in-process reference runs happen here: its engine,
    # simulator and uarch host figures come from them.
    tracer.install()
    report = workload.finish()
    tracer.uninstall()
    factor = common.drift_factor(calibrations)
    traced = [r for r in records if r.traced]
    metrics = {name: 0.0 for name, _unit in common.PER_LAYER}
    metrics.update(span_figures(tracer, factor))
    # Counters do not depend on tracing: the same op prefix every run.
    metrics.update(counter_figures(records[:min_ops]))
    metrics.update(workload.layer_metrics(traced, factor))
    raw = raw_figures([r for r in records if not r.traced])
    metrics["harness.calib_ms"] = common.median(calibrations) * 1e3
    metrics["harness.raw_p50_ms"] = raw["raw_p50_ms"]
    metrics["harness.raw_ops_per_s"] = raw["raw_ops_per_s"]
    metrics["harness.trace_overhead_pct"] = trace_overhead_pct(records)
    tracer.write(span_path)
    return records, report, metrics


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=common.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=common.MIN_OPS)
    parser.add_argument("--mode", choices=("setup", "full"), default="full")
    parser.add_argument("--run-dir", required=True)
    args = parser.parse_args(argv)

    import tracing
    from workloads import WORKLOADS

    tracer = tracing.Tracer().install() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.run_dir)
    try:
        workload.setup()
        ready_at = time.monotonic() - workload.calib_spent
        _emit({"ready_at": ready_at,
               "calib": workload.setup_calib
               + [common.calibrate()
                  for _ in range(common.SETUP_CALIBRATIONS)]})
        if args.mode == "setup":
            return 0
        if tracer is not None:
            records, report, metrics = run_traced(
                workload, tracer, args.seconds, args.min_ops,
                os.path.join(args.run_dir, "spans.jsonl"))
        else:
            records, calibrations, peak_rss_kb = timed_phase(
                workload, args.seconds, args.min_ops)
            report = workload.finish()
            metrics = end_to_end(records, calibrations, args.min_ops,
                                 peak_rss_kb)
            metrics["raw"] = raw_figures(records)
            metrics["raw"]["calib_ms"] = common.median(calibrations) * 1e3
            metrics["accuracy"] = workload.accuracy()
    finally:
        workload.close()
    failed = sum(1 for r in records if not r.ok)
    _emit({"attempted": len(records), "failed": failed,
           "checks_ok": report["checks_ok"], "metrics": metrics,
           "schedule": [r.label for r in records[:args.min_ops]]})
    return 0


if __name__ == "__main__":
    sys.path.insert(0, common.SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(common.SRC + os.sep):
        raise SystemExit("hostbench: imported repro from %s, not the "
                         "checkout" % repro.__file__)
    sys.exit(main())
