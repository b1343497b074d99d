"""Fault-injection campaigns over the benchmark matrix.

A campaign takes every requested (engine, benchmark, config) cell,
fetches its golden run (served from the disk cache of
:mod:`repro.bench.cache` when available — the golden sweep is the
expensive part and is perfectly reusable), resolves one seeded
:class:`~repro.faults.plan.InjectionPlan` per (engine, benchmark)
against each config's golden instruction count, and fans the
individual injections across the hardened process pool of
:mod:`repro.bench.parallel` — a faulted run that wedges the simulator
is killed by the pool's per-task timeout, retried, and finally
quarantined to serial execution, exactly like a hung benchmark cell.

The report is deterministic by construction: it is assembled in task
order (not completion order), contains no wall-clock timestamps, and
every random choice flows from the campaign seed — the same seed
yields a byte-identical report at ``--jobs 1`` and ``--jobs N``.
"""

from repro.bench import runner
from repro.bench.parallel import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT,
    run_hardened,
)
from repro.bench.workloads import BENCHMARK_ORDER
from repro.engines import all_configs
from repro.faults.classify import (
    CLASSES,
    DETECTED,
    HANG,
    SDC,
    classify,
    detect_evidence,
    watchdog_budget,
)
from repro.faults.inject import FaultSession, tag_geometry
from repro.faults.plan import TARGETS, InjectionPlan, derive_seed
from repro.schema import require, stamp

#: Injections per (engine, benchmark, config) cell — 8 per target with
#: the default five targets; the CLI's ``--count`` overrides it.
DEFAULT_COUNT = 40

def run_injection(task):
    """Worker body: one faulted run, classified against its golden.

    ``task`` is a flat, hashable, picklable tuple —
    ``(engine, benchmark, config, scale, spec, golden_output,
    golden_instret, golden_detect)`` — so it can ride through the
    hardened executor's retry accounting unchanged.  The golden
    numbers travel *in* the task on purpose: workers never touch the
    result caches.
    """
    (engine, benchmark, config, scale, spec,
     golden_output, golden_instret, golden_detect) = task
    from repro import api
    from repro.bench.workloads import workload

    machine, runtime = api._prepare(
        engine, workload(benchmark).source(engine, scale), config=config,
        attribute=False)
    cpu = machine.cpu
    session = FaultSession(cpu, [spec],
                           geometry=tag_geometry(engine)).attach()
    budget = watchdog_budget(golden_instret)
    error = None
    try:
        machine.run(max_instructions=budget)
    except Exception as err:  # noqa: BLE001 — any abnormal halt is data
        error = err
    output = "".join(runtime.output)
    detect = (cpu.trt.misses, cpu.overflow_traps, cpu.chk_misses)
    outcome = classify(error, output, golden_output, detect,
                       golden_detect)
    return {
        "spec": spec.as_dict(),
        "class": outcome,
        "error": type(error).__name__ if error is not None else None,
        "applied": session.applied,
        "absorbed": session.absorbed,
        "instret": cpu.instret,
        "detect": list(detect),
    }


def _empty_tally():
    return {name: 0 for name in CLASSES}


def run_campaign(seed=0, count=DEFAULT_COUNT, engines=("lua", "js"),
                 benchmarks=BENCHMARK_ORDER, configs=None,
                 scales=None, targets=TARGETS, max_workers=None,
                 timeout=DEFAULT_TIMEOUT, retries=DEFAULT_RETRIES,
                 backoff=DEFAULT_BACKOFF, telemetry=None,
                 progress=None):
    """Run ``count`` injections per cell; returns the report dict.

    ``progress(done, total, result)`` fires per completed injection in
    completion order; ``telemetry`` (a :class:`repro.telemetry.Telemetry`
    bus) receives one ``fault``-category event per injection.  The
    report itself is independent of both and of ``max_workers``.
    """
    configs = all_configs() if configs is None else configs
    cells = []
    for engine in engines:
        for benchmark in benchmarks:
            scale = runner.resolve_scale(benchmark,
                                         (scales or {}).get(benchmark))
            for config in configs:
                cells.append((engine, benchmark, config, scale))

    # Golden runs first (cache-served when warm); one plan per
    # (engine, benchmark) so all configs face the same fault sequence.
    plans = {}
    tasks = []
    golden_meta = {}
    for engine, benchmark, config, scale in cells:
        record = runner.run_benchmark(engine, benchmark, config,
                                      scale=scale)
        golden_instret = record.counters.core_instructions
        golden_detect = detect_evidence(record.counters)
        golden_meta[(engine, benchmark, config)] = {
            "scale": scale, "golden_instret": golden_instret,
            "golden_detect": list(golden_detect)}
        plan_key = (engine, benchmark)
        if plan_key not in plans:
            plans[plan_key] = InjectionPlan(
                derive_seed(seed, engine, benchmark), count,
                targets=targets)
        for spec in plans[plan_key].resolve(golden_instret):
            tasks.append((engine, benchmark, config, scale, spec,
                          record.output, golden_instret, golden_detect))

    total = len(tasks)
    state = {"done": 0}

    def on_result(task, result):
        state["done"] += 1
        if telemetry is not None:
            telemetry.emit({"cat": "fault", "name": "injection",
                            "engine": task[0], "benchmark": task[1],
                            "config": task[2],
                            "target": result["spec"]["target"],
                            "index": result["spec"]["index"],
                            "class": result["class"]})
        if progress is not None:
            progress(state["done"], total, result)

    workers = max_workers or 1
    if workers > 1 and total > 1:
        results = run_hardened(run_injection, tasks,
                               max_workers=workers, timeout=timeout,
                               retries=retries, backoff=backoff,
                               on_result=on_result)
    else:
        results = {}
        for task in tasks:
            result = run_injection(task)
            results[task] = result
            on_result(task, result)

    return _build_report(seed, count, targets, cells, tasks, results,
                         golden_meta)


def _build_report(seed, count, targets, cells, tasks, results,
                  golden_meta):
    """Assemble the deterministic JSON-ready report, in task order."""
    report_cells = {}
    coverage = {}
    totals = _empty_tally()
    for task in tasks:
        engine, benchmark, config = task[0], task[1], task[2]
        result = results[task]
        key = (engine, benchmark, config)
        cell = report_cells.get(key)
        if cell is None:
            meta = golden_meta[key]
            cell = report_cells[key] = {
                "engine": engine, "benchmark": benchmark,
                "config": config, "scale": meta["scale"],
                "golden_instret": meta["golden_instret"],
                "golden_detect": meta["golden_detect"],
                "outcomes": _empty_tally(),
                "sdc_detail": {"silent": 0, "abort": 0},
                "by_target": {},
                "injections": [],
            }
        outcome = result["class"]
        target = result["spec"]["target"]
        cell["outcomes"][outcome] += 1
        if outcome == SDC:
            # Silent wrong output vs a guest-level (software guard)
            # abort: both are SDC in the four-way taxonomy, but guard
            # elision moves mass between them, so campaigns report the
            # split (see docs/ANALYSIS.md).
            kind = "silent" if result["error"] is None else "abort"
            cell["sdc_detail"][kind] += 1
        cell["by_target"].setdefault(target, _empty_tally())
        cell["by_target"][target][outcome] += 1
        cell["injections"].append(result)
        totals[outcome] += 1
        config_cov = coverage.setdefault(config, {})
        target_cov = config_cov.setdefault(
            target, {"detected": 0, "hang": 0, "total": 0})
        target_cov["total"] += 1
        if outcome == DETECTED:
            target_cov["detected"] += 1
        elif outcome == HANG:
            target_cov["hang"] += 1

    for config_cov in coverage.values():
        for target_cov in config_cov.values():
            target_cov["rate"] = round(
                target_cov["detected"] / target_cov["total"], 4) \
                if target_cov["total"] else 0.0

    return stamp({
        "seed": seed,
        "count_per_cell": count,
        "targets": list(targets),
        "classes": totals,
        "coverage": coverage,
        "cells": [report_cells[cell[:3]] for cell in cells
                  if cell[:3] in report_cells],
    })


def load_report(source):
    """Load and validate a campaign report (a path, a JSON string or
    an already-parsed dict); raises :class:`repro.schema.SchemaError`
    when the payload is from another schema version."""
    import json
    import os
    payload = source
    if isinstance(source, (str, bytes, os.PathLike)):
        if isinstance(source, str) and source.lstrip().startswith("{"):
            payload = json.loads(source)
        else:
            with open(source) as handle:
                payload = json.load(handle)
    return require(payload, "fault-campaign report")
