"""Performance gates: the sweep-regression gate and the serving SLO.

**Sweep gate.** The simulator is deterministic, so every metric of the
Section-7 sweep is a pure function of the source tree — which makes a
checked-in baseline a meaningful CI gate: any drift in speedups, MPKI
rates or type-check hit rates is a *behavioural* change someone made,
not noise.

``repro bench baseline`` regenerates ``benchmarks/results/baseline.json``
(do this, and commit the file, whenever a change intentionally shifts
the numbers); ``repro bench check`` recomputes the sweep (cache-aware)
and fails when any metric drifts beyond tolerance.

Tolerances are deliberately loose relative to determinism (default 2%
relative): they exist so that *intended* micro-adjustments (e.g. a
one-cycle latency tweak) fail loudly while float formatting or
dict-ordering differences never can.

**SLO gate.** :func:`check_slo` holds the serving line over a
``BENCH_serve.json`` artifact from ``repro loadgen``
(:mod:`repro.serve.loadgen`): p99 latency under load at the target
QPS, a sustained-throughput floor, bounded rejection rate, zero
errors, zero dropped in-flight requests on router drain, and
byte-identical counters on the sampled identity subset.  CI's
``serve-load`` job fails on it the same way ``perf-gate`` fails on the
sweep baseline; ``repro bench slo`` re-checks a saved artifact.
"""

import json
from dataclasses import dataclass

from repro.bench.workloads import BENCHMARK_ORDER
from repro.engines import BASELINE, CHECKED_LOAD, GATE_CONFIGS, TYPED
from repro.schema import SCHEMA_VERSION, SchemaError, require_artifact

#: The baseline payload version — an alias of the package-wide
#: :data:`repro.schema.SCHEMA_VERSION`; a mismatch fails the check
#: with a "regenerate the baseline" message rather than a diff storm.
BASELINE_VERSION = SCHEMA_VERSION

#: Metrics compared with *relative* tolerance.
RELATIVE_METRICS = ("speedup_typed", "speedup_chklb", "instructions",
                    "cycles")
#: Metrics compared with *absolute* tolerance (already-normalised rates
#: where a relative bound on a near-zero value is meaningless).
ABSOLUTE_METRICS = ("branch_mpki", "icache_mpki", "dcache_mpki",
                    "type_hit_rate")


@dataclass
class Violation:
    """One metric outside tolerance."""

    cell: str
    metric: str
    baseline: float
    current: float
    limit: float

    def describe(self):
        delta = self.current - self.baseline
        return "%-24s %-14s baseline=%-12.6g current=%-12.6g " \
            "drift=%+.6g (limit %.6g)" % (
                self.cell, self.metric, self.baseline, self.current,
                delta, self.limit)


def collect_metrics(records):
    """Reduce a sweep's records to the gated metric dict.

    Shape: ``{"engine/benchmark": {metric: value}}`` — flat enough to
    diff by eye in the committed JSON, structured enough to compare
    mechanically.

    Collection is deliberately pinned to :data:`GATE_CONFIGS` (the
    paper's triple) rather than the live registry: the committed
    baseline must stay comparable as schemes come and go, and
    :func:`compare` treats any extra metric as a violation.  Newly
    registered configs are gate-exempt until a new baseline covering
    them is generated and committed.
    """
    metrics = {}
    engines = sorted({key[0] for key in records})
    for engine in engines:
        for benchmark in BENCHMARK_ORDER:
            try:
                base = records[(engine, benchmark, BASELINE)]
                typed = records[(engine, benchmark, TYPED)]
                chklb = records[(engine, benchmark, CHECKED_LOAD)]
            except KeyError:
                continue
            cell = {}
            cell["speedup_typed"] = base.counters.cycles \
                / typed.counters.cycles
            cell["speedup_chklb"] = base.counters.cycles \
                / chklb.counters.cycles
            cell["type_hit_rate"] = typed.counters.type_hit_rate
            for config in GATE_CONFIGS:
                counters = records[(engine, benchmark, config)].counters
                cell["instructions/%s" % config] = counters.instructions
                cell["cycles/%s" % config] = counters.cycles
                cell["branch_mpki/%s" % config] = counters.branch_mpki
                cell["icache_mpki/%s" % config] = counters.icache_mpki
                cell["dcache_mpki/%s" % config] = counters.dcache_mpki
            metrics["%s/%s" % (engine, benchmark)] = cell
    return metrics


def write_baseline(path, records, note=""):
    """Serialise the gate metrics for ``records`` to ``path``."""
    payload = {
        "version": BASELINE_VERSION,
        "note": note or "regenerate with: repro bench baseline",
        "metrics": collect_metrics(records),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def load_baseline(path):
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) \
            or payload.get("version") != BASELINE_VERSION:
        raise ValueError(
            "baseline %s has version %r, expected %d — regenerate it "
            "with: repro bench baseline" % (
                path, payload.get("version") if isinstance(payload, dict)
                else None, BASELINE_VERSION))
    return payload


def _family(metric):
    """The tolerance family of a metric name (config suffix stripped)."""
    return metric.split("/", 1)[0]


def compare(baseline_metrics, current_metrics, rel_tol=0.02,
            abs_tol=0.05):
    """Compare two metric dicts; returns a list of :class:`Violation`.

    Relative-family metrics (speedups, instruction/cycle counts) fail
    on ``|cur - base| > rel_tol * |base|``; absolute-family metrics
    (MPKI, hit rates) on ``|cur - base| > abs_tol``.  A cell or metric
    present on only one side is itself a violation — shrinking the
    sweep must not silently pass the gate.
    """
    violations = []
    cells = sorted(set(baseline_metrics) | set(current_metrics))
    for cell in cells:
        base_cell = baseline_metrics.get(cell)
        cur_cell = current_metrics.get(cell)
        if base_cell is None or cur_cell is None:
            violations.append(Violation(
                cell=cell, metric="(missing)",
                baseline=float(base_cell is not None),
                current=float(cur_cell is not None), limit=0.0))
            continue
        for metric in sorted(set(base_cell) | set(cur_cell)):
            if metric not in base_cell or metric not in cur_cell:
                violations.append(Violation(
                    cell=cell, metric=metric,
                    baseline=base_cell.get(metric, float("nan")),
                    current=cur_cell.get(metric, float("nan")),
                    limit=0.0))
                continue
            base_value = float(base_cell[metric])
            cur_value = float(cur_cell[metric])
            if _family(metric) in RELATIVE_METRICS:
                limit = rel_tol * abs(base_value)
            else:
                limit = abs_tol
            if abs(cur_value - base_value) > limit:
                violations.append(Violation(
                    cell=cell, metric=metric, baseline=base_value,
                    current=cur_value, limit=limit))
    return violations


def check(baseline_path, records, rel_tol=0.02, abs_tol=0.05):
    """Load a baseline and gate ``records`` against it.

    Returns ``(violations, report_text)``; an empty list means the
    gate passes.
    """
    payload = load_baseline(baseline_path)
    current = collect_metrics(records)
    violations = compare(payload["metrics"], current,
                         rel_tol=rel_tol, abs_tol=abs_tol)
    if violations:
        lines = ["PERF GATE: %d metric(s) drifted beyond tolerance "
                 "(rel %.3g / abs %.3g):" % (len(violations), rel_tol,
                                             abs_tol)]
        lines += ["  " + violation.describe()
                  for violation in violations]
        lines.append("If the drift is intended, regenerate the "
                     "baseline: repro bench baseline --out %s"
                     % baseline_path)
        report = "\n".join(lines)
    else:
        report = "PERF GATE: ok — %d cells within tolerance " \
            "(rel %.3g / abs %.3g)" % (len(current), rel_tol, abs_tol)
    return violations, report


# -- the advisory host-throughput floor --------------------------------------

#: The floor is this fraction of the committed reference figure —
#: deliberately generous: host timing on shared CI runners is noisy in
#: a way the deterministic simulated metrics above are not, so this
#: advisory only catches order-of-magnitude regressions of the hot
#: loop (an accidentally disabled engine, a quadratic slip), never
#: jitter.
HOST_FLOOR_FRACTION = 0.5


def check_host_floor(records, simperf_path="BENCH_simperf.json",
                     fraction=HOST_FLOOR_FRACTION):
    """Advisory host-throughput floor against the committed perfbench
    artifact.

    Compares the sweep's observed host throughput (geomean simulated
    MIPS across ``records``) with ``geomean_mips_legacy`` from the
    stamped ``BENCH_simperf.json`` — the reference-loop figure, the
    slowest engine an attributed gate sweep can run on (it takes the
    attributed block engine unless telemetry is attached).  Returns
    ``(ok, text, details)``; **advisory only** — the caller prints the
    text (and may upload ``details``) but never fails the gate on it.
    An unreadable, unstamped or mismatched artifact skips the check
    with ``ok=True``.
    """
    import math

    try:
        with open(simperf_path) as handle:
            payload = json.load(handle)
        require_artifact(payload, "simperf")
    except (OSError, ValueError, SchemaError) as err:
        return True, "HOST FLOOR: skipped — %s" % err, None
    reference = float(payload.get("aggregate", {})
                      .get("geomean_mips_legacy") or 0.0)
    if reference <= 0.0:
        return (True, "HOST FLOOR: skipped — no geomean_mips_legacy in "
                "%s (regenerate with tools/perfbench.py)" % simperf_path,
                None)
    mips = [record.simulated_mips for record in records.values()
            if record.simulated_mips > 0.0]
    if not mips:
        return (True, "HOST FLOOR: skipped — no cell carries a MIPS "
                "figure", None)
    measured = math.exp(sum(math.log(v) for v in mips) / len(mips))
    floor = fraction * reference
    ok = measured >= floor
    details = {
        "reference_mips": reference,
        "measured_mips": round(measured, 3),
        "floor_mips": round(floor, 3),
        "fraction": fraction,
        "cells": len(mips),
        "ok": ok,
        "source": simperf_path,
    }
    if ok:
        text = ("HOST FLOOR: ok (advisory) — geomean %.3f MIPS over %d "
                "cell(s), floor %.3f (%.0f%% of committed %.3f)"
                % (measured, len(mips), floor, 100.0 * fraction,
                   reference))
    else:
        text = ("HOST FLOOR: below floor (advisory) — geomean %.3f MIPS "
                "over %d cell(s) under %.3f (%.0f%% of committed %.3f); "
                "the hot loop likely regressed — profile before "
                "regenerating %s"
                % (measured, len(mips), floor, 100.0 * fraction,
                   reference, simperf_path))
    return ok, text, details


# -- the serving SLO gate ----------------------------------------------------

#: Default SLO bounds for the serve-load gate (``repro loadgen``
#: against a 2-shard router on a cold CI runner; see docs/SERVING.md
#: for the policy).  ``p99_ms`` is deliberately generous — the first
#: requests pay worker-pool fork+warm — while the structural bounds
#: (zero errors, zero dropped on drain, identity) are exact.
DEFAULT_SLO = {
    "p99_ms": 5000.0,
    "min_qps_fraction": 0.5,
    "max_rejection_rate": 0.25,
    "max_error_rate": 0.0,
    "max_drain_dropped": 0,
    "require_identity": True,
}


def check_slo(report, **overrides):
    """Gate a ``BENCH_serve.json`` payload against the serving SLO.

    ``report`` is the stamped artifact dict from
    :func:`repro.serve.loadgen.make_report`; ``overrides`` replace
    individual :data:`DEFAULT_SLO` bounds (``None`` disables a bound).
    Returns ``(violations, text)`` like :func:`check` — an empty list
    means the SLO holds.
    """
    slo = dict(DEFAULT_SLO)
    unknown = set(overrides) - set(slo)
    if unknown:
        raise ValueError("unknown SLO bound(s): %s"
                         % ", ".join(sorted(unknown)))
    slo.update(overrides)
    try:
        require_artifact(report, "serve-load")
    except SchemaError as err:
        return (["artifact: %s" % err],
                "SLO GATE: unreadable artifact — %s" % err)

    violations = []
    latency = report.get("latency_ms", {})
    spec = report.get("spec", {})
    drain = report.get("drain", {})
    identity = report.get("identity", {})

    if slo["p99_ms"] is not None:
        p99 = float(latency.get("p99", float("inf")))
        if p99 > slo["p99_ms"]:
            violations.append(
                "p99 latency %.1fms exceeds the %.1fms bound"
                % (p99, slo["p99_ms"]))
    if slo["min_qps_fraction"] is not None:
        target = float(spec.get("qps", 0.0))
        sustained = float(report.get("sustained_qps", 0.0))
        floor = slo["min_qps_fraction"] * target
        if sustained < floor:
            violations.append(
                "sustained %.2f QPS below %.2f (%.0f%% of the %.2f "
                "target)" % (sustained, floor,
                             100.0 * slo["min_qps_fraction"], target))
    if slo["max_rejection_rate"] is not None:
        rejection = float(report.get("rejection_rate", 1.0))
        if rejection > slo["max_rejection_rate"]:
            violations.append(
                "rejection rate %.1f%% exceeds the %.1f%% bound"
                % (100.0 * rejection, 100.0 * slo["max_rejection_rate"]))
    if slo["max_error_rate"] is not None:
        errors = float(report.get("error_rate", 1.0))
        if errors > slo["max_error_rate"]:
            violations.append(
                "error rate %.1f%% exceeds the %.1f%% bound (samples: "
                "%s)" % (100.0 * errors,
                         100.0 * slo["max_error_rate"],
                         report.get("traffic", {}).get("error_samples")))
    if slo["max_drain_dropped"] is not None:
        if not drain.get("checked"):
            violations.append("drain was never exercised — zero-dropped "
                              "on drain is unverified")
        elif int(drain.get("dropped", 1)) > slo["max_drain_dropped"]:
            violations.append(
                "%d of %d in-flight request(s) dropped on drain "
                "(bound %d)" % (drain.get("dropped"),
                                drain.get("inflight_at_drain", 0),
                                slo["max_drain_dropped"]))
    if slo["require_identity"]:
        sampled = int(identity.get("sampled", 0))
        matched = int(identity.get("matched", -1))
        if sampled < 1:
            violations.append("identity subset is empty — served "
                              "counters were never cross-checked")
        elif matched != sampled:
            violations.append(
                "identity broken: served counters diverge from "
                "in-process execution on %d of %d sampled key(s): %s"
                % (sampled - matched, sampled,
                   identity.get("mismatched_keys")))

    if violations:
        lines = ["SLO GATE: %d violation(s):" % len(violations)]
        lines += ["  " + violation for violation in violations]
        text = "\n".join(lines)
    else:
        text = ("SLO GATE: ok — p99 %.1fms at %.2f sustained QPS, "
                "cache hit rate %.1f%%, rejections %.1f%%, "
                "%d/%d identity, 0 dropped on drain"
                % (float(latency.get("p99", 0.0)),
                   float(report.get("sustained_qps", 0.0)),
                   100.0 * float(report.get("cache_hit_rate", 0.0)),
                   100.0 * float(report.get("rejection_rate", 0.0)),
                   int(identity.get("matched", 0)),
                   int(identity.get("sampled", 0))))
    return violations, text


# -- the chaos SLO gate ------------------------------------------------------

#: Default bounds for the chaos gate (``repro chaos`` against a
#: supervised 2-shard tier; see docs/RELIABILITY.md).  The structural
#: bounds are exact: a self-healing tier under seeded faults loses
#: *nothing* and duplicates *nothing* — a killed shard's in-flight
#: work is re-dispatched (``retried``), overload is shed with a typed
#: rejection, and the ring is whole again at the end.  ``mttr`` is
#: generous for cold CI runners; the zero bounds are the gate.
DEFAULT_CHAOS_SLO = {
    "max_lost": 0,
    "max_duplicated": 0,
    "max_mttr_seconds": 30.0,
    "require_ring_full": True,
    "min_served": 1,
}


def check_chaos(report, **overrides):
    """Gate a ``BENCH_chaos.json`` payload against the chaos SLO.

    ``report`` is the stamped artifact dict from
    :func:`repro.serve.chaos.make_chaos_report`; ``overrides`` replace
    individual :data:`DEFAULT_CHAOS_SLO` bounds (``None`` disables
    one).  Returns ``(violations, text)`` like :func:`check_slo`.
    """
    slo = dict(DEFAULT_CHAOS_SLO)
    unknown = set(overrides) - set(slo)
    if unknown:
        raise ValueError("unknown chaos SLO bound(s): %s"
                         % ", ".join(sorted(unknown)))
    slo.update(overrides)
    try:
        require_artifact(report, "chaos")
    except SchemaError as err:
        return (["artifact: %s" % err],
                "CHAOS GATE: unreadable artifact — %s" % err)

    violations = []
    traffic = report.get("traffic", {})
    recovery = report.get("recovery", {})
    faults = report.get("faults", [])

    if slo["max_lost"] is not None:
        lost = int(traffic.get("lost", 1))
        if lost > slo["max_lost"]:
            violations.append(
                "%d request(s) LOST under faults (bound %d; samples: "
                "%s)" % (lost, slo["max_lost"],
                         traffic.get("lost_samples")))
    if slo["max_duplicated"] is not None:
        duplicated = int(traffic.get("duplicated", 1))
        if duplicated > slo["max_duplicated"]:
            violations.append(
                "%d duplicated terminal frame(s) (bound %d) — the "
                "re-dispatch journal failed its exactly-once contract"
                % (duplicated, slo["max_duplicated"]))
    if slo["max_mttr_seconds"] is not None:
        for fault in faults:
            mttr = fault.get("mttr_seconds")
            if mttr is None:
                violations.append(
                    "%s of shard %s never recovered"
                    % (fault.get("kind"), fault.get("shard")))
            elif mttr > slo["max_mttr_seconds"]:
                violations.append(
                    "%s of shard %s took %.2fs to recover (bound "
                    "%.2fs)" % (fault.get("kind"), fault.get("shard"),
                                mttr, slo["max_mttr_seconds"]))
    if slo["require_ring_full"] and not recovery.get("ring_full"):
        violations.append(
            "ring never returned to full strength: missing %s"
            % recovery.get("unrecovered"))
    if slo["min_served"] is not None:
        served = int(traffic.get("served", 0)) \
            + int(traffic.get("retried", 0))
        if served < slo["min_served"]:
            violations.append(
                "only %d request(s) served under faults (need %d) — "
                "the run proves nothing" % (served, slo["min_served"]))

    if violations:
        lines = ["CHAOS GATE: %d violation(s):" % len(violations)]
        lines += ["  " + violation for violation in violations]
        text = "\n".join(lines)
    else:
        text = ("CHAOS GATE: ok — %d served + %d retried, %d shed, "
                "0 lost, 0 duplicated across %d fault(s); max MTTR "
                "%.2fs, ring full"
                % (int(traffic.get("served", 0)),
                   int(traffic.get("retried", 0)),
                   int(traffic.get("shed", 0)), len(faults),
                   float(recovery.get("max_mttr_seconds", 0.0))))
    return violations, text
