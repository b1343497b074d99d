"""Command-line interface: ``typedarch`` (or ``python -m repro``).

Subcommands:

* ``run`` — run one benchmark on one engine/config and print counters,
* ``sweep`` — run the full matrix (sharded over ``--jobs`` workers,
  persisted in the disk cache unless ``--no-disk-cache``) and print
  Figures 5-9 (``--attribution`` adds per-benchmark attribution),
* ``tables`` — print the static tables (1, 6, 7) and the Table 8 model,
* ``trace`` — instruction/bytecode traces (telemetry-sink tracers),
* ``profile`` — per-opcode hot table, TRT-miss attribution and
  optional Chrome trace for a benchmark or a ``.lua``/``.js`` script,
* ``faults`` — seeded fault-injection campaign over the matrix with a
  detection-coverage report (``--smoke`` runs the deterministic CI
  campaign; see docs/RELIABILITY.md),
* ``bench baseline``/``bench check`` — the CI performance gate,
* ``bench cache --verify`` — scan the result cache, quarantining any
  corrupt or truncated entries to ``<cache>/corrupt/``,
* ``serve`` — the persistent execution daemon: warm forked workers
  behind a localhost socket (``--smoke`` runs the acceptance harness;
  see docs/API.md),
* ``route`` — the consistent-hash front router over N serve shards
  (``--shards N`` spawns and owns them; see docs/SERVING.md),
* ``loadgen`` — synthetic run/bench/sweep traffic at a target QPS
  with zipf-skewed popularity; writes ``BENCH_serve.json`` and holds
  the SLO gate (``--smoke`` boots a 2-shard router and is the CI
  ``serve-load`` job),
* ``bench slo`` — re-check a saved ``BENCH_serve.json`` artifact,
* ``submit`` — submit a benchmark, script or sweep to a running
  daemon or router (also ``--status``/``--drain``/``--ping`` verbs).

Flag conventions, uniform across subcommands: ``--jobs`` (worker
processes), ``--cache-dir``/``--no-disk-cache`` (the persistent
result cache), ``--smoke`` (tiny deterministic CI variant) and
``--json PATH`` (machine-readable report).
"""

import argparse
import contextlib
import os
import sys

from repro.bench import cache as result_cache
from repro.bench import experiments
from repro.bench.runner import clear_cache, verify_outputs_match
from repro.bench.workloads import BENCHMARK_ORDER
from repro.engines import BASELINE, GATE_CONFIGS, TYPED


#: Log line format of ``serve``, ``route`` and ``--router-log``.
_LOG_FORMAT = "%(asctime)s %(name)s %(levelname)s %(message)s"


def _config_arg(value):
    """``type=`` validator for every ``--config`` flag.

    Resolved against the live tagging-scheme registry at *parse* time
    — ``choices=CONFIGS`` captured an import-time snapshot, so schemes
    registered after :mod:`repro.cli` was imported were rejected.
    """
    from repro.engines import all_configs, is_registered
    if not is_registered(value):
        raise argparse.ArgumentTypeError(
            "unknown config %r (registered: %s)"
            % (value, ", ".join(all_configs())))
    return value


def _config_metavar():
    from repro.engines import all_configs
    return "{%s}" % ",".join(all_configs())


def _mix_arg(text):
    """``type=`` validator for ``loadgen --mix``: normalised
    ``op=weight`` pairs over run/bench/sweep."""
    mix = {}
    for part in text.split(","):
        name, sep, value = part.partition("=")
        name = name.strip()
        try:
            weight = float(value)
        except ValueError:
            weight = -1.0
        if not sep or name not in ("run", "bench", "sweep") \
                or weight < 0:
            raise argparse.ArgumentTypeError(
                "mix must be op=weight pairs over run/bench/sweep, "
                "e.g. run=0.6,bench=0.4 (got %r)" % text)
        mix[name] = weight
    total = sum(mix.values())
    if total <= 0:
        raise argparse.ArgumentTypeError("mix weights must sum > 0")
    return {name: weight / total for name, weight in mix.items()}


def _cmd_run(args):
    from repro import api

    _configure_disk_cache(args)
    if args.smoke and args.scale is None:
        args.scale = 2
    result = None
    if args.model == "scoreboard":
        from repro.bench.workloads import workload
        from repro.uarch.scoreboard import ScoreboardMachine
        cpu, runtime, _program = api._vm(args.engine).prepare(
            workload(args.benchmark).source(args.engine, args.scale),
            args.config)
        counters = ScoreboardMachine(cpu).run()
        output = "".join(runtime.output)
    else:
        result = api.run(args.engine, args.benchmark, config=args.config,
                         scale=args.scale,
                         attribute=not args.no_attribution,
                         use_cache=not args.fresh)
        output, counters = result.output, result.counters
    counter_view = counters.as_dict()
    sys.stdout.write(output)
    print("--- counters (%s model) ---" % args.model)
    _print_counters(counter_view)
    if result is not None and result.wall_seconds:
        print("%-20s %.3f" % ("host_seconds", result.wall_seconds))
        print("%-20s %.3f" % ("simulated_mips", result.simulated_mips))
    if args.json:
        _write_json(args.json, {
            "engine": args.engine, "benchmark": args.benchmark,
            "config": args.config, "scale": args.scale,
            "model": args.model, "output": output,
            "counters": counter_view})
    return 0


def _print_counters(counter_view):
    """Print a counters dict's scalars, one per line."""
    for key, value in counter_view.items():
        if isinstance(value, dict):
            continue  # per-bytecode breakdowns; see ``profile``
        print("%-20s %s" % (key, value))


def _progress_printer(event):
    engine, benchmark, config = event.key
    if event.cached:
        status = "cache hit"
        if event.mips:
            status += " (%.2f MIPS recorded)" % event.mips
    else:
        status = "%.2fs, %.0fk instr/s" % (event.seconds,
                                           event.throughput / 1000.0)
    print("[%3d/%d] %s/%s [%s] %s" % (event.completed, event.total,
                                      engine, benchmark, config, status),
          file=sys.stderr)


def _configure_disk_cache(args):
    if getattr(args, "no_disk_cache", False):
        result_cache.disable()
    else:
        result_cache.configure(getattr(args, "cache_dir", None))


# -- uniform flag spellings -------------------------------------------------
#
# Every subcommand accepts the same canonical flags where they apply:
# ``--jobs N``, ``--cache-dir DIR`` / ``--no-disk-cache``, ``--smoke``
# and ``--json PATH``.

def _add_jobs_flag(parser, help_text="worker processes (default: all "
                                     "cores; 1 forces the serial path)"):
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help=help_text)


def _add_cache_flags(parser):
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="result cache location (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/typedarch)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="skip the persistent result cache")


def _add_smoke_flag(parser, help_text):
    parser.add_argument("--smoke", action="store_true", help=help_text)


def _add_json_flag(parser, help_text):
    parser.add_argument("--json", metavar="PATH", default=None,
                        help=help_text)


def _add_slo_flags(parser):
    """SLO bound overrides, shared by ``loadgen`` and ``bench slo``
    (defaults live in :data:`repro.bench.gate.DEFAULT_SLO`)."""
    parser.add_argument("--p99-ms", type=float, default=None,
                        dest="p99_ms", metavar="MS",
                        help="p99 latency bound under load")
    parser.add_argument("--min-qps-fraction", type=float, default=None,
                        dest="min_qps_fraction", metavar="F",
                        help="sustained qps must reach F * target qps")
    parser.add_argument("--max-rejection-rate", type=float,
                        default=None, dest="max_rejection_rate",
                        metavar="F", help="busy rejection ceiling")
    parser.add_argument("--max-error-rate", type=float, default=None,
                        dest="max_error_rate", metavar="F",
                        help="hard error ceiling (default 0)")
    parser.add_argument("--max-drain-dropped", type=int, default=None,
                        dest="max_drain_dropped", metavar="N",
                        help="in-flight requests allowed to drop on "
                             "drain (default 0)")
    parser.add_argument("--no-identity", action="store_true",
                        help="skip the byte-identical sampled-replies "
                             "requirement")


def _add_chaos_slo_flags(parser):
    """Chaos SLO bound overrides, shared by ``chaos`` and ``bench
    slo`` (defaults live in
    :data:`repro.bench.gate.DEFAULT_CHAOS_SLO`)."""
    parser.add_argument("--max-lost", type=int, default=None,
                        dest="max_lost", metavar="N",
                        help="requests allowed to be lost under "
                             "faults (default 0)")
    parser.add_argument("--max-duplicated", type=int, default=None,
                        dest="max_duplicated", metavar="N",
                        help="duplicated terminal frames allowed "
                             "(default 0)")
    parser.add_argument("--max-mttr-seconds", type=float, default=None,
                        dest="max_mttr_seconds", metavar="SECONDS",
                        help="per-fault recovery time bound "
                             "(default 30)")
    parser.add_argument("--min-served", type=int, default=None,
                        dest="min_served", metavar="N",
                        help="served+retried floor that makes the run "
                             "meaningful (default 1)")
    parser.add_argument("--no-ring-full", action="store_true",
                        help="skip the ring-returns-to-full-strength "
                             "requirement")


def _chaos_slo_overrides(args):
    """Chaos SLO bound overrides actually set on the command line."""
    overrides = {}
    for name in ("max_lost", "max_duplicated", "max_mttr_seconds",
                 "min_served"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "no_ring_full", False):
        overrides["require_ring_full"] = False
    return overrides


def _write_json(path, payload):
    import json
    from repro.schema import stamp
    with open(path, "w") as handle:
        json.dump(stamp(dict(payload)), handle, indent=1, sort_keys=True)
    print("wrote %s" % path)


def _cmd_sweep_smoke(args):
    """One-benchmark parallel sweep over *every* registered config
    against a throwaway disk cache: run cold, clear the memory cache,
    run warm, check the warm pass was pure cache hits with identical
    records, and render the N-config figure 5/9 tables (CI uploads
    the output as an artifact).  ``make sweep`` runs this."""
    import tempfile
    from repro.bench.parallel import run_matrix_parallel
    from repro.engines import all_configs

    configs = all_configs()
    kwargs = dict(engines=("lua",), benchmarks=("fibo",),
                  configs=configs, scales={"fibo": 8},
                  max_workers=args.jobs or 2)
    with tempfile.TemporaryDirectory() as tmp:
        with result_cache.temporary(args.cache_dir or tmp):
            clear_cache()
            cold, warm = [], []
            records = run_matrix_parallel(progress=cold.append, **kwargs)
            clear_cache()
            again = run_matrix_parallel(progress=warm.append, **kwargs)
    clear_cache()
    hits = sum(1 for event in warm if event.cached)
    identical = list(records) == list(again) and all(
        records[key].output == again[key].output
        and records[key].counters == again[key].counters
        for key in records)
    mismatches = verify_outputs_match(records)
    ok = identical and not mismatches \
        and len(records) == len(warm) == hits
    fig5 = experiments.figure5(records)
    fig9 = experiments.figure9(records)
    gradual = experiments.figure_gradual(records)
    print(experiments.render_figure5(fig5))
    print()
    print(experiments.render_figure9(fig9))
    print()
    if gradual:
        print(experiments.render_figure_gradual(gradual))
        print()
    print("sweep smoke: %d cells over %d configs (%s) | cold hits %d | "
          "warm hits %d/%d | records %s | outputs %s"
          % (len(records), len(configs), ", ".join(configs),
             sum(1 for event in cold if event.cached),
             hits, len(warm),
             "identical" if identical else "MISMATCH",
             "match" if not mismatches else "MISMATCH %s" % mismatches))
    print("sweep smoke: %s" % ("OK" if ok else "FAILED"))
    if args.json:
        _write_json(args.json, {"configs": list(configs),
                                "figure5": fig5, "figure9": fig9,
                                "gradual": gradual})
    return 0 if ok else 1


def _quick_scales(args):
    """``--quick``'s input scales: every benchmark's default halved
    (at least 2); ``None`` (the defaults) without the flag."""
    if not args.quick:
        return None
    from repro.bench.workloads import WORKLOADS
    return {name: max(2, spec.default_scale // 2)
            for name, spec in WORKLOADS.items()}


def _cmd_sweep(args):
    from repro.bench.parallel import run_matrix_parallel

    if args.smoke:
        return _cmd_sweep_smoke(args)
    _configure_disk_cache(args)
    records = run_matrix_parallel(
        scales=_quick_scales(args), max_workers=args.jobs,
        progress=_progress_printer if args.verbose else None)
    mismatches = verify_outputs_match(records)
    if mismatches:
        print("OUTPUT MISMATCH across configs: %s" % mismatches)
        return 1
    print(experiments.render_figure2a(experiments.figure2a(records)))
    print()
    print(experiments.render_figure2b(experiments.figure2b(records)))
    print()
    print(experiments.render_figure5(experiments.figure5(records)))
    print()
    print(experiments.render_figure6(experiments.figure6(records)))
    print()
    print(experiments.render_figure7(experiments.figure7(records)))
    print()
    print(experiments.render_figure8(experiments.figure8(records)))
    print()
    print(experiments.render_figure9(experiments.figure9(records)))
    print()
    print(experiments.render_figure9_detail(
        experiments.figure9_detail(records)))
    print()
    gradual = experiments.figure_gradual(records)
    if gradual:
        print(experiments.render_figure_gradual(gradual))
        print()
    _summary, text = experiments.table8(records)
    print(text)
    if args.attribution:
        print()
        print(experiments.render_attribution(
            experiments.attribution(records)))
    if args.json:
        import json
        with open(args.json, "w") as handle:
            json.dump(experiments.to_json(records), handle, indent=1,
                      sort_keys=True)
        print("\nwrote %s" % args.json)
    return 0


def _cmd_trace(args):
    from repro import api
    from repro.bench.workloads import workload
    from repro.sim.trace import BytecodeTracer, InstructionTracer

    engine_vm = api._vm(args.engine)
    cpu, runtime, program = engine_vm.prepare(
        workload(args.benchmark).source(args.engine, args.scale),
        args.config)
    if args.bytecodes:
        _prog, attribution = engine_vm.interpreter_program(args.config)
        entry_points = {
            program.base + 4 * index: attribution.entry_names[entry_id]
            for index, entry_id in enumerate(attribution.entry_of)
            if entry_id >= 0}
        tracer = BytecodeTracer(cpu, entry_points, limit=args.limit)
        tracer.run(max_instructions=args.max_instructions)
        print(tracer.format())
        print()
        for name, count in sorted(tracer.counts.items(),
                                  key=lambda kv: (-kv[1], kv[0])):
            print("%-12s %d" % (name, count))
    else:
        tracer = InstructionTracer(cpu, limit=args.limit)
        tracer.run(max_instructions=args.max_instructions)
        print(tracer.format())
    sys.stdout.write(("".join(runtime.output)) and
                     "--- output ---\n" + "".join(runtime.output) or "")
    if args.json:
        payload = {"benchmark": args.benchmark, "engine": args.engine,
                   "config": args.config, "scale": args.scale,
                   "trace": tracer.format()}
        if args.bytecodes:
            payload["counts"] = dict(tracer.counts)
        _write_json(args.json, payload)
    return 0


def _cmd_profile(args):
    """Telemetry-backed profile: per-opcode hot table and TRT
    attribution for one benchmark or a ``.lua``/``.js`` script."""
    from repro.telemetry import (render_opcode_table, render_trt_table,
                                 run_profile)

    if args.smoke and args.scale is None:
        args.scale = 2
    result = run_profile(args.target, engine=args.engine,
                         config=args.config, scale=args.scale,
                         chrome_trace=args.chrome_trace,
                         events_path=args.events)
    print(render_opcode_table(result, top=args.top))
    print()
    print(render_trt_table(result, top=args.top))
    if args.buckets:
        counters = result.counters
        total = counters.core_instructions
        print()
        print("%-28s %12s %7s" % ("handler bucket", "instructions",
                                  "share"))
        print("-" * 49)
        shown = 0
        buckets = sorted(counters.bucket_instructions.items(),
                         key=lambda kv: (-kv[1], kv[0]))
        for name, instructions in buckets[:args.top]:
            if not instructions:
                break
            shown += instructions
            print("%-28s %12d %6.1f%%" % (name, instructions,
                                          100.0 * instructions / total))
        print("%-28s %12d %6.1f%%" % ("(other)", total - shown,
                                      100.0 * (total - shown) / total))
    if args.chrome_trace:
        print("\nwrote Chrome trace: %s (load in Perfetto or "
              "chrome://tracing)" % args.chrome_trace)
    if args.events:
        print("wrote event log: %s" % args.events)
    if args.show_output and result.output:
        sys.stdout.write("--- output ---\n" + result.output)
    if args.json:
        _write_json(args.json, {
            "target": args.target, "engine": args.engine,
            "config": args.config, "scale": args.scale,
            "counters": result.counters.as_dict(),
            "opcode_table": render_opcode_table(result, top=args.top),
            "trt_table": render_trt_table(result, top=args.top)})
    return 0


def _render_faults_report(report):
    lines = []
    classes = report["classes"]
    total = sum(classes.values()) or 1
    lines.append("fault campaign: seed %d, %d injections per cell, "
                 "%d total" % (report["seed"], report["count_per_cell"],
                               sum(classes.values())))
    lines.append("  " + "  ".join("%s %d (%.1f%%)"
                                  % (name, count, 100.0 * count / total)
                                  for name, count in classes.items()))
    lines.append("")
    lines.append("detection coverage (detected/total) by config x target:")
    targets = report["targets"]
    width = max([len("config")]
                + [len(config) for config in report["coverage"]])
    header = "%-*s" % (width, "config") \
        + "".join("%14s" % t for t in targets)
    lines.append(header)
    lines.append("-" * len(header))
    for config, coverage in report["coverage"].items():
        row = "%-*s" % (width, config)
        for target in targets:
            cell = coverage.get(target)
            row += "%14s" % ("%d/%d" % (cell["detected"], cell["total"])
                             if cell else "-")
        lines.append(row)
    return "\n".join(lines)


def _faults_progress(done, total, result):
    spec = result["spec"]
    print("[%3d/%d] %s@%d -> %s" % (done, total, spec["target"],
                                    spec["index"], result["class"]),
          file=sys.stderr)


def _cmd_faults_smoke(args):
    """Tiny fixed-seed campaign run at --jobs 1 and --jobs 2: asserts
    the reports are byte-identical (determinism across worker counts)
    and that every config whose scheme declares hardware type checks
    detects strictly more injected tag-plane corruptions than
    baseline.  ``make faults-smoke`` runs this."""
    import json
    import tempfile
    from repro.engines import hardware_check_configs
    from repro.faults import run_campaign

    kwargs = dict(seed=args.seed, count=args.count or 25,
                  engines=("lua",), benchmarks=("fibo",),
                  scales={"fibo": 10})
    with tempfile.TemporaryDirectory() as tmp:
        with result_cache.temporary(args.cache_dir or tmp):
            clear_cache()
            serial = run_campaign(max_workers=1, **kwargs)
            clear_cache()
            parallel = run_campaign(max_workers=args.jobs or 2, **kwargs)
    clear_cache()
    identical = json.dumps(serial, sort_keys=True) \
        == json.dumps(parallel, sort_keys=True)

    def tag_detections(config):
        return serial["coverage"].get(config, {}).get("mem_tag", {}) \
            .get("detected", 0)

    # Derived from the registry, not a hard-coded ("typed", "chklb")
    # tuple, so newly registered hardware-checked schemes are covered
    # automatically.
    detect_configs = hardware_check_configs()
    base_hits = tag_detections("baseline")
    tag_margin = all(tag_detections(config) > base_hits
                     for config in detect_configs)

    def cell_for(config):
        for cell in serial["cells"]:
            if cell["config"] == config:
                return cell
        return None

    # Guard elision and the software baseline face the identical fault
    # sequence; the reliability cost of removing guards is a *shift
    # within SDC*: the guards' guest-visible aborts disappear and
    # truly silent corruptions appear (see docs/ANALYSIS.md).
    base_cell, elided_cell = cell_for("baseline"), cell_for("elided")
    elision_shift = True  # vacuous without both software cells
    if base_cell is not None and elided_cell is not None:
        base_sdc, elided_sdc = (base_cell["sdc_detail"],
                                elided_cell["sdc_detail"])
        elision_shift = (elided_sdc["silent"] > base_sdc["silent"]
                         and elided_sdc["abort"] < base_sdc["abort"])
    print(_render_faults_report(serial))
    print()
    print("faults smoke: reports %s | tag-plane detections %s "
          "> baseline %d: %s"
          % ("identical" if identical else "MISMATCH",
             " / ".join("%s %d" % (config, tag_detections(config))
                        for config in detect_configs),
             base_hits, "yes" if tag_margin else "NO"))
    if base_cell is not None and elided_cell is not None:
        print("faults smoke: elision SDC shift "
              "(silent %d -> %d, guard aborts %d -> %d): %s"
              % (base_sdc["silent"], elided_sdc["silent"],
                 base_sdc["abort"], elided_sdc["abort"],
                 "yes" if elision_shift else "NO"))
    ok = identical and tag_margin and elision_shift
    print("faults smoke: %s" % ("OK" if ok else "FAILED"))
    if args.json:
        _write_json(args.json, serial)
    return 0 if ok else 1


def _cmd_faults(args):
    from repro.faults import run_campaign

    if args.smoke:
        return _cmd_faults_smoke(args)
    _configure_disk_cache(args)
    report = run_campaign(
        seed=args.seed, count=args.count or 40,
        engines=tuple(args.engine) if args.engine else ("lua", "js"),
        benchmarks=tuple(args.benchmark) if args.benchmark
        else BENCHMARK_ORDER,
        scales=_quick_scales(args), max_workers=args.jobs,
        progress=_faults_progress if args.verbose else None)
    print(_render_faults_report(report))
    if args.json:
        import json
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
        print("\nwrote %s" % args.json)
    return 0


def _cmd_bench_cache(args):
    """Scan the disk cache for damaged entries (``bench cache``)."""
    _configure_disk_cache(args)
    cache = result_cache.active_cache()
    if cache is None:
        print("disk cache is disabled")
        return 1
    if not args.verify:
        print("cache %s: %d entries for the current tree (%s)"
              % (cache.root, len(cache), cache.tree_hash))
        return 0
    report = cache.verify(quarantine=not args.no_quarantine)
    for path, reason in report["damaged"]:
        print("damaged: %s (%s)" % (path, reason))
    print("cache %s: %d scanned, %d valid, %d stale, %d damaged, "
          "%d quarantined" % (cache.root, report["scanned"],
                              report["valid"], report["stale"],
                              len(report["damaged"]),
                              report["quarantined"]))
    return 0


def _cmd_bench(args):
    if args.bench_command == "cache":
        return _cmd_bench_cache(args)
    if args.bench_command == "slo":
        return _cmd_bench_slo(args)
    """Perf-gate subcommands: regenerate or check the sweep baseline."""
    from repro.bench import gate
    from repro.bench.parallel import run_matrix_parallel

    if args.bench_command == "check" and args.smoke:
        # Compatibility probe only: the committed baseline must load
        # under the current SCHEMA_VERSION.  No sweep is run.
        try:
            payload = gate.load_baseline(args.baseline)
        except (OSError, ValueError) as err:
            print("bench check smoke: %s" % err)
            return 1
        print("bench check smoke: %s loads (%d metrics, schema v%d): OK"
              % (args.baseline, len(payload.get("metrics", {})),
                 gate.BASELINE_VERSION))
        return 0
    _configure_disk_cache(args)
    # The gate is pinned to the original config triple (see
    # repro.bench.gate): sweeping additionally registered schemes here
    # would only burn time on cells the metric comparison ignores.
    records = run_matrix_parallel(configs=GATE_CONFIGS,
                                  max_workers=args.jobs)
    mismatches = verify_outputs_match(records)
    if mismatches:
        print("OUTPUT MISMATCH across configs: %s" % mismatches)
        return 1
    if args.bench_command == "baseline":
        gate.write_baseline(args.out, records)
        print("wrote %s (%d cells)" % (args.out,
                                       len(gate.collect_metrics(records))))
        return 0
    violations, report = gate.check(args.baseline, records,
                                    rel_tol=args.tolerance,
                                    abs_tol=args.abs_tolerance)
    print(report)
    # Advisory only: printed (and optionally exported for CI upload)
    # but never part of the exit code — host timing is noisy where the
    # simulated metrics above are deterministic.
    _ok, floor_text, floor_details = gate.check_host_floor(records)
    print(floor_text)
    if args.host_floor_json and floor_details is not None:
        _write_json(args.host_floor_json, floor_details)
    return 1 if violations else 0


def _cmd_serve_smoke(args):
    """The serve acceptance harness (``repro serve --smoke``; CI runs
    it as the ``serve-smoke`` job).  Boots the daemon as a one-shard
    :class:`~repro.serve.router.ShardManager` and checks the three
    acceptance properties:

    1. a ``bench`` request answered from the persistent result cache
       returns ``cached`` without ever building the worker pool,
    2. three concurrent ``run`` clients get counters byte-identical
       to an in-process :func:`repro.api.run` of the same source,
    3. SIGTERM drains the in-flight request before the daemon exits 0.
    """
    import json
    import signal as signal_mod
    import tempfile
    import threading

    from repro import api
    from repro.serve.client import ServeClient
    from repro.serve.router import ShardManager

    checks = {}
    jobs = 2 if args.jobs is None else args.jobs
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = args.cache_dir or os.path.join(tmp, "cache")

        # Seed one bench cell into the disk cache the daemon will use.
        with result_cache.temporary(cache_dir):
            clear_cache()
            seeded = api.run("lua", "fibo", scale=6, config=TYPED)
        clear_cache()

        manager = ShardManager(1, jobs=jobs, queue_depth=8,
                               cache_dir=cache_dir,
                               warm_engines=("lua", "js"), log_dir=tmp)
        try:
            manager.start(timeout=60)
        except RuntimeError as err:
            log = os.path.join(tmp, "shard-0.log")
            with open(log, errors="replace") as handle:
                print("serve smoke: daemon failed to start (%s)\n%s"
                      % (err, handle.read()))
            return 1
        sock = manager.specs[0].socket_path
        try:
            # 1. Cache hit first: the pool must still be cold after it.
            with ServeClient(socket_path=sock, timeout=120) as client:
                hit = client.run("lua", "fibo", scale=6, config=TYPED)
                stats = client.status()
            checks["bench_cache_hit_no_worker"] = (
                hit.ok and hit.cached
                and hit.counters.as_dict() == seeded.counters.as_dict()
                and stats["pool"]["builds"] == 0
                and stats["pool"]["executed"] == 0)

            # 2. Three concurrent run clients, byte-identical counters.
            src = ("local s = 0\n"
                   "for i = 1, 2000 do s = s + i end\n"
                   "print(s)\n")
            expected = api.run("lua", src, config=TYPED)
            expected_blob = json.dumps(expected.counters.as_dict(),
                                       sort_keys=True)
            results = [None] * 3
            errors = []

            def one_client(index):
                try:
                    with ServeClient(socket_path=sock,
                                     timeout=120) as client:
                        results[index] = client.run("lua", src,
                                                    config=TYPED)
                except Exception as err:  # noqa: BLE001 - report below
                    errors.append(err)

            threads = [threading.Thread(target=one_client, args=(i,))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(180)
            checks["concurrent_identical_counters"] = (
                not errors and all(
                    result is not None and result.ok
                    and json.dumps(result.counters.as_dict(),
                                   sort_keys=True) == expected_blob
                    for result in results))
            if errors:
                print("serve smoke: concurrent client errors: %s"
                      % errors, file=sys.stderr)

            # 3. SIGTERM mid-flight: the result must still arrive and
            #    the daemon must exit cleanly once drained.
            slow_src = ("local s = 0\n"
                        "for i = 1, 120000 do s = s + i end\n"
                        "print(s)\n")
            started = threading.Event()
            box = {}

            def on_event(frame):
                if frame.get("event") == "started":
                    started.set()

            def slow_client():
                try:
                    with ServeClient(socket_path=sock,
                                     timeout=300) as client:
                        box["result"] = client.run(
                            "lua", slow_src, config=TYPED,
                            on_event=on_event)
                except Exception as err:  # noqa: BLE001 - report below
                    box["error"] = err

            thread = threading.Thread(target=slow_client)
            thread.start()
            if not started.wait(120):
                box.setdefault("error", "request never started")
            manager.procs[0].send_signal(signal_mod.SIGTERM)
            thread.join(300)
            exit_code = manager.procs[0].wait(timeout=120)
            drained = box.get("result")
            checks["sigterm_drains_inflight"] = (
                drained is not None and drained.ok and exit_code == 0)
            if "error" in box:
                print("serve smoke: drain client error: %s" % box["error"],
                      file=sys.stderr)
        finally:
            manager.stop()

    ok = all(checks.values()) and len(checks) == 3
    for name in sorted(checks):
        print("serve smoke: %-32s %s" % (name,
                                         "ok" if checks[name] else "FAIL"))
    print("serve smoke: %s" % ("OK" if ok else "FAILED"))
    if args.json:
        _write_json(args.json, {"ok": ok, "checks": checks, "jobs": jobs})
    return 0 if ok else 1


def _cmd_serve(args):
    if args.smoke:
        return _cmd_serve_smoke(args)
    import asyncio
    import logging

    from repro.serve.server import serve as serve_daemon

    _configure_disk_cache(args)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format=_LOG_FORMAT)
    workers = 2 if args.jobs is None else args.jobs
    if args.port is not None:
        socket_path, host = None, args.host or "127.0.0.1"
    else:
        socket_path, host = args.socket, None
        if socket_path == "auto":
            # Collision-free pick (fresh mkdtemp directory), so
            # parallel CI jobs can each boot a daemon without racing
            # for one well-known path.
            from repro.serve.server import free_socket_path
            socket_path = free_socket_path()

    def ready(server):
        where = server.socket_path or "%s:%d" % (server.host,
                                                 server.bound_port)
        print("serving on %s (workers=%d, queue depth %d)"
              % (where, workers, args.queue_depth), file=sys.stderr,
              flush=True)

    asyncio.run(serve_daemon(
        socket_path=socket_path, host=host, port=args.port, ready=ready,
        workers=workers, queue_depth=args.queue_depth,
        default_deadline=args.deadline,
        warm_engines=tuple(args.warm_engine or ("lua", "js")),
        warm_configs=tuple(args.warm_config) if args.warm_config
        else None))
    return 0


def _cmd_route(args):
    """The consistent-hash front router (``repro route``): fronts
    existing shards (``--shard``, repeatable) and/or spawns and owns
    its own (``--shards N``)."""
    import asyncio
    import logging

    from repro.serve.router import ShardManager, ShardSpec, route

    if not args.shard and not args.shards:
        print("route: give --shard ADDR (repeatable) for existing "
              "shards, or --shards N to spawn them", file=sys.stderr)
        return 2
    _configure_disk_cache(args)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format=_LOG_FORMAT)

    # No --socket (or "auto"): route() picks a collision-free path.
    socket_path = None if args.socket == "auto" else args.socket
    host = port = None
    if args.port is not None:
        socket_path, host, port = None, args.host or "127.0.0.1", \
            args.port

    try:
        specs = [ShardSpec.parse(item) for item in args.shard or ()]
    except ValueError as err:
        print("route: %s" % err, file=sys.stderr)
        return 2
    manager = None
    supervisor = None
    exit_code = 0
    try:
        if args.shards:
            manager = ShardManager(
                args.shards, jobs=1 if args.jobs is None else args.jobs,
                queue_depth=args.queue_depth, cache_dir=args.cache_dir,
                deadline=args.deadline,
                warm_engines=tuple(args.warm_engine or ("lua",)),
                warm_configs=tuple(args.warm_config)
                if args.warm_config else None)
            manager.start()
            specs = specs + list(manager.specs)
            if not args.no_supervise:
                # Owned shards are supervised: a dead shard process is
                # respawned (exponential backoff, crash-loop circuit
                # breaker) and rejoins the ring once probes pass.
                from repro.serve.supervisor import ShardSupervisor
                supervisor = ShardSupervisor(manager).start()

        def ready(server):
            where = server.socket_path or "%s:%d" % (server.host,
                                                     server.bound_port)
            print("routing on %s across %d shard(s)%s"
                  % (where, len(specs),
                     " [supervised]" if supervisor else ""),
                  file=sys.stderr, flush=True)

        asyncio.run(route(
            specs, socket_path=socket_path, host=host, port=port,
            ready=ready, replicas=args.replicas,
            health_interval=args.health_interval,
            busy_retries=args.retries, supervisor=supervisor,
            attempt_timeout=args.attempt_timeout, quorum=args.quorum))
    finally:
        if supervisor is not None:
            supervisor.stop()
        if manager is not None:
            codes = manager.drain()
            if any(codes):
                print("route: shard exit codes %s" % codes,
                      file=sys.stderr)
                exit_code = 1
    return exit_code


def _slo_overrides(args):
    """SLO bound overrides from the shared ``--p99-ms``-family flags
    (only the ones the user actually set)."""
    overrides = {}
    for name in ("p99_ms", "min_qps_fraction", "max_rejection_rate",
                 "max_error_rate", "max_drain_dropped"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "no_identity", False):
        overrides["require_identity"] = False
    return overrides


def _render_load_report(report):
    traffic = report["traffic"]
    latency = report["latency_ms"]
    identity = report["identity"]
    drain = report["drain"]
    lines = [
        "loadgen: %d offered at %.1f qps | %d completed | %d rejected "
        "| %d errors" % (traffic["offered"], report["spec"]["qps"],
                         traffic["completed"], traffic["rejected"],
                         traffic["errors"]),
        "loadgen: sustained %.2f qps over %.2fs | p50 %.0fms  p95 "
        "%.0fms  p99 %.0fms" % (report["sustained_qps"],
                                report["elapsed_seconds"],
                                latency["p50"], latency["p95"],
                                latency["p99"]),
        "loadgen: cache hit rate %.1f%% | coalesced %.1f%% | rejection "
        "rate %.1f%%" % (100.0 * report["cache_hit_rate"],
                         100.0 * report["coalesced_rate"],
                         100.0 * report["rejection_rate"]),
        "loadgen: identity %d/%d sampled replies byte-identical"
        % (identity["matched"], identity["sampled"]),
    ]
    if drain["checked"]:
        lines.append("loadgen: drain with %d in flight dropped %d"
                     % (drain["inflight_at_drain"], drain["dropped"]))
    return "\n".join(lines)


@contextlib.contextmanager
def _router_log(path):
    """``--router-log PATH``: copy the in-process serve tier's log
    records (the router's) to ``path`` while the block runs."""
    if not path:
        yield
        return
    import logging

    handler = logging.FileHandler(path, mode="w")
    handler.setFormatter(logging.Formatter(_LOG_FORMAT))
    tier_log = logging.getLogger("repro.serve")
    tier_log.addHandler(handler)
    if tier_log.level in (logging.NOTSET, logging.WARNING):
        tier_log.setLevel(logging.INFO)
    try:
        yield
    finally:
        tier_log.removeHandler(handler)
        handler.close()
        print("wrote %s" % path)


def _cmd_loadgen(args):
    """``repro loadgen``: synthetic traffic against a router or
    daemon, a ``BENCH_serve.json`` artifact and the SLO gate.
    ``--smoke`` self-boots a 2-shard routed tier (the CI
    ``serve-load`` job)."""
    import tempfile

    from repro.bench import gate
    from repro.serve import loadgen

    spec_kwargs = {}
    if args.smoke:
        # Sized for CI: ~48 requests over ~6s against 2 one-worker
        # shards, lua only, two configs (cheap pool warm-up).
        spec_kwargs.update(qps=8.0, duration=6.0, keys=12, threads=12,
                           configs=(BASELINE, TYPED))
    for name, value in (("qps", args.qps), ("duration", args.duration),
                        ("keys", args.keys), ("zipf_s", args.zipf),
                        ("seed", args.seed), ("threads", args.threads),
                        ("sample", args.sample),
                        ("timeout", args.timeout)):
        if value is not None:
            spec_kwargs[name] = value
    if args.mix:
        spec_kwargs["mix"] = args.mix
    if args.engine:
        spec_kwargs["engines"] = tuple(args.engine)
    if args.config:
        spec_kwargs["configs"] = tuple(args.config)
    spec = loadgen.LoadSpec(**spec_kwargs)

    json_path = args.json
    if args.smoke and json_path is None:
        json_path = "BENCH_serve.json"
    with _router_log(args.router_log):
        if args.smoke and args.socket is None and args.port is None:
            shards = args.shards or 2
            with tempfile.TemporaryDirectory() as tmp:
                cache_dir = args.cache_dir \
                    or os.path.join(tmp, "cache")
                # The router thread lives in *this* process: point its
                # cache probe (and the identity re-execution) at the
                # tier's shared root.
                with result_cache.temporary(cache_dir):
                    clear_cache()
                    tier = loadgen.LocalTier(
                        shards, jobs=1 if args.jobs is None
                        else args.jobs,
                        queue_depth=16, cache_dir=cache_dir,
                        warm_engines=spec.engines,
                        warm_configs=spec.resolved_configs(),
                        log_dir=tmp)
                    print("loadgen: booting %d-shard routed tier..."
                          % shards, file=sys.stderr, flush=True)
                    with tier:
                        report = loadgen.run_load(
                            spec, socket_path=tier.socket_path,
                            drain_check=not args.no_drain)
                    if tier.shard_exit_codes \
                            and any(tier.shard_exit_codes):
                        print("loadgen: shard exit codes %s"
                              % tier.shard_exit_codes, file=sys.stderr)
                clear_cache()
        else:
            if args.socket is None and args.port is None:
                print("loadgen: give --socket/--host/--port of a "
                      "running router or daemon, or use --smoke",
                      file=sys.stderr)
                return 2
            _configure_disk_cache(args)
            report = loadgen.run_load(
                spec, socket_path=args.socket,
                host=args.host if args.port else None, port=args.port,
                drain_check=not args.no_drain)

    stamped = loadgen.make_report(report)
    print(_render_load_report(report))
    if json_path:
        _write_json(json_path, stamped)
    violations, text = gate.check_slo(stamped, **_slo_overrides(args))
    print(text)
    return 1 if violations else 0


def _cmd_bench_slo(args):
    """Re-check a saved serving artifact (``bench slo``): dispatches
    on the artifact's ``kind`` — ``serve-load`` (BENCH_serve.json)
    through the serving SLO, ``chaos`` (BENCH_chaos.json) through the
    chaos SLO."""
    import json

    from repro.bench import gate

    try:
        with open(args.report) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as err:
        print("bench slo: cannot read %s: %s" % (args.report, err))
        return 1
    if isinstance(payload, dict) and payload.get("kind") == "chaos":
        violations, text = gate.check_chaos(
            payload, **_chaos_slo_overrides(args))
    else:
        violations, text = gate.check_slo(payload,
                                          **_slo_overrides(args))
    print(text)
    return 1 if violations else 0


def _cmd_chaos(args):
    """``repro chaos``: boot a supervised routed tier, replay loadgen
    traffic under a seed-deterministic fault schedule (shard SIGKILL,
    SIGSTOP stall, black-holed socket, cache corruption), classify
    every request, measure per-fault MTTR, write ``BENCH_chaos.json``
    and hold the chaos SLO gate.  ``--smoke`` pins the CI
    ``chaos-smoke`` configuration."""
    import tempfile

    from repro.bench import gate
    from repro.serve import chaos as chaos_mod
    from repro.serve import loadgen

    load_kwargs = {}
    if args.smoke:
        # Sized for CI: ~60 requests over ~10s against 2 one-worker
        # shards with a kill and a stall landing mid-load.
        load_kwargs.update(qps=6.0, duration=10.0, keys=10,
                           threads=12, configs=(BASELINE, TYPED))
    for name, value in (("qps", args.qps), ("duration", args.duration),
                        ("keys", args.keys), ("threads", args.threads),
                        ("timeout", args.timeout)):
        if value is not None:
            load_kwargs[name] = value
    if args.config:
        load_kwargs["configs"] = tuple(args.config)

    chaos_kwargs = {"load": loadgen.LoadSpec(**load_kwargs)}
    for name, value in (("seed", args.seed), ("shards", args.shards),
                        ("stall_seconds", args.stall_seconds),
                        ("blackhole_seconds", args.blackhole_seconds),
                        ("attempt_timeout", args.attempt_timeout),
                        ("recovery_timeout", args.recovery_timeout)):
        if value is not None:
            chaos_kwargs[name] = value
    if args.faults:
        chaos_kwargs["faults"] = tuple(
            kind.strip() for kind in args.faults.split(",")
            if kind.strip())
    try:
        spec = chaos_mod.ChaosSpec(**chaos_kwargs)
        chaos_mod.build_fault_schedule(spec)  # validate fault kinds
    except ValueError as err:
        print("chaos: %s" % err, file=sys.stderr)
        return 2

    json_path = args.json
    if args.smoke and json_path is None:
        json_path = "BENCH_chaos.json"
    done = {"count": 0}

    def progress(_record):
        done["count"] += 1
        if done["count"] % 20 == 0:
            print("chaos: %d requests classified" % done["count"],
                  file=sys.stderr, flush=True)

    with _router_log(args.router_log), \
            tempfile.TemporaryDirectory() as tmp:
        cache_dir = args.cache_dir or os.path.join(tmp, "cache")
        log_dir = args.log_dir or tmp
        os.makedirs(log_dir, exist_ok=True)
        # The router thread lives in *this* process: its cache probe
        # must see the tier's shared root.
        with result_cache.temporary(cache_dir):
            clear_cache()
            print("chaos: booting supervised %d-shard tier "
                  "(faults: %s)..."
                  % (spec.shards, ", ".join(spec.faults)),
                  file=sys.stderr, flush=True)
            report = chaos_mod.run_chaos(
                spec, cache_dir=cache_dir, log_dir=log_dir,
                progress=progress)
        clear_cache()

    stamped = chaos_mod.make_chaos_report(report)
    print(chaos_mod.render_report(report))
    if json_path:
        _write_json(json_path, stamped)
    violations, text = gate.check_chaos(stamped,
                                        **_chaos_slo_overrides(args))
    print(text)
    return 1 if violations else 0


def _cmd_submit(args):
    import json

    from repro.api import DEFAULT_PRIORITY, ExecutionRequest
    from repro.serve.client import ServeBusy, ServeClient, ServeError

    on_event = None
    if args.verbose:
        def on_event(frame):
            print("event: %s" % json.dumps(frame, sort_keys=True),
                  file=sys.stderr)

    wants_control = args.ping or args.status or args.drain
    if args.target is None and not (wants_control or args.sweep):
        print("submit: a target (benchmark, script path, '-' or inline "
              "source) or --sweep/--status/--drain/--ping is required",
              file=sys.stderr)
        return 2

    client = ServeClient(socket_path=args.socket,
                         host=args.host if args.port else None,
                         port=args.port, timeout=args.timeout)
    try:
        with client:
            if args.ping:
                print("pong" if client.ping() else "schema mismatch")
                return 0
            if args.status or args.drain:
                stats = client.drain() if args.drain else client.status()
                print(json.dumps(stats, indent=1, sort_keys=True))
                return 0

            priority = DEFAULT_PRIORITY if args.priority is None \
                else args.priority
            if args.sweep:
                request = ExecutionRequest(
                    op="sweep", jobs=args.jobs, deadline=args.deadline,
                    priority=priority)
                result = client.submit(request, on_event=on_event)
            else:
                target, engine = args.target, args.engine
                if target in BENCHMARK_ORDER:
                    source = target
                elif target == "-":
                    source = sys.stdin.read()
                elif target.endswith(".lua") or target.endswith(".js"):
                    with open(target) as handle:
                        source = handle.read()
                    engine = engine or ("js" if target.endswith(".js")
                                        else "lua")
                else:
                    source = target
                scale = args.scale
                if args.smoke and scale is None:
                    scale = 2
                result = client.run(
                    engine or "lua", source, config=args.config,
                    scale=scale, deadline=args.deadline,
                    priority=priority, on_event=on_event)
    except ServeBusy as err:
        print("busy: %s (retry after %.1fs)"
              % (err, err.retry_after or 0.0), file=sys.stderr)
        return 75  # EX_TEMPFAIL
    except ServeError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except (ConnectionError, FileNotFoundError, OSError) as err:
        print("cannot reach the daemon: %s (is `repro serve` running?)"
              % err, file=sys.stderr)
        return 1

    if args.json:
        _write_json(args.json, result.as_dict())
    if not result.ok:
        print("execution failed: %s" % result.error, file=sys.stderr)
        return 1
    if result.op == "sweep":
        print("sweep complete: %d cells%s"
              % (len(result.cells or {}),
                 " (coalesced)" if result.coalesced else ""))
        if not args.json:
            print("(use --json PATH for the per-cell metrics)")
        return 0
    sys.stdout.write(result.output or "")
    origin = "cached" if result.cached else "served"
    if result.coalesced:
        origin += ", coalesced"
    print("--- counters (%s) ---" % origin)
    _print_counters(result.counters.as_dict())
    return 0


def _cmd_tables(args):
    _summary, table8_text = experiments.table8()
    sections = (("table1", experiments.table1()),
                ("table6", experiments.table6()),
                ("table7", experiments.table7()),
                ("table8", table8_text))
    print("\n\n".join(text for _name, text in sections))
    if args.json:
        _write_json(args.json, dict(sections))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="typedarch",
        description="Typed Architectures (ASPLOS'17) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one benchmark")
    run_parser.add_argument("benchmark", choices=BENCHMARK_ORDER)
    run_parser.add_argument("--engine", choices=("lua", "js"),
                            default="lua")
    run_parser.add_argument("--config", type=_config_arg,
                            metavar=_config_metavar(),
                            default="baseline")
    run_parser.add_argument("--scale", type=int, default=None)
    run_parser.add_argument("--model", choices=("fast", "scoreboard"),
                            default="fast",
                            help="timing model (see docs/SIMULATOR.md)")
    run_parser.add_argument("--no-attribution", action="store_true",
                            help="skip per-bytecode attribution: "
                                 "fastest simulation (trace engine), "
                                 "never cached")
    run_parser.add_argument("--fresh", action="store_true",
                            help="bypass the result caches for this run")
    _add_jobs_flag(run_parser, help_text="accepted for flag uniformity; "
                                         "a single run is one process")
    _add_cache_flags(run_parser)
    _add_smoke_flag(run_parser, "scale-2 quick run (unless --scale)")
    _add_json_flag(run_parser, "write output + counters as JSON")
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = sub.add_parser("sweep",
                                  help="full matrix + figures 2, 5-9")
    sweep_parser.add_argument("--quick", action="store_true",
                              help="halve the input scales")
    sweep_parser.add_argument("--verbose", action="store_true")
    _add_json_flag(sweep_parser, "also dump all figure data as JSON")
    _add_jobs_flag(sweep_parser)
    _add_cache_flags(sweep_parser)
    _add_smoke_flag(sweep_parser, "2-cell cold+warm parallel sweep "
                                  "against a temp cache (CI smoke)")
    sweep_parser.add_argument("--attribution", action="store_true",
                              help="also print per-benchmark cycle and "
                                   "TRT-miss attribution")
    sweep_parser.set_defaults(func=_cmd_sweep)

    tables_parser = sub.add_parser("tables",
                                   help="static tables and the hw model")
    _add_json_flag(tables_parser, "write the rendered tables as JSON")
    tables_parser.set_defaults(func=_cmd_tables)

    trace_parser = sub.add_parser(
        "trace", help="instruction or bytecode execution trace")
    trace_parser.add_argument("benchmark", choices=BENCHMARK_ORDER)
    trace_parser.add_argument("--engine", choices=("lua", "js"),
                              default="lua")
    trace_parser.add_argument("--config", type=_config_arg,
                              metavar=_config_metavar(),
                              default="baseline")
    trace_parser.add_argument("--scale", type=int, default=2)
    trace_parser.add_argument("--bytecodes", action="store_true",
                              help="trace bytecodes instead of "
                                   "instructions")
    trace_parser.add_argument("--limit", type=int, default=48,
                              help="trace entries kept (tail)")
    trace_parser.add_argument("--max-instructions", type=int,
                              default=200_000)
    _add_json_flag(trace_parser, "write the trace (and bytecode "
                                 "counts) as JSON")
    trace_parser.set_defaults(func=_cmd_trace)

    profile_parser = sub.add_parser(
        "profile",
        help="telemetry profile: per-opcode hot table, TRT attribution, "
             "optional Chrome trace")
    profile_parser.add_argument(
        "target",
        help="benchmark name (see `tables`) or path to a .lua/.js script")
    profile_parser.add_argument("--engine", choices=("lua", "js"),
                                default=None,
                                help="default: inferred from the target")
    profile_parser.add_argument("--config", type=_config_arg,
                                metavar=_config_metavar(),
                                default=TYPED)
    profile_parser.add_argument("--scale", type=int, default=None,
                                help="input scale (benchmark targets)")
    profile_parser.add_argument("--top", type=int, default=15)
    profile_parser.add_argument("--chrome-trace", metavar="PATH",
                                default=None,
                                help="write a Perfetto-loadable Chrome "
                                     "trace_event JSON file")
    profile_parser.add_argument("--events", metavar="PATH", default=None,
                                help="write the raw event stream as "
                                     "JSON lines")
    profile_parser.add_argument("--buckets", action="store_true",
                                help="also print the per-handler "
                                     "instruction buckets")
    profile_parser.add_argument("--show-output", action="store_true",
                                help="echo the guest program's output")
    _add_smoke_flag(profile_parser, "scale-2 quick profile "
                                    "(unless --scale)")
    _add_json_flag(profile_parser, "write counters + rendered tables "
                                   "as JSON")
    profile_parser.set_defaults(func=_cmd_profile)

    faults_parser = sub.add_parser(
        "faults",
        help="seeded fault-injection campaign + coverage report")
    faults_parser.add_argument("--seed", type=int, default=1234)
    faults_parser.add_argument("--count", type=int, default=None,
                               metavar="N",
                               help="injections per (engine, benchmark, "
                                    "config) cell (default 40)")
    faults_parser.add_argument("--engine", action="append",
                               choices=("lua", "js"), default=None,
                               help="repeatable; default: both engines")
    faults_parser.add_argument("--benchmark", action="append",
                               choices=BENCHMARK_ORDER, default=None,
                               help="repeatable; default: all benchmarks")
    faults_parser.add_argument("--quick", action="store_true",
                               help="halve the input scales")
    faults_parser.add_argument("--verbose", action="store_true")
    _add_jobs_flag(faults_parser)
    _add_json_flag(faults_parser, "write the full campaign report")
    _add_cache_flags(faults_parser)
    _add_smoke_flag(faults_parser,
                    "tiny fixed-seed campaign at 1 and N jobs; asserts "
                    "determinism and typed > baseline tag-plane "
                    "detection (CI smoke)")
    faults_parser.set_defaults(func=_cmd_faults)

    bench_parser = sub.add_parser(
        "bench", help="performance gate against a committed baseline")
    bench_sub = bench_parser.add_subparsers(dest="bench_command",
                                            required=True)
    cache_parser = bench_sub.add_parser(
        "cache", help="inspect/verify the persistent result cache")
    cache_parser.add_argument("--verify", action="store_true",
                              help="decode every entry; quarantine "
                                   "damaged ones to <cache>/corrupt/")
    cache_parser.add_argument("--no-quarantine", action="store_true",
                              help="report damaged entries but leave "
                                   "them in place")
    _add_cache_flags(cache_parser)
    cache_parser.set_defaults(func=_cmd_bench)
    for name, description in (
            ("baseline", "run the sweep and write the baseline metrics"),
            ("check", "run the sweep and fail on metric drift")):
        cmd = bench_sub.add_parser(name, help=description)
        _add_jobs_flag(cmd)
        _add_cache_flags(cmd)
        if name == "check":
            _add_smoke_flag(cmd, "only verify the committed baseline "
                                 "loads under the current schema "
                                 "version (no sweep)")
        if name == "baseline":
            cmd.add_argument("--out", metavar="PATH",
                             default="benchmarks/results/baseline.json")
        else:
            cmd.add_argument("--baseline", metavar="PATH",
                             default="benchmarks/results/baseline.json")
            cmd.add_argument("--tolerance", type=float, default=0.02,
                             help="relative tolerance for speedups and "
                                  "instruction/cycle counts")
            cmd.add_argument("--abs-tolerance", type=float, default=0.05,
                             help="absolute tolerance for MPKI and "
                                  "hit-rate metrics")
            cmd.add_argument("--host-floor-json", metavar="PATH",
                             help="write the advisory host-throughput "
                                  "floor comparison as JSON (CI "
                                  "uploads it)")
        cmd.set_defaults(func=_cmd_bench)
    slo_parser = bench_sub.add_parser(
        "slo", help="re-check a saved BENCH_serve.json against the "
                    "serving SLO")
    slo_parser.add_argument("--report", metavar="PATH",
                            default="BENCH_serve.json",
                            help="serve-load artifact to check")
    _add_slo_flags(slo_parser)
    _add_chaos_slo_flags(slo_parser)
    slo_parser.set_defaults(func=_cmd_bench)

    serve_parser = sub.add_parser(
        "serve",
        help="persistent execution daemon: warm workers behind a "
             "localhost socket (see docs/API.md)")
    serve_parser.add_argument("--socket", metavar="PATH", default=None,
                              help="unix socket path (default: "
                                   "$REPRO_SERVE_SOCKET or a per-user "
                                   "temp path)")
    serve_parser.add_argument("--host", default=None,
                              help="TCP mode bind host (with --port; "
                                   "default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=None,
                              metavar="N",
                              help="TCP mode port (0 picks a free one)")
    serve_parser.add_argument("--queue-depth", type=int, default=32,
                              metavar="N",
                              help="pending requests before busy "
                                   "rejection")
    serve_parser.add_argument("--deadline", type=float, default=None,
                              metavar="SECONDS",
                              help="default per-request deadline")
    serve_parser.add_argument("--warm-engine", action="append",
                              choices=("lua", "js"), default=None,
                              help="repeatable; interpreters assembled "
                                   "at worker fork (default: both)")
    serve_parser.add_argument("--warm-config", action="append",
                              type=_config_arg,
                              metavar=_config_metavar(), default=None,
                              help="repeatable; default: all "
                                   "registered configs")
    serve_parser.add_argument("--verbose", action="store_true")
    _add_jobs_flag(serve_parser, help_text="warm worker processes "
                                           "(default 2; 0 runs requests "
                                           "inline)")
    _add_cache_flags(serve_parser)
    _add_smoke_flag(serve_parser,
                    "acceptance smoke: subprocess daemon, 3 concurrent "
                    "clients, cache-hit path, SIGTERM drain (CI)")
    _add_json_flag(serve_parser, "write the smoke report as JSON")
    serve_parser.set_defaults(func=_cmd_serve)

    route_parser = sub.add_parser(
        "route",
        help="consistent-hash front router over N serve shards "
             "(see docs/SERVING.md)")
    route_parser.add_argument("--shard", action="append",
                              metavar="ADDR", default=None,
                              help="repeatable; an existing shard at "
                                   "unix:/path, /path or host:port")
    route_parser.add_argument("--shards", type=int, default=None,
                              metavar="N",
                              help="spawn and own N serve shard "
                                   "subprocesses (collision-free "
                                   "sockets, shared cache root)")
    route_parser.add_argument("--socket", metavar="PATH", default=None,
                              help="router socket path ('auto' or "
                                   "unset picks a collision-free temp "
                                   "path)")
    route_parser.add_argument("--host", default=None,
                              help="TCP mode bind host (with --port; "
                                   "default 127.0.0.1)")
    route_parser.add_argument("--port", type=int, default=None,
                              metavar="N",
                              help="TCP mode port (0 picks a free one)")
    route_parser.add_argument("--replicas", type=int, default=128,
                              metavar="N",
                              help="virtual nodes per shard on the "
                                   "hash ring")
    route_parser.add_argument("--health-interval", type=float,
                              default=2.0, metavar="SECONDS",
                              help="seconds between shard health "
                                   "probes")
    route_parser.add_argument("--retries", type=int, default=2,
                              metavar="N",
                              help="per-shard busy retries (honouring "
                                   "retry_after) before failover")
    route_parser.add_argument("--queue-depth", type=int, default=32,
                              metavar="N",
                              help="queue depth of spawned shards")
    route_parser.add_argument("--deadline", type=float, default=None,
                              metavar="SECONDS",
                              help="default per-request deadline of "
                                   "spawned shards")
    route_parser.add_argument("--warm-engine", action="append",
                              choices=("lua", "js"), default=None,
                              help="repeatable; warm engines of "
                                   "spawned shards (default: lua)")
    route_parser.add_argument("--warm-config", action="append",
                              type=_config_arg,
                              metavar=_config_metavar(), default=None,
                              help="repeatable; warm configs of "
                                   "spawned shards")
    route_parser.add_argument("--no-supervise", action="store_true",
                              help="do not respawn spawned shards "
                                   "that die (default: supervise "
                                   "owned shards with backoff + "
                                   "circuit breaker)")
    route_parser.add_argument("--attempt-timeout", type=float,
                              default=None, dest="attempt_timeout",
                              metavar="SECONDS",
                              help="per-shard-attempt timeout: a "
                                   "stalled shard costs at most this "
                                   "before re-dispatch (default: the "
                                   "full forward timeout)")
    route_parser.add_argument("--quorum", type=int, default=None,
                              metavar="N",
                              help="healthy shards below which new "
                                   "work is shed lowest-priority "
                                   "first (default: a majority)")
    route_parser.add_argument("--verbose", action="store_true")
    _add_jobs_flag(route_parser, help_text="warm workers per spawned "
                                           "shard (default 1)")
    _add_cache_flags(route_parser)
    route_parser.set_defaults(func=_cmd_route)

    loadgen_parser = sub.add_parser(
        "loadgen",
        help="synthetic run/bench/sweep traffic against the serve "
             "tier; writes BENCH_serve.json and holds the SLO gate")
    loadgen_parser.add_argument("--qps", type=float, default=None,
                                help="target offered load "
                                     "(default 10)")
    loadgen_parser.add_argument("--duration", type=float, default=None,
                                metavar="SECONDS",
                                help="offered-load window (default 8)")
    loadgen_parser.add_argument("--keys", type=int, default=None,
                                metavar="N",
                                help="distinct request keys in the "
                                     "population (default 16)")
    loadgen_parser.add_argument("--zipf", type=float, default=None,
                                metavar="S",
                                help="popularity skew: rank r drawn "
                                     "~ 1/(r+1)^S (default 1.1)")
    loadgen_parser.add_argument("--mix", type=_mix_arg, default=None,
                                metavar="OP=W,...",
                                help="op mix, e.g. run=0.6,bench=0.4 "
                                     "(normalised; default "
                                     "run=0.55,bench=0.40,sweep=0.05)")
    loadgen_parser.add_argument("--engine", action="append",
                                choices=("lua", "js"), default=None,
                                help="repeatable; population engines "
                                     "(default: lua)")
    loadgen_parser.add_argument("--config", action="append",
                                type=_config_arg,
                                metavar=_config_metavar(),
                                default=None,
                                help="repeatable; population configs "
                                     "(default: all registered)")
    loadgen_parser.add_argument("--seed", type=int, default=None,
                                help="population + schedule seed "
                                     "(default 1234)")
    loadgen_parser.add_argument("--threads", type=int, default=None,
                                metavar="N",
                                help="client threads (default 16)")
    loadgen_parser.add_argument("--sample", type=int, default=None,
                                metavar="N",
                                help="replies identity-checked against "
                                     "in-process execution (default 3)")
    loadgen_parser.add_argument("--timeout", type=float, default=None,
                                metavar="SECONDS",
                                help="per-request client timeout "
                                     "(default 120)")
    loadgen_parser.add_argument("--socket", metavar="PATH",
                                default=None,
                                help="target router/daemon socket "
                                     "(default: self-boot with "
                                     "--smoke)")
    loadgen_parser.add_argument("--host", default=None)
    loadgen_parser.add_argument("--port", type=int, default=None,
                                metavar="N")
    loadgen_parser.add_argument("--shards", type=int, default=None,
                                metavar="N",
                                help="shards of the self-booted "
                                     "--smoke tier (default 2)")
    loadgen_parser.add_argument("--no-drain", action="store_true",
                                help="skip the drain check (leaves an "
                                     "external target running; the "
                                     "default drain check stops it)")
    loadgen_parser.add_argument("--router-log", metavar="PATH",
                                default=None,
                                help="write repro.serve tier logs to "
                                     "PATH (CI uploads this)")
    _add_slo_flags(loadgen_parser)
    _add_jobs_flag(loadgen_parser, help_text="warm workers per "
                                             "self-booted shard "
                                             "(default 1)")
    _add_cache_flags(loadgen_parser)
    _add_smoke_flag(loadgen_parser,
                    "self-boot a 2-shard routed tier over a throwaway "
                    "shared cache and gate it (CI serve-load job); "
                    "writes BENCH_serve.json by default")
    _add_json_flag(loadgen_parser, "write the stamped serve-load "
                                   "artifact (BENCH_serve.json)")
    loadgen_parser.set_defaults(func=_cmd_loadgen)

    chaos_parser = sub.add_parser(
        "chaos",
        help="replay a seed-deterministic fault schedule against a "
             "supervised routed tier under load and gate the chaos "
             "SLO (zero lost/duplicated, bounded MTTR)")
    chaos_parser.add_argument("--qps", type=float, default=None,
                              help="offered load (requests per second)")
    chaos_parser.add_argument("--duration", type=float, default=None,
                              help="load window in seconds")
    chaos_parser.add_argument("--keys", type=int, default=None,
                              help="distinct (benchmark, scale) work "
                                   "keys in the population")
    chaos_parser.add_argument("--threads", type=int, default=None,
                              help="concurrent client connections")
    chaos_parser.add_argument("--timeout", type=float, default=None,
                              help="per-request client timeout")
    chaos_parser.add_argument("--config", action="append", default=None,
                              metavar="NAME", choices=sorted(GATE_CONFIGS),
                              help="restrict traffic to these configs "
                                   "(repeatable)")
    chaos_parser.add_argument("--seed", type=int, default=None,
                              help="fault-schedule + traffic seed "
                                   "(default 4242; same seed, same "
                                   "schedule)")
    chaos_parser.add_argument("--shards", type=int, default=None,
                              help="shards in the self-booted tier "
                                   "(default 2)")
    chaos_parser.add_argument("--faults", metavar="KINDS", default=None,
                              help="comma-separated fault kinds: kill, "
                                   "stall, blackhole, cache_corrupt "
                                   "(default kill,stall)")
    chaos_parser.add_argument("--stall-seconds", type=float,
                              default=None, dest="stall_seconds",
                              help="SIGSTOP duration for stall faults")
    chaos_parser.add_argument("--blackhole-seconds", type=float,
                              default=None, dest="blackhole_seconds",
                              help="black-holed socket duration")
    chaos_parser.add_argument("--attempt-timeout", type=float,
                              default=None, dest="attempt_timeout",
                              help="per-attempt router timeout that "
                                   "bounds a stalled shard (default 2)")
    chaos_parser.add_argument("--recovery-timeout", type=float,
                              default=None, dest="recovery_timeout",
                              help="max seconds to wait for the ring "
                                   "to return to full strength")
    chaos_parser.add_argument("--log-dir", metavar="DIR", default=None,
                              dest="log_dir",
                              help="keep shard logs under DIR (CI "
                                   "uploads these)")
    chaos_parser.add_argument("--router-log", metavar="PATH",
                              default=None,
                              help="write repro.serve tier logs to "
                                   "PATH (CI uploads this)")
    _add_chaos_slo_flags(chaos_parser)
    _add_cache_flags(chaos_parser)
    _add_smoke_flag(chaos_parser,
                    "pinned-seed CI run: 2 shards, kill + stall "
                    "mid-load, throwaway shared cache; writes "
                    "BENCH_chaos.json by default")
    _add_json_flag(chaos_parser, "write the stamped chaos artifact "
                                 "(BENCH_chaos.json)")
    chaos_parser.set_defaults(func=_cmd_chaos)

    submit_parser = sub.add_parser(
        "submit",
        help="submit work to a running serve daemon")
    submit_parser.add_argument(
        "target", nargs="?", default=None,
        help="benchmark name, path to a .lua/.js script, '-' for "
             "stdin, or inline source text")
    submit_parser.add_argument("--engine", choices=("lua", "js"),
                               default=None,
                               help="default: inferred from the target")
    submit_parser.add_argument("--config", type=_config_arg,
                               metavar=_config_metavar(),
                               default=BASELINE)
    submit_parser.add_argument("--scale", type=int, default=None)
    submit_parser.add_argument("--sweep", action="store_true",
                               help="submit a full-matrix sweep instead "
                                    "of a single target")
    submit_parser.add_argument("--deadline", type=float, default=None,
                               metavar="SECONDS",
                               help="wall-clock deadline for this "
                                    "request")
    submit_parser.add_argument("--priority", type=int, default=None,
                               metavar="N",
                               help="lower runs first (default 5)")
    submit_parser.add_argument("--socket", metavar="PATH", default=None)
    submit_parser.add_argument("--host", default=None)
    submit_parser.add_argument("--port", type=int, default=None,
                               metavar="N")
    submit_parser.add_argument("--timeout", type=float, default=600.0,
                               metavar="SECONDS",
                               help="client-side socket timeout")
    submit_parser.add_argument("--status", action="store_true",
                               help="print daemon statistics and exit")
    submit_parser.add_argument("--drain", action="store_true",
                               help="ask the daemon to drain and exit")
    submit_parser.add_argument("--ping", action="store_true",
                               help="liveness + schema-version probe")
    submit_parser.add_argument("--verbose", action="store_true",
                               help="print streamed events to stderr")
    _add_jobs_flag(submit_parser, help_text="worker shards for a "
                                            "--sweep request (server "
                                            "side)")
    _add_smoke_flag(submit_parser, "scale-2 submission (unless --scale)")
    _add_json_flag(submit_parser, "write the result payload as JSON")
    submit_parser.set_defaults(func=_cmd_submit)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
