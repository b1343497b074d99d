#!/usr/bin/env python3
"""Alternating parent/change pairs of hostbench, committed as numbers.

Runs ``hostbench/run.py --trace 0`` on a parent revision and on this
tree, one pair per ``(workload, seed)``, and writes the runs and their
summary to ``BENCH_hostbench.json``, stamped with the package schema
version and the ``hostbench`` artifact kind (:mod:`repro.schema`):

    python3 tools/hostpairs.py --parent REV \\
        --workload sweep-cold:211-220 --workload run-hot:211-213

Every run lasts ``BENCHMARK.json``'s ``run_seconds``, as the
benchmark's own runs do.

The parent is checked out with ``git worktree add --detach`` into a
temporary directory (no network) and the worktree is removed at the
end, whatever happens.  The tool refuses to run when ``hostbench/`` or
``BENCHMARK.json`` differ between the two trees: the pairs must measure
the program, not the benchmark.  The two runs of a pair go in
alternating order (the parent first on even pairs, the change first on
odd ones), so a drift of the host's speed while they run falls on
both sides alike.

For each workload the artifact records the seeds, every run's
end-to-end metrics, and for each end-to-end metric of ``BENCHMARK.json``
the parent's and the change's medians, the parent's interquartile range
(:func:`statistics.quantiles`, exclusive method), the pairs the change
won (strictly better by the metric's ``better``), and whether the
median gap exceeds the parent's IQR; plus whether ``sim_mcycles`` was
identical per seed.  Exits non-zero when a run fails or is incorrect.

``--compare PRIOR`` loads an earlier artifact first and, after the
run, prints for each workload and end-to-end metric in both the
prior's change median, this run's and their ratio, noting workloads
measured on other seeds.  A prior that is
unstamped, of another kind or of another schema version is refused
with exit code 2 before anything runs, as ``tools/perfbench.py
--compare`` does: medians across a schema change do not compare.
"""

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro import schema  # noqa: E402

ARTIFACT_KIND = "hostbench"

#: What must be byte-identical in both trees.
BENCHMARK_PATHS = ("hostbench", "BENCHMARK.json")


def parse_seeds(text):
    """``"211-220"`` or ``"5,7,9"`` -> a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _files(root, path):
    """Relative paths of the files under ``root/path`` (one file or a
    directory), bytecode caches left out."""
    top = os.path.join(root, path)
    if not os.path.isdir(top):
        return {path} if os.path.exists(top) else set()
    found = set()
    for directory, subdirs, names in os.walk(top):
        subdirs[:] = [d for d in subdirs if d != "__pycache__"]
        for name in names:
            found.add(os.path.relpath(os.path.join(directory, name), root))
    return found


def benchmark_differences(tree, other):
    """Files of :data:`BENCHMARK_PATHS` that differ between two trees
    (present in one only, or with other contents)."""
    differ = []
    for path in BENCHMARK_PATHS:
        for name in sorted(_files(tree, path) | _files(other, path)):
            a, b = os.path.join(tree, name), os.path.join(other, name)
            if not (os.path.isfile(a) and os.path.isfile(b)
                    and filecmp.cmp(a, b, shallow=False)):
                differ.append(name)
    return differ


def run_once(tree, workload, seed, seconds):
    """One ``hostbench/run.py --trace 0`` run in ``tree``: its result
    line with each metric reduced to its value."""
    proc = subprocess.run(
        [sys.executable, os.path.join("hostbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d in %s exited %d"
                           % (workload, seed, tree, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d in %s was not correct: %s"
                           % (workload, seed, tree, lines[-1]))
    return {"attempted": result["attempted"],
            "metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()}}


def _iqr(values):
    if len(values) < 2:
        return 0.0
    low, _median, high = statistics.quantiles(values, n=4)
    return high - low


def summarize(pairs, end_to_end):
    """The summary of one workload's ``pairs`` (dicts with ``seed``,
    ``parent`` and ``change`` runs, as :func:`run_once` returns them)
    under ``end_to_end``, the end-to-end metric list of BENCHMARK.json."""
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        both = [(pair["parent"]["metrics"][name],
                 pair["change"]["metrics"][name]) for pair in pairs
                if name in pair["parent"]["metrics"]
                and name in pair["change"]["metrics"]]
        if not both:
            continue
        parent = [p for p, _c in both]
        change = [c for _p, c in both]
        lower = spec["better"] == "lower"
        parent_median = statistics.median(parent)
        change_median = statistics.median(change)
        iqr = _iqr(parent)
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_iqr": iqr,
            "wins": sum(1 for p, c in both if (c < p if lower else c > p)),
            "pairs": len(both),
            "gap_exceeds_iqr": abs(change_median - parent_median) > iqr,
        }
    return {
        "seeds": [pair["seed"] for pair in pairs],
        "metrics": metrics,
        "sim_mcycles_identical": all(
            pair["parent"]["metrics"].get("sim_mcycles")
            == pair["change"]["metrics"].get("sim_mcycles")
            for pair in pairs),
        "pairs": pairs,
    }


def _git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def measure(parent_tree, plan, seconds):
    """Run every pair of ``plan`` (``[(workload, [seeds])]``), in
    alternating order, logging each run to stderr; returns
    ``{workload: [pair, ...]}``."""
    trees = {"parent": parent_tree, "change": ROOT}
    results = {}
    count = 0
    for workload, seeds in plan:
        pairs = results.setdefault(workload, [])
        for seed in seeds:
            order = ("parent", "change") if count % 2 == 0 \
                else ("change", "parent")
            pair = {"seed": seed}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, seconds)
                print("%s seed %d %s: %s" % (
                    workload, seed, side,
                    json.dumps(pair[side]["metrics"], sort_keys=True)),
                    file=sys.stderr)
            pairs.append(pair)
            count += 1
    return results


def load_prior(path):
    """Load a prior artifact for ``--compare``: raises
    :class:`repro.schema.SchemaError` when it is unstamped, of another
    kind or of another schema version (``OSError`` or ``ValueError``
    when it cannot be read)."""
    with open(path) as handle:
        payload = json.load(handle)
    return schema.require_artifact(payload, ARTIFACT_KIND)


def compare_with(prior, payload, echo=print):
    """Print, for each workload and end-to-end metric in both
    artifacts, the prior's change median, this one's and their ratio
    (this over prior), after a note for each workload whose seeds
    differ (the medians then come from other runs, so even a metric
    that repeats per seed may differ); returns the rows."""
    rows = []
    notes = []
    before = prior.get("workloads", {})
    for workload, summary in payload["workloads"].items():
        if workload not in before:
            continue
        old_summary = before[workload]
        if old_summary.get("seeds") != summary["seeds"]:
            notes.append("  %s: seeds %s in the prior, %s here"
                         % (workload, old_summary.get("seeds"),
                            summary["seeds"]))
        old_metrics = old_summary.get("metrics", {})
        for name, figures in summary["metrics"].items():
            if name not in old_metrics:
                continue
            old = old_metrics[name]["change_median"]
            new = figures["change_median"]
            rows.append((workload, name, old, new,
                         new / old if old else float("inf")))
    echo("comparison against the prior artifact (change %s):"
         % prior.get("change"))
    for note in notes:
        echo(note)
    for workload, name, old, new, ratio in rows:
        echo("  %-10s %-12s %10.4g -> %-10.4g x%.3f"
             % (workload, name, old, new, ratio))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="revision to compare this tree against")
    parser.add_argument("--workload", action="append", required=True,
                        metavar="NAME:SEEDS",
                        help="a workload and its seeds, e.g. "
                        "sweep-cold:211-220 (repeatable)")
    parser.add_argument("--compare", metavar="PRIOR",
                        help="print this run's change medians against "
                        "a prior BENCH_hostbench.json (refused when it "
                        "is unstamped or mismatched)")
    args = parser.parse_args(argv)
    prior = None
    if args.compare:
        try:
            prior = load_prior(args.compare)
        except (OSError, ValueError) as err:
            print("hostpairs: refusing to compare against %s: %s"
                  % (args.compare, err), file=sys.stderr)
            return 2
    plan = []
    for item in args.workload:
        name, _, seeds = item.partition(":")
        plan.append((name, parse_seeds(seeds)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]

    parent = _git("rev-parse", args.parent)
    change = _git("rev-parse", "HEAD")
    if _git("status", "--porcelain", "--untracked-files=no"):
        change += "+dirty"
    scratch = tempfile.mkdtemp(prefix="hostpairs-")
    tree = os.path.join(scratch, "parent")
    try:
        _git("worktree", "add", "--detach", tree, parent)
        try:
            differ = benchmark_differences(ROOT, tree)
            if differ:
                print("hostpairs: the benchmark differs between the "
                      "trees: %s" % ", ".join(differ), file=sys.stderr)
                return 2
            results = measure(tree, plan, seconds)
        except RuntimeError as err:
            print("hostpairs: %s" % err, file=sys.stderr)
            return 1
        finally:
            _git("worktree", "remove", "--force", tree)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    payload = schema.artifact(ARTIFACT_KIND, {
        "parent": parent,
        "change": change,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {workload: summarize(pairs, benchmark["end_to_end"])
                      for workload, pairs in results.items()},
    })
    with open(os.path.join(ROOT, "BENCH_hostbench.json"), "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for workload, summary in payload["workloads"].items():
        for name, figures in summary["metrics"].items():
            print("%-10s %-12s %10.4g -> %-10.4g wins %d/%d  IQR %.4g"
                  % (workload, name, figures["parent_median"],
                     figures["change_median"], figures["wins"],
                     figures["pairs"], figures["parent_iqr"]))
    if prior is not None:
        compare_with(prior, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
