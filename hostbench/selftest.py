#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (a few minutes).

    python3 hostbench/selftest.py

Runs every workload for one second and a handful of ops and checks that:

* the printed metric names and units match ``BENCHMARK.json`` (untraced
  runs: ``end_to_end``; a traced run: ``per_layer``);
* every op succeeds;
* one seed regenerates identical inputs (the same op schedule) and the
  same ``sim_mcycles``;
* a different seed changes ``serve-zipf``'s schedule;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command fails without printing a result.

Exits 1 listing every failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import common

TINY = ["--seconds", "1", "--min-ops", "6"]


def run(workload, seed, trace=0, cwd=common.ROOT):
    """``(exit code, result or None, context or None)`` of one run."""
    proc = subprocess.run(
        [sys.executable, os.path.join("hostbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)] + TINY,
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-3000:])
        return proc.returncode, None, None
    context = json.loads(lines[-2][len("# context "):])
    return proc.returncode, json.loads(lines[-1]), context


def main():
    failures = []

    def check(condition, message):
        print("%-4s %s" % ("ok" if condition else "FAIL", message))
        if not condition:
            failures.append(message)

    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check([w["name"] for w in spec["workloads"]] == list(common.WORKLOADS),
          "BENCHMARK.json registers %s" % ", ".join(common.WORKLOADS))

    def printed(result):
        return {name: m["unit"] for name, m in result["metrics"].items()}

    schedules = {}
    for workload in common.WORKLOADS:
        runs = [run(workload, 1), run(workload, 1)]
        if workload == "serve-zipf":
            runs.append(run(workload, 2))
        for code, result, context in runs:
            check(code == 0 and result is not None,
                  "%s seed %s runs" % (workload,
                                       context["seed"] if context else "?"))
        if any(result is None for _code, result, _ctx in runs):
            continue
        first, again = runs[0], runs[1]
        for _code, result, _ctx in runs:
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 6,
                  "%s: %d ops, none failed" % (workload,
                                               result["attempted"]))
            check(printed(result) == declared[0],
                  "%s: end-to-end names and units match BENCHMARK.json"
                  % workload)
        check(first[2]["schedule_sha256"] == again[2]["schedule_sha256"],
              "%s: one seed regenerates identical inputs" % workload)
        check(first[1]["metrics"]["sim_mcycles"]
              == again[1]["metrics"]["sim_mcycles"],
              "%s: one seed gives the same sim_mcycles" % workload)
        schedules[workload] = [ctx["schedule_sha256"]
                               for _c, _r, ctx in runs]

    if "serve-zipf" in schedules:
        check(schedules["serve-zipf"][0] != schedules["serve-zipf"][2],
              "serve-zipf: another seed changes the schedule")

    code, result, _context = run("sweep-cold", 1, trace=1)
    check(code == 0 and result is not None
          and printed(result) == declared[1],
          "traced run: per-layer names and units match BENCHMARK.json")

    # The command must refuse to run without the program's sources.
    os.makedirs(common.RUN_ROOT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=common.RUN_ROOT)
    try:
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(common.ROOT, "hostbench"),
                        os.path.join(bare, "hostbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _context = run("sweep-cold", 1, cwd=bare)
        check(code != 0 and result is None,
              "without src/ the command fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    if failures:
        print("selftest: %d check(s) failed" % len(failures))
        return 1
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
