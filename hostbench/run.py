#!/usr/bin/env python3
"""Host-time benchmark of the ``repro`` package: one command, three
workloads (see hostbench/README.md).

    python3 hostbench/run.py --workload {sweep-cold,run-hot,serve-zipf}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its
``src/`` and nowhere else.  Each workload runs in fresh processes.  With
``--trace 0`` one untimed set-up fills the run's bytecode cache, the
set-up is then measured in several fresh processes and the last one goes
on to the timed phase; the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``), each as ``{"value": ..., "unit": ...}``.  A line
starting with ``#`` before it records the run's context: ``nproc``, the
Python version, the calibration reference and the raw (uncorrected)
figures.  Exits non-zero, printing no result, when the run cannot be
completed.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import common

#: Every run ends within this many seconds, whatever happens.
DEADLINE_S = 170.0


class ChildError(RuntimeError):
    pass


class Child:
    """One workload process, in its own process group so that a stuck
    run can be stopped together with everything it started."""

    def __init__(self, args, mode, run_dir):
        argv = [sys.executable,
                os.path.join(common.ROOT, "hostbench", "child.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--min-ops", str(args.min_ops), "--mode", mode,
                "--run-dir", run_dir]
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = common.SRC
        env["PYTHONHASHSEED"] = "0"
        # Bytecode (the program's and the standard library's) is read
        # and written only in this run's own cache, which the first,
        # untimed set-up fills: every measured set-up reads the same
        # bytecode, whatever __pycache__ directories the checkout holds.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = os.path.join(run_dir, "pycache")
        self.proc = subprocess.Popen(
            argv, cwd=common.ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, start_new_session=True)

    def read(self, deadline):
        """The next JSON line, or :class:`ChildError` on exit/timeout."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildError("workload process timed out")
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        remaining)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                self.proc.wait()
                raise ChildError("workload process exited %s"
                                 % self.proc.returncode)
            return json.loads(line)

    def wait(self, deadline):
        try:
            code = self.proc.wait(timeout=max(0.1, deadline
                                              - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise ChildError("workload process did not exit") from None
        finally:
            self.proc.stdout.close()
        if code != 0:
            raise ChildError("workload process exited %d" % code)

    def kill(self):
        """Stop whatever is left of the process group (nothing, when the
        workload process shut its tier down and exited)."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        if not self.proc.stdout.closed:
            self.proc.stdout.close()


def measure(args, run_dir, deadline):
    """Run the set-ups and the timed phase; returns ``(set-up seconds,
    raw set-up seconds, child result)``.  An untraced run's first
    set-up only fills the bytecode cache and is not measured."""
    setups, raw_setups = [], []
    count = 1 if args.trace else 1 + common.SETUPS[args.workload]
    for index in range(count):
        mode = "full" if index == count - 1 else "setup"
        before = [common.calibrate() for _ in range(common.SETUP_CALIBRATIONS)]
        started = time.monotonic()
        child = Child(args, mode, run_dir)
        try:
            ready = child.read(deadline)
            raw = ready["ready_at"] - started
            if index or args.trace:
                raw_setups.append(raw)
                setups.append(raw * common.drift_factor(before
                                                        + ready["calib"]))
            result = child.read(deadline) if mode == "full" else None
            child.wait(deadline)
        finally:
            child.kill()
    return setups, raw_setups, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=common.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=common.MIN_OPS,
                        help="minimum timed ops (the self-test shrinks "
                             "it; measurements keep the default)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print("hostbench: %s holds no src/repro to measure" % common.ROOT,
              file=sys.stderr)
        return 2
    os.makedirs(common.RUN_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=args.workload[:5] + "-",
                               dir=common.RUN_ROOT)
    try:
        setups, raw_setups, result = measure(args, run_dir, deadline)
        if args.trace:
            shutil.copy(os.path.join(run_dir, "spans.jsonl"),
                        os.path.join(common.RUN_ROOT, "spans-%s-%d.jsonl"
                                     % (args.workload, args.seed)))
    except (ChildError, OSError, ValueError, KeyError) as err:
        print("hostbench: %s: %s" % (args.workload, err), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    values = result["metrics"]
    context = dict(common.context(), workload=args.workload,
                   seed=args.seed, trace=args.trace,
                   setups_s=setups, raw_setups_s=raw_setups,
                   raw=values.pop("raw", None),
                   accuracy=values.pop("accuracy", None),
                   schedule_sha256=hashlib.sha256(json.dumps(
                       result["schedule"]).encode()).hexdigest())
    if not args.trace:
        values["setup_s"] = common.median(setups)
    names = common.PER_LAYER if args.trace else common.END_TO_END
    print("# context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0 and result["checks_ok"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: common.metric(name, values[name])
                    for name, _unit in names},
        }))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
