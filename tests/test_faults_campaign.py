"""Campaign end-to-end: determinism across worker counts, the outcome
taxonomy, and the report shape."""

import json

import pytest

from repro.bench import cache as result_cache
from repro.bench.runner import clear_cache
from repro.faults import CLASSES, classify, run_campaign, watchdog_budget
from repro.faults.classify import DETECTED, HANG, MASKED, SDC
from repro.sim.errors import ExecutionLimitExceeded, IllegalInstruction

TINY = dict(seed=321, count=6, engines=("lua",), benchmarks=("fibo",),
            scales={"fibo": 8})


@pytest.fixture(autouse=True)
def fresh_caches():
    result_cache.disable()
    clear_cache()
    yield
    clear_cache()


# -- classify ----------------------------------------------------------------

GOLDEN = ("out\n", (3, 0, 0))


def test_classify_priority_order():
    output, golden_detect = GOLDEN
    limit = ExecutionLimitExceeded("budget")
    trap = IllegalInstruction("bad")
    guest = RuntimeError("lua error")  # stand-in for a guest abort
    assert classify(limit, output, output, golden_detect,
                    golden_detect) == HANG
    assert classify(trap, output, output, golden_detect,
                    golden_detect) == DETECTED
    # Extra TRT misses are detection evidence even when a guest error
    # follows (the hardware fired first).
    assert classify(guest, "x", output, (4, 0, 0),
                    golden_detect) == DETECTED
    # A guest-level abort with silent hardware is SDC, even with
    # golden-identical output text.
    assert classify(guest, output, output, golden_detect,
                    golden_detect) == SDC
    assert classify(None, output, output, golden_detect,
                    golden_detect) == MASKED
    assert classify(None, "wrong\n", output, golden_detect,
                    golden_detect) == SDC


def test_classify_counters_each_kind():
    output, golden = GOLDEN
    for position in range(3):
        faulty = list(golden)
        faulty[position] += 1
        assert classify(None, output, output, tuple(faulty),
                        golden) == DETECTED


def test_watchdog_budget():
    assert watchdog_budget(100) == 10_000  # floor dominates tiny runs
    assert watchdog_budget(1_000_000) == 2_000_000
    assert watchdog_budget(1_000_000, factor=3) == 3_000_000


# -- campaign ----------------------------------------------------------------

def test_campaign_deterministic_across_worker_counts():
    serial = run_campaign(max_workers=1, **TINY)
    clear_cache()
    parallel = run_campaign(max_workers=2, **TINY)
    assert json.dumps(serial, sort_keys=True) \
        == json.dumps(parallel, sort_keys=True)


def test_campaign_report_shape():
    from repro.engines import all_configs
    report = run_campaign(max_workers=1, **TINY)
    assert report["seed"] == TINY["seed"]
    assert report["count_per_cell"] == TINY["count"]
    # The campaign covers every registered config by default.
    assert sum(report["classes"].values()) \
        == len(all_configs()) * TINY["count"]
    assert set(report["classes"]) == set(CLASSES)
    assert set(report["coverage"]) == set(all_configs())
    for cell in report["cells"]:
        assert len(cell["injections"]) == TINY["count"]
        assert sum(cell["outcomes"].values()) == TINY["count"]
        assert cell["golden_instret"] > 0
        for injection in cell["injections"]:
            assert injection["class"] in CLASSES
            assert injection["spec"]["target"] in report["targets"]
    # The report must be JSON-serialisable as-is (the CLI dumps it).
    json.dumps(report)


def test_campaign_report_identical_with_compiled_engines_fenced(
        monkeypatch):
    """Every injected run must execute on the per-instruction loop
    (the fault hook's rebound ``step`` forces the deopt): with the
    trace engine made to explode on entry, the campaign still runs —
    and its report is byte-identical to the unfenced one, so the
    compiled engine was never what produced the numbers."""
    from repro.uarch.pipeline import Machine

    reference = run_campaign(max_workers=1, **TINY)
    clear_cache()

    def boom(self, *_args, **_kwargs):  # pragma: no cover - must not run
        raise AssertionError("compiled engine entered during a "
                             "fault-injection run")

    monkeypatch.setattr(Machine, "_run_traces", boom)
    fenced = run_campaign(max_workers=1, **TINY)
    assert json.dumps(fenced, sort_keys=True) \
        == json.dumps(reference, sort_keys=True)


def test_campaign_same_plan_across_configs():
    report = run_campaign(max_workers=1, **TINY)
    sequences = {}
    for cell in report["cells"]:
        sequence = tuple((injection["spec"]["target"],
                          tuple(injection["spec"]["bits"]))
                         for injection in cell["injections"])
        sequences[cell["config"]] = sequence
    # All three configs face the same fault sequence (indices differ
    # because golden instruction counts differ, targets/bits do not).
    assert len(set(sequences.values())) == 1
