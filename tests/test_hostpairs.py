"""The summary step of ``tools/hostpairs.py`` on synthetic runs: medians,
the parent's IQR, wins per pair by each metric's ``better``, the
``sim_mcycles`` identity check, and the benchmark-identity refusal;
and ``--compare`` on synthetic artifacts: the refusal of a prior that
is unstamped, of another kind or version, or unreadable, and the diff
of change medians with its note on workloads run on other seeds."""

import importlib.util
import json
import os

import pytest

from repro import schema

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "hostpairs.py")
_SPEC = importlib.util.spec_from_file_location("hostpairs", _PATH)
hostpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(hostpairs)

END_TO_END = [
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "sim_mcycles", "unit": "Mcycles", "better": "lower",
     "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _run(p50, ops, mcycles):
    return {"attempted": 100, "metrics": {
        "p50_ms": p50, "ops_per_s": ops, "sim_mcycles": mcycles}}


def _pairs():
    # Parent p50 10..14, change 9, 9, 9, 15, 9: four wins of five.
    return [{"seed": seed, "parent": _run(10.0 + n, 50.0, 7.0 + n),
             "change": _run(15.0 if n == 3 else 9.0, 50.0 + n, 7.0 + n)}
            for n, seed in enumerate(range(211, 216))]


def test_parse_seeds():
    assert hostpairs.parse_seeds("211-214") == [211, 212, 213, 214]
    assert hostpairs.parse_seeds("5,7-8") == [5, 7, 8]
    assert hostpairs.parse_seeds("3") == [3]


def test_summary_medians_iqr_and_wins():
    summary = hostpairs.summarize(_pairs(), END_TO_END)
    assert summary["seeds"] == [211, 212, 213, 214, 215]
    p50 = summary["metrics"]["p50_ms"]
    assert (p50["parent_median"], p50["change_median"]) == (12.0, 9.0)
    # Exclusive quartiles of 10..14: 10.5 and 13.5.
    assert p50["parent_iqr"] == 3.0
    assert (p50["wins"], p50["pairs"]) == (4, 5)
    assert p50["gap_exceeds_iqr"] is False  # 3.0 is not more than 3.0
    ops = summary["metrics"]["ops_per_s"]
    # Higher is better: equal on the first pair, better on the rest.
    assert (ops["wins"], ops["parent_iqr"]) == (4, 0.0)
    assert ops["gap_exceeds_iqr"] is True
    # A metric no run reports is left out, not summarised as empty.
    assert "setup_s" not in summary["metrics"]
    assert summary["sim_mcycles_identical"] is True
    assert summary["pairs"] == _pairs()


def test_summary_flags_a_changed_sim_mcycles():
    pairs = _pairs()
    pairs[2]["change"]["metrics"]["sim_mcycles"] += 0.001
    summary = hostpairs.summarize(pairs, END_TO_END)
    assert summary["sim_mcycles_identical"] is False
    assert summary["metrics"]["sim_mcycles"]["wins"] == 0


def test_summary_is_a_stampable_artifact():
    payload = schema.artifact(hostpairs.ARTIFACT_KIND, {
        "workloads": {"run-hot": hostpairs.summarize(_pairs(),
                                                     END_TO_END)}})
    payload = json.loads(json.dumps(payload))
    assert schema.require_artifact(payload, "hostbench") is payload


def test_benchmark_differences(tmp_path):
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        (tree / "hostbench" / "__pycache__").mkdir(parents=True)
        (tree / "hostbench" / "run.py").write_text("run\n")
        (tree / "BENCHMARK.json").write_text("{}\n")
    # Bytecode caches are not part of the benchmark.
    (trees[0] / "hostbench" / "__pycache__" / "run.pyc").write_text("x")
    assert hostpairs.benchmark_differences(*map(str, trees)) == []
    (trees[1] / "hostbench" / "run.py").write_text("changed\n")
    (trees[1] / "hostbench" / "extra.py").write_text("new\n")
    assert hostpairs.benchmark_differences(*map(str, trees)) == [
        os.path.join("hostbench", "extra.py"),
        os.path.join("hostbench", "run.py")]


@pytest.mark.parametrize("text", ["", "x-y"])
def test_parse_seeds_rejects_garbage(text):
    with pytest.raises(ValueError):
        hostpairs.parse_seeds(text)


def _artifact(p50, seed=211, **stamp):
    """A stamped hostbench artifact whose run-hot change median of
    ``p50_ms`` is ``p50``; ``stamp`` overrides its kind or version."""
    pairs = [{"seed": seed, "parent": _run(10.0, 50.0, 7.0),
              "change": _run(p50, 50.0, 7.0)}]
    payload = schema.artifact(hostpairs.ARTIFACT_KIND, {
        "change": "abc",
        "workloads": {"run-hot": hostpairs.summarize(pairs, END_TO_END)}})
    payload.update(stamp)
    return payload


@pytest.mark.parametrize("stamp", [
    {"kind": "simperf"}, {"version": schema.SCHEMA_VERSION - 1},
    {"kind": None, "version": None}], ids=["kind", "version", "unstamped"])
def test_compare_refuses_a_mismatched_prior(tmp_path, capsys, stamp):
    prior = tmp_path / "prior.json"
    payload = {key: value for key, value in _artifact(9.0, **stamp).items()
               if value is not None}
    prior.write_text(json.dumps(payload))
    # Refused before any git command or run.
    assert hostpairs.main(["--parent", "HEAD", "--workload", "run-hot:1",
                           "--compare", str(prior)]) == 2
    assert "refusing to compare" in capsys.readouterr().err


def test_compare_refuses_an_unreadable_prior(tmp_path):
    prior = tmp_path / "prior.json"
    assert hostpairs.main(["--parent", "HEAD", "--workload", "run-hot:1",
                           "--compare", str(prior)]) == 2
    prior.write_text("{not json")
    assert hostpairs.main(["--parent", "HEAD", "--workload", "run-hot:1",
                           "--compare", str(prior)]) == 2


def test_compare_diffs_change_medians(tmp_path):
    path = tmp_path / "prior.json"
    path.write_text(json.dumps(_artifact(8.0)))
    prior = hostpairs.load_prior(str(path))
    current = _artifact(6.0)
    # A workload only this run measured has nothing to compare with.
    current["workloads"]["sweep-cold"] = current["workloads"]["run-hot"]
    echoed = []
    rows = hostpairs.compare_with(prior, current, echo=echoed.append)
    assert rows == [("run-hot", "p50_ms", 8.0, 6.0, 0.75),
                    ("run-hot", "ops_per_s", 50.0, 50.0, 1.0),
                    ("run-hot", "sim_mcycles", 7.0, 7.0, 1.0)]
    assert len(echoed) == 1 + len(rows)
    assert "x0.750" in echoed[1]
    # Medians of other seeds are compared, but not without a note.
    echoed = []
    hostpairs.compare_with(prior, _artifact(6.0, seed=221),
                           echo=echoed.append)
    assert echoed[1] == "  run-hot: seeds [211] in the prior, [221] here"
    assert len(echoed) == 2 + len(rows)
