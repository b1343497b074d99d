"""The repro.api facade: dispatch, schema round-trips and the
keyword-only run_lua/run_js adapters."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import repro
from repro import api
from repro.api import ExecutionRequest, ExecutionResult, run
from repro.bench import cache as result_cache
from repro.bench.runner import clear_cache
from repro.engines.js.vm import run_js
from repro.engines.lua.vm import run_lua
from repro.schema import SCHEMA_VERSION, SchemaError, stamp


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path):
    clear_cache()
    with result_cache.temporary(tmp_path):
        yield
    clear_cache()


# -- run(): the single documented entry point --------------------------------

def test_run_source():
    result = run("lua", "print(1 + 2)", config="typed")
    assert result.ok and result.op == "run"
    assert result.output == "3\n"
    assert result.exit_code == 0
    assert result.counters.instructions > 0
    assert result.wall_seconds > 0


def test_run_js_source():
    result = run("js", "print(21 * 2)", config="typed")
    assert result.ok and result.output == "42\n"


def test_run_matches_engine_adapters():
    source = "local t = {1, 2, 3}\nprint(t[1] + t[3])\n"
    facade = run("lua", source, config="typed")
    adapter = run_lua(source, config="typed")
    assert facade.output == adapter.output == "4\n"
    assert facade.counters.as_dict() == adapter.counters.as_dict()


def test_run_dispatches_benchmark_names():
    cold = run("lua", "fibo", scale=5, config="baseline")
    assert cold.op == "bench" and cold.benchmark == "fibo"
    assert cold.scale == 5 and not cold.cached
    warm = run("lua", "fibo", scale=5, config="baseline")
    assert warm.cached
    assert warm.counters.as_dict() == cold.counters.as_dict()


def test_unattributed_bench_is_never_answered_from_cache():
    """``attribute=False`` always simulates afresh, so the result must
    neither claim to be cached nor carry the cached attributed
    record's per-bytecode counts."""
    seeded = run("lua", "fibo", scale=6, config="typed")
    assert seeded.counters.bytecode_counts
    fresh = run("lua", "fibo", scale=6, config="typed", attribute=False)
    assert not fresh.cached
    assert not fresh.counters.bytecode_counts
    assert fresh.counters.cycles == seeded.counters.cycles


def test_run_rejects_unknown_engine():
    with pytest.raises(SchemaError):
        run("forth", "print(1)")


def test_facade_is_clean_under_deprecation_errors():
    """The acceptance one-liner: no DeprecationWarning on the new path."""
    pkg_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    script = ("from repro.api import run; "
              "result = run('lua', 'print(1+2)', config='typed'); "
              "assert result.output == '3\\n', result.output")
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", script],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# -- ExecutionRequest / ExecutionResult schema -------------------------------

def test_request_round_trip():
    request = ExecutionRequest(op="run", engine="lua",
                               source="print(1)", config="typed")
    payload = json.loads(json.dumps(request.as_dict()))
    assert payload["version"] == SCHEMA_VERSION
    assert ExecutionRequest.from_dict(payload) == request


def test_request_key_ignores_scheduling_metadata():
    base = ExecutionRequest(op="run", engine="lua", source="print(1)")
    hurried = ExecutionRequest(op="run", engine="lua", source="print(1)",
                               deadline=1.5, priority=0)
    other = ExecutionRequest(op="run", engine="lua", source="print(2)")
    assert base.key() == hurried.key()
    assert base.key() != other.key()


def test_request_rejects_version_mismatch():
    payload = ExecutionRequest(op="run", engine="lua",
                               source="print(1)").as_dict()
    payload["version"] = SCHEMA_VERSION + 1
    with pytest.raises(SchemaError):
        ExecutionRequest.from_dict(payload)


def test_request_rejects_unknown_fields():
    payload = ExecutionRequest(op="run", engine="lua",
                               source="print(1)").as_dict()
    payload["shards"] = 4
    with pytest.raises(SchemaError):
        ExecutionRequest.from_dict(payload)


@pytest.mark.parametrize("kwargs", [
    dict(op="teleport"),
    dict(op="run", engine="forth", source="x"),
    dict(op="run", engine="lua"),                       # no source
    dict(op="bench", engine="lua"),                     # no benchmark
    dict(op="run", engine="lua", source="x", config="warp"),
    dict(op="run", engine="lua", source="x", deadline=-1),
    dict(op="run", engine="lua", source="x", priority=11),
])
def test_request_validation_rejects_nonsense(kwargs):
    with pytest.raises(SchemaError):
        ExecutionRequest(**kwargs).validate()


def test_result_round_trip():
    result = run("lua", "print(7)", config="typed")
    payload = json.loads(json.dumps(result.as_dict()))
    assert payload["version"] == SCHEMA_VERSION
    back = ExecutionResult.from_dict(payload)
    assert back.ok and back.output == "7\n"
    assert back.counters.as_dict() == result.counters.as_dict()


def _asdict_payload(result):
    """The payload as ``ExecutionResult.as_dict`` once built it, from a
    deep copy by ``dataclasses.asdict``."""
    payload = dataclasses.asdict(result)
    payload["counters"] = result.counters.as_dict() \
        if result.counters is not None else None
    return stamp(payload)


def _results():
    """A run, a bench, a cached bench, an error and a sweep result."""
    sweep = api.execute(ExecutionRequest(
        op="sweep", engines=("lua",), benchmarks=("fibo",),
        configs=("baseline", "typed", "chklb"), scales={"fibo": 3}, jobs=1))
    assert sweep.cells
    return {
        "run": run("lua", "print(7)", config="typed"),
        "bench": run("lua", "fibo", scale=4, config="typed"),
        "cached": run("lua", "fibo", scale=4, config="typed"),
        "error": ExecutionResult(ok=False, engine="lua", error={
            "type": "SimulationError", "message": "boom [pc=0x10]"}),
        "sweep": sweep,
    }


def test_result_payload_equals_the_deep_copied_one():
    results = _results()
    assert results["cached"].cached and not results["bench"].cached
    for name, result in results.items():
        payload = result.as_dict()
        assert json.dumps(payload, sort_keys=True) \
            == json.dumps(_asdict_payload(result), sort_keys=True), name
        back = ExecutionResult.from_dict(json.loads(json.dumps(payload)))
        assert json.dumps(back.as_dict(), sort_keys=True) \
            == json.dumps(payload, sort_keys=True), name


def test_result_payload_does_not_alias_the_result():
    results = _results()
    for name in ("error", "sweep"):
        result = results[name]
        before = json.dumps(result.as_dict(), sort_keys=True)
        payload = result.as_dict()
        for value in (payload["error"], payload["cells"]):
            if value:
                for key in list(value):
                    if isinstance(value[key], dict):
                        value[key].clear()
                    else:
                        value[key] = None
        assert json.dumps(result.as_dict(), sort_keys=True) == before


def test_execute_payload_is_the_wire_body():
    payload = ExecutionRequest(op="run", engine="lua",
                               source="print(5)", config="typed").as_dict()
    out = api.execute_payload(payload)
    assert out["version"] == SCHEMA_VERSION
    assert out["ok"] and out["output"] == "5\n"
    assert out["counters"]["instructions"] > 0


# -- keyword-only engine adapters --------------------------------------------
#
# The PR-5 warn-once positional/renamed-keyword shims are gone: legacy
# call styles are now hard TypeErrors (see docs/API.md).

def test_positional_config_rejected():
    with pytest.raises(TypeError):
        run_lua("print(1)", "typed")


def test_renamed_keywords_rejected():
    with pytest.raises(TypeError):
        run_lua("print(1 + 1)", mode="typed")
    with pytest.raises(TypeError):
        run_lua("print(1 + 1)", limit=20_000_000)
    with pytest.raises(TypeError):
        run_js("print(1)", machine=None)


def test_js_adapter_rejects_positional_like_lua():
    with pytest.raises(TypeError):
        run_js("print(3)", "typed")


def test_adapter_rejects_unknown_keyword():
    with pytest.raises(TypeError):
        run_lua("print(1)", turbo=True)


def test_keyword_only_call_still_works():
    result = run_lua("print(1 + 1)", config="typed",
                     max_instructions=20_000_000)
    assert result.output == "2\n"
