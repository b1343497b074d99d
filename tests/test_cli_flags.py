"""Uniform CLI flag spellings: --jobs/--cache-dir/--smoke/--json on
every subcommand; the removed historical aliases --workers and
--json-out are usage errors."""

import json

import pytest

from repro.bench.runner import clear_cache
from repro.cli import build_parser, main
from repro.schema import SCHEMA_VERSION


@pytest.fixture
def parser():
    return build_parser()


#: Historical spellings removed after their deprecation window; rows
#: that use one must now fail to parse.
_REMOVED_ALIASES = ("--workers", "--json-out")


@pytest.mark.parametrize("argv,attr,value", [
    (["sweep", "--jobs", "3"], "jobs", 3),
    (["sweep", "--workers", "3"], "jobs", 3),           # removed alias
    (["sweep", "--cache-dir", "/tmp/c"], "cache_dir", "/tmp/c"),
    # argparse accepts an unambiguous prefix of --cache-dir.
    (["sweep", "--cache", "/tmp/c"], "cache_dir", "/tmp/c"),
    (["sweep", "--json", "/tmp/o.json"], "json", "/tmp/o.json"),
    (["sweep", "--json-out", "/tmp/o.json"], "json", "/tmp/o.json"),
    (["faults", "--workers", "2"], "jobs", 2),
    (["run", "fibo", "--smoke"], "smoke", True),
    (["run", "fibo", "--jobs", "1"], "jobs", 1),
    (["run", "fibo", "--json-out", "/tmp/r.json"], "json", "/tmp/r.json"),
    (["bench", "check", "--smoke"], "smoke", True),
    (["bench", "check", "--workers", "4"], "jobs", 4),
    (["serve", "--jobs", "0"], "jobs", 0),
    (["serve", "--workers", "0"], "jobs", 0),
    (["submit", "fibo", "--smoke"], "smoke", True),
    (["profile", "fibo", "--smoke"], "smoke", True),
    (["trace", "fibo", "--json", "/tmp/t.json"], "json", "/tmp/t.json"),
    (["tables", "--json", "/tmp/t.json"], "json", "/tmp/t.json"),
])
def test_canonical_and_alias_spellings(parser, argv, attr, value, capsys):
    if any(flag in argv for flag in _REMOVED_ALIASES):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        return
    args = parser.parse_args(argv)
    assert getattr(args, attr) == value


@pytest.mark.parametrize("subcommand", ["sweep", "faults", "serve"])
def test_aliases_hidden_from_help(parser, subcommand, capsys):
    with pytest.raises(SystemExit):
        parser.parse_args([subcommand, "--help"])
    out = capsys.readouterr().out
    assert "--jobs" in out and "--cache-dir" in out
    assert "--workers" not in out
    assert "--cache " not in out  # --cache-dir itself must stay visible
    assert "--json-out" not in out


def test_serve_and_submit_registered(parser, capsys):
    with pytest.raises(SystemExit):
        parser.parse_args(["--help"])
    out = capsys.readouterr().out
    assert "serve" in out and "submit" in out


def test_run_smoke_json_end_to_end(tmp_path):
    clear_cache()
    out_path = tmp_path / "run.json"
    code = main(["run", "fibo", "--smoke", "--config", "typed",
                 "--no-disk-cache", "--json", str(out_path)])
    clear_cache()
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["version"] == SCHEMA_VERSION
    assert payload["benchmark"] == "fibo" and payload["scale"] == 2
    assert payload["counters"]["instructions"] > 0


def test_tables_json(tmp_path):
    out_path = tmp_path / "tables.json"
    assert main(["tables", "--json", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert set(payload) >= {"table1", "table6", "table7", "table8"}


def test_bench_check_smoke_validates_committed_baseline():
    assert main(["bench", "check", "--smoke"]) == 0


def test_submit_without_target_is_usage_error(capsys):
    assert main(["submit"]) == 2
    assert "required" in capsys.readouterr().err


def test_submit_without_daemon_fails_cleanly(tmp_path, capsys):
    code = main(["submit", "fibo",
                 "--socket", str(tmp_path / "nope.sock")])
    assert code == 1
    assert "daemon" in capsys.readouterr().err
