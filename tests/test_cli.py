import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import sumfree
from sumfree import __version__
from sumfree import cli
from sumfree.cache import (CacheRecord, append_record, load_records, lookup, make_record,
                           solver_digest)
from sumfree.cli import main


@pytest.fixture
def cache_path(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    monkeypatch.setenv("SUMFREE_CACHE", str(path))
    return path


RECORD_SET = "(8/177,4/59);(28/177,14/59);(2/3,1)"


def test_verify_record_set(cache_path, capsys):
    code = main(["verify", "--k", "3", "--set", RECORD_SET])
    out = capsys.readouterr().out
    assert code == 0
    assert "measure 77/177" in out
    assert "3-sum-free: yes" in out


def test_verify_failure_exits_1_with_witness(cache_path, capsys):
    code = main(["verify", "--k", "3", "--set", "(1/2,1)"])
    out = capsys.readouterr().out
    assert code == 1
    assert "3-sum-free: no" in out
    assert "witness x=" in out


def test_verify_json_format(cache_path, capsys):
    code = main(["--format", "json", "verify", "--k", "3", "--set", RECORD_SET])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["measure"] == "77/177"
    assert payload["sum_free"] is True
    assert payload["witness"] is None


def test_global_flags_accepted_after_subcommand(cache_path, capsys):
    code = main(["verify", "--k", "3", "--set", RECORD_SET, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["measure"] == "77/177"
    code = main(["certify", "--trials", "20", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["delta_star"] == "1/114"


def test_malformed_set_exits_2_with_position(cache_path, capsys):
    code = main(["verify", "--k", "3", "--set", "(1/0,1)"])
    err = capsys.readouterr().err
    assert code == 2
    assert "position 3" in err


def test_bad_usage_exits_2(cache_path):
    with pytest.raises(SystemExit) as exc:
        main(["continuous", "--k", "3"])  # missing --m
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["continuous", "--k", "3", "--m", "2", "--parallel", "0"], "parallel must be >= 1"),
    (["continuous", "--k", "3", "--m", "2", "--parallel", "-3"], "parallel must be >= 1"),
    (["continuous", "--k", "3", "--m", "2", "--node-limit", "-1"], "node_limit must be >= 0"),
    (["discrete", "--n", "10", "--k", "3", "--enumerate", "--node-limit", "-1"],
     "node_limit must be >= 0"),
    (["certify", "--trials", "5", "--max-intervals", "0"], "max_intervals must be >= 1"),
    (["discrete", "--n", "10", "--k", "3", "--node-limit", "-1"], "node_limit must be >= 0"),
])
def test_bad_numeric_option_exits_2(cache_path, capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_bad_parallel_exits_2_on_a_cache_hit(cache_path, capsys):
    assert main(["continuous", "--k", "3", "--m", "2"]) == 0
    capsys.readouterr()
    assert main(["continuous", "--k", "3", "--m", "2", "--parallel", "0"]) == 2
    assert "parallel must be >= 1" in capsys.readouterr().err


def test_node_limit_zero_is_legal(cache_path, capsys):
    assert main(["continuous", "--k", "3", "--m", "2", "--node-limit", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["status"], payload["nodes_explored"]) == ("interrupted", 0)


def test_continuous_json_and_cache(cache_path, capsys):
    code = main(["continuous", "--k", "3", "--m", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["optimum"] == "77/177"
    assert payload["witnesses"] == [RECORD_SET]
    assert payload["status"] == "proven"

    # second run is served from the cache: identical payload
    code = main(["continuous", "--k", "3", "--m", "3"])
    repeat = json.loads(capsys.readouterr().out)
    assert code == 0 and repeat == payload
    records = load_records(str(cache_path))
    assert len(records) == 1

    # --force recomputes and appends; read still deduplicates to the latest
    code = main(["--force", "continuous", "--k", "3", "--m", "3"])
    assert code == 0
    assert len(load_records(str(cache_path))) == 1
    raw_lines = cache_path.read_text().strip().splitlines()
    assert len(raw_lines) == 2


def test_continuous_parallel_flag(cache_path, capsys):
    code = main(["continuous", "--k", "3", "--m", "2", "--parallel", "2",
                 "--all-optima"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["optimum"] == "3/7"


def test_verbose_lp_trace(cache_path, capsys):
    code = main(["-vv", "--force", "continuous", "--k", "3", "--m", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "continuous m=1 k=3: 3 nodes, 3 pivots, " in captured.err


def test_discrete_cli(cache_path, capsys):
    code = main(["discrete", "--n", "23", "--k", "3", "--enumerate"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["f"] == 12
    assert payload["witnesses"] == [list(range(1, 24, 2))]


def test_certify_cli(cache_path, capsys):
    code = main(["certify", "--trials", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert "delta* = 1/114" in out
    assert "1/66" in out and "1/54" in out


def test_report_is_deterministic(cache_path, capsys):
    main(["discrete", "--n", "10", "--k", "1"])
    main(["certify", "--trials", "20"])
    capsys.readouterr()
    main(["report"])
    first = capsys.readouterr().out
    main(["report"])
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("| kind |")
    assert "delta* = 1/114" in first


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "c.jsonl")
    rec = make_record("discrete", {"n": 5, "k": 1}, {"f": 3}, __version__)
    append_record(path, rec)
    loaded = lookup(path, "discrete", {"n": 5, "k": 1})
    assert loaded == rec


def test_cache_duplicate_last_wins(tmp_path):
    path = str(tmp_path / "c.jsonl")
    append_record(path, CacheRecord("discrete", {"n": 5}, {"f": 1}, "0", "t1"))
    append_record(path, CacheRecord("discrete", {"n": 5}, {"f": 2}, "0", "t2"))
    assert lookup(path, "discrete", {"n": 5}).result == {"f": 2}


def test_cache_survives_corrupt_middle_line(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    append_record(str(path), CacheRecord("discrete", {"n": 5}, {"f": 1}, "0", "t1"))
    with open(path, "a") as fh:
        fh.write("{not json ]\n")
    append_record(str(path), CacheRecord("discrete", {"n": 6}, {"f": 2}, "0", "t2"))
    records = load_records(str(path))
    assert len(records) == 2
    assert "skipping bad cache line" in capsys.readouterr().err


def test_cache_tolerates_unknown_fields(tmp_path):
    path = tmp_path / "c.jsonl"
    line = {"kind": "discrete", "parameters": {"n": 2}, "result": {"f": 1},
            "version": "9.9", "timestamp": "", "future_field": [1, 2, 3]}
    path.write_text(json.dumps(line) + "\n")
    assert lookup(str(path), "discrete", {"n": 2}).result == {"f": 1}


def test_lookup_agrees_with_load_records(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    append_record(str(path), CacheRecord("discrete", {"n": 5}, {"f": 1}, "0", "t1"))
    append_record(str(path), CacheRecord("continuous", {"n": 5}, {"f": 9}, "0", "t2"))
    with open(path, "a") as fh:
        fh.write('{"kind": "discrete", "parameters": {"n": 5}, "resu\n')
        fh.write(json.dumps({"kind": "discrete", "parameters": {"n": 6}, "result": {"f": 4},
                             "version": "0", "timestamp": "", "future_field": [1]}) + "\n")
    append_record(str(path), CacheRecord("discrete", {"n": 5}, {"f": 2}, "0", "t3"))
    # the result holds {"n": 5} verbatim, but the record's key is {"n": 7}
    append_record(str(path), CacheRecord("discrete", {"n": 7}, {"from": {"n": 5}}, "0", "t4"))
    records = load_records(str(path))
    keys = [(kind, {"n": n}) for kind in ("discrete", "continuous", "certify")
            for n in (5, 6, 7, 8)]
    for kind, params in keys:
        assert lookup(str(path), kind, params) == records.get(
            (kind, json.dumps(params, sort_keys=True)))
    assert lookup(str(path), "discrete", {"n": 5}).result == {"f": 2}
    assert "skipping bad cache line" in capsys.readouterr().err


@pytest.mark.parametrize("kind", [["x"], 5], ids=["list", "int"])
def test_cache_line_with_a_non_string_kind_is_skipped(cache_path, capsys, kind):
    params = {"enumerate": False, "k": 1, "n": 5, "node_limit": None}
    line = {"kind": kind, "parameters": params, "result": {}}
    cache_path.write_text(json.dumps(line) + "\n")
    assert main(["discrete", "--n", "5", "--k", "1"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["f"] == 3
    assert "skipping bad cache line" in captured.err
    assert main(["report"]) == 0
    captured = capsys.readouterr()
    assert "f = 3" in captured.out
    assert "skipping bad cache line" in captured.err


def test_cache_record_from_another_version_is_recomputed(cache_path, capsys):
    params = {"n": 5, "k": 1, "enumerate": False, "node_limit": None}
    append_record(str(cache_path), make_record("discrete", params, {"f": 99}, "0.0.0"))
    code = main(["discrete", "--n", "5", "--k", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["f"] == 3
    lines = cache_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["version"] == __version__


def test_report_marks_stale_records(cache_path, capsys):
    params = {"n": 5, "k": 1, "enumerate": False, "node_limit": None}
    append_record(str(cache_path), make_record("discrete", params, {"f": 99}, "0.0.0"))
    assert main(["report"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("| discrete ")]
    assert len(rows) == 1
    assert rows[0].endswith("| 0.0.0 (stale) |")


def test_cache_record_from_another_solver_is_recomputed(cache_path, capsys):
    # same version, older solver source: its tree took 45 nodes, today's 39
    params = {"k": 3, "m": 3, "all_optima": False, "node_limit": None}
    result = {"optimum": "77/177", "witnesses": [RECORD_SET], "nodes_explored": 45,
              "status": "proven", "witnesses_exact": False}
    old = replace(make_record("continuous", params, result, __version__), solver="0" * 8)
    append_record(str(cache_path), old)
    assert main(["report"]) == 0
    assert f"| {__version__} (stale) |" in capsys.readouterr().out
    assert main(["continuous", "--k", "3", "--m", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["nodes_explored"] == 39
    lines = cache_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["solver"] == solver_digest()


def test_cache_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["discrete", "--n", "5", "--k", "1", "--cache", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_cache_path_in_a_missing_directory_exits_2_before_computing(
        tmp_path, capsys, monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("computed before the cache path was checked")

    monkeypatch.setattr(cli, "f_max", not_reached)
    path = tmp_path / "missing" / "cache.jsonl"
    assert main(["discrete", "--n", "5", "--k", "1", "--cache", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_cache_record_missing_result_fields_is_recomputed(cache_path, capsys):
    params = {"n": 5, "k": 1, "enumerate": False, "node_limit": None}
    append_record(str(cache_path), make_record("discrete", params, {"n": 5}, __version__))
    code = main(["discrete", "--n", "5", "--k", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["f"] == 3
    assert len(cache_path.read_text().strip().splitlines()) == 2


def test_report_shows_malformed_record_raw(cache_path, capsys):
    params = {"k": 3, "m": 2, "all_optima": False, "node_limit": None}
    append_record(str(cache_path), make_record("continuous", params, {}, __version__))
    assert main(["report"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("| continuous ")]
    assert len(rows) == 1
    assert f"| {{}} | {__version__} |" in rows[0]


@pytest.mark.parametrize("damage", [
    lambda result: result.update(harness={}),
    lambda result: result["branches"][0].pop("delta_sup"),
], ids=["harness", "branch"])
def test_certify_record_missing_nested_fields(cache_path, capsys, damage):
    assert main(["certify", "--trials", "20", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)
    damage(result)
    params = {"trials": 20, "max_intervals": 6, "seed": 0}
    append_record(str(cache_path), make_record("certify", params, result, __version__))
    assert main(["report"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("| certify ")]
    assert len(rows) == 1 and json.dumps(result, sort_keys=True) in rows[0]
    assert main(["certify", "--trials", "20"]) == 0
    assert "harness: 0 violations in 20 trials" in capsys.readouterr().out
    assert len(cache_path.read_text().strip().splitlines()) == 3


def test_console_entry_point(tmp_path):
    """`python -m sumfree.cli`: main()'s return value is the exit code, and stdout is right."""
    env = dict(os.environ, SUMFREE_CACHE=str(tmp_path / "cli-cache.jsonl"))
    # The child imports the same sumfree as this process, installed or not; the
    # `sumfree` script from [project.scripts] exists only after an install.
    import_root = str(Path(sumfree.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [import_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sumfree.cli", "verify", "--k", "1",
         "--set", "(1/2,1)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "1-sum-free: yes" in proc.stdout
