import io
import json
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from oracles import MALFORMED_UNION_TEXTS, parse_union_fraction

import sumfree
from sumfree import __version__
from sumfree import cli
from sumfree.cache import (CacheRecord, append_record, lookup, make_record, read_records,
                           solver_digest)
from sumfree.cli import main
from sumfree.rationals import RationalParseError


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


@pytest.mark.parametrize("text", MALFORMED_UNION_TEXTS)
def test_every_malformed_set_exits_2_with_its_position(cache_path, capsys, text):
    """The message is the ``Fraction`` parse path's, position included, and no traceback."""
    ref = pytest.raises(RationalParseError, parse_union_fraction, text).value
    code = main(["verify", "--k", "3", "--set", text])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {ref}\n"
    assert f"at position {ref.pos} in " in captured.err


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
    (["continuous", "--k", "3", "--m", "0"], "m must be >= 1, got 0"),
    (["continuous", "--k", "0", "--m", "2"], "k must be >= 1, got 0"),
    (["discrete", "--n", "0", "--k", "3"], "n must be >= 1, got 0"),
    (["verify", "--k", "0", "--set", "(2/3,1)"], "k must be >= 1, got 0"),
    (["certify", "--trials", "0"], "trials must be >= 1, got 0"),
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
    assert len(list(read_records(str(cache_path)))) == 1

    # --force recomputes and appends a record under the same key
    code = main(["--force", "continuous", "--k", "3", "--m", "3"])
    assert code == 0
    assert len({rec.key() for rec in read_records(str(cache_path))}) == 1
    raw_lines = cache_path.read_text().strip().splitlines()
    assert len(raw_lines) == 2


def test_continuous_parallel_flag(cache_path, capsys):
    code = main(["continuous", "--k", "3", "--m", "2", "--parallel", "2",
                 "--all-optima"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["optimum"] == "3/7"


def test_double_v_is_the_verbose_flag(cache_path, capsys):
    """``-vv`` is ``-v`` given twice: one ``-v`` line, as ``-v`` writes."""
    code = main(["-vv", "--force", "continuous", "--k", "3", "--m", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "continuous m=1 k=3: 2 nodes, 2 pivots, " in captured.err


@pytest.mark.parametrize("argv,prefix", [
    (["continuous", "--k", "3", "--m", "1"],
     "continuous m=1 k=3: 2 nodes, 2 pivots, 0 forced-zero closures, "),
    (["discrete", "--n", "9", "--k", "3"], "discrete n=9 k=3: "),
    (["certify", "--trials", "20", "--seed", "5"], "certify trials=20 seed=5: "),
], ids=["continuous", "discrete", "certify"])
def test_verbose_line_on_a_miss_and_none_on_a_hit(cache_path, capsys, argv, prefix):
    """A computed run with -v writes one stderr line, its prefix then its time; a hit writes none."""
    assert main(argv + ["-v"]) == 0
    assert re.fullmatch(re.escape(prefix) + r"\d+\.\d\ds\n", capsys.readouterr().err)
    assert main(argv + ["-v"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("all_optima", [False, True])
def test_verbose_line_counts_forced_zero_closures(cache_path, capsys, all_optima):
    """The search closes tie nodes whose optimum forces a length or an
    interior gap to 0, and the -v line says how many; ``--all-optima`` is
    ignored, so the line is the same with it and without."""
    argv = ["-v", "continuous", "--k", "1", "--m", "5"] + ["--all-optima"] * all_optima
    assert main(argv) == 0
    line = capsys.readouterr().err
    assert line.startswith("continuous m=5 k=1: 305 nodes, 320 pivots, "), line
    closures = re.search(r" (\d+) forced-zero closures, ", line)
    assert closures and int(closures.group(1)) > 0


def test_all_optima_flag_shares_the_cache_record(cache_path, capsys):
    """``--all-optima`` is not part of the cache key: the run with it is a
    hit on the record the run without it wrote, so it prints no -v line."""
    assert main(["continuous", "--k", "3", "--m", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["continuous", "--k", "3", "--m", "3", "--all-optima", "-v"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == payload and captured.err == ""
    assert len({rec.key() for rec in read_records(str(cache_path))}) == 1


@pytest.mark.parametrize("argv,default", [
    (["verify", "--k", "3", "--set", RECORD_SET], "table"),
    (["continuous", "--k", "3", "--m", "2"], "json"),
    (["discrete", "--n", "9", "--k", "3"], "json"),
    (["certify", "--trials", "20"], "table"),
    (["report"], "table"),
], ids=["verify", "continuous", "discrete", "certify", "report"])
def test_each_subcommand_prints_its_default_format(cache_path, capsys, argv, default):
    outputs = {}
    for fmt in (None, "json", "table"):
        assert main(argv + ([] if fmt is None else ["--format", fmt])) == 0
        outputs[fmt] = capsys.readouterr().out
    assert outputs["json"] != outputs["table"]
    assert outputs[None] == outputs[default]


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


CERTIFY_TABLE = """\
branch suprema:
  middle_block_empty   x <= 4/9 + 8/3*d        delta_sup = 1/66
  wide_gap             x <= 4/9 + 2*d          delta_sup = 1/54
  narrow_gap           x <= 4/9 + 16/3*d       delta_sup = 1/114
delta* = 1/114
inequality chain at the boundary point: ok
harness: 0 violations in 200 trials (min slack 0)
"""
CERTIFY_JSON = (
    '{"branches": [{"bound": "4/9 + 8/3*d", "delta_sup": "1/66", "name": "middle_block_empty"}, '
    '{"bound": "4/9 + 2*d", "delta_sup": "1/54", "name": "wide_gap"}, '
    '{"bound": "4/9 + 16/3*d", "delta_sup": "1/114", "name": "narrow_gap"}], '
    '"chain_ok": true, "delta_star": "1/114", '
    '"harness": {"max_intervals": 6, "min_slack": "0", "min_slack_example": "(5/21,3/4)", '
    '"seed": 0, "trials": 200, "violations": 0}, '
    '"steps": [{"lhs": "28/57", "name": "scaled_halving", "ok": true, "rhs": "1/2"}, '
    '{"lhs": "28/57", "name": "sumset_cases", "ok": true, "rhs": "28/57"}, '
    '{"lhs": "2/57", "name": "inf_bound", "ok": true, "rhs": "2/57"}, '
    '{"lhs": "1/57", "name": "top_slice_budget", "ok": true, "rhs": "1/57"}, '
    '{"lhs": "20/171", "name": "low_block_bound", "ok": true, "rhs": "20/171"}]}\n')


@pytest.mark.parametrize("fmt,expected", [("table", CERTIFY_TABLE), ("json", CERTIFY_JSON)])
def test_certify_stdout_is_pinned(cache_path, capsys, fmt, expected):
    """Every byte ``certify`` prints, on a miss and on the hit that follows."""
    for _ in range(2):
        assert main(["certify", "--trials", "200", "--seed", "0", "--format", fmt]) == 0
        assert capsys.readouterr().out == expected


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
    append_record(path, CacheRecord("discrete", {"n": 5}, {"f": 1}, "0", solver=""))
    append_record(path, CacheRecord("discrete", {"n": 5}, {"f": 2}, "0", solver=""))
    assert lookup(path, "discrete", {"n": 5}).result == {"f": 2}


def test_cache_survives_corrupt_middle_line(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    append_record(str(path), CacheRecord("discrete", {"n": 5}, {"f": 1}, "0", solver=""))
    with open(path, "a") as fh:
        fh.write("{not json ]\n")
    append_record(str(path), CacheRecord("discrete", {"n": 6}, {"f": 2}, "0", solver=""))
    assert [rec.parameters for rec in read_records(str(path))] == [{"n": 5}, {"n": 6}]
    assert "skipping bad cache line" in capsys.readouterr().err


def test_cache_tolerates_unknown_fields(tmp_path):
    path = tmp_path / "c.jsonl"
    line = {"kind": "discrete", "parameters": {"n": 2}, "result": {"f": 1},
            "version": "9.9", "timestamp": "", "future_field": [1, 2, 3]}
    path.write_text(json.dumps(line) + "\n")
    assert lookup(str(path), "discrete", {"n": 2}).result == {"f": 1}


def _warned_lines(err: str) -> list[int]:
    return [int(n) for n in re.findall(r":(\d+): skipping bad cache line", err)]


def _record_line(kind: str, params: dict, result: dict, **extra) -> bytes:
    return json.dumps({"kind": kind, "parameters": params, "result": result,
                       "version": "0", "timestamp": "", **extra}).encode()


def test_lookup_agrees_with_load_records(tmp_path, capsys):
    """``lookup`` finds what loading every record and keeping the last per key finds."""
    key = b'{"n": 5}'
    lines = [
        _record_line("discrete", {"n": 5}, {"f": 1}),
        _record_line("continuous", {"n": 5}, {"f": 9}),
        b'{"kind": "discrete", "parameters": {"n": 5}, "resu',  # bad JSON, holds the key
        _record_line("discrete", {"n": 6}, {"f": 4}, future_field=[1]),
        b"\xff " + key,  # not UTF-8, holds the key
        b"{not json ]",  # bad, without the key
        _record_line("discrete", {"n": 5}, {"f": 2}),
        b"",
        # the result holds {"n": 5} verbatim, but the record's key is {"n": 7}
        _record_line("discrete", {"n": 7}, {"from": {"n": 5}}),
        _record_line("certify", {"n": 5}, {"again": {"n": 5}}),  # the key text twice
        key + b" " + key,  # the key text twice on a bad line: one warning
        b'{"parameters": ' + key + b",",  # its JSON error is placed after the line break
        _record_line("discrete", {"n": 8}, {"f": 5}),
    ]
    bad, bad_with_key = [3, 5, 6, 11, 12], [3, 5, 11, 12]
    keys = [(kind, {"n": n}) for kind in ("discrete", "continuous", "certify")
            for n in (5, 6, 7, 8)]
    path = tmp_path / "c.jsonl"
    warnings = []
    # each of the line breaks a text-mode read splits at, with and without a final one;
    # that read gives every line ending in "\n", so each prints the same warnings
    for brk in (b"\n", b"\r\n", b"\r"):
        for last in (brk, b""):
            path.write_bytes(brk.join(lines) + last)
            capsys.readouterr()
            records = {rec.key(): rec for rec in read_records(str(path))}
            err = capsys.readouterr().err
            assert _warned_lines(err) == bad
            assert len(records) == 6 and records[("discrete", '{"n": 8}')].result == {"f": 5}
            for kind, params in keys:
                found = lookup(str(path), kind, params)
                assert found == records.get((kind, json.dumps(params, sort_keys=True)))
                lookup_err = capsys.readouterr().err
                assert _warned_lines(lookup_err) == (
                    bad_with_key if params == {"n": 5} else [])
                err += lookup_err
            warnings.append(err)
            assert lookup(str(path), "discrete", {"n": 5}).result == {"f": 2}
            assert lookup(str(path), "certify", {"n": 5}).result == {"again": {"n": 5}}
    assert warnings == [warnings[0]] * 6
    assert "(Expecting property name enclosed in double quotes: line 2 column 1" in warnings[0]


def test_append_record_writes_the_asdict_line(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = make_record("discrete", {"n": 9, "k": 3, "enumerate": True, "node_limit": None},
                      {"f": 5, "witnesses": [[1, 3, 5, 7, 9], [2, [4, {"x": [6]}]]]},
                      __version__)
    append_record(str(path), rec)
    assert path.read_text() == json.dumps(rec._asdict(), sort_keys=True) + "\n"
    assert list(read_records(str(path))) == [rec]


@pytest.mark.parametrize("parameters, result", [
    ({"set": "(1/3,½)", "name": "Schur–Erdős"}, {"note": "μ ≤ 1/2 − δ", "emoji": "\U0001f600"}),
    ({"z": {"b": {"y": 1, "x": [2, {"d": 3, "c": 4}]}}, "a": {}}, {"m": {"k": {}, "j": [[]]}}),
    ({"node_limit": None, "enumerate": True}, {"exact": False, "witness": None, "ok": True}),
], ids=["non-ascii", "nested", "none-and-bools"])
def test_record_line_is_byte_identical_to_json_dumps(tmp_path, parameters, result):
    path = tmp_path / "c.jsonl"
    rec = CacheRecord("discrete", parameters, result, "0", solver="")
    append_record(str(path), rec)
    assert path.read_bytes() == (json.dumps(rec._asdict(), sort_keys=True) + "\n").encode()
    assert rec.key() == ("discrete", json.dumps(parameters, sort_keys=True))
    assert lookup(str(path), "discrete", parameters) == rec


def test_a_record_over_64_kib_is_written_in_full(tmp_path):
    path = tmp_path / "c.jsonl"
    witnesses = [list(range(i, i + 100)) for i in range(200)]
    rec = CacheRecord("discrete", {"n": 300, "k": 3}, {"witnesses": witnesses}, "0", solver="")
    line = (json.dumps(rec._asdict(), sort_keys=True) + "\n").encode()
    assert len(line) > 65536 > io.DEFAULT_BUFFER_SIZE
    append_record(str(path), CacheRecord("discrete", {"n": 5}, {"f": 1}, "0", solver=""))
    size = path.stat().st_size
    append_record(str(path), rec)
    assert path.read_bytes()[size:] == line
    assert lookup(str(path), "discrete", {"n": 300, "k": 3}) == rec


def test_an_append_after_a_last_line_without_a_break_keeps_both(cache_path, capsys):
    """A file whose final line break was dropped (by an editor, or a write cut
    short) gets a line break before the next record, which would otherwise be
    merged into the last line and lose both records."""
    assert main(["discrete", "--n", "10", "--k", "3"]) == 0
    data = cache_path.read_bytes()
    assert data.endswith(b"}\n")
    cache_path.write_bytes(data[:-1])
    assert main(["discrete", "--n", "11", "--k", "3"]) == 0
    capsys.readouterr()
    assert cache_path.read_bytes().count(b"\n") == 2
    assert [rec.parameters["n"] for rec in read_records(str(cache_path))] == [10, 11]
    assert main(["discrete", "--n", "10", "--k", "3"]) == 0  # a hit
    assert cache_path.read_bytes().count(b"\n") == 2
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("before", [b"", b"\r", b"\n", b"\r\n", b"{}\r", b"{}\r\n"],
                         ids=["empty", "cr", "lf", "crlf", "line-cr", "line-crlf"])
def test_an_append_after_a_line_break_or_to_an_empty_file_adds_no_break(tmp_path, before):
    path = tmp_path / "c.jsonl"
    path.write_bytes(before)
    rec = CacheRecord("discrete", {"n": 5}, {"f": 1}, "0", solver="")
    append_record(str(path), rec)
    assert path.read_bytes() == before + (json.dumps(rec._asdict(), sort_keys=True) + "\n").encode()


def test_solver_digest_is_the_path_glob_formula():
    """The digest lists the package's ``.py`` files without ``pathlib``, and
    gives what the ``Path.glob`` formula it replaced gives."""
    crc = 0
    for path in sorted(Path(sumfree.__file__).parent.glob("*.py")):
        crc = zlib.crc32(path.name.encode() + b"\0" + path.read_bytes() + b"\0", crc)
    assert solver_digest() == f"{crc:08x}"


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


def test_report_format_json_lists_records_in_table_order(cache_path, capsys):
    params = {"n": 5, "k": 1, "enumerate": False, "node_limit": None}
    append_record(str(cache_path), make_record("discrete", params, {"f": 99}, "0.0.0"))
    main(["certify", "--trials", "20"])
    main(["discrete", "--n", "10", "--k", "1"])
    capsys.readouterr()
    assert main(["report"]) == 0
    table = [line.split(" | ")[:2] for line in capsys.readouterr().out.splitlines()[2:]]
    assert main(["report", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [[f"| {r['kind']}", f"`{json.dumps(r['parameters'], sort_keys=True)}`"]
            for r in rows] == table
    assert [set(r) for r in rows] == [{"kind", "parameters", "result", "version", "stale"}] * 3
    assert [(r["kind"], r["stale"]) for r in rows] == [
        ("certify", False), ("discrete", False), ("discrete", True)]
    assert rows[2]["result"] == {"f": 99} and rows[2]["version"] == "0.0.0"
    assert rows[0]["result"]["delta_star"] == "1/114"


def test_cache_record_from_another_solver_is_recomputed(cache_path, capsys):
    # same version, older solver source: its tree took 45 nodes, today's 29
    params = {"k": 3, "m": 3, "node_limit": None}
    result = {"optimum": "77/177", "witnesses": [RECORD_SET], "nodes_explored": 45,
              "status": "proven", "witnesses_exact": False}
    old = make_record("continuous", params, result, __version__)._replace(solver="0" * 8)
    append_record(str(cache_path), old)
    assert main(["report"]) == 0
    assert f"| {__version__} (stale) |" in capsys.readouterr().out
    assert main(["continuous", "--k", "3", "--m", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["nodes_explored"] == 29
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


@pytest.mark.parametrize("argv", [
    ["discrete", "--n", "5", "--k", "3"],
    ["report"],
    ["verify", "--k", "3", "--set", RECORD_SET],
    ["continuous", "--k", "3", "--m", "2"],
    ["certify", "--trials", "10"],
], ids=lambda argv: argv[0])
def test_an_empty_cache_path_exits_2_and_creates_no_file(tmp_path, capsys, monkeypatch, argv):
    """``--cache ""`` is rejected, not read as "no --cache": neither
    ``$SUMFREE_CACHE`` nor the default path is used or created."""
    env_path = tmp_path / "env.jsonl"
    monkeypatch.setenv("SUMFREE_CACHE", str(env_path))
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--cache", ""]) == 2
    assert capsys.readouterr() == ("", "error: cache path must not be empty\n")
    assert list(tmp_path.iterdir()) == []


def test_an_empty_cache_variable_means_the_default_path(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SUMFREE_CACHE", "")
    monkeypatch.chdir(tmp_path)
    assert main(["discrete", "--n", "5", "--k", "3"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["sumfree-cache.jsonl"]


def test_a_cache_line_with_a_timestamp_is_a_hit(cache_path, capsys, monkeypatch):
    """A line as 0.19.0 wrote it, with a ``timestamp``, of this version and
    solver source is served: the field is ignored, nothing is computed and
    nothing appended."""
    def not_reached(*args, **kwargs):
        raise AssertionError("a cached result was recomputed")

    monkeypatch.setattr(cli, "f_max", not_reached)
    params = {"enumerate": False, "k": 1, "n": 5, "node_limit": None}
    result = {"f": 3, "k": 1, "n": 5, "witnesses": [[1, 3, 5]]}
    line = json.dumps({"kind": "discrete", "parameters": params, "result": result,
                       "solver": solver_digest(), "timestamp": "2026-01-01T00:00:00+00:00",
                       "version": __version__}, sort_keys=True) + "\n"
    cache_path.write_text(line)
    assert main(["discrete", "--n", "5", "--k", "1"]) == 0
    assert capsys.readouterr() == (json.dumps(result, sort_keys=True) + "\n", "")
    assert cache_path.read_text() == line


def test_discrete_node_limit_exits_1_with_the_node_count(tmp_path, capsys):
    path = tmp_path / "fresh.jsonl"
    argv = ["discrete", "--n", "45", "--k", "3", "--node-limit", "10", "--cache", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: node limit reached after 10 nodes\n")
    assert not path.exists()


@pytest.mark.parametrize("argv,code", [
    (["discrete", "--n", "0", "--k", "3"], 2),
    (["continuous", "--k", "3", "--m", "2", "--node-limit", "-1"], 2),
    (["discrete", "--n", "30", "--k", "3", "--node-limit", "5"], 1),
], ids=["discrete-n-0", "continuous-node-limit", "discrete-node-limit-reached"])
def test_rejected_run_creates_no_cache_file(tmp_path, capsys, argv, code):
    path = tmp_path / "fresh.jsonl"
    assert main(argv + ["--cache", str(path)]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not path.exists()


def test_cache_record_missing_result_fields_is_recomputed(cache_path, capsys):
    params = {"n": 5, "k": 1, "enumerate": False, "node_limit": None}
    append_record(str(cache_path), make_record("discrete", params, {"n": 5}, __version__))
    code = main(["discrete", "--n", "5", "--k", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["f"] == 3
    assert len(cache_path.read_text().strip().splitlines()) == 2


def test_report_shows_malformed_record_raw(cache_path, capsys):
    params = {"k": 3, "m": 2, "node_limit": None}
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


def _set_first_branch_name(result):
    result["branches"][0]["name"] = 7


@pytest.mark.parametrize("argv,damage", [
    (["continuous", "--k", "3", "--m", "2"], lambda result: result.update(witnesses=5)),
    (["continuous", "--k", "3", "--m", "2"], lambda result: result.update(witnesses=[5])),
    (["discrete", "--n", "5", "--k", "1", "--witness"],
     lambda result: result.update(witnesses=5)),
    (["discrete", "--n", "5", "--k", "1", "--witness"],
     lambda result: result.update(witnesses=[5])),
    (["discrete", "--n", "5", "--k", "1", "--witness"], lambda result: result.update(f="3")),
    (["certify", "--trials", "20"], _set_first_branch_name),
    (["certify", "--trials", "20"], lambda result: result["harness"].update(violations=None)),
], ids=["continuous-witnesses", "continuous-witness", "discrete-witnesses",
        "discrete-witness", "discrete-f", "certify-branch-name", "certify-violations"])
def test_record_with_a_field_of_the_wrong_type_is_recomputed(cache_path, capsys, argv, damage):
    assert main(argv + ["--format", "json"]) == 0
    expected = capsys.readouterr().out
    first = json.loads(cache_path.read_text())
    damage(first["result"])
    append_record(str(cache_path), make_record(
        first["kind"], first["parameters"], first["result"], __version__))
    assert main(["report"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith(f"| {first['kind']} ")]
    assert len(rows) == 1 and json.dumps(first["result"], sort_keys=True) in rows[0]
    assert main(argv + ["--format", "table"]) == 0
    assert capsys.readouterr().out
    assert len(cache_path.read_text().strip().splitlines()) == 3
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == expected


def test_cache_line_that_is_not_utf8_is_skipped(cache_path, capsys):
    assert main(["discrete", "--n", "5", "--k", "1"]) == 0
    capsys.readouterr()
    params = json.dumps({"enumerate": False, "k": 1, "n": 5, "node_limit": None},
                        sort_keys=True)
    with open(cache_path, "ab") as fh:
        fh.write(b"\xff\xfe garbage\n")
        fh.write(b"\xff " + params.encode() + b"\n")  # holds the key text
    size = cache_path.stat().st_size
    assert main(["discrete", "--n", "5", "--k", "1"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["f"] == 3
    assert "skipping bad cache line" in captured.err
    assert cache_path.stat().st_size == size  # a hit: nothing appended
    assert main(["report"]) == 0
    captured = capsys.readouterr()
    assert "f = 3" in captured.out
    assert captured.err.count("skipping bad cache line") == 2


def test_cached_parser_carries_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """Each call in one process prints what it would with a freshly built parser."""
    def transcript(argvs):
        runs = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            runs.append((code, captured.out, re.sub(r"\d+\.\d\ds", "<t>", captured.err)))
        return runs

    def calls(cache):
        c = ["--cache", str(cache)]
        return [
            ["--format", "json", "verify", "--k", "3", "--set", RECORD_SET],
            ["verify", "--k", "3", "--set", RECORD_SET],  # --format back at its default
            ["-v", "-v", "discrete", "--n", "9", "--k", "3", "--force"] + c,
            ["discrete", "--n", "9", "--k", "3", "-v"] + c,  # no --force: a hit
            c + ["discrete", "--n", "9", "--k", "3", "--witness", "--format", "table"],
            ["discrete", "--n", "9", "--k", "3"] + c,
            ["discrete", "--n", "9", "--k", "x"] + c,  # a usage error in between
            ["continuous", "--k", "3", "--m", "2", "--force", "-v"] + c,
            ["continuous", "--k", "3", "--m", "2", "--all-optima", "--format", "table"] + c,
            ["report", "--format", "json"] + c,
            ["report"] + c,
        ]

    parser = cli._build_parser()
    assert cli._build_parser() is parser
    for argv in calls(tmp_path / "any.jsonl"):
        if "x" not in argv:  # the usage error exits instead
            assert vars(parser.parse_args(argv)) == vars(
                cli._build_parser.__wrapped__().parse_args(argv))
    shared = transcript(calls(tmp_path / "shared.jsonl"))
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = transcript(calls(tmp_path / "fresh.jsonl"))
    assert [(code, out, err.replace("fresh.jsonl", "shared.jsonl"))
            for code, out, err in fresh] == shared
    assert [code for code, _, _ in shared] == [0] * 6 + [2] + [0] * 4


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
