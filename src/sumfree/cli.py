"""Command-line front end.

Subcommands:
  verify      measure and k-sum-freeness of an explicit interval union
  continuous  branch-and-bound maximum measure over <= m intervals
  discrete    f(n, k), optionally enumerating all maximum sets
  certify     branch bounds for the 1/2 - delta measure bound + sumset harness
  report      cached results, as a markdown table or a JSON list

All numbers are printed as exact "p/q" strings; decimals appear only in
parentheses.  Exit codes: 0 success, 1 verification failure, 2 usage or
parse error, or a cache path that cannot be read or appended to.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from . import cache as cache_mod
from .certify import derive_delta, sumset_bound_harness
from .discrete import EnumerationLimitError, enumerate_maximum_sets, f_max
from .intervals import format_union, is_k_sum_free, parse_union
from .rationals import decimal_str, format_rational, require_int
from .search import maximize_measure

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

# The shape in which the CLI reads each result field back from a cached
# record, per kind: a type, a one-item list for a list of that shape, or
# a dict of named fields.
_RESULT_SHAPES = {
    "continuous": {"optimum": str, "witnesses": [str], "nodes_explored": int,
                   "status": str},
    "discrete": {"f": int, "witnesses": [list]},
    "certify": {"delta_star": str, "chain_ok": bool,
                "branches": [{"name": str, "bound": str, "delta_sup": str}],
                "harness": {"trials": int, "violations": int, "min_slack": str}},
}


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # registered on the top parser with real defaults and on every
    # subparser with SUPPRESS, so the flags work in either position
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--cache", default=default,
                        help=f"cache path (default ${cache_mod.ENV_VAR} or "
                             f"{cache_mod.DEFAULT_PATH})")
    parser.add_argument("--format", choices=("json", "table"), default=default,
                        help="output format (per-command default)")
    parser.add_argument("--force", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="recompute even if the cache holds the result")
    parser.add_argument("-v", "--verbose", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="print work counters and time to stderr")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then shared by every ``main`` call.

    Building it costs more than serving a cached result; ``parse_args``
    fills a fresh namespace on each call, so no call sees another's flags.
    """
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, suppress=True)
    top = argparse.ArgumentParser(
        prog="sumfree",
        description="Exact verification, search and certification of extremal "
                    "k-sum-free sets.")
    _add_global_options(top, suppress=False)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="check a set given as (p/q,r/s);(...)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--set", dest="set_text", required=True)

    p = sub.add_parser("continuous", parents=[common],
                       help="maximize measure over <= m intervals")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--all-optima", action="store_true",
                   help="accepted and ignored: every search collects all optima")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--node-limit", type=int, default=None)

    p = sub.add_parser("discrete", parents=[common],
                       help="maximum k-sum-free subset of {1..n}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--enumerate", action="store_true", dest="enumerate_all")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--node-limit", type=int, default=None,
                   help="node cap; reaching it exits 1")

    p = sub.add_parser("certify", parents=[common],
                       help="re-derive delta and run the sumset-bound harness")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--max-intervals", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)

    sub.add_parser("report", parents=[common],
                   help="render cached results as a markdown table (or --format json)")
    return top


def _emit(payload: dict, fmt: str, table_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _fits(value, shape) -> bool:
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(
            name in value and _fits(value[name], sub) for name, sub in shape.items())
    if isinstance(shape, list):
        return isinstance(value, list) and all(_fits(item, shape[0]) for item in value)
    return isinstance(value, shape)


def _well_formed(kind: str, result) -> bool:
    """True when ``result`` has every field the CLI reads for ``kind``, of its shape."""
    return kind in _RESULT_SHAPES and _fits(result, _RESULT_SHAPES[kind])


def _current(rec: cache_mod.CacheRecord) -> bool:
    """True when ``rec`` was computed by this sumfree version and solver source."""
    return rec.version == __version__ and rec.solver == cache_mod.solver_digest()


def _cached(kind: str, params: dict, args, compute) -> dict:
    """The cached payload for (kind, params), else ``compute()``'s, appended.

    ``compute`` returns the payload and the start of the ``-v`` line, to
    which the miss adds the time it took; a hit prints no line.
    ``--force`` skips the lookup.  A record written by another sumfree
    version or another solver source is a miss, so a solver fix is never
    hidden by an old result; so is a record that lacks a result field the
    CLI reads, or holds one of another type.  A path that cannot take a
    record fails before computing, and a run that fails creates no file.
    """
    cached = None if args.force else cache_mod.lookup(args.cache, kind, params)
    if cached is not None and _current(cached) and _well_formed(kind, cached.result):
        return cached.result
    cache_mod.check_appendable(args.cache)
    t0 = time.perf_counter()
    payload, note = compute()
    if args.verbose:
        sys.stderr.write(f"{note}{time.perf_counter() - t0:.2f}s\n")
    cache_mod.append_record(args.cache, cache_mod.make_record(
        kind, params, payload, __version__))
    return payload


def _cmd_verify(args, fmt: str) -> int:
    u = parse_union(args.set_text)
    measure = u.measure()
    free, witness = is_k_sum_free(u, args.k)
    payload = {
        "set": format_union(u),
        "k": args.k,
        "measure": format_rational(measure),
        "sum_free": free,
        "witness": None if witness is None else
        {"x": format_rational(witness.x), "y": format_rational(witness.y),
         "z": format_rational(witness.z)},
    }
    if free:
        lines = [f"measure {payload['measure']} ({decimal_str(measure)}); "
                 f"{args.k}-sum-free: yes"]
    else:
        w = payload["witness"]
        lines = [f"measure {payload['measure']} ({decimal_str(measure)}); "
                 f"{args.k}-sum-free: no; witness x={w['x']} y={w['y']} z={w['z']}"]
    _emit(payload, fmt, lines)
    return EXIT_OK if free else EXIT_VERIFY_FAILED


def _cmd_continuous(args, fmt: str) -> int:
    params = {"k": args.k, "m": args.m, "node_limit": args.node_limit}
    # not part of the key, so a cache hit would skip the search's check
    require_int(args.parallel, "parallel", 1)

    def compute() -> tuple[dict, str]:
        result = maximize_measure(args.m, args.k, parallel=args.parallel,
                                  node_limit=args.node_limit)
        return {
            "optimum": format_rational(result.optimum),
            "witnesses": [format_union(w) for w in result.witnesses],
            "nodes_explored": result.nodes_explored,
            "status": result.status,
            "witnesses_exact": result.witnesses_exact,
        }, (f"continuous m={args.m} k={args.k}: {result.nodes_explored} nodes, "
            f"{result.lp_pivots} pivots, {result.closures['forced_zero']} forced-zero closures, ")

    payload = _cached("continuous", params, args, compute)
    lines = [f"optimum {payload['optimum']}",
             f"status {payload['status']} after {payload['nodes_explored']} nodes"]
    lines += [f"witness: {w if w else '(empty set)'}" for w in payload["witnesses"]]
    _emit(payload, fmt, lines)
    return EXIT_OK


def _cmd_discrete(args, fmt: str) -> int:
    params = {"n": args.n, "k": args.k, "enumerate": args.enumerate_all,
              "node_limit": args.node_limit}

    def compute() -> tuple[dict, str]:
        if args.enumerate_all:
            sets = enumerate_maximum_sets(args.n, args.k, node_limit=args.node_limit)
            value = len(sets[0])
        else:
            value, witness = f_max(args.n, args.k, node_limit=args.node_limit)
            sets = [witness]
        return ({"n": args.n, "k": args.k, "f": value, "witnesses": [list(s) for s in sets]},
                f"discrete n={args.n} k={args.k}: ")

    payload = _cached("discrete", params, args, compute)
    lines = [f"f({args.n},{args.k}) = {payload['f']}"]
    if args.witness or args.enumerate_all:
        lines += ["witness: {" + ",".join(map(str, w)) + "}"
                  for w in payload["witnesses"]]
    _emit(payload, fmt, lines)
    return EXIT_OK


def _cmd_certify(args, fmt: str) -> int:
    params = {"trials": args.trials, "max_intervals": args.max_intervals,
              "seed": args.seed}

    def compute() -> tuple[dict, str]:
        cert = derive_delta()
        harness = sumset_bound_harness(trials=args.trials, max_intervals=args.max_intervals,
                                       seed=args.seed)
        return {
            "delta_star": format_rational(cert.delta_star),
            "branches": [
                {"name": b.name,
                 "bound": f"{format_rational(b.constant)} + "
                          f"{format_rational(b.delta_coeff)}*d",
                 "delta_sup": format_rational(b.delta_sup)}
                for b in cert.branches
            ],
            "chain_ok": cert.all_steps_ok(),
            "steps": [{"name": s.name, "lhs": format_rational(s.lhs),
                       "rhs": format_rational(s.rhs), "ok": s.ok}
                      for s in cert.steps],
            "harness": {
                "trials": harness.trials,
                "max_intervals": harness.max_intervals,
                "seed": harness.seed,
                "violations": harness.violations,
                "min_slack": format_rational(harness.min_slack),
                "min_slack_example": format_union(harness.min_slack_example),
            },
        }, f"certify trials={args.trials} seed={args.seed}: "

    payload = _cached("certify", params, args, compute)
    lines = ["branch suprema:"]
    lines += [f"  {b['name']:20s} x <= {b['bound']:18s} delta_sup = {b['delta_sup']}"
              for b in payload["branches"]]
    lines += [f"delta* = {payload['delta_star']}",
              f"inequality chain at the boundary point: "
              f"{'ok' if payload['chain_ok'] else 'CONTRADICTION'}",
              f"harness: {payload['harness']['violations']} violations in "
              f"{payload['harness']['trials']} trials "
              f"(min slack {payload['harness']['min_slack']})"]
    _emit(payload, fmt, lines)
    ok = payload["chain_ok"] and payload["harness"]["violations"] == 0
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _report_row(rec: cache_mod.CacheRecord, params: str, fmt: str) -> str:
    """``rec`` rendered as its markdown table row, or as its JSON list item.

    ``params`` is the record's sorted parameter JSON, the text of ``rec.key()``.
    """
    # a stale record, from another version or solver, is one the CLI recomputes rather than serves
    if fmt == "json":
        return json.dumps({"kind": rec.kind, "parameters": rec.parameters, "result": rec.result,
                           "version": rec.version, "stale": not _current(rec)}, sort_keys=True)
    if not _well_formed(rec.kind, rec.result):
        summary = json.dumps(rec.result, sort_keys=True)
    elif rec.kind == "continuous":
        summary = (f"optimum {rec.result['optimum']}, "
                   f"{len(rec.result['witnesses'])} witness(es), "
                   f"{rec.result['status']}")
    elif rec.kind == "discrete":
        summary = (f"f = {rec.result['f']}, "
                   f"{len(rec.result['witnesses'])} set(s)")
    else:
        summary = (f"delta* = {rec.result['delta_star']}, "
                   f"{rec.result['harness']['violations']} violations")
    version = rec.version if _current(rec) else f"{rec.version} (stale)"
    return f"| {rec.kind} | `{params}` | {summary} | {version} |"


def _cmd_report(args, fmt: str) -> int:
    # each record is rendered as it is read; only the latest row per key is kept
    rows = {}
    for rec in cache_mod.read_records(args.cache):
        key = rec.key()
        rows[key] = _report_row(rec, key[1], fmt)
    ordered = [rows[key] for key in sorted(rows)]
    if fmt == "json":
        print("[" + ", ".join(ordered) + "]")  # as json.dumps prints the list of items
        return EXIT_OK
    print("| kind | parameters | result | version |")
    print("| --- | --- | --- | --- |")
    for row in ordered:
        print(row)
    return EXIT_OK


# Each subcommand's handler and its default --format.
_COMMANDS = {"verify": (_cmd_verify, "table"), "continuous": (_cmd_continuous, "json"),
             "discrete": (_cmd_discrete, "json"), "certify": (_cmd_certify, "table"),
             "report": (_cmd_report, "table")}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler, default_format = _COMMANDS[args.command]
    try:
        args.cache = cache_mod.resolve_path(args.cache)
        return handler(args, args.format or default_format)
    except EnumerationLimitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VERIFY_FAILED
    except (ValueError, OSError) as exc:  # OSError: e.g. a --cache path that is a directory
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
