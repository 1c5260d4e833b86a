"""The four workloads: seeded inputs, the task list of one pass, and checks.

Each builder gets the freshly imported sumfree modules, the seed and a
private scratch directory, and returns a ``Plan``.  Tasks look sumfree's
functions up as module attributes when they run, so the traced run sees
them through the wraps in ``spans``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import checks


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # Damages a good output; the self-test expects ``check`` to reject it.
    # Set on one task per kind of check.
    corrupt: Callable[[object], object] | None = None
    # Counts toward task_p50_ms / task_tail_ms.
    latency: bool = True
    # Record this task's deterministic counters.
    counted: bool = False


@dataclass
class Plan:
    tasks: list[Task]
    before_pass: Callable[[], None] = lambda: None
    cache_path: str | None = None
    notes: dict = field(default_factory=dict)


def _maximize(mods, m: int, k: int, corrupt: bool) -> Task:
    def damage(r):
        return SimpleNamespace(optimum=r.optimum + Fraction(1, 1000), status=r.status,
                               witnesses_exact=r.witnesses_exact, witnesses=r.witnesses)
    return Task(f"maximize_measure({m},{k})",
                lambda: mods.search.maximize_measure(m, k, all_optima=True, parallel=1),
                lambda r: checks.check_search(r, m, k),
                corrupt=damage if corrupt else None, counted=True)


def build_search(mods, seed: int, workdir: str) -> Plan:
    """77/177 and its uniqueness for m <= 5, then mu(k) for a seeded k."""
    k = 4 + seed % 4
    return Plan([_maximize(mods, 5, 3, True), _maximize(mods, 5, k, False)],
                notes={"k": k})


def build_discrete(mods, seed: int, workdir: str) -> Plan:
    """f(45,3) = 23, a seeded f(n,4), and all maximum sets for n = 30."""
    n = 58 + seed % 2
    d = mods.discrete

    def f_task(n, k, corrupt):
        return Task(f"f_max({n},{k})", lambda: d.f_max(n, k),
                    lambda out: checks.check_f_max(out, n, k),
                    corrupt=(lambda out: (out[0], tuple(out[1]) + out[1][:1])) if corrupt else None,
                    counted=True)
    return Plan([
        f_task(45, 3, True),
        f_task(n, 4, False),
        Task("enumerate_maximum_sets(30,3)", lambda: d.enumerate_maximum_sets(30, 3),
             lambda sets: checks.check_enumeration(sets, 30, 3),
             corrupt=lambda sets: sets + sets[:1], counted=True),
    ], notes={"n": n})


def random_union_text(rng: random.Random) -> str:
    """Up to 6 intervals, written in shuffled order; some in (1/2, 1] or above."""
    m = rng.randint(1, 6)
    base = rng.choice((Fraction(0), Fraction(0), Fraction(1, 2), Fraction(2, 3)))
    cuts = sorted(base + (1 - base) * Fraction(rng.randint(0, d), d)
                  for d in (rng.randint(1, 64) for _ in range(2 * m)))
    pairs = list(zip(cuts[0::2], cuts[1::2]))
    rng.shuffle(pairs)
    return ";".join(f"({lo},{hi})" for lo, hi in pairs)


CERTIFY_TRIALS = 5000
CERTIFY_UNIONS = 2000


def build_certify(mods, seed: int, workdir: str) -> Plan:
    """delta = 1/114, the sumset harness, and parse + 3-sum-free checks."""
    rng = random.Random(seed)
    texts = [random_union_text(rng) for _ in range(CERTIFY_UNIONS)]
    c, iv = mods.certify, mods.intervals
    tasks = [
        Task("derive_delta()", lambda: c.derive_delta(), checks.check_certificate,
             corrupt=lambda cert: SimpleNamespace(delta_star=Fraction(1, 113), steps=cert.steps),
             latency=False),
        Task(f"sumset_bound_harness({CERTIFY_TRIALS},6,{seed})",
             lambda: c.sumset_bound_harness(trials=CERTIFY_TRIALS, max_intervals=6, seed=seed),
             lambda rep: checks.check_harness(rep, CERTIFY_TRIALS),
             corrupt=lambda rep: SimpleNamespace(trials=rep.trials, violations=1,
                                                 min_slack=rep.min_slack,
                                                 min_slack_example=rep.min_slack_example),
             latency=False),
    ]
    for i, text in enumerate(texts):
        tasks.append(Task(
            f"union#{i}",
            lambda t=text: iv.is_k_sum_free(iv.parse_union(t), 3),
            lambda out, t=text: checks.check_verdict(out, t, 3),
            corrupt=(lambda out: (not out[0], None)) if i == 0 else None))
    return Plan(tasks)


# 20 groups of 5 hits, 1 miss and 4 forced writes, then one report.
CLI_GROUPS, CLI_MISSES = 20, 20


def _cli(mods, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mods.cli.main(argv)
    return code, out.getvalue()


def _damage_payload(out):
    code, text = out
    return code, json.dumps({**json.loads(text), "f": -1, "optimum": "-1"})


def build_cli_cache(mods, seed: int, workdir: str) -> Plan:
    """A 1000-record cache file, then hits, misses and forced writes."""
    rng = random.Random(seed)
    master = os.path.join(workdir, "seeded-cache.jsonl")
    work = os.path.join(workdir, "cache.jsonl")
    d, cache = mods.discrete, mods.cache
    limits = [None] + rng.sample(range(10_000, 10_000_000), 4)
    keyed: list[tuple[dict, dict]] = []
    for n in range(5, 25):
        for k in range(3, 8):
            value, witness = d.f_max(n, k)
            sets = d.enumerate_maximum_sets(n, k)
            for enum, witnesses in ((False, [list(witness)]), (True, [list(s) for s in sets])):
                payload = {"n": n, "k": k, "f": value, "witnesses": witnesses}
                for limit in limits:
                    params = {"n": n, "k": k, "enumerate": enum, "node_limit": limit}
                    cache.append_record(master, cache.make_record(
                        "discrete", params, payload, mods.sumfree.__version__))
                    keyed.append((params, payload))

    def discrete_argv(n, k, enum=False, limit=None):
        argv = ["discrete", "--n", str(n), "--k", str(k), "--cache", work]
        return argv + (["--enumerate"] if enum else []) + (
            [] if limit is None else ["--node-limit", str(limit)])

    def hit():
        params, payload = rng.choice(keyed)
        argv = discrete_argv(params["n"], params["k"], params["enumerate"], params["node_limit"])
        return Task("hit " + " ".join(argv[1:5]), lambda: _cli(mods, argv),
                    lambda out: checks.check_cli_payload(out, payload))

    miss_limits = iter(rng.sample(range(100, 10_000), CLI_MISSES))  # not in the file

    def miss():
        n, k = rng.randint(5, 24), rng.randint(3, 7)
        argv = discrete_argv(n, k, limit=next(miss_limits))
        return Task("miss " + " ".join(argv[1:5]), lambda: _cli(mods, argv),
                    lambda out: checks.check_cli_discrete(out, n, k))

    def force_discrete():
        n, k = rng.randint(5, 24), rng.randint(3, 7)
        argv = discrete_argv(n, k) + ["--force"]
        return Task("force " + " ".join(argv[1:5]), lambda: _cli(mods, argv),
                    lambda out: checks.check_cli_discrete(out, n, k))

    continuous_ks = set()

    def force_continuous():
        k = rng.randint(3, 7)
        continuous_ks.add(k)
        argv = ["continuous", "--m", "2", "--k", str(k), "--force", "--cache", work]
        return Task("force " + " ".join(argv[1:5]), lambda: _cli(mods, argv),
                    lambda out: checks.check_cli_continuous(out, 2, k))

    # The same interleaving on every seed, so the file grows alike and only
    # the keys and parameters differ.
    group = (hit, force_discrete, hit, miss, force_continuous,
             hit, force_discrete, hit, force_continuous, hit)
    tasks = [make() for _ in range(CLI_GROUPS) for make in group]
    for task in tasks[:5]:  # one of each kind
        task.corrupt = _damage_payload
    keys = len(keyed) + CLI_MISSES + len(continuous_ks)
    tasks.append(Task("report", lambda: _cli(mods, ["report", "--cache", work]),
                      lambda out: checks.check_cli_report(out, keys),
                      corrupt=lambda out: (out[0], "")))
    return Plan(tasks, before_pass=lambda: shutil.copyfile(master, work), cache_path=work,
                notes={"records": len(keyed), "cache_bytes": os.path.getsize(master)})


BUILDERS = {
    "search": build_search,
    "discrete": build_discrete,
    "certify": build_certify,
    "cli-cache": build_cli_cache,
}

# The speed.LOOPS loop closest to each workload's kind of work.
PROBES = {
    "search": "fraction",
    "discrete": "bitmask",
    "certify": "fraction",
    "cli-cache": "fraction",
}
