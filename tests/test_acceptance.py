"""Acceptance suite: one test per release criterion.

Every numeric comparison is exact (Fraction equality, no tolerances).
Each test prints a single PASS line with its runtime; run with

    pytest tests/test_acceptance.py -v -s
"""

import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (brute_force_f, certificate, check_certificate, has_forbidden_triple,
                     mu_formula, pairs)

from sumfree.certify import derive_delta, sumset_bound_harness
from sumfree.discrete import enumerate_maximum_sets, f_max
from sumfree.intervals import IntervalUnion, is_k_sum_free, parse_union
from sumfree.lp import LinearProgram, solve
from sumfree.search import maximize_measure

F = Fraction

RECORD = F(77, 177)
RECORD_PAIRS = [(F(8, 177), F(4, 59)), (F(28, 177), F(14, 59)), (F(2, 3), F(1))]


def _report(number: int, started: float, limit: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: PASS in {elapsed:.2f}s (limit {limit:.0f}s) - {detail}")
    assert elapsed < limit


def test_criterion_1_golden_verification():
    t0 = time.perf_counter()
    a = parse_union("(8/177,4/59);(28/177,14/59);(2/3,1)")
    assert pairs(a) == RECORD_PAIRS
    assert a.measure() == RECORD
    free, witness = is_k_sum_free(a, 3)
    assert free and witness is None
    _report(1, t0, 1, "record set has measure 77/177 and is 3-sum-free")


def test_criterion_2_three_interval_search_unique():
    t0 = time.perf_counter()
    res = maximize_measure(3, 3)
    assert res.status == "proven"
    assert res.optimum == RECORD
    assert len(res.witnesses) == 1
    assert pairs(res.witnesses[0]) == RECORD_PAIRS
    assert res.witnesses_exact
    _report(2, t0, 60, f"m=3 optimum 77/177, unique witness, "
                       f"{res.nodes_explored} nodes")


def test_criterion_3_more_intervals_cannot_beat_record():
    t0 = time.perf_counter()
    res2 = maximize_measure(2, 3)
    assert res2.status == "proven" and res2.optimum <= RECORD
    res4 = maximize_measure(4, 3)
    assert res4.status == "proven" and res4.optimum == RECORD
    res5 = maximize_measure(5, 3, parallel=2)
    assert res5.status == "proven" and res5.optimum == RECORD
    _report(3, t0, 600, f"m=2 gives {res2.optimum} <= 77/177; m=4 and m=5 "
                        f"(parallel) both give 77/177")


def test_criterion_4_closed_forms():
    t0 = time.perf_counter()
    res11 = maximize_measure(1, 1)
    assert res11.optimum == F(1, 2)
    assert [pairs(w) for w in res11.witnesses] == [[(F(1, 2), F(1))]]
    res34 = maximize_measure(3, 4)
    assert mu_formula(4) == F(63, 110)
    assert res34.optimum == mu_formula(4)
    _report(4, t0, 60, "m=1,k=1 gives 1/2 at (1/2,1); m=3,k=4 matches 63/110")


def test_criterion_5_certifier_branches():
    t0 = time.perf_counter()
    cert = derive_delta()
    assert cert.delta_star == F(1, 114)
    by_name = {b.name: b.delta_sup for b in cert.branches}
    assert by_name["middle_block_empty"] == F(1, 66)
    assert by_name["wide_gap"] == F(1, 54)
    assert by_name["narrow_gap"] == F(1, 114)
    assert cert.delta_star == min(by_name.values())
    assert cert.all_steps_ok()
    _report(5, t0, 1, "delta* = 1/114 = min(1/66, 1/54, 1/114)")


def test_criterion_6_sumset_bound_harness():
    t0 = time.perf_counter()
    report = sumset_bound_harness(trials=10_000, max_intervals=6, seed=0)
    assert report.violations == 0
    # pinned: a change in the harness's draw order changes the least-slack union
    assert report.min_slack == 0
    assert report.min_slack_example == parse_union("(5/21,3/4)")
    _report(6, t0, 30, f"10^4 trials, zero violations, min slack "
                       f"{report.min_slack}")


def test_criterion_7_discrete_laws_and_enumeration():
    t0 = time.perf_counter()
    for n in range(1, 31):
        assert f_max(n, 1)[0] == (n + 1) // 2
    f43 = brute_force_f(4, 3)  # oracle-determined exceptional value
    for n in range(1, 31):
        expected = f43 if n == 4 else (n + 1) // 2
        assert f_max(n, 3)[0] == expected

    sets_11 = enumerate_maximum_sets(11, 1)
    assert len(sets_11) == 2
    assert sets_11 == sorted([tuple(range(1, 12, 2)), tuple(range(6, 12))])
    sets_10 = enumerate_maximum_sets(10, 1)
    assert len(sets_10) == 3
    assert sets_10 == sorted([tuple(range(1, 11, 2)), tuple(range(6, 11)),
                              tuple(range(5, 10))])
    sets_23 = enumerate_maximum_sets(23, 3)
    assert sets_23 == [tuple(range(1, 24, 2))]
    for s in sets_11 + sets_10:
        assert not has_forbidden_triple(s, 1)
    assert not has_forbidden_triple(sets_23[0], 3)
    _report(7, t0, 300, "f(n,1), f(n,3) laws for n<=30; enumeration counts "
                        "2/3/1 with the listed sets")


def test_criterion_8_property_suites_sample():
    # the full property suites live in the sibling test modules; this
    # criterion re-runs one exact instance of each family as a gate
    t0 = time.perf_counter()
    import random

    rng = random.Random(0)
    for _ in range(50):
        a = F(rng.randint(-9, 9), rng.randint(1, 9))
        b = F(rng.randint(-9, 9), rng.randint(1, 9))
        c = F(rng.randint(-9, 9), rng.randint(1, 9))
        assert (a + b) * c == a * c + b * c

    u = parse_union("(0,1/2);(1/4,3/4)")
    assert IntervalUnion(u.den, u.nums) == u
    v = parse_union("(1/3,2/3)")
    overlap = sum(max(0, min(b, d) - max(a, c)) for a, b in pairs(u) for c, d in pairs(v))
    merged = parse_union(f"{u};{v}")
    assert merged.measure() + overlap == u.measure() + v.measure()
    dilated = IntervalUnion(5 * v.den, [(7 * lo, 7 * hi) for lo, hi in v.nums])
    assert is_k_sum_free(v, 3)[0] == is_k_sum_free(dilated, 3)[0]

    prob = LinearProgram(objective=(1, 1), rows=((177, -77),))  # x1 <= 77/177 x2
    res = solve(prob)
    assert res.value == F(254, 177) and check_certificate(prob, certificate(res))

    seq = maximize_measure(2, 3, parallel=1)
    par = maximize_measure(2, 3, parallel=2)
    assert seq.optimum == par.optimum and seq.witnesses == par.witnesses
    _report(8, t0, 60, "exact property families re-checked (full suites in "
                       "test_* modules)")
