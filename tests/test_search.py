import concurrent.futures
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (grid_best_1_interval, grid_best_2_intervals, pick_branch_fraction,
                     satisfies_lp)

from sumfree.intervals import IntervalUnion, format_union, is_k_sum_free
from sumfree import search
from sumfree.lp import OPTIMAL, canonical_rows, solve
from sumfree.search import (
    Configuration,
    DisjunctionPattern,
    _choice_row,
    build_pattern_lp,
    maximize_measure,
    mu_formula,
)

F = Fraction


def test_configuration_validation():
    Configuration(2, (F(0), F(1, 4), F(1, 4), F(1)))
    with pytest.raises(ValueError):
        Configuration(2, (F(0), F(1, 2), F(1, 4), F(1)))  # chain broken
    with pytest.raises(ValueError):
        Configuration(1, (F(1, 2), F(3, 2)))  # above 1
    with pytest.raises(ValueError):
        Configuration(2, (F(0), F(1)))  # wrong arity


def test_configuration_to_union_drops_vanished():
    cfg = Configuration(3, (F(0), F(1, 4), F(1, 2), F(1, 2), F(1, 2), F(1)))
    assert cfg.to_union().pairs() == [(F(0), F(1, 4)), (F(1, 2), F(1))]


def test_pattern_resolution_guards():
    pat = DisjunctionPattern(2)
    pat2 = pat.resolve("L", 0, 1, 1)
    assert pat2.is_resolved(0, 1, 1) and not pat2.is_resolved(0, 0, 0)
    with pytest.raises(ValueError):
        pat.resolve("X", 0, 0, 0)
    with pytest.raises(ValueError):
        pat.resolve("L", 1, 0, 0)  # needs i <= j


def test_single_interval_pattern_lps():
    # sums pushed left of the interval: classic (2/3, 1) for k = 3
    left = build_pattern_lp(1, 3, DisjunctionPattern(1).resolve("L", 0, 0, 0))
    res = solve(left)
    assert res.status == OPTIMAL
    assert res.value == F(1, 3)
    assert res.vertex == (F(2, 3), F(1))
    # sums pushed right: forces a degenerate interval for k = 3
    right = build_pattern_lp(1, 3, DisjunctionPattern(1).resolve("R", 0, 0, 0))
    res = solve(right)
    assert res.status == OPTIMAL and res.value == 0
    # k = 1: left split is degenerate-only, right split gives the top half
    left1 = build_pattern_lp(1, 1, DisjunctionPattern(1).resolve("L", 0, 0, 0))
    res = solve(left1)
    assert res.status == OPTIMAL and res.value == 0
    right1 = build_pattern_lp(1, 1, DisjunctionPattern(1).resolve("R", 0, 0, 0))
    res = solve(right1)
    assert res.value == F(1, 2) and res.vertex == (F(1, 2), F(1))


def test_mu_formula_values():
    assert mu_formula(4) == F(63, 110)
    # independent evaluation of the closed form at k = 5
    k = 5
    expect = F(k * (k - 2), k * k - 2) + F(8 * (k - 2), k * (k * k - 2) * (k**4 - 2 * k**2 - 4))
    assert mu_formula(5) == expect == F(1863, 2855)
    with pytest.raises(ValueError):
        mu_formula(3)


def test_single_interval_searches():
    res = maximize_measure(1, 3)
    assert res.optimum == F(1, 3)
    assert [w.pairs() for w in res.witnesses] == [[(F(2, 3), F(1))]]
    assert res.status == "proven"

    res = maximize_measure(1, 1)
    assert res.optimum == F(1, 2)
    assert [w.pairs() for w in res.witnesses] == [[(F(1, 2), F(1))]]


def test_two_intervals_k3():
    res = maximize_measure(2, 3)
    assert res.optimum == F(3, 7)  # frozen from the grid oracle below
    assert res.optimum <= F(77, 177)


def test_three_intervals_k3_unique_record(largest_known_3sumfree):
    res = maximize_measure(3, 3, all_optima=True)
    assert res.optimum == F(77, 177)
    assert res.witnesses == (largest_known_3sumfree,)
    assert res.witnesses_exact
    assert res.status == "proven"


def test_k4_search_matches_closed_form():
    res = maximize_measure(3, 4)
    assert res.optimum == mu_formula(4)


@pytest.mark.parametrize("k", [5, 6])
def test_higher_k_search_matches_closed_form(k):
    assert maximize_measure(3, k).optimum == mu_formula(k)


def test_fourth_interval_does_not_help_k4():
    assert maximize_measure(4, 4).optimum == mu_formula(4)


def test_sum_free_measure_zero_for_k2():
    # x + x = 2x: every positive-measure set fails, so the optimum is 0
    res = maximize_measure(1, 2)
    assert res.optimum == 0
    assert [w.pairs() for w in res.witnesses] == [[]]


def test_grid_oracle_consistency():
    cases = {
        (1, 3): (grid_best_1_interval, 600),
        (1, 1): (grid_best_1_interval, 600),
        (2, 3): (grid_best_2_intervals, 420),
    }
    for (m, k), (oracle, grid) in cases.items():
        best = oracle(k, grid)
        res = maximize_measure(m, k)
        assert best <= res.optimum  # the oracle never beats the search
        assert res.optimum - best <= F(4, 600)


def test_grid_oracle_agrees_exactly_for_two_intervals_k4():
    # denominator chosen divisible by the optimum's, so zero rounding loss
    assert grid_best_2_intervals(4, 308) == maximize_measure(2, 4).optimum


def test_witness_soundness_independent_path():
    for m, k in [(1, 1), (2, 3), (3, 3), (3, 4), (2, 5)]:
        res = maximize_measure(m, k)
        for w in res.witnesses:
            free, _ = is_k_sum_free(w, k)
            assert free
            assert w.measure() == res.optimum


def test_relaxation_monotonicity():
    rng = random.Random(11)
    m, k = 3, 3
    entries = [(i, j, t) for i in range(m) for j in range(i, m) for t in range(m)]
    for _ in range(40):
        pat = DisjunctionPattern(m)
        for entry in rng.sample(entries, rng.randint(0, 4)):
            pat = pat.resolve(rng.choice("LR"), *entry)
        parent = solve(build_pattern_lp(m, k, pat))
        i, j, t = rng.choice(entries)
        if pat.is_resolved(i, j, t):
            continue
        for side in "LR":
            child = solve(build_pattern_lp(m, k, pat.resolve(side, i, j, t)))
            assert child.value <= parent.value


def _warm_child_agrees(m, k, pat, tab, choice):
    """Add ``choice`` to ``tab`` warm; check it against a cold solve of the child."""
    tab = tab.add_row(_choice_row(m, k, choice))
    child = build_pattern_lp(m, k, pat.resolve(*choice))
    cold = solve(child)
    assert all(type(a) is int for row in tab.mat for a in row)
    assert tab.value == cold.value
    assert satisfies_lp(child, tab.vertex)
    return tab


@pytest.mark.parametrize("m,k", [(m, k) for m in (3, 4) for k in (2, 3, 4)])
def test_warm_child_matches_cold_solve(m, k):
    rng = random.Random(100 * m + k)
    entries = [(i, j, t) for i in range(m) for j in range(i, m) for t in range(m)]
    for _ in range(34):
        pat = DisjunctionPattern(m)
        for entry in rng.sample(entries, rng.randint(0, 4)):
            pat = pat.resolve(rng.choice("LR"), *entry)
        tab = solve(build_pattern_lp(m, k, pat))
        for entry in rng.sample(entries, 3):  # a chain of warm children
            if pat.is_resolved(*entry):
                continue
            choice = (rng.choice("LR"), *entry)
            tab = _warm_child_agrees(m, k, pat, tab, choice)
            pat = pat.resolve(*choice)


def test_warm_child_with_a_row_the_cold_build_drops():
    # for k = 2, L(0,0,1) and R(1,1,0) are both 2 r_0 - 2 l_1 <= 0
    m, k = 2, 2
    pat = DisjunctionPattern(m).resolve("L", 0, 0, 1)
    tab = solve(build_pattern_lp(m, k, pat))
    child = pat.resolve("R", 1, 1, 0)
    assert len(canonical_rows(build_pattern_lp(m, k, child))) == tab.nrows
    _warm_child_agrees(m, k, pat, tab, ("R", 1, 1, 0))


def test_monotone_in_m_and_stable_at_record():
    values = [maximize_measure(m, 3).optimum for m in range(1, 6)]
    assert values == sorted(values)
    assert values[2] == values[3] == values[4] == F(77, 177)


# Nodes and LP pivots of the serial search with all optima, by (m, k); a
# change to the node step that alters the tree shows up here first.
# Warm-started children (dual simplex from the parent's tableau) changed
# them from (172, 1873), (619, 9467) and (421, 5719).
SEARCH_COUNTERS = {(4, 3): (166, 258), (5, 3): (635, 1077), (5, 4): (459, 782),
                   (6, 3): (2072, 3503)}


@pytest.mark.parametrize("m", [4, 5])
def test_record_witness_stays_unique_with_spare_intervals(m, largest_known_3sumfree):
    res = maximize_measure(m, 3, all_optima=True)
    assert res.optimum == F(77, 177)
    assert res.witnesses == (largest_known_3sumfree,)
    assert res.witnesses_exact
    assert (res.nodes_explored, res.lp_pivots) == SEARCH_COUNTERS[m, 3]


def test_search_counters_k4():
    res = maximize_measure(5, 4, all_optima=True)
    assert res.optimum == mu_formula(4)
    assert res.witnesses_exact
    assert (res.nodes_explored, res.lp_pivots) == SEARCH_COUNTERS[5, 4]


def test_search_counters_six_intervals(largest_known_3sumfree):
    # a tied optimal face at m = 6 holds unions that are not 3-sum-free
    res = maximize_measure(6, 3, all_optima=True)
    assert res.optimum == F(77, 177)
    assert res.witnesses == (largest_known_3sumfree,)
    assert not res.witnesses_exact
    assert (res.nodes_explored, res.lp_pivots) == SEARCH_COUNTERS[6, 3]


def test_record_holds_for_six_intervals():
    res = maximize_measure(6, 3)
    assert res.optimum == F(77, 177)
    assert res.status == "proven"


# Optimum, witness texts and witnesses_exact by (m, k, all_optima), as
# recorded before face bases were judged on integers.  Without all optima
# no completeness is claimed; (5, 1) is the one inexact case with m <= 5.
LEAF_RESULTS = {
    (1, 1, False): ("1/2", ("(1/2,1)",), False),
    (1, 1, True): ("1/2", ("(1/2,1)",), True),
    (1, 2, False): ("0", ("",), False),
    (1, 2, True): ("0", ("",), True),
    (1, 3, False): ("1/3", ("(2/3,1)",), False),
    (1, 3, True): ("1/3", ("(2/3,1)",), True),
    (1, 4, False): ("1/2", ("(1/2,1)",), False),
    (1, 4, True): ("1/2", ("(1/2,1)",), True),
    (1, 5, False): ("3/5", ("(2/5,1)",), False),
    (1, 5, True): ("3/5", ("(2/5,1)",), True),
    (2, 1, False): ("1/2", ("(1/2,1)",), False),
    (2, 1, True): ("1/2", ("(1/2,1)",), True),
    (2, 2, False): ("0", ("",), False),
    (2, 2, True): ("0", ("",), True),
    (2, 3, False): ("3/7", ("(4/21,2/7);(2/3,1)",), False),
    (2, 3, True): ("3/7", ("(4/21,2/7);(2/3,1)",), True),
    (2, 4, False): ("4/7", ("(1/14,1/7);(1/2,1)",), False),
    (2, 4, True): ("4/7", ("(1/14,1/7);(1/2,1)",), True),
    (2, 5, False): ("15/23", ("(4/115,2/23);(2/5,1)",), False),
    (2, 5, True): ("15/23", ("(4/115,2/23);(2/5,1)",), True),
    (3, 1, False): ("1/2", ("(1/2,1)",), False),
    (3, 1, True): ("1/2", ("(1/2,1)",), True),
    (3, 2, False): ("0", ("",), False),
    (3, 2, True): ("0", ("",), True),
    (3, 3, False): ("77/177", ("(8/177,4/59);(28/177,14/59);(2/3,1)",), False),
    (3, 3, True): ("77/177", ("(8/177,4/59);(28/177,14/59);(2/3,1)",), True),
    (3, 4, False): ("63/110", ("(1/110,1/55);(7/110,7/55);(1/2,1)",), False),
    (3, 4, True): ("63/110", ("(1/110,1/55);(7/110,7/55);(1/2,1)",), True),
    (3, 5, False): ("1863/2855", ("(8/2855,4/571);(92/2855,46/571);(2/5,1)",), False),
    (3, 5, True): ("1863/2855", ("(8/2855,4/571);(92/2855,46/571);(2/5,1)",), True),
    (4, 1, False): ("1/2", ("(1/2,1)",), False),
    (4, 1, True): ("1/2", ("(1/2,1)",), True),
    (4, 2, False): ("0", ("",), False),
    (4, 2, True): ("0", ("",), True),
    (4, 3, False): ("77/177", ("(8/177,4/59);(28/177,14/59);(2/3,1)",), False),
    (4, 3, True): ("77/177", ("(8/177,4/59);(28/177,14/59);(2/3,1)",), True),
    (4, 4, False): ("63/110", ("(1/110,1/55);(7/110,7/55);(1/2,1)",), False),
    (4, 4, True): ("63/110", ("(1/110,1/55);(7/110,7/55);(1/2,1)",), True),
    (4, 5, False): ("1863/2855", ("(8/2855,4/571);(92/2855,46/571);(2/5,1)",), False),
    (4, 5, True): ("1863/2855", ("(8/2855,4/571);(92/2855,46/571);(2/5,1)",), True),
    (5, 1, True): ("1/2", ("(1/2,1)",), False),
}


def test_leaf_rule_results_are_pinned():
    for (m, k, all_optima), (optimum, witnesses, exact) in LEAF_RESULTS.items():
        res = maximize_measure(m, k, all_optima=all_optima)
        got = (str(res.optimum), tuple(map(format_union, res.witnesses)), res.witnesses_exact)
        assert got == (optimum, witnesses, exact), (m, k, all_optima)


def _overlap(v, k, entry):
    i, j, t = entry
    return (min(v[2 * i + 1] + v[2 * j + 1], k * v[2 * t + 1])
            - max(v[2 * i] + v[2 * j], k * v[2 * t]))


def test_integer_branch_choice_matches_the_fraction_choice():
    """``_pick_branch`` on numerators over one denominator picks the exact entry."""
    rng = random.Random(8)
    seen = {"degenerate": 0, "resolved": 0, "tie": 0}
    for _ in range(600):
        m, k, den = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 12)
        nums = tuple(sorted(rng.randint(0, den) for _ in range(2 * m)))
        v = tuple(F(a, den) for a in nums)
        entries = [(i, j, t) for i in range(m) for j in range(i, m) for t in range(m)]
        choices = frozenset((rng.choice("LR"), *e)
                            for e in rng.sample(entries, rng.randint(0, len(entries) // 2)))
        pick = pick_branch_fraction(v, m, k, choices)
        assert search._pick_branch(nums, m, k, choices) == pick
        seen["degenerate"] += any(nums[2 * i] == nums[2 * i + 1] for i in range(m))
        seen["resolved"] += pick != pick_branch_fraction(v, m, k, frozenset())
        if pick is not None:
            nxt = pick_branch_fraction(v, m, k, choices | {("L", *pick)})
            seen["tie"] += nxt is not None and _overlap(v, k, nxt) == _overlap(v, k, pick)
    assert all(seen.values()), seen


def test_branch_rule_decides_sum_freeness():
    """No branch entry at a vertex exactly when its union is k-sum-free."""
    rng = random.Random(9)
    seen = {"free": 0, "not free": 0, "degenerate": 0, "touching": 0}
    for _ in range(3000):
        m, k, den = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 12)
        v = tuple(F(a, den) for a in sorted(rng.randint(0, den) for _ in range(2 * m)))
        free = is_k_sum_free(Configuration(m, v).to_union(), k)[0]
        assert (search._pick_branch(v, m, k, frozenset()) is None) == free, (m, k, v)
        seen["free" if free else "not free"] += 1
        seen["degenerate"] += any(v[2 * i] == v[2 * i + 1] for i in range(m))
        seen["touching"] += any(v[2 * i - 1] == v[2 * i] and v[2 * i - 2] < v[2 * i - 1]
                                and v[2 * i] < v[2 * i + 1] for i in range(1, m))
    assert all(seen.values()), seen


def test_schedule_independence_sequential_vs_parallel():
    # every worker node is a warm child, so both schedules search one tree
    for m in (3, 4, 5):
        seq = maximize_measure(m, 3, all_optima=True, parallel=1)
        par = maximize_measure(m, 3, all_optima=True, parallel=2)
        assert par == seq
        assert seq.status == "proven"


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: runs the workers in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_no_choice_set_is_expanded_twice(monkeypatch):
    expanded = []
    expand = search._expand

    def recording_expand(m, state, node):
        expanded.append((m, node[0]))
        return expand(m, state, node)

    monkeypatch.setattr(search, "_expand", recording_expand)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    for parallel in (1, 2):
        expanded.clear()
        res = maximize_measure(5, 3, all_optima=True, parallel=parallel)
        assert len(expanded) == res.nodes_explored == SEARCH_COUNTERS[5, 3][0]
        assert len(set(expanded)) == len(expanded)


def test_node_limit_interrupts():
    res = maximize_measure(3, 3, node_limit=5)
    assert res.status == "interrupted"
    assert res.optimum <= F(77, 177)


def test_node_limit_is_global_across_workers():
    # the full parallel m=4 search takes 166 nodes, so a limit of 100 must stop it
    res = maximize_measure(4, 3, all_optima=True, parallel=2, node_limit=100)
    assert res.nodes_explored <= 100
    assert res.status == "interrupted"


def test_invalid_arguments():
    with pytest.raises(ValueError):
        maximize_measure(0, 3)
    with pytest.raises(ValueError):
        maximize_measure(2, 0)
    with pytest.raises(ValueError):
        maximize_measure(2, 3, parallel=0)
    with pytest.raises(ValueError):
        maximize_measure(2, 3, node_limit=-1)
