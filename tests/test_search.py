import concurrent.futures
import os
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (certificate, chain_pattern_lp, check_certificate, gap_form,
                     grid_best_1_interval, grid_best_2_intervals, mu_formula, pairs,
                     pattern_lp, pick_branch_fraction, satisfies_lp, vertex)

from sumfree.intervals import IntervalUnion, is_k_sum_free
from sumfree import search
from sumfree.lp import OPTIMAL, LinearProgram, Tableau, canonical_rows, solve
from sumfree.search import (
    _choice_row,
    _union,
    build_pattern_lp,
    maximize_measure,
)

F = Fraction


def test_configuration_validation():
    """``_union`` asserts that a vertex, as numerators over ``den``, is a
    nondecreasing chain in [0, 1]."""
    assert pairs(_union((0, 1, 1, 4), 4)) == [(F(0), F(1))]
    with pytest.raises(AssertionError):
        _union((0, 2, 1, 4), 4)  # chain broken
    with pytest.raises(AssertionError):
        _union((1, 3), 2)  # above 1
    with pytest.raises(AssertionError):
        _union((-1, 1), 2)  # below 0


def test_configuration_to_union_drops_vanished():
    assert pairs(_union((0, 1, 2, 2, 2, 4), 4)) == [(F(0), F(1, 4)), (F(1, 2), F(1))]
    assert _union((0, 2, 4, 4, 4, 8), 8) == _union((0, 1, 2, 2, 2, 4), 4)


def test_pattern_resolution_guards():
    """A node's LP is the root's rows, then its choice rows as ``_choice_row`` writes them."""
    lp = pattern_lp(2, 3, frozenset({("L", 0, 1, 1)}))
    assert lp.rows[-1] == tuple(_choice_row(2, 3, ("L", 0, 1, 1)))
    assert build_pattern_lp(2).rows == lp.rows[:-1]


def test_single_interval_pattern_lps():
    # sums pushed left of the interval: classic (2/3, 1) for k = 3
    left = pattern_lp(1, 3, {("L", 0, 0, 0)})
    res = solve(left)
    assert res.status == OPTIMAL
    assert res.value == F(1, 3)
    assert vertex(res) == (F(2, 3), F(1))
    # sums pushed right: forces a degenerate interval for k = 3
    right = pattern_lp(1, 3, {("R", 0, 0, 0)})
    res = solve(right)
    assert res.status == OPTIMAL and res.value == 0
    # k = 1: left split is degenerate-only, right split gives the top half
    left1 = pattern_lp(1, 1, {("L", 0, 0, 0)})
    res = solve(left1)
    assert res.status == OPTIMAL and res.value == 0
    right1 = pattern_lp(1, 1, {("R", 0, 0, 0)})
    res = solve(right1)
    assert res.value == F(1, 2) and vertex(res) == (F(1, 2), F(1))


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
    assert [pairs(w) for w in res.witnesses] == [[(F(2, 3), F(1))]]
    assert res.status == "proven"

    res = maximize_measure(1, 1)
    assert res.optimum == F(1, 2)
    assert [pairs(w) for w in res.witnesses] == [[(F(1, 2), F(1))]]


def test_two_intervals_k3():
    res = maximize_measure(2, 3)
    assert res.optimum == F(3, 7)  # frozen from the grid oracle below
    assert res.optimum <= F(77, 177)


def test_three_intervals_k3_unique_record(largest_known_3sumfree):
    res = maximize_measure(3, 3)
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
    assert [pairs(w) for w in res.witnesses] == [[]]


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


def _random_choices(rng, entries):
    return frozenset((rng.choice("LR"), *entry)
                     for entry in rng.sample(entries, rng.randint(0, 4)))


def _resolved(choices, entry):
    return ("L", *entry) in choices or ("R", *entry) in choices


def test_relaxation_monotonicity():
    rng = random.Random(11)
    m, k = 3, 3
    entries = [(i, j, t) for i in range(m) for j in range(i, m) for t in range(m)]
    for _ in range(40):
        pat = _random_choices(rng, entries)
        parent = solve(pattern_lp(m, k, pat))
        i, j, t = rng.choice(entries)
        if _resolved(pat, (i, j, t)):
            continue
        for side in "LR":
            child = solve(pattern_lp(m, k, pat | {(side, i, j, t)}))
            assert child.value <= parent.value


def _warm_child_agrees(m, k, pat, tab, rows, choice):
    """Add ``choice`` to ``tab`` warm; check it against a cold solve of the
    child, and its certificate over ``rows``, ``tab``'s rows in tableau order,
    and the added row.  Returns the child and its rows."""
    g = _choice_row(m, k, choice)
    tab, rows = tab.add_row(g, 0), rows + [(g, 0)]
    assert tab.status == OPTIMAL
    child = pattern_lp(m, k, pat | {choice})
    cold = solve(child)
    assert all(type(a) is int for row in tab.mat for a in row)
    assert tab.value == cold.value
    assert satisfies_lp(child, vertex(tab))
    assert check_certificate(child, certificate(tab), rows)
    return tab, rows


@pytest.mark.parametrize("m,k", [(m, k) for m in (3, 4) for k in (2, 3, 4)])
def test_warm_child_matches_cold_solve(m, k):
    rng = random.Random(100 * m + k)
    entries = [(i, j, t) for i in range(m) for j in range(i, m) for t in range(m)]
    for _ in range(34):
        pat = _random_choices(rng, entries)
        lp = pattern_lp(m, k, pat)
        tab, rows = solve(lp), canonical_rows(lp)
        for entry in rng.sample(entries, 3):  # a chain of warm children
            if _resolved(pat, entry):
                continue
            choice = (rng.choice("LR"), *entry)
            tab, rows = _warm_child_agrees(m, k, pat, tab, rows, choice)
            pat = pat | {choice}


def test_warm_child_with_a_row_the_cold_build_drops():
    # for k = 2, L(0,0,1) and R(1,1,0) are both 2 r_0 - 2 l_1 <= 0
    m, k = 2, 2
    pat = frozenset({("L", 0, 0, 1)})
    lp = pattern_lp(m, k, pat)
    tab = solve(lp)
    child = pat | {("R", 1, 1, 0)}
    assert len(canonical_rows(pattern_lp(m, k, child))) == tab.nrows
    _warm_child_agrees(m, k, pat, tab, canonical_rows(lp), ("R", 1, 1, 0))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_unopened_right_children_hold_only_degenerate_targets(m):
    """For k >= 2, chain rows plus RIGHT(i, j, t) with j <= t force r_t = l_t."""
    entries = [(i, j, t) for i in range(m) for j in range(i, m) for t in range(j, m)]

    def max_target_length(k, entry):
        t = entry[2]
        objective = [0] * (2 * m)
        objective[2 * t], objective[2 * t + 1] = -1, 1  # r_t - l_t
        rows = pattern_lp(m, k, {("R", *entry)}).rows
        return solve(LinearProgram(objective=gap_form(objective), rows=rows)).value

    for k in range(2, 8):
        for entry in entries:
            assert max_target_length(k, entry) == 0, (k, entry)
    # for k = 1 the RIGHT child can hold a live target, so the guard k >= 2 is needed
    assert any(max_target_length(1, entry) > 0 for entry in entries)


def _endpoints(tab):
    """The search's read-back of an optimal tableau's vertex, as ``Fraction`` endpoints."""
    return tuple(F(a, tab.den) for a in search._point(tab))


def test_gap_form_matches_the_chain_form():
    """Over seeded choice sets, the gap-form pattern LP has the chain form's
    value, its read-back point meets every chain-form row, and its optimal
    face's vertices, read back, are the chain form's."""
    rng = random.Random(19)
    faces = 0
    for _ in range(150):
        m, k = rng.randint(1, 4), rng.randint(1, 5)
        entries = [(i, j, t) for i in range(m) for j in range(i, m) for t in range(m)]
        pat = frozenset((rng.choice("LR"), *entry)
                        for entry in rng.sample(entries, rng.randint(0, min(5, len(entries)))))
        gaps, chain = pattern_lp(m, k, pat), chain_pattern_lp(m, k, pat)
        assert tuple(_choice_row(m, k, c) for c in sorted(pat)) == gaps.rows[1:]
        tab = solve(gaps)
        assert tab.value == solve(chain).value
        assert satisfies_lp(chain, _endpoints(tab))
        face = sorted({_endpoints(t) for t in tab.optimal_face()})
        assert face == sorted({vertex(t) for t in solve(chain).optimal_face()})
        faces += len(face) > 1
    assert faces  # some optimal faces are more than a vertex


def test_monotone_in_m_and_stable_at_record():
    values = [maximize_measure(m, 3).optimum for m in range(1, 6)]
    assert values == sorted(values)
    assert values[2] == values[3] == values[4] == F(77, 177)


# Nodes and LP pivots of the serial search, by (m, k); a
# change to the node step that alters the tree shows up here first.
# Warm-started children (dual simplex from the parent's tableau) changed
# them from (172, 1873), (619, 9467) and (421, 5719); not opening the
# degenerate-only RIGHT children from (166, 258), (635, 1077), (459, 782)
# and (2072, 3503); the gap-form LP, whose vertices differ, and branching
# on mixed optimal faces from (130, 205), (481, 827), (352, 603) and
# (1537, 2623); stopping each warm child's dual simplex once its bound
# falls below the incumbent, which leaves the nodes as they were, from
# (122, 178), (456, 745), (232, 293), (1485, 2481) and (4971, 8636);
# closing the tie nodes whose optimum forces a length or an interior gap
# to 0, with the face walk's pivots counted, from (1485, 1207) and
# (4971, 4179).
SEARCH_COUNTERS = {(4, 3): (122, 93), (5, 3): (456, 352), (5, 4): (232, 171),
                   (6, 3): (1471, 1193), (7, 3): (4911, 4132),
                   (5, 5): (273, 213), (5, 6): (271, 212), (5, 7): (271, 212)}


@pytest.mark.parametrize("m", [4, 5, 7])
def test_record_witness_stays_unique_with_spare_intervals(m, largest_known_3sumfree):
    res = maximize_measure(m, 3)
    assert res.optimum == F(77, 177)
    assert res.witnesses == (largest_known_3sumfree,)
    assert res.witnesses_exact and res.status == "proven"
    assert (res.nodes_explored, res.lp_pivots) == SEARCH_COUNTERS[m, 3]


def test_search_counters_k4():
    res = maximize_measure(5, 4)
    assert res.optimum == mu_formula(4)
    assert res.witnesses_exact
    assert (res.nodes_explored, res.lp_pivots) == SEARCH_COUNTERS[5, 4]


@pytest.mark.parametrize("k", [5, 6, 7])
def test_search_counters_seeded_k(k):
    """The bench's search workload runs mu(k) at m = 5 for k = 4 + seed % 4;
    with k = 4 above, these pin every counter it reads."""
    res = maximize_measure(5, k)
    assert res.optimum == mu_formula(k)
    assert res.witnesses_exact
    assert (res.nodes_explored, res.lp_pivots) == SEARCH_COUNTERS[5, k]


def test_search_counters_six_intervals(largest_known_3sumfree):
    # a tied optimal face at m = 6 holds unions that are not 3-sum-free;
    # the search branches on it, so the record set is proven unique
    res = maximize_measure(6, 3)
    assert res.optimum == F(77, 177)
    assert res.witnesses == (largest_known_3sumfree,)
    assert res.witnesses_exact
    assert (res.nodes_explored, res.lp_pivots) == SEARCH_COUNTERS[6, 3]


# (m, k) = (5, 1).  The chain-form LP took 191/277 and
# 229/347 nodes/pivots here; k = 1 has no closure of RIGHT children, so
# these counts follow which tied optimal vertex each node returns.  They
# are pinned so that a change to that choice re-pins them on purpose.
# The incumbent cutoff on warm children took the pivots from 434 and 570,
# and closing the tie nodes whose optimum forces a length or an interior
# gap to 0 took the counts from (369, 398).
K1_COUNTERS = (305, 320)


@pytest.mark.parametrize("all_optima", [False, True])
def test_search_counters_k1(all_optima):
    # the keyword is ignored: both values run the one all-optima search
    res = maximize_measure(5, 1, all_optima=all_optima)
    assert res.optimum == F(1, 2)
    assert (res.nodes_explored, res.lp_pivots) == K1_COUNTERS


@pytest.mark.parametrize("m,k", [(5, 1), (5, 3)])
def test_all_optima_keyword_is_ignored(m, k):
    """Every search collects all optima: the keyword, omitted, False or
    True, changes no field of the result."""
    res = maximize_measure(m, k)
    assert res.witnesses_exact
    assert maximize_measure(m, k, all_optima=False) == res
    assert maximize_measure(m, k, all_optima=True) == res


def test_lp_pivots_count_every_pivot(monkeypatch):
    """``lp_pivots`` sums the roots' solves, the warm children's ``add_row``
    and the face walks, each counted here where it pivots; (5, 2) still
    walks faces of more than one basis."""
    counts = dict.fromkeys(("solve", "add_row", "optimal_face"), 0)
    phase = []
    pivot = Tableau.pivot

    def counted(name, fn):
        def run(*args, **kwargs):
            phase.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                phase.pop()
        return run

    def counted_pivot(tab, r, p):
        counts[phase[-1]] += 1
        pivot(tab, r, p)

    monkeypatch.setattr(search.lp_mod, "solve", counted("solve", search.lp_mod.solve))
    for name in ("add_row", "optimal_face"):
        monkeypatch.setattr(Tableau, name, counted(name, getattr(Tableau, name)))
    monkeypatch.setattr(Tableau, "pivot", counted_pivot)
    res = maximize_measure(5, 2)
    assert all(counts.values()), counts
    assert res.lp_pivots == sum(counts.values())


def _zero_gaps(v, m):
    """The variables d_1, ..., d_{2m-2} and the chain row's slack (variable
    2m, r_m - l_m) that are 0 at the endpoints ``v``."""
    return {q for q in (*range(1, 2 * m - 1), 2 * m)
            if v[min(q, 2 * m - 1)] == v[min(q, 2 * m - 1) - 1]}


def test_forced_zero_closures_keep_every_result(monkeypatch):
    """The tree that closes forced-zero ties has the optimum, witnesses,
    exactness and status of the tree without the rule, and no more nodes;
    at each closure, one length or interior gap is 0 at every basis of the
    node's optimal face."""
    forces_zero = search._forces_zero
    closures = 0

    def checked(tab, m):
        nonlocal closures
        if not forces_zero(tab, m):
            return False
        zero = set.intersection(*(_zero_gaps(search._point(t), m) for t in tab.optimal_face()))
        assert zero, (m, search._point(tab))
        closures += 1
        return True

    for m in range(1, 7):
        for k in range(1, 8):
            monkeypatch.setattr(search, "_forces_zero", checked)
            res = maximize_measure(m, k)
            monkeypatch.setattr(search, "_forces_zero", lambda tab, m: False)
            full = maximize_measure(m, k)
            assert ((res.optimum, res.witnesses, res.witnesses_exact, res.status)
                    == (full.optimum, full.witnesses, full.witnesses_exact, full.status)), (m, k)
            assert res.nodes_explored <= full.nodes_explored, (m, k)
    assert closures


def test_mixed_face_branch_at_eight_intervals(monkeypatch, largest_known_3sumfree):
    """(8, 3) branches on a mixed optimal face: the smallest case that
    still does, once forced-zero ties are closed."""
    record_leaf = search._record_leaf
    branched = 0

    def counted(state, m, tab, v):
        nonlocal branched
        entry = record_leaf(state, m, tab, v)
        branched += entry is not None
        return entry

    monkeypatch.setattr(search, "_record_leaf", counted)
    res = maximize_measure(8, 3)
    assert (branched, res.nodes_explored) == (4, 16696)
    assert res.optimum == F(77, 177) and res.witnesses == (largest_known_3sumfree,)
    assert res.witnesses_exact and res.status == "proven"


# The unique maximizer over 7 intervals for k >= 4, of the shape
# (a, ka/2) u (b, kb/2) u (2/k, 1).
SEVEN_INTERVAL_WITNESSES = {
    4: "(1/110,1/55);(7/110,7/55);(1/2,1)",
    5: "(8/2855,4/571);(92/2855,46/571);(2/5,1)",
    6: "(1/915,1/305);(17/915,17/305);(1/3,1)",
    7: "(8/16093,4/2299);(188/16093,94/2299);(2/7,1)",
    8: "(1/3964,1/991);(31/3964,31/991);(1/4,1)",
}


@pytest.mark.parametrize("k", sorted(SEVEN_INTERVAL_WITNESSES))
def test_closed_form_holds_for_seven_intervals(k):
    res = maximize_measure(7, k)
    assert res.optimum == mu_formula(k)
    assert tuple(map(str, res.witnesses)) == (SEVEN_INTERVAL_WITNESSES[k],)
    assert res.witnesses_exact and res.status == "proven"


def test_record_holds_for_six_intervals():
    res = maximize_measure(6, 3)
    assert res.optimum == F(77, 177)
    assert res.status == "proven"


# Optimum, witness texts and witnesses_exact by (m, k), as recorded
# before face bases were judged on integers.  (5, 1) meets a mixed
# optimal face, and is exact because the search branches on it.
LEAF_RESULTS = {
    (1, 1): ("1/2", ("(1/2,1)",), True),
    (1, 2): ("0", ("",), True),
    (1, 3): ("1/3", ("(2/3,1)",), True),
    (1, 4): ("1/2", ("(1/2,1)",), True),
    (1, 5): ("3/5", ("(2/5,1)",), True),
    (2, 1): ("1/2", ("(1/2,1)",), True),
    (2, 2): ("0", ("",), True),
    (2, 3): ("3/7", ("(4/21,2/7);(2/3,1)",), True),
    (2, 4): ("4/7", ("(1/14,1/7);(1/2,1)",), True),
    (2, 5): ("15/23", ("(4/115,2/23);(2/5,1)",), True),
    (3, 1): ("1/2", ("(1/2,1)",), True),
    (3, 2): ("0", ("",), True),
    (3, 3): ("77/177", ("(8/177,4/59);(28/177,14/59);(2/3,1)",), True),
    (3, 4): ("63/110", ("(1/110,1/55);(7/110,7/55);(1/2,1)",), True),
    (3, 5): ("1863/2855", ("(8/2855,4/571);(92/2855,46/571);(2/5,1)",), True),
    (4, 1): ("1/2", ("(1/2,1)",), True),
    (4, 2): ("0", ("",), True),
    (4, 3): ("77/177", ("(8/177,4/59);(28/177,14/59);(2/3,1)",), True),
    (4, 4): ("63/110", ("(1/110,1/55);(7/110,7/55);(1/2,1)",), True),
    (4, 5): ("1863/2855", ("(8/2855,4/571);(92/2855,46/571);(2/5,1)",), True),
    (5, 1): ("1/2", ("(1/2,1)",), True),
}


def test_leaf_rule_results_are_pinned():
    for (m, k), (optimum, witnesses, exact) in LEAF_RESULTS.items():
        res = maximize_measure(m, k)
        got = (str(res.optimum), tuple(map(str, res.witnesses)), res.witnesses_exact)
        assert got == (optimum, witnesses, exact), (m, k)


def _overlap(v, k, entry):
    i, j, t = entry
    return (min(v[2 * i + 1] + v[2 * j + 1], k * v[2 * t + 1])
            - max(v[2 * i] + v[2 * j], k * v[2 * t]))


def test_integer_branch_choice_matches_the_fraction_choice():
    """``_pick_branch`` on numerators over one denominator picks the exact entry."""
    rng = random.Random(8)
    seen = {"degenerate": 0, "tie": 0}
    for _ in range(600):
        m, k, den = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 12)
        nums = tuple(sorted(rng.randint(0, den) for _ in range(2 * m)))
        v = tuple(F(a, den) for a in nums)
        pick = pick_branch_fraction(v, m, k, frozenset())
        assert search._pick_branch(nums, m, k) == pick
        seen["degenerate"] += any(nums[2 * i] == nums[2 * i + 1] for i in range(m))
        if pick is not None:
            nxt = pick_branch_fraction(v, m, k, {("L", *pick)})
            seen["tie"] += nxt is not None and _overlap(v, k, nxt) == _overlap(v, k, pick)
    assert all(seen.values()), seen


def test_branch_rule_decides_sum_freeness():
    """No branch entry at a vertex exactly when its union is k-sum-free."""
    rng = random.Random(9)
    seen = {"free": 0, "not free": 0, "degenerate": 0, "touching": 0}
    for _ in range(3000):
        m, k, den = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 12)
        nv = tuple(sorted(rng.randint(0, den) for _ in range(2 * m)))
        v = tuple(F(a, den) for a in nv)
        free = is_k_sum_free(_union(nv, den), k)[0]
        assert (search._pick_branch(v, m, k) is None) == free, (m, k, v)
        seen["free" if free else "not free"] += 1
        seen["degenerate"] += any(v[2 * i] == v[2 * i + 1] for i in range(m))
        seen["touching"] += any(v[2 * i - 1] == v[2 * i] and v[2 * i - 2] < v[2 * i - 1]
                                and v[2 * i] < v[2 * i + 1] for i in range(1, m))
    assert all(seen.values()), seen


def test_schedule_independence_sequential_vs_parallel():
    # every worker node is a warm child, so both schedules search one tree
    for m in (3, 4, 5, 6):
        seq = maximize_measure(m, 3, parallel=1)
        par = maximize_measure(m, 3, parallel=2)
        if m == 3:
            # 77/177 is first found in the last run, so the workers cut their
            # warm children off, and close forced-zero ties, against their
            # own incumbents: the pivots (26 and 25) and the closures by
            # reason differ, the tree and the results do not.
            par, seq = (res._replace(lp_pivots=0, closures=Counter())
                        for res in (par, seq))
        assert par == seq
        assert seq.status == "proven" and seq.witnesses_exact


class _ChoiceSets:
    """Stands in for ``search._expand`` and rebuilds each node's choice set
    from its parent link: empty at a root, else the parent's set and the
    node's own choice.  ``current`` is the set of the node being expanded;
    ``calls`` holds (m, choice set, open children) per expansion."""

    def __init__(self, monkeypatch):
        self.expand = search._expand
        self.sets = {}  # open node -> its choice set
        self.current = frozenset()
        self.calls = []
        monkeypatch.setattr(search, "_expand", self)

    def __call__(self, m, state, node):
        self.current = frozenset() if node is None else self.sets.pop(node)
        children = self.expand(m, state, node)
        for child in children:
            self.sets[child] = self.current | {child[1]}
        self.calls.append((m, self.current, len(children)))
        return children


def test_incumbent_cutoff_leaves_the_tree_as_it_was(monkeypatch):
    """Each node's choice set and open children, and every result field
    but the pivots, are those of the search with ``add_row``'s cutoff
    ignored."""
    add_row = Tableau.add_row
    tracker = _ChoiceSets(monkeypatch)

    def run(m, k):
        tracker.calls.clear()
        res = maximize_measure(m, k)
        return list(tracker.calls), res

    def uncut_add_row(tab, g, cutoff):
        child = add_row(tab, g, 0)
        assert child.status == OPTIMAL
        return child

    for m, k in ((5, 3), (5, 1)):
        cut_calls, res = run(m, k)
        with monkeypatch.context() as patch:
            patch.setattr(Tableau, "add_row", uncut_add_row)
            uncut_calls, uncut = run(m, k)
        assert cut_calls == uncut_calls and len(cut_calls) == res.nodes_explored
        assert uncut._replace(lp_pivots=res.lp_pivots) == res
        assert res.lp_pivots < uncut.lp_pivots


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
    tracker = _ChoiceSets(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    for parallel in (1, 2):
        tracker.calls.clear()
        res = maximize_measure(5, 3, parallel=parallel)
        expanded = [(m, choices) for m, choices, _ in tracker.calls]
        assert len(expanded) == res.nodes_explored == SEARCH_COUNTERS[5, 3][0]
        assert len(set(expanded)) == len(expanded)


def test_every_explored_node_branches_or_closes_for_one_reason(monkeypatch):
    """The branched nodes (those with an open child) plus the closures by
    reason are the nodes explored: serial for m <= 5, k = 1..7, parallel,
    and stopped by a node limit."""
    tracker = _ChoiceSets(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    reasons = {"bound", "forced_zero", "leaf"}
    seen = Counter()

    def check(m, k, **options):
        tracker.calls.clear()
        res = maximize_measure(m, k, **options)
        branched = sum(children > 0 for _, _, children in tracker.calls)
        assert branched + res.closures.total() == res.nodes_explored, (m, k)
        assert set(res.closures) <= reasons, res.closures
        seen.update(res.closures)
        return res

    for m in range(1, 6):
        for k in range(1, 8):
            check(m, k)
    assert set(seen) == reasons, seen
    check(5, 3, parallel=2)
    check(5, 1, parallel=2)
    assert check(5, 3, node_limit=100).status == "interrupted"
    assert check(4, 3, parallel=2, node_limit=100).status == "interrupted"


# The face bases that each case's branch rule judges, by (m, k, parallel):
# since forced-zero ties are closed, the faces left at every case but
# (5, 2) each hold one basis, while (5, 2) still walks bigger ones.
FACE_BASES = {(5, 3, 1): 0, (5, 4, 1): 0, (5, 1, 1): 0,
              (6, 3, 1): 0, (5, 3, 2): 0, (5, 2, 1): 15}


@pytest.mark.parametrize("m,k,parallel", list(FACE_BASES))
def test_branch_rule_never_picks_a_resolved_entry(monkeypatch, m, k, parallel):
    """At every branch-rule call of a search, at the node's vertex and at
    each basis of its optimal face, the entry is the one that the oracle
    picks after skipping every entry the node's choices resolve: the
    node's LP holds each resolved overlap to at most 0.  The oracle takes
    the endpoint numerators, as the rule's argmax is scale-free."""
    tracker = _ChoiceSets(monkeypatch)
    pick = search._pick_branch
    seen = {"calls": 0, "with choices": 0, "face bases": 0}
    expansions = []  # the expansion of each call, by its index in tracker.calls

    def checked_pick(v, m_eff, k_eff):
        entry = pick(v, m_eff, k_eff)
        assert entry == pick_branch_fraction(v, m_eff, k_eff, tracker.current), v
        seen["calls"] += 1
        seen["with choices"] += bool(tracker.current)
        seen["face bases"] += expansions[-1:] == [len(tracker.calls)]
        expansions.append(len(tracker.calls))
        return entry

    monkeypatch.setattr(search, "_pick_branch", checked_pick)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    res = maximize_measure(m, k, parallel=parallel)
    assert res.status == "proven"
    assert seen["calls"] and seen["with choices"], seen
    assert seen["face bases"] == FACE_BASES[m, k, parallel], seen


def test_node_limit_interrupts():
    res = maximize_measure(3, 3, node_limit=5)
    assert res.status == "interrupted"
    assert res.optimum <= F(77, 177)


def test_node_limit_is_global_across_workers():
    # the full parallel m=4 search takes 122 nodes, so a limit of 100 must stop it
    res = maximize_measure(4, 3, parallel=2, node_limit=100)
    assert res.nodes_explored <= 100
    assert res.status == "interrupted"


def test_parallel_pool_is_capped_at_the_cpu_count(monkeypatch):
    # four shares on one process give the four-process results: a share's
    # result depends only on its nodes, its limit and its starting incumbent
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    res = maximize_measure(5, 3, parallel=4)
    assert (res.status, res.optimum) == ("proven", F(77, 177))
    assert (res.nodes_explored, res.lp_pivots) == (456, 352)
    assert res.closures == Counter(bound=205, forced_zero=15, leaf=3)
    cut = maximize_measure(5, 3, parallel=4, node_limit=300)
    assert (cut.status, cut.nodes_explored, cut.lp_pivots) == ("interrupted", 300, 235)
    assert cut.closures == Counter(bound=124, forced_zero=11, leaf=3)
    assert sizes == [1, 1]


def test_invalid_arguments():
    with pytest.raises(ValueError):
        maximize_measure(0, 3)
    with pytest.raises(ValueError):
        maximize_measure(2, 0)
    with pytest.raises(ValueError):
        maximize_measure(2, 3, parallel=0)
    with pytest.raises(ValueError):
        maximize_measure(2, 3, node_limit=-1)
