import copy
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from oracles import optimal_vertices_brute, satisfies_lp

from sumfree.lp import (
    OPTIMAL,
    LinearProgram,
    canonical_rows,
    check_certificate,
    enumerate_optimal_vertices,
    solve,
)
from sumfree.search import DisjunctionPattern, build_pattern_lp

F = Fraction


def test_single_variable_box():
    prob = LinearProgram(objective=(1,), rows=())
    res = solve(prob)
    assert res.status == OPTIMAL
    assert res.value == 1 and res.vertex == (F(1),)
    assert check_certificate(prob, res)


def test_binding_budget_row():
    # 177 x1 <= 77 x2 with x2 at its box: x1 = 77/177
    prob = LinearProgram(objective=(1, 1), rows=((177, -77),))
    res = solve(prob)
    assert res.status == OPTIMAL and res.value == F(254, 177)
    assert res.vertex == (F(77, 177), F(1))
    assert check_certificate(prob, res)


def test_rejects_non_integer_data_and_bad_lengths():
    with pytest.raises(ValueError):
        LinearProgram(objective=(F(1, 2), 1), rows=())
    with pytest.raises(ValueError):
        LinearProgram(objective=(1, 1), rows=((1, 0.5),))
    with pytest.raises(ValueError):
        LinearProgram(objective=(1, 1), rows=((1, -1, 0),))
    with pytest.raises(ValueError):
        LinearProgram(objective=(1, 1), rows=((1,),))


def test_certificate_rejects_perturbations():
    prob = LinearProgram(objective=(1, 1), rows=((177, -77),))
    res = solve(prob)
    assert check_certificate(prob, res)
    forged = SimpleNamespace(status=res.status, value=res.value,
                             vertex=res.vertex, dual=res.dual)
    assert check_certificate(prob, forged)  # the checker reads only these four
    bad_value = SimpleNamespace(**{**vars(forged), "value": res.value + 1})
    assert not check_certificate(prob, bad_value)
    # vertex off by one millionth on a binding row: exactness, no tolerance
    eps = F(1, 10**6)
    shifted = tuple(x + eps for x in res.vertex)
    bad_vertex = SimpleNamespace(**{**vars(forged), "vertex": shifted})
    assert not check_certificate(prob, bad_vertex)
    bad_dual = SimpleNamespace(**{**vars(forged), "dual": tuple(y + eps for y in res.dual)})
    assert not check_certificate(prob, bad_dual)
    bad_status = SimpleNamespace(**{**vars(forged), "status": "infeasible"})
    assert not check_certificate(prob, bad_status)


def test_duplicate_rows_are_dropped():
    prob = LinearProgram(objective=(1, 1), rows=((1, -1), (1, -1), (1, -2)))
    rows = canonical_rows(prob)
    assert len(rows) == 4  # two distinct g rows, then two box rows
    res = solve(prob)
    assert res.value == 2 and check_certificate(prob, res)
    assert len(res.dual) == len(rows)


def test_beale_degenerate_instance_terminates():
    # classic cycling instance for most-negative pivoting, every coefficient
    # times 100; Beale's x3 <= 1 is the box row.  Bland's rule ends
    rows = ((25, -6000, -4, 900), (50, -9000, -2, 300))
    prob = LinearProgram(objective=(75, -15000, 2, -600), rows=rows)
    res = solve(prob)
    assert res.status == OPTIMAL
    assert res.value == 5  # 100 * 1/20
    assert res.vertex == (F(1, 25), F(0), F(1), F(0))
    assert check_certificate(prob, res)


def test_degenerate_ties_resolve_deterministically():
    # x1 = x2 from both sides, plus a scaled copy: five rows tie at (1, 1)
    rows = ((1, -1), (2, -2), (-1, 1))
    prob = LinearProgram(objective=(1, 0), rows=rows)
    first, second = solve(prob), solve(prob)
    assert ((first.value, first.vertex, first.dual, first.pivots)
            == (second.value, second.vertex, second.dual, second.pivots))
    assert first.value == 1
    assert check_certificate(prob, first)


def _random_lp(rng: random.Random) -> LinearProgram:
    n = rng.randint(1, 4)
    rows = tuple(tuple(rng.randint(-6, 6) for _ in range(n))
                 for _ in range(rng.randint(1, 5)))
    objective = tuple(rng.randint(-5, 5) for _ in range(n))
    return LinearProgram(objective=objective, rows=rows)


def test_duality_on_random_feasible_lps():
    rng = random.Random(20250810)
    for _ in range(120):
        prob = _random_lp(rng)
        res = solve(prob)
        assert res.status == OPTIMAL
        assert check_certificate(prob, res)
        rows = canonical_rows(prob)
        dual_value = sum(y * b for y, (_, b) in zip(res.dual, rows))
        assert dual_value == res.value  # exact strong duality


def test_objective_scaling_invariance():
    rng = random.Random(123)
    for _ in range(60):
        prob = _random_lp(rng)
        lam = rng.randint(1, 9)
        scaled = LinearProgram(objective=tuple(lam * c for c in prob.objective),
                               rows=prob.rows)
        base = solve(prob)
        up = solve(scaled)
        assert up.value == lam * base.value
        assert up.vertex == base.vertex  # same deterministic pivot path


def test_optimal_face_enumeration():
    # x1 + x2 <= x3 <= 1, objective parallel to that facet: a segment
    prob = LinearProgram(objective=(1, 1, 0), rows=((1, 1, -1),))
    verts = enumerate_optimal_vertices(prob)
    assert verts == [(F(0), F(1), F(1)), (F(1), F(0), F(1))]
    # unique optimum: one vertex only
    prob2 = LinearProgram(objective=(2, 1, 0), rows=((1, 1, -1),))
    assert enumerate_optimal_vertices(prob2) == [(F(1), F(0), F(1))]


def _face_matches_brute_force(prob) -> tuple[int, int]:
    """The face walk against the tight-set oracle; returns its vertex and basis counts."""
    tab = solve(prob)
    face = tab.optimal_face()
    assert face[0] is tab
    assert len({tuple(sorted(t.basis)) for t in face}) == len(face)
    assert all(t.value == tab.value for t in face)
    verts = enumerate_optimal_vertices(prob)
    assert verts == optimal_vertices_brute(prob)
    return len(verts), len(face)


def test_optimal_face_matches_brute_force_on_random_lps():
    rng = random.Random(404)
    sizes = [_face_matches_brute_force(_random_lp(rng)) for _ in range(120)]
    assert any(verts > 1 for verts, _ in sizes)  # some faces are more than a vertex
    assert any(bases > verts for verts, bases in sizes)  # some vertices are degenerate


def test_optimal_face_matches_brute_force_on_pattern_lps():
    rng = random.Random(405)
    sizes = []
    for m, count in ((1, 8), (2, 12), (3, 6)):
        entries = [(i, j, t) for i in range(m) for j in range(i, m) for t in range(m)]
        for _ in range(count):
            pat = DisjunctionPattern(m)
            for entry in rng.sample(entries, rng.randint(0, min(3, len(entries)))):
                pat = pat.resolve(rng.choice("LR"), *entry)
            sizes.append(_face_matches_brute_force(build_pattern_lp(m, rng.randint(1, 4), pat)))
    assert any(verts > 1 for verts, _ in sizes)
    assert any(bases > verts for verts, bases in sizes)


def test_added_row_matches_a_cold_solve():
    """A warm child (one ``<= 0`` row, dual simplex) agrees with a cold solve."""
    rng = random.Random(77)
    dual_pivots = 0
    for _ in range(80):
        prob = _random_lp(rng)
        tab = solve(prob)
        for _ in range(3):  # a warm child of a warm child, and so on
            g = tuple(rng.randint(-3, 3) for _ in range(prob.num_vars))
            tab = tab.add_row(g)
            prob = LinearProgram(objective=prob.objective, rows=prob.rows + (g,))
            cold = solve(prob)
            dual_pivots += tab.pivots
            assert all(type(a) is int for row in tab.mat for a in row)
            assert tab.value == cold.value
            assert satisfies_lp(prob, tab.vertex)
    assert dual_pivots  # the added rows cut off some parent optima


def _dictionary_is_well_formed(tab):
    assert all(len(row) == tab.nvars + 1 for row in tab.mat)
    assert all(type(a) is int for row in tab.mat for a in row)
    assert len(tab.mat) == tab.nrows + 1
    assert sorted(tab.basis + tab.cobasis) == list(range(tab.nvars + tab.nrows))


def test_dictionary_keeps_its_width_and_its_parent():
    """Along chains of added rows: constant width, a partition of the
    variables into basis and cobasis, and a parent left intact by both children."""
    rng = random.Random(31)
    for _ in range(60):
        prob = _random_lp(rng)
        tab = solve(prob)
        _dictionary_is_well_formed(tab)
        for _ in range(4):
            before = copy.deepcopy((tab.mat, tab.den, tab.basis, tab.cobasis))
            children = [tab.add_row(tuple(rng.randint(-3, 3) for _ in range(prob.num_vars)))
                        for _ in range(2)]
            assert (tab.mat, tab.den, tab.basis, tab.cobasis) == before
            for child in children:
                _dictionary_is_well_formed(child)
                assert child.nrows == tab.nrows + 1
            tab = rng.choice(children)
