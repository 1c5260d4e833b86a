import random
from collections import Counter
from fractions import Fraction

import pytest
from oracles import satisfies_lp

from sumfree.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    _read_optimum,
    _reoptimize,
    _run_phases,
    canonical_rows,
    check_certificate,
    constraint,
    enumerate_optimal_vertices,
    linear_program,
    solve,
)

F = Fraction


def test_single_variable_box():
    prob = linear_program([F(1)], [constraint([1], "<=", 1)], bounds=[(F(0), None)])
    res = solve(prob)
    assert res.status == OPTIMAL
    assert res.value == 1 and res.vertex == (F(1),)
    assert check_certificate(prob, res)


def test_binding_budget_row():
    prob = linear_program(
        [F(1), F(1)],
        [constraint([1, 1], "<=", F(77, 177))],
        bounds=[(F(0), None), (F(0), None)],
    )
    res = solve(prob)
    assert res.status == OPTIMAL and res.value == F(77, 177)
    assert check_certificate(prob, res)


def test_unbounded():
    prob = linear_program([F(1)], [constraint([1], ">=", 0)])
    assert solve(prob).status == UNBOUNDED


def test_infeasible():
    prob = linear_program(
        [F(1)], [constraint([1], "<=", -1)], bounds=[(F(0), None)]
    )
    assert solve(prob).status == INFEASIBLE


def test_equality_and_free_variables():
    prob = linear_program(
        [F(1), F(2)],
        [constraint([1, 1], "=", 1), constraint([1, -1], ">=", -3)],
    )
    res = solve(prob)
    assert res.status == OPTIMAL and res.value == 3
    assert res.vertex == (F(-1), F(2))
    assert check_certificate(prob, res)


def test_general_bounds():
    prob = linear_program(
        [F(-1)],
        [constraint([1], "<=", 10)],
        bounds=[(F(3, 2), F(5))],
    )
    res = solve(prob)
    assert res.status == OPTIMAL and res.vertex == (F(3, 2),)
    assert check_certificate(prob, res)


def test_certificate_rejects_perturbations():
    prob = linear_program(
        [F(1), F(1)],
        [constraint([1, 1], "<=", F(77, 177))],
        bounds=[(F(0), None), (F(0), None)],
    )
    res = solve(prob)
    assert check_certificate(prob, res)
    bad_value = type(res)(status=res.status, value=res.value + 1,
                          vertex=res.vertex, dual=res.dual)
    assert not check_certificate(prob, bad_value)
    # vertex off by one millionth on a binding row: exactness, no tolerance
    eps = F(1, 10**6)
    shifted = tuple(x + eps for x in res.vertex)
    bad_vertex = type(res)(status=res.status, value=res.value, vertex=shifted,
                           dual=res.dual)
    assert not check_certificate(prob, bad_vertex)
    bad_dual = type(res)(status=res.status, value=res.value, vertex=res.vertex,
                         dual=tuple(y + eps for y in res.dual))
    assert not check_certificate(prob, bad_dual)


def test_duplicate_rows_are_dropped():
    prob = linear_program(
        [F(1)],
        [constraint([1], "<=", 2), constraint([1], "<=", 2), constraint([1], "<=", 3)],
        bounds=[(F(0), None)],
    )
    rows, _ = canonical_rows(prob)
    assert len(rows) == 2
    res = solve(prob)
    assert res.value == 2 and check_certificate(prob, res)


def test_beale_degenerate_instance_terminates():
    # classic cycling instance for most-negative pivoting; Bland's rule ends
    cons = [
        constraint([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
        constraint([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
        constraint([0, 0, 1, 0], "<=", 1),
    ]
    objective = [F(3, 4), F(-150), F(1, 50), F(-6)]
    bounds = [(F(0), None)] * 4
    prob = linear_program(objective, cons, bounds=bounds)
    res = solve(prob)
    assert res.status == OPTIMAL
    assert res.value == F(1, 20)
    assert check_certificate(prob, res)


def test_degenerate_ties_resolve_deterministically():
    # several rows tie at the optimum vertex
    cons = [
        constraint([1, 1], "<=", 1),
        constraint([2, 2], "<=", 2),
        constraint([1, 0], "<=", 1),
        constraint([1, -1], "<=", 1),
    ]
    prob = linear_program([F(1), F(0)], cons, bounds=[(F(0), None), (F(0), None)])
    first = solve(prob)
    second = solve(prob)
    assert first == second
    assert first.value == 1
    assert check_certificate(prob, first)


def _random_feasible_bounded_lp(rng: random.Random):
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    x0 = [F(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(n)]
    cons = []
    for _ in range(m):
        coeffs = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
        lhs = sum(c * x for c, x in zip(coeffs, x0))
        slack = F(rng.randint(0, 5), rng.randint(1, 3))
        cons.append(constraint(coeffs, "<=", lhs + slack))
    objective = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    bounds = [(F(0), F(10))] * n  # keeps the value bounded
    return linear_program(objective, cons, bounds=bounds)


def test_duality_on_random_feasible_lps():
    rng = random.Random(20250810)
    for _ in range(120):
        prob = _random_feasible_bounded_lp(rng)
        res = solve(prob)
        assert res.status == OPTIMAL
        assert check_certificate(prob, res)
        rows, _ = canonical_rows(prob)
        dual_value = sum(res.dual[i] * rows[i][1] for i in range(len(rows)))
        assert dual_value == res.value  # exact strong duality


def test_objective_scaling_invariance():
    rng = random.Random(123)
    for _ in range(60):
        prob = _random_feasible_bounded_lp(rng)
        lam = F(rng.randint(1, 9), rng.randint(1, 9))
        scaled = linear_program([lam * c for c in prob.objective],
                                prob.constraints, prob.bounds)
        base = solve(prob)
        up = solve(scaled)
        assert up.value == lam * base.value
        assert up.vertex == base.vertex  # same deterministic pivot path


def test_optimal_face_enumeration():
    # objective parallel to a facet: the face is a segment with two vertices
    prob = linear_program(
        [F(1), F(1)],
        [constraint([1, 1], "<=", 1)],
        bounds=[(F(0), F(1)), (F(0), F(1))],
    )
    verts, complete = enumerate_optimal_vertices(prob)
    assert complete
    assert verts == [(F(0), F(1)), (F(1), F(0))]
    # unique optimum: one vertex only
    prob2 = linear_program(
        [F(2), F(1)],
        [constraint([1, 1], "<=", 1)],
        bounds=[(F(0), F(1)), (F(0), F(1))],
    )
    verts2, complete2 = enumerate_optimal_vertices(prob2)
    assert complete2 and verts2 == [(F(1), F(0))]
    # equality row (goes through phase 1): face is still the full segment
    prob3 = linear_program(
        [F(1), F(1)],
        [constraint([1, 1], "=", 1)],
        bounds=[(F(0), F(1)), (F(0), F(1))],
    )
    verts3, complete3 = enumerate_optimal_vertices(prob3)
    assert complete3
    assert verts3 == [(F(0), F(1)), (F(1), F(0))]


def test_added_row_matches_a_cold_solve():
    """A warm child (one ``<= 0`` row, dual simplex) agrees with a cold solve."""
    rng = random.Random(77)
    statuses = Counter()
    for trial in range(80):
        prob = _random_feasible_bounded_lp(rng)
        if trial % 2:  # free variables: each is split into two columns
            prob = linear_program(prob.objective, prob.constraints,
                                  bounds=[(F(-10), F(10))] * prob.num_vars)
        b, status = _run_phases(prob)
        assert status == OPTIMAL
        statuses["phase 1"] += bool(b.art_cols)  # dead artificial columns
        tab = b.tab
        for _ in range(3):  # a warm child of a warm child, and so on
            g = [rng.randint(-3, 3) for _ in range(prob.num_vars)]
            tab, status = _reoptimize(b, tab, g)
            prob = linear_program(prob.objective,
                                  prob.constraints + (constraint(g, "<=", 0),),
                                  bounds=prob.bounds)
            cold = solve(prob)
            statuses[status] += 1
            assert status == cold.status
            assert all(type(a) is int for row in tab.mat for a in row)
            if status != OPTIMAL:
                break
            vertex, value = _read_optimum(b, tab)
            assert value == cold.value
            assert satisfies_lp(prob, vertex)
    assert statuses[OPTIMAL] and statuses[INFEASIBLE] and statuses["phase 1"]
