import copy
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from oracles import (
    FractionDictionary,
    certificate,
    check_certificate,
    dual,
    optimal_vertices_brute,
    pattern_lp,
    satisfies_lp,
    vertex,
)

from sumfree.lp import (
    CUTOFF,
    OPTIMAL,
    LinearProgram,
    Tableau,
    canonical_rows,
    solve,
)
from sumfree.search import _choice_row, build_pattern_lp

F = Fraction


def test_single_variable_box():
    prob = LinearProgram(objective=(1,), rows=())
    res = solve(prob)
    assert res.status == OPTIMAL
    assert res.value == 1 and vertex(res) == (F(1),)
    assert check_certificate(prob, certificate(res))


def test_binding_budget_row():
    # 177 x1 <= 77 x2 with x2 at its box: x1 = 77/177
    prob = LinearProgram(objective=(1, 1), rows=((177, -77),))
    res = solve(prob)
    assert res.status == OPTIMAL and res.value == F(254, 177)
    assert vertex(res) == (F(77, 177), F(1))
    assert check_certificate(prob, certificate(res))


def test_rejects_non_integer_data_and_bad_lengths():
    with pytest.raises(TypeError):
        LinearProgram(objective=(F(1, 2), 1), rows=())
    with pytest.raises(TypeError):
        LinearProgram(objective=(1, 1), rows=((1, 0.5),))
    with pytest.raises(TypeError):
        LinearProgram(objective=(1, True), rows=())
    with pytest.raises(ValueError):
        LinearProgram(objective=(1, 1), rows=((1, -1, 0),))
    with pytest.raises(ValueError):
        LinearProgram(objective=(1, 1), rows=((1,),))


def test_certificate_rejects_perturbations():
    prob = LinearProgram(objective=(1, 1), rows=((177, -77),))
    res = solve(prob)
    assert check_certificate(prob, certificate(res))
    forged = SimpleNamespace(status=res.status, value=res.value,
                             vertex=vertex(res), dual=dual(res))
    assert check_certificate(prob, forged)  # the checker reads only these four
    bad_value = SimpleNamespace(**{**vars(forged), "value": res.value + 1})
    assert not check_certificate(prob, bad_value)
    # vertex off by one millionth on a binding row: exactness, no tolerance
    eps = F(1, 10**6)
    shifted = tuple(x + eps for x in vertex(res))
    bad_vertex = SimpleNamespace(**{**vars(forged), "vertex": shifted})
    assert not check_certificate(prob, bad_vertex)
    bad_dual = SimpleNamespace(**{**vars(forged), "dual": tuple(y + eps for y in dual(res))})
    assert not check_certificate(prob, bad_dual)
    bad_status = SimpleNamespace(**{**vars(forged), "status": "infeasible"})
    assert not check_certificate(prob, bad_status)
    # forgeries that pass every later check: only the sign and the length catch them
    prob = LinearProgram((1, 1), ((-1, 1),))
    res = solve(prob)
    assert [b for _, b in canonical_rows(prob)] == [0, 1, 1] and dual(res) == (1, 2, 0)
    forged = SimpleNamespace(status=res.status, value=res.value, vertex=vertex(res))
    assert check_certificate(prob, SimpleNamespace(**vars(forged), dual=dual(res)))
    negative = SimpleNamespace(**vars(forged), dual=(F(-1, 2), F(1, 2), F(3, 2)))
    assert not check_certificate(prob, negative)
    padded = SimpleNamespace(**vars(forged), dual=dual(res) + (0,))  # zip would drop the 0
    assert not check_certificate(prob, padded)


def test_duplicate_rows_are_dropped():
    prob = LinearProgram(objective=(1, 1), rows=((1, -1), (1, -1), (1, -2)))
    rows = canonical_rows(prob)
    assert len(rows) == 3  # two distinct g rows, then x1 <= 1 (x0 <= x1 implies x0 <= 1)
    res = solve(prob)
    assert res.value == 2 and check_certificate(prob, certificate(res))
    assert len(dual(res)) == len(rows)


def test_box_rows_implied_by_a_later_variable_are_dropped():
    # x0 <= x1 bounds x0 by x1; x1 <= x0 bounds nothing by a later variable,
    # so the cycle keeps x1 <= 1 and stays bounded
    prob = LinearProgram(objective=(1, 1), rows=((1, -1), (-1, 1)))
    assert canonical_rows(prob) == [((1, -1), 0), ((-1, 1), 0), ((0, 1), 1)]
    res = solve(prob)
    assert res.value == 2 and vertex(res) == (F(1), F(1))
    assert check_certificate(prob, certificate(res))
    # a scaled row implies no box row; x0 + x1 <= x2 bounds both x0 and x1 by x2
    prob = LinearProgram(objective=(1, 1, 1), rows=((2, -2, 0), (1, 1, -1)))
    assert [b for _, b in canonical_rows(prob)] == [0, 0, 1]
    res = solve(prob)
    assert res.value == 2 and check_certificate(prob, certificate(res))
    # a positive coefficient after the -1, or a second negative one, bounds nothing
    prob = LinearProgram(objective=(1, 1, 1), rows=((3, -1, 2), (1, -1, -1)))
    assert canonical_rows(prob)[2:] == [((0, 1, 0), 1), ((0, 0, 1), 1)]
    # the pattern LP's one chain row d_0 + ... + d_8 <= r_5 keeps only r_5 <= 1
    rows = canonical_rows(build_pattern_lp(5))
    assert rows == [((1,) * 9 + (-1,), 0), ((0,) * 9 + (1,), 1)]


def _implying_row(rng: random.Random, n: int) -> tuple[int, ...]:
    """A row whose only negative coefficient is a -1, or often nearly so."""
    row = [rng.randint(0, 3) for _ in range(n)]
    row[rng.randrange(n)] = rng.choice((-1, -1, -1, -2))
    if rng.random() < 0.2:
        row[rng.randrange(n)] = -1  # a second negative coefficient, at times
    return tuple(row)


def test_implied_box_rows_against_brute_force():
    """Dropping the implied box rows changes no optimum: ``solve`` over
    ``canonical_rows`` agrees with the tight-set oracle, which keeps every
    box row, and its certificate checks."""
    rng = random.Random(1919)
    dropped = 0
    for _ in range(150):
        n = rng.randint(2, 4)
        rows = tuple(_implying_row(rng, n) if rng.random() < 0.7
                     else tuple(rng.randint(-4, 4) for _ in range(n))
                     for _ in range(rng.randint(1, 4)))
        prob = LinearProgram(objective=tuple(rng.randint(-3, 5) for _ in range(n)), rows=rows)
        res = solve(prob)
        best = optimal_vertices_brute(prob)[0]
        assert res.value == sum(c * x for c, x in zip(prob.objective, best))
        assert check_certificate(prob, certificate(res))
        dropped += len(canonical_rows(prob)) < len(set(rows)) + n
    assert dropped > 50  # about half of them drop some box row


def test_beale_degenerate_instance_terminates():
    # classic cycling instance for most-negative pivoting, every coefficient
    # times 100; Beale's x3 <= 1 is the box row.  Bland's rule ends
    rows = ((25, -6000, -4, 900), (50, -9000, -2, 300))
    prob = LinearProgram(objective=(75, -15000, 2, -600), rows=rows)
    res = solve(prob)
    assert res.status == OPTIMAL
    assert res.value == 5  # 100 * 1/20
    assert vertex(res) == (F(1, 25), F(0), F(1), F(0))
    assert check_certificate(prob, certificate(res))


def test_degenerate_ties_resolve_deterministically():
    # x1 = x2 from both sides, plus a scaled copy: five rows tie at (1, 1)
    rows = ((1, -1), (2, -2), (-1, 1))
    prob = LinearProgram(objective=(1, 0), rows=rows)
    first, second = solve(prob), solve(prob)
    assert ((first.value, vertex(first), dual(first), first.pivots)
            == (second.value, vertex(second), dual(second), second.pivots))
    assert first.value == 1
    assert check_certificate(prob, certificate(first))


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
        assert check_certificate(prob, certificate(res))
        rows = canonical_rows(prob)
        dual_value = sum(y * b for y, (_, b) in zip(dual(res), rows))
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
        assert vertex(up) == vertex(base)  # same deterministic pivot path


def test_optimal_face_enumeration():
    # x1 + x2 <= x3 <= 1, objective parallel to that facet: a segment
    prob = LinearProgram(objective=(1, 1, 0), rows=((1, 1, -1),))
    verts = sorted({vertex(t) for t in solve(prob).optimal_face()})
    assert verts == [(F(0), F(1), F(1)), (F(1), F(0), F(1))]
    # unique optimum: one vertex only
    prob2 = LinearProgram(objective=(2, 1, 0), rows=((1, 1, -1),))
    assert sorted({vertex(t) for t in solve(prob2).optimal_face()}) == [(F(1), F(0), F(1))]


def _face_matches_brute_force(prob) -> tuple[int, int]:
    """The face walk against the tight-set oracle; returns its vertex and basis counts."""
    tab = solve(prob)
    face = tab.optimal_face()
    assert face[0] is tab
    assert len({tuple(sorted(t.basis)) for t in face}) == len(face)
    assert all(t.value == tab.value for t in face)
    verts = sorted({vertex(t) for t in face})
    assert verts == optimal_vertices_brute(prob)
    return len(verts), len(face)


def _random_face_lps() -> list[LinearProgram]:
    rng = random.Random(404)
    return [_random_lp(rng) for _ in range(120)]


def _pattern_face_lps() -> list[LinearProgram]:
    rng = random.Random(405)
    lps = []
    for m, count in ((1, 8), (2, 12), (3, 6)):
        entries = [(i, j, t) for i in range(m) for j in range(i, m) for t in range(m)]
        for _ in range(count):
            pat = {(rng.choice("LR"), *entry)
                   for entry in rng.sample(entries, rng.randint(0, min(3, len(entries))))}
            lps.append(pattern_lp(m, rng.randint(1, 4), pat))
    return lps


def test_optimal_face_matches_brute_force_on_random_lps():
    sizes = [_face_matches_brute_force(prob) for prob in _random_face_lps()]
    assert any(verts > 1 for verts, _ in sizes)  # some faces are more than a vertex
    assert any(bases > verts for verts, bases in sizes)  # some vertices are degenerate


def test_optimal_face_matches_brute_force_on_pattern_lps():
    sizes = [_face_matches_brute_force(prob) for prob in _pattern_face_lps()]
    assert any(verts > 1 for verts, _ in sizes)
    assert any(bases > verts for verts, bases in sizes)


def test_face_walk_never_pivots_into_a_seen_basis(monkeypatch):
    """One pivot per basis of the face after the first: a seen basis is skipped unpivoted."""
    pivots = []
    pivot = Tableau.pivot

    def counting_pivot(tab, r, p):
        pivots.append((r, p))
        pivot(tab, r, p)

    monkeypatch.setattr(Tableau, "pivot", counting_pivot)
    sizes = []
    for prob in _random_face_lps() + _pattern_face_lps():
        tab = solve(prob)
        pivots.clear()
        face = tab.optimal_face()
        assert len(pivots) == len(face) - 1
        sizes.append(len(face))
    assert any(size > 1 for size in sizes)  # some faces have more than one basis


def test_added_row_matches_a_cold_solve():
    """A warm child (one ``<= 0`` row, dual simplex) agrees with a cold solve."""
    rng = random.Random(77)
    dual_pivots = 0
    for _ in range(80):
        prob = _random_lp(rng)
        tab = solve(prob)
        for _ in range(3):  # a warm child of a warm child, and so on
            g = tuple(rng.randint(-3, 3) for _ in range(prob.num_vars))
            tab = tab.add_row(g, 0)
            assert tab.status == OPTIMAL
            prob = LinearProgram(objective=prob.objective, rows=prob.rows + (g,))
            cold = solve(prob)
            dual_pivots += tab.pivots
            assert all(type(a) is int for row in tab.mat for a in row)
            assert tab.value == cold.value
            assert satisfies_lp(prob, vertex(tab))
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
            rows = [tuple(rng.randint(-3, 3) for _ in range(prob.num_vars)) for _ in range(2)]
            children = [tab.add_row(g, 0) for g in rows]
            assert (tab.mat, tab.den, tab.basis, tab.cobasis) == before
            for child in children:
                assert child.status == OPTIMAL
                _dictionary_is_well_formed(child)
                assert child.nrows == tab.nrows + 1
            tab = rng.choice(children)


def test_added_row_with_a_cutoff_stops_only_below_it():
    """``add_row(g, cutoff)`` is the full reoptimization, pivot for pivot,
    or stops early, with status ``CUTOFF``, on a child whose optimum is
    below ``cutoff``, and it stops whenever a pivot would reach a value
    below ``cutoff``; cutoffs are drawn just above, at and below the cold
    optimum, and well above it."""
    rng = random.Random(2026)
    seen = {"optimal": 0, "cut at once": 0, "cut after pivots": 0}
    for _ in range(120):
        prob = _random_lp(rng)
        tab = solve(prob)
        for _ in range(3):
            g = tuple(rng.randint(-3, 3) for _ in range(prob.num_vars))
            prob = LinearProgram(objective=prob.objective, rows=prob.rows + (g,))
            cold = solve(prob).value
            full = tab.add_row(g, 0)
            assert full.status == OPTIMAL
            eps = F(1, rng.randint(1, 50))
            for cutoff in (cold + eps, cold, cold - eps, tab.value + 1, int(cold) + 1):
                before = copy.deepcopy((tab.mat, tab.den, tab.basis, tab.cobasis))
                child = tab.add_row(g, cutoff)
                assert (tab.mat, tab.den, tab.basis, tab.cobasis) == before
                if child.status == OPTIMAL:
                    # the last pivot of the full solve reaches the cold optimum
                    assert cold >= cutoff or full.pivots == 0
                    assert ((child.mat, child.den, child.basis, child.cobasis, child.pivots)
                            == (full.mat, full.den, full.basis, full.cobasis, full.pivots))
                    seen["optimal"] += 1
                else:
                    assert child.status == CUTOFF
                    assert cold < cutoff and child.pivots <= full.pivots
                    assert not check_certificate(prob, certificate(child))
                    seen["cut after pivots" if child.pivots else "cut at once"] += 1
            tab = full
    assert all(seen.values()), seen


def test_add_row_needs_an_optimal_parent():
    """A ``CUTOFF`` child can keep a negative rhs in a row other than the
    last, where the dual simplex's first leaving row is sought, so
    ``add_row`` on it raises."""
    prob = LinearProgram(objective=(1, 1), rows=((177, -77),))
    tab = solve(prob)
    child = tab.add_row((1, 0), tab.value)  # x0 <= 0 cuts off the optimum (77/177, 1)
    assert child.status == CUTOFF and child.pivots == 0
    assert child.mat[child.nrows - 1][-1] < 0
    with pytest.raises(ValueError, match="optimal"):
        child.add_row((0, 1), 0)


def _logged_pivots(monkeypatch) -> list:
    """Patch ``Tableau.pivot`` to log each pivot as (entering, leaving) variable ids."""
    log = []
    pivot = Tableau.pivot

    def logged(tab, r, p):
        log.append((tab.cobasis[p], tab.basis[r]))
        pivot(tab, r, p)

    monkeypatch.setattr(Tableau, "pivot", logged)
    return log


def _pattern_nodes(rng: random.Random):
    """Pattern LPs' roots, each with rows of random choices to add."""
    for m in (1, 2, 3, 4):
        entries = [(i, j, t) for i in range(m) for j in range(i, m) for t in range(m)]
        for k in (1, 2, 3, 4):
            for _ in range(6):
                choices = [(rng.choice("LR"), *rng.choice(entries)) for _ in range(4)]
                yield build_pattern_lp(m), [_choice_row(m, k, c) for c in choices]


def test_pivot_path_matches_the_sorting_oracle(monkeypatch):
    """``solve``, ``add_row`` at cutoff 0 and at incumbent cutoffs, and
    ``optimal_face`` pivot on the variables, in the order, of the
    ``Fraction`` dictionary whose every choice scans the sorted variable
    ids, on random LPs and on pattern-LP nodes with degenerate ties; the
    dictionaries and statuses agree too.  A one-pass tie-break that picks
    another variable changes some path."""
    log = _logged_pivots(monkeypatch)
    rng = random.Random(28)
    refs = []

    def agree(tab, ref, path):
        assert log == path
        assert (tab.status, tab.basis, tab.cobasis) == (ref.status, ref.basis, ref.cobasis)
        assert [[F(a, tab.den) for a in row] for row in tab.mat] == ref.rows
        log.clear()
        refs.append(ref)

    random_rows = [(prob, [tuple(rng.randint(-3, 3) for _ in range(prob.num_vars))
                           for _ in range(3)]) for prob in _random_face_lps()]
    for prob, rows in random_rows + list(_pattern_nodes(rng)):
        tab = solve(prob)
        ref = FractionDictionary.solve(prob.objective, canonical_rows(prob))
        agree(tab, ref, ref.path)
        for g in rows:
            full, ref_full = tab.add_row(g, 0), ref.add_row(g, 0)
            agree(full, ref_full, ref_full.path)
            for cutoff in (full.value, (full.value + tab.value) / 2, tab.value):
                ref_child = ref.add_row(g, cutoff)
                agree(tab.add_row(g, cutoff), ref_child, ref_child.path)
            face, ref_face = full.optimal_face(), ref_full.optimal_face()
            assert len(face) == len(ref_face)
            assert log == [d.path[0] for d in ref_face[1:]]
            log.clear()
            for t, d in zip(face[1:], ref_face[1:]):
                agree(t, d, [])
            tab, ref = full, ref_full
    assert sum(ref.ties for ref in refs) > 100  # ties to break, in the ratio tests
    assert sum(ref.status == CUTOFF for ref in refs) > 100
