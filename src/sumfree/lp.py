"""Exact simplex for the search's pattern LPs.

maximize    c . x
subject to  g . x <= 0   for each row g
            0 <= x <= 1

with integer ``c`` and ``g``.  This is the only shape the branch-and-bound
relaxations take (chain rows and LEFT/RIGHT sum-window rows over the
endpoints), and it needs no general machinery: ``x = 0`` meets every
row, so the slack basis is feasible from the start and no phase 1 runs,
and the box bounds the optimum, so the simplex can never report an
unbounded ray and the dual simplex can never prove a child infeasible.
Both are assertions.

The constraint rows are, in a fixed order, the ``g`` rows with exact
duplicates dropped, then one box row ``x_j <= 1`` per variable
(``canonical_rows``), each with its own slack.  The tableau is a
dictionary, as in lrs (Avis, 2000): it keeps only the nonbasic columns,
so its width stays ``nvars + 1`` however many rows are added.  It is
fraction-free: an integer matrix with one shared positive denominator,
updated by the two-term Edmonds/Bareiss recurrence
m'[i][j] = (m[i][j]*piv - m[i][c]*m[r][j]) / den  whose divisions are
exact (every entry is a minor of the input matrix).  Pivoting uses
Bland's rule (the entering variable is the lowest with a negative
reduced cost, ties in the ratio test go to the lowest basic variable),
which terminates without any anti-cycling guard.

``solve`` returns the optimal ``Tableau`` itself, which gives the
value, the vertex and a dual vector over ``canonical_rows``, so any
claimed optimum can be re-verified from scratch by ``check_certificate``
without trusting the solver: primal feasibility, dual feasibility and
equality of the two objective values are checked exactly.

An optimal tableau is reoptimized after one more row ``g . x <= 0``
(branch-and-bound children) by ``Tableau.add_row``: the row is written
in the current basis with its own slack basic, which keeps the reduced
costs dual feasible but may make its rhs negative, and the dual simplex
restores primal feasibility with the same Bareiss pivot.  It uses dual
Bland's rule (the leaving row is the infeasible one with the lowest
basic variable; ties in the dual ratio test go to the lowest variable),
which is Bland's rule run on the dual LP and so terminates without an
anti-cycling guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

OPTIMAL = "optimal"


@dataclass(frozen=True)
class LinearProgram:
    """Maximize ``objective . x`` over ``0 <= x <= 1`` subject to ``row . x <= 0``."""

    objective: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.objective):
                raise ValueError("row length != number of variables")
        for row in (self.objective, *self.rows):
            if not all(isinstance(a, int) for a in row):
                raise ValueError("LP data must be integers")

    @property
    def num_vars(self) -> int:
        return len(self.objective)


def canonical_rows(lp: LinearProgram) -> list[tuple[tuple[int, ...], int]]:
    """The tableau's rows as ``(a, b)`` for ``a . x <= b``, in tableau order.

    The ``g`` rows in order with exact duplicates dropped, then the box
    row ``x_j <= 1`` for each variable.
    """
    n = lp.num_vars
    box = [(tuple(int(i == j) for i in range(n)), 1) for j in range(n)]
    return [(g, 0) for g in dict.fromkeys(lp.rows)] + box


class Tableau:
    """Fraction-free simplex dictionary; all entries are ints over ``den``.

    Variable ``j < nvars`` is ``x_j`` and variable ``nvars + i`` is the
    slack of row ``i``.  Rows: one per constraint row, whose basic
    variable is ``basis[i]``, then the objective row.  Columns: one per
    nonbasic variable, ``cobasis[p]`` being the variable of column ``p``,
    then the rhs, so every row has ``nvars + 1`` entries at any depth.
    ``pivot`` swaps ``basis[r]`` with ``cobasis[p]``, the leaving variable
    taking the entering one's column, and the pivot rules choose by
    variable id, never by column position.  Rows are replaced, never
    changed in place, so tableaux may share them.  ``solve`` and
    ``add_row`` return it optimal; ``value``, ``vertex`` and ``dual`` are
    read off it, and ``pivots`` counts the pivots that the solve or the
    added row took.
    """

    status = OPTIMAL

    __slots__ = ("mat", "den", "basis", "cobasis", "nrows", "nvars", "pivots")

    def __init__(self, mat, basis, cobasis, den=1):
        self.mat = mat
        self.den = den
        self.basis = basis  # variable id of the basic variable per constraint row
        self.cobasis = cobasis  # variable id of each nonbasic column
        self.nrows = len(basis)
        self.nvars = len(cobasis)
        self.pivots = 0

    @property
    def value(self) -> Fraction:
        return Fraction(self.mat[self.nrows][-1], self.den)

    @property
    def vertex_numerators(self) -> tuple[int, ...]:
        """The vertex ``x`` as integer numerators over the positive ``den``."""
        rhs = dict(zip(self.basis, (row[-1] for row in self.mat)))
        return tuple(rhs.get(j, 0) for j in range(self.nvars))

    @property
    def vertex(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.vertex_numerators)

    @property
    def dual(self) -> tuple[Fraction, ...]:
        """Dual multipliers, one per row, nonnegative at an optimum.

        The rows of ``solve(lp)`` are ``canonical_rows(lp)``; each row
        ``add_row`` adds follows them.  Row i's is the reduced cost of its
        slack, variable ``nvars + i`` (0 when basic).
        """
        reduced = dict(zip(self.cobasis, self.mat[self.nrows]))
        return tuple(Fraction(reduced.get(self.nvars + i, 0), self.den)
                     for i in range(self.nrows))

    def pivot(self, r: int, p: int) -> None:
        """Exchange ``basis[r]`` and ``cobasis[p]`` by one Bareiss step.

        Column ``p`` then holds the leaving variable: ``den`` in row ``r``,
        ``-f`` in a row whose entry there was ``f``, both negated with the row.
        """
        mat, den = self.mat, self.den
        # Keep den positive by negating the pivot row if need be, as every
        # dual pivot does (its pivot and its rhs are both negative).
        sign = 1 if mat[r][p] > 0 else -1
        prow = [sign * a for a in mat[r]]
        piv = prow[p]
        for i, row in enumerate(mat):
            if i == r:
                continue
            f = row[p]
            if f:
                new = [(a * piv - f * b) // den for a, b in zip(row, prow)]
                new[p] = -sign * f
                mat[i] = new
            elif piv != den:
                mat[i] = [(a * piv) // den for a in row]
        prow[p] = sign * den
        mat[r] = prow
        self.den = piv
        self.basis[r], self.cobasis[p] = self.cobasis[p], self.basis[r]
        self.pivots += 1

    def _by_id(self) -> list[int]:
        """The column positions in increasing order of their variable ids."""
        return sorted(range(self.nvars), key=self.cobasis.__getitem__)

    def _ratio_row(self, p: int) -> int | None:
        """Leaving row by exact minimum ratio, ties to the lowest basic variable."""
        mat, best = self.mat, None
        for i in sorted(range(self.nrows), key=self.basis.__getitem__):
            # mat[i][-1]/mat[i][p] < mat[best][-1]/mat[best][p], cross-multiplied
            if mat[i][p] > 0 and (best is None
                                  or mat[i][-1] * mat[best][p] < mat[best][-1] * mat[i][p]):
                best = i
        return best

    def optimize(self) -> None:
        """Primal simplex by Bland's rule from a feasible basis."""
        while True:
            obj = self.mat[self.nrows]
            p = next((p for p in self._by_id() if obj[p] < 0), None)
            if p is None:
                return
            r = self._ratio_row(p)
            assert r is not None, "unbounded ray, but the box bounds every pattern LP"
            self.pivot(r, p)

    def add_row(self, g: Sequence[int]) -> "Tableau":
        """The optimum with the row ``g . x <= 0`` added, by dual simplex.

        ``g`` has one entry per variable.  The row, ``den*g - sum
        g[basis[i]]*mat[i]`` over the nonbasic columns, goes before the
        objective row with its new slack basic, so every entry is still a
        minor of the enlarged input matrix and ``den`` is unchanged.  The
        child shares this tableau's row lists and leaves them as they were.
        """
        den, n, nrows = self.den, self.nvars, self.nrows
        new = [den * g[v] if v < n else 0 for v in self.cobasis] + [0]
        for b, row in zip(self.basis, self.mat):
            f = g[b] if b < n else 0
            if f:
                new = [a - f * x for a, x in zip(new, row)]
        mat = self.mat[:nrows] + [new, self.mat[nrows]]
        tab = Tableau(mat, self.basis + [n + nrows], list(self.cobasis), den)
        tab.dual_optimize()
        return tab

    def dual_optimize(self) -> None:
        """Dual simplex from a dual-feasible basis.

        Dual Bland's rule: the leaving row is the one with a negative rhs
        whose basic variable is lowest; the entering column minimizes
        ``obj[p] / -row[p]`` over ``row[p] < 0``, ties to the lowest variable.
        """
        mat, basis = self.mat, self.basis
        while True:
            r = min((i for i in range(self.nrows) if mat[i][-1] < 0),
                    key=basis.__getitem__, default=None)
            if r is None:
                return
            row, obj = mat[r], mat[self.nrows]
            c = None
            for p in self._by_id():
                # obj[p]/-row[p] < obj[c]/-row[c], cross-multiplied
                if row[p] < 0 and (c is None or obj[p] * row[c] > obj[c] * row[p]):
                    c = p
            # No negative entry would make the row a sum of nonnegatives < 0.
            assert c is not None, "infeasible, but x = 0 meets every pattern row"
            self.pivot(r, c)

    def optimal_face(self) -> list["Tableau"]:
        """Every basis of the optimal face, this tableau first, each once.

        The walk takes zero-reduced-cost pivots, columns in variable-id
        order, which leave every other reduced cost as it was; bases are
        finitely many and each is walked once.  This tableau is unchanged.
        """
        seen = {tuple(sorted(self.basis))}
        face = [self]
        for tab in face:  # face grows while it is walked
            obj = tab.mat[tab.nrows]
            for p in tab._by_id():
                if obj[p] != 0:
                    continue
                nxt = Tableau(list(tab.mat), list(tab.basis), list(tab.cobasis), tab.den)
                r = nxt._ratio_row(p)
                assert r is not None, "unbounded optimal face, but the box bounds it"
                nxt.pivot(r, p)
                key = tuple(sorted(nxt.basis))
                if key not in seen:
                    seen.add(key)
                    face.append(nxt)
        return face


def solve(lp: LinearProgram) -> Tableau:
    """Exact optimum of ``lp`` as its optimal tableau, built from the slack basis.

    Deterministic: one pivot path per input.
    """
    rows = canonical_rows(lp)
    n = lp.num_vars
    mat = [list(a) + [b] for a, b in rows] + [[-c for c in lp.objective] + [0]]
    tab = Tableau(mat, list(range(n, n + len(rows))), list(range(n)))
    tab.optimize()
    return tab


def check_certificate(lp: LinearProgram, result) -> bool:
    """Re-verify an optimal result from scratch, exactly.

    ``result`` is any object with ``status``, ``value``, ``vertex`` and
    ``dual`` (over ``canonical_rows``), such as ``solve(lp)``.  Checks:
    the vertex is nonnegative and satisfies every row of
    ``canonical_rows``; the dual vector is nonnegative and dual-feasible
    (``y . a_j >= c_j`` on every variable's column); and both objective
    values agree.  Any failure, by however small a margin, returns
    False - there is no tolerance.
    """
    if result.status != OPTIMAL:
        return False
    rows = canonical_rows(lp)
    x, y = result.vertex, result.dual
    if len(x) != lp.num_vars or len(y) != len(rows):
        return False
    if any(xj < 0 for xj in x) or any(yi < 0 for yi in y):
        return False
    if any(sum(c * xj for c, xj in zip(a, x)) > b for a, b in rows):
        return False
    for j, cj in enumerate(lp.objective):
        if sum(a[j] * yi for (a, _), yi in zip(rows, y)) < cj:
            return False
    primal = sum(cj * xj for cj, xj in zip(lp.objective, x))
    dual_val = sum(b * yi for (_, b), yi in zip(rows, y))
    return primal == result.value and dual_val == result.value


def enumerate_optimal_vertices(lp: LinearProgram) -> list[tuple[Fraction, ...]]:
    """The distinct vertices of ``solve(lp).optimal_face()``, sorted."""
    return sorted({tab.vertex for tab in solve(lp).optimal_face()})
