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

The tableau rows are, in a fixed order, the ``g`` rows with exact
duplicates dropped, then one box row ``x_j <= 1`` per variable
(``canonical_rows``), each with its own slack column.  The tableau is
kept fraction-free: an integer matrix together with one shared positive
denominator, updated by the two-term Edmonds/Bareiss recurrence
m'[i][j] = (m[i][j]*piv - m[i][c]*m[r][j]) / den  whose divisions are
exact (every entry is a minor of the input matrix).  Pivoting uses
Bland's rule (the entering column is the first one with a negative
reduced cost, ties in the ratio test go to the lowest basic index),
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
basic column; ties in the dual ratio test go to the lowest column),
which is Bland's rule run on the dual LP and so terminates without an
anti-cycling guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

OPTIMAL = "optimal"

# Bases the optimal-face walk visits before it gives up as incomplete.
_BASIS_LIMIT = 5000


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
    """Fraction-free simplex tableau; all entries are ints over ``den``.

    Columns: one per variable, then one slack per row; the last column
    is the rhs.  Rows: the constraint rows, then the objective row.
    ``solve`` and ``add_row`` return it optimal, and it is then the LP's
    result: ``value``, ``vertex`` and ``dual`` are read off it, and
    ``pivots`` counts the pivots that the solve or the added row took.
    """

    status = OPTIMAL

    __slots__ = ("mat", "den", "basis", "nrows", "ncols", "nvars", "pivots", "trace")

    def __init__(self, mat, basis, nvars, den=1, trace=None):
        self.mat = mat
        self.den = den
        self.basis = basis  # column index of the basic variable per constraint row
        self.nrows = len(basis)
        self.ncols = len(mat[0]) - 1
        self.nvars = nvars
        self.pivots = 0
        self.trace = trace

    @property
    def value(self) -> Fraction:
        return Fraction(self.mat[self.nrows][-1], self.den)

    @property
    def vertex(self) -> tuple[Fraction, ...]:
        col_val = {self.basis[i]: self.mat[i][-1] for i in range(self.nrows)}
        return tuple(Fraction(col_val.get(j, 0), self.den) for j in range(self.nvars))

    @property
    def dual(self) -> tuple[Fraction, ...]:
        """Dual multipliers, one per row, nonnegative at an optimum.

        The rows of ``solve(lp)`` are ``canonical_rows(lp)``; each row
        ``add_row`` adds follows them.  Column ``nvars + i`` is row i's slack.
        """
        obj = self.mat[self.nrows]
        return tuple(Fraction(obj[self.nvars + i], self.den) for i in range(self.nrows))

    def pivot(self, r: int, c: int) -> None:
        mat, den = self.mat, self.den
        prow = mat[r]
        piv = prow[c]
        if piv < 0:
            # Keep den positive by negating the equation row first.  Every
            # dual pivot lands here (its pivot and its rhs are both
            # negative, so the entering value is positive).
            prow = mat[r] = [-a for a in prow]
            piv = -piv
        for i, row in enumerate(mat):
            if i == r:
                continue
            f = row[c]
            if f:
                mat[i] = [(a * piv - f * b) // den for a, b in zip(row, prow)]
            elif piv != den:
                mat[i] = [(a * piv) // den for a in row]
        self.den = piv
        self.basis[r] = c
        self.pivots += 1
        if self.trace is not None:
            self.trace(f"pivot #{self.pivots}: row {r}, col {c}, den {self.den}")
            for i, out in enumerate(self.mat):
                self.trace(f"  [{i:2d}] " + " ".join(str(a) for a in out))

    def _ratio_row(self, c: int) -> int | None:
        """Leaving row by exact minimum ratio, ties to lowest basic index."""
        mat = self.mat
        best = None  # (num, den, basic index, row)
        for i in range(self.nrows):
            a = mat[i][c]
            if a > 0:
                b = mat[i][-1]
                if best is None or b * best[1] < best[0] * a or (
                    b * best[1] == best[0] * a and self.basis[i] < best[2]
                ):
                    best = (b, a, self.basis[i], i)
        return None if best is None else best[3]

    def optimize(self) -> None:
        """Primal simplex by Bland's rule from a feasible basis."""
        obj = self.nrows
        while True:
            row = self.mat[obj]
            c = next((j for j in range(self.ncols) if row[j] < 0), None)
            if c is None:
                return
            r = self._ratio_row(c)
            assert r is not None, "unbounded ray, but the box bounds every pattern LP"
            self.pivot(r, c)

    def add_row(self, g: Sequence[int]) -> "Tableau":
        """The optimum with the row ``g . x <= 0`` added, by dual simplex.

        ``g`` has one entry per variable.  The row is written in the
        current basis, ``den*g - sum g[basis[i]]*mat[i]``, and its new
        slack column is basic with entry ``den``, so every entry is still
        a minor of the enlarged input matrix and ``den`` is unchanged.
        The row goes after the constraint rows, before the objective row.
        This tableau is left as it was, so siblings can share it.
        """
        den = self.den
        g = list(g) + [0] * (self.ncols - self.nvars)
        mat = [row[:-1] + [0, row[-1]] for row in self.mat]
        new = [den * a for a in g] + [den, 0]
        for i in range(self.nrows):
            f = g[self.basis[i]]
            if f:
                new = [a - f * b for a, b in zip(new, mat[i])]
        mat.insert(self.nrows, new)
        tab = Tableau(mat, self.basis + [self.ncols], self.nvars, den, self.trace)
        tab.dual_optimize()
        return tab

    def dual_optimize(self) -> None:
        """Dual simplex from a dual-feasible basis.

        Dual Bland's rule: the leaving row is the one with a negative rhs
        whose basic column is lowest; the entering column minimizes
        ``obj[j] / -row[j]`` over ``row[j] < 0``, ties to the lowest column.
        """
        mat, basis = self.mat, self.basis
        while True:
            r = None
            for i in range(self.nrows):
                if mat[i][-1] < 0 and (r is None or basis[i] < basis[r]):
                    r = i
            if r is None:
                return
            row, obj = mat[r], mat[self.nrows]
            c = None
            for j in range(self.ncols):
                # obj[j]/-row[j] < obj[c]/-row[c], cross-multiplied
                if row[j] < 0 and (c is None or obj[j] * row[c] > obj[c] * row[j]):
                    c = j
            # No negative entry would make the row a sum of nonnegatives < 0.
            assert c is not None, "infeasible, but x = 0 meets every pattern row"
            self.pivot(r, c)

    def optimal_face(self) -> tuple[list[tuple[Fraction, ...]], bool]:
        """All vertices of the optimal face, by walking zero-reduced-cost pivots.

        Returns (vertices, complete).  ``complete`` is False when the basis
        walk was cut off after ``_BASIS_LIMIT`` bases; the vertex list is
        deduplicated and sorted for determinism.  This tableau is left as
        it was.
        """
        complete = True
        seen_bases = {tuple(sorted(self.basis))}
        queue = [self]
        vertices = {self.vertex}
        while queue:
            tab = queue.pop()
            basic = set(tab.basis)
            obj = tab.mat[tab.nrows]
            for c in range(tab.ncols):
                if c in basic or obj[c] != 0:
                    continue
                nxt = Tableau([row.copy() for row in tab.mat], list(tab.basis),
                              tab.nvars, tab.den)
                r = nxt._ratio_row(c)
                assert r is not None, "unbounded optimal face, but the box bounds it"
                nxt.pivot(r, c)
                key = tuple(sorted(nxt.basis))
                if key in seen_bases:
                    continue
                if len(seen_bases) >= _BASIS_LIMIT:
                    complete = False
                    continue
                seen_bases.add(key)
                vertices.add(nxt.vertex)
                queue.append(nxt)
        return sorted(vertices), complete


def solve(lp: LinearProgram, trace: Callable[[str], None] | None = None) -> Tableau:
    """Exact optimum of ``lp`` as its optimal tableau, built from the slack basis.

    Deterministic (one pivot path per input).  ``trace``, if given,
    receives each pivot and the tableau after it.
    """
    rows = canonical_rows(lp)
    n, nrows = lp.num_vars, len(rows)
    mat = []
    for i, (a, b) in enumerate(rows):
        row = list(a) + [0] * nrows + [b]
        row[n + i] = 1
        mat.append(row)
    mat.append([-c for c in lp.objective] + [0] * (nrows + 1))
    tab = Tableau(mat, list(range(n, n + nrows)), n, trace=trace)
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


def enumerate_optimal_vertices(lp: LinearProgram) -> tuple[list[tuple[Fraction, ...]], bool]:
    """``solve(lp).optimal_face()``: the vertices of the optimal face, and completeness."""
    return solve(lp).optimal_face()
