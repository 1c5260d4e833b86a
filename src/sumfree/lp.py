"""Exact simplex for the search's pattern LPs.

maximize    c . x
subject to  g . x <= 0   for each row g
            0 <= x <= 1

with integer ``c`` and ``g``.  This is the only shape the branch-and-bound
relaxations take (one chain row and LEFT/RIGHT sum-window rows over the
gaps between endpoints), and it needs no general machinery: ``x = 0``
meets every row, so the slack basis is feasible from the start and no
phase 1 runs, and the box bounds the optimum, so the simplex can never
report an unbounded ray and the dual simplex can never prove a child
infeasible.
Both are assertions.

The constraint rows are, in a fixed order, the ``g`` rows with exact
duplicates dropped, then one box row ``x_j <= 1`` per variable that no
``g`` row already bounds by a later variable (``canonical_rows``), each
with its own slack.  A pattern LP's one chain row bounds every gap by
its last variable ``r_m``, so ``r_m <= 1`` is its only box row.  The
tableau is a dictionary, as in lrs (Avis, 2000): it keeps only the
nonbasic columns, so its width stays ``nvars + 1`` however many rows are
added.  It is fraction-free: an integer matrix with one shared
positive denominator, updated by the two-term Edmonds/Bareiss recurrence
m'[i][j] = (m[i][j]*piv - m[i][c]*m[r][j]) / den  whose divisions are
exact (every entry is a minor of the input matrix).  Pivoting uses
Bland's rule (the entering variable is the lowest with a negative
reduced cost, ties in the ratio test go to the lowest basic variable),
which terminates without any anti-cycling guard.  Each rule chooses in
one pass, a tie going to the lower variable id by an explicit comparison.

``solve`` returns the optimal ``Tableau`` itself: its ``value``, and its
vertex as ``vertex_numerators`` over ``den``.  The optimum's dual
certificate is in the objective row too, one multiplier per row of
``canonical_rows`` (then per added row): the reduced cost of that row's
slack over ``den``, 0 when the slack is basic.  The tests' reference
checker replays a claimed optimum from these with ``Fraction``
arithmetic alone, checking primal feasibility, dual feasibility and the
equality of the two objective values exactly.

An optimal tableau is reoptimized after one more row ``g . x <= 0``
(branch-and-bound children) by ``Tableau.add_row``: the row is written
in the current basis with its own slack basic, which keeps the reduced
costs dual feasible but may make its rhs negative, and the dual simplex
restores primal feasibility with the same Bareiss pivot.  It uses dual
Bland's rule (the leaving row is the infeasible one with the lowest
basic variable; ties in the dual ratio test go to the lowest variable),
which is Bland's rule run on the dual LP and so terminates without an
anti-cycling guard.  The first leaving row is the added one, if any: the
parent is optimal, so no other rhs is negative.  Every basis on its way
is dual feasible, so its value bounds the child's optimum from above and
never rises; ``add_row`` stops, by one integer cross-multiplication,
before the first pivot that would take the value below its ``cutoff``
(the search's incumbent) and returns the child with status ``CUTOFF``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .rationals import require_int

OPTIMAL = "optimal"
CUTOFF = "cutoff"


class LinearProgram(NamedTuple("LinearProgram", [("objective", tuple), ("rows", tuple)])):
    """Maximize ``objective . x`` over ``0 <= x <= 1`` subject to ``row . x <= 0``."""

    __slots__ = ()
    # _replace builds through _make, which would skip __new__'s checks
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, objective: tuple[int, ...], rows: tuple[tuple[int, ...], ...]):
        for row in (objective, *rows):
            if len(row) != len(objective):
                raise ValueError("row length != number of variables")
            for a in row:
                require_int(a, "LP coefficient")
        return super().__new__(cls, objective, rows)

    @property
    def num_vars(self) -> int:
        return len(self.objective)


def canonical_rows(lp: LinearProgram) -> list[tuple[tuple[int, ...], int]]:
    """The tableau's rows as ``(a, b)`` for ``a . x <= b``, in tableau order.

    The ``g`` rows in order with exact duplicates dropped, then the box
    row ``x_j <= 1`` for each variable whose box row is not implied.  It
    is implied when some ``g`` row's only negative coefficient is a ``-1``
    at ``l > j`` and its coefficient at ``j`` is positive: with ``x >= 0``
    that row reads ``x_j <= a_j x_j <= x_l``.  By induction down from the
    highest such ``l``, whose own box row is kept, every dropped ``x_j``
    is at most some kept ``x_l <= 1``.  So a chain ``x_0 <= x_1 <= ... <=
    x_{n-1}``, or the one row ``x_0 + ... + x_{n-2} <= x_{n-1}``, keeps
    only ``x_{n-1} <= 1``.
    """
    n = lp.num_vars
    rows = list(dict.fromkeys(lp.rows))
    implied = set()
    for g in rows:
        neg = [l for l, a in enumerate(g) if a < 0]
        if len(neg) == 1 and g[neg[0]] == -1:  # sum of a_j x_j over a_j > 0 <= x_l
            implied.update(j for j in range(neg[0]) if g[j] > 0)
    box = [(tuple(int(i == j) for i in range(n)), 1) for j in range(n) if j not in implied]
    return [(g, 0) for g in rows] + box


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
    changed in place, so tableaux may share them.  ``solve`` returns it
    optimal, and so does ``add_row`` unless its cutoff stops it (status
    ``CUTOFF``); ``value`` and ``vertex_numerators`` are read off an
    optimal one, and ``pivots`` counts the pivots that the solve or the
    added row took.
    """

    __slots__ = ("mat", "den", "basis", "cobasis", "nrows", "nvars", "pivots", "status")

    def __init__(self, mat, basis, cobasis, den=1):
        self.mat = mat
        self.den = den
        self.basis = basis  # variable id of the basic variable per constraint row
        self.cobasis = cobasis  # variable id of each nonbasic column
        self.nrows = len(basis)
        self.nvars = len(cobasis)
        self.pivots = 0
        self.status = OPTIMAL

    @property
    def value(self) -> Fraction:
        return Fraction(self.mat[self.nrows][-1], self.den)

    def compare(self, q: Fraction | int) -> int:
        """An int of the sign of ``value - q`` (times ``den * q.denominator``)."""
        return self.mat[self.nrows][-1] * q.denominator - q.numerator * self.den

    @property
    def vertex_numerators(self) -> tuple[int, ...]:
        """The vertex ``x`` as integer numerators over the positive ``den``."""
        x = [0] * (self.nvars + self.nrows)
        for b, row in zip(self.basis, self.mat):
            x[b] = row[-1]
        return tuple(x[:self.nvars])

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
        rescale = piv != den
        for i, row in enumerate(mat):
            f = row[p]
            if f:
                if i != r:
                    new = [(a * piv - f * b) // den for a, b in zip(row, prow)]
                    new[p] = -sign * f
                    mat[i] = new
            elif rescale:
                mat[i] = [(a * piv) // den for a in row]
        prow[p] = sign * den
        mat[r] = prow
        self.den = piv
        self.basis[r], self.cobasis[p] = self.cobasis[p], self.basis[r]
        self.pivots += 1

    def _ratio_row(self, p: int) -> int | None:
        """Leaving row by exact minimum ratio, ties to the lowest basic variable."""
        best = None
        for i, (row, b) in enumerate(zip(self.mat, self.basis)):
            a = row[p]
            # row[-1]/a < rhs/piv, cross-multiplied, or equal with a lower id
            if a > 0 and (best is None or (d := row[-1] * piv - rhs * a) < 0
                          or (d == 0 and b < low)):
                best, piv, rhs, low = i, a, row[-1], b
        return best

    def optimize(self) -> None:
        """Primal simplex by Bland's rule from a feasible basis."""
        while True:
            obj = self.mat[self.nrows]
            p = min((p for p, a in enumerate(obj[:-1]) if a < 0),
                    key=self.cobasis.__getitem__, default=None)
            if p is None:
                return
            r = self._ratio_row(p)
            assert r is not None, "unbounded ray, but the box bounds every pattern LP"
            self.pivot(r, p)

    def add_row(self, g: Sequence[int], cutoff: Fraction | int) -> "Tableau":
        """The optimum with the row ``g . x <= 0`` added, by dual simplex.

        ``g`` has one entry per variable.  The row, ``den*g - sum
        g[basis[i]]*mat[i]`` over the nonbasic columns, goes before the
        objective row with its new slack basic, so every entry is still a
        minor of the enlarged input matrix and ``den`` is unchanged.  The
        child shares this tableau's row lists and leaves them as they were.
        This tableau must be ``OPTIMAL``: only then is the new row's rhs
        the only one that can be negative.

        The dual simplex stops before a pivot that would take the value,
        which never rises, below ``cutoff`` (an int or a ``Fraction``; 0
        never stops it); the child then has status ``CUTOFF`` and is read
        only for ``status`` and ``pivots``.
        """
        if self.status != OPTIMAL:
            raise ValueError(f"add_row needs an optimal tableau, not a {self.status} one")
        den, n, nrows = self.den, self.nvars, self.nrows
        new = [den * g[v] if v < n else 0 for v in self.cobasis] + [0]
        for b, row in zip(self.basis, self.mat):
            f = g[b] if b < n else 0
            if f:
                new = [a - f * x for a, x in zip(new, row)]
        mat = self.mat[:nrows] + [new, self.mat[nrows]]
        tab = Tableau(mat, self.basis + [n + nrows], list(self.cobasis), den)
        tab.dual_optimize(cutoff)
        return tab

    def dual_optimize(self, cutoff: Fraction | int) -> None:
        """Dual simplex from the dual-feasible basis of a fresh ``add_row``.

        Dual Bland's rule: the leaving row is the one with a negative rhs
        whose basic variable is lowest, at first the added row or none; the
        entering column minimizes ``obj[p] / -row[p]`` over ``row[p] < 0``,
        ties to the lowest variable.  It stops, with status ``CUTOFF``,
        before a pivot that would take the value below ``cutoff``.
        """
        mat, basis, cobasis, nrows = self.mat, self.basis, self.cobasis, self.nrows
        r = nrows - 1 if mat[nrows - 1][-1] < 0 else None
        while r is not None:
            row, obj = mat[r], mat[nrows]
            c = None
            for p, a in enumerate(row[:-1]):
                # obj[p]/-a < co/-ca, cross-multiplied, or equal with a lower id
                if a < 0 and (c is None or (d := obj[p] * ca - co * a) > 0
                              or (d == 0 and cobasis[p] < cobasis[c])):
                    c, ca, co = p, a, obj[p]
            # No negative entry would make the row a sum of nonnegatives < 0.
            assert c is not None, "infeasible, but x = 0 meets every pattern row"
            # The pivot makes den piv = -row[c] > 0 and the value
            # (obj[-1]*piv + obj[c]*row[-1]) / (den*piv), cross-multiplied here.
            piv = -row[c]
            num = obj[-1] * piv + obj[c] * row[-1]
            if num * cutoff.denominator < cutoff.numerator * self.den * piv:
                self.status = CUTOFF
                return
            self.pivot(r, c)
            r = None
            for i, line in enumerate(mat[:nrows]):
                if line[-1] < 0 and (r is None or basis[i] < basis[r]):
                    r = i

    def optimal_face(self) -> list["Tableau"]:
        """Every basis of the optimal face, this tableau first, each once.

        The walk takes zero-reduced-cost pivots, columns in variable-id
        order, which leave every other reduced cost as it was; bases are
        finitely many and each is walked once.  A pivot whose basis was
        already seen is not taken, so the walk pivots ``len(face) - 1``
        times.  This tableau is unchanged.
        """
        seen = {tuple(sorted(self.basis))}
        face = [self]
        for tab in face:  # face grows while it is walked
            obj = tab.mat[tab.nrows]
            for p in sorted(range(tab.nvars), key=tab.cobasis.__getitem__):
                if obj[p] != 0:
                    continue
                r = tab._ratio_row(p)
                assert r is not None, "unbounded optimal face, but the box bounds it"
                # The basis the pivot would reach; a seen one is not pivoted into.
                key = tuple(sorted(tab.basis[:r] + [tab.cobasis[p]] + tab.basis[r + 1:]))
                if key in seen:
                    continue
                seen.add(key)
                nxt = Tableau(list(tab.mat), list(tab.basis), list(tab.cobasis), tab.den)
                nxt.pivot(r, p)
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

