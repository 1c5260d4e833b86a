"""Exact rational linear programming via two-phase simplex.

maximize    c . x
subject to  rows of the form  a . x  {<=, =, >=}  b
            optional per-variable bounds lo <= x_j <= hi

Everything is exact.  Internally the problem is rewritten as
``G x <= h`` with a deterministic row order (equalities split in two,
bounds appended, exact duplicate rows dropped); variables with lower
bound exactly 0 stay sign-constrained, all others are split into a
difference of nonnegatives.

The tableau is kept fraction-free: an integer matrix together with one
shared positive denominator, updated by the two-term Edmonds/Bareiss
recurrence  m'[i][j] = (m[i][j]*piv - m[i][c]*m[r][j]) / den  whose
divisions are exact (every entry is a minor of the input matrix).  This
is substantially faster than a Fraction tableau and cannot lose
precision.  Pivoting uses Bland's rule (the entering column is the
first one with a negative reduced cost, ties in the ratio test go to the
lowest basic index), which terminates without any anti-cycling guard.

``solve`` also emits a dual vector over the rewritten rows, so any
claimed optimum can be re-verified from scratch by ``check_certificate``
without trusting the solver: primal feasibility, dual feasibility and
equality of the two objective values are checked exactly.

An optimal tableau can also be reoptimized after one more row
``g . x <= 0`` (branch-and-bound children): the row is written in the
current basis with its own slack basic, which keeps the reduced costs
dual feasible but may make its rhs negative, and the dual simplex
restores primal feasibility with the same Bareiss pivot.  It uses dual
Bland's rule (the leaving row is the infeasible one with the lowest
basic column; ties in the dual ratio test go to the lowest column),
which is Bland's rule run on the dual LP and so terminates without an
anti-cycling guard; a leaving row with no negative entry proves the
child infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple, Sequence

LESS_EQ = "<="
EQUAL = "="
GREATER_EQ = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Bases the optimal-face walk visits before it gives up as incomplete.
_BASIS_LIMIT = 5000


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in (LESS_EQ, EQUAL, GREATER_EQ):
            raise ValueError(f"bad relation {self.relation!r}")


@dataclass(frozen=True)
class LinearProgram:
    """Maximize ``objective . x`` subject to constraints and bounds."""

    num_vars: int
    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    bounds: tuple[tuple[Fraction | None, Fraction | None], ...] | None = None

    def __post_init__(self):
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length != num_vars")
        for con in self.constraints:
            if len(con.coeffs) != self.num_vars:
                raise ValueError("constraint length != num_vars")
        if self.bounds is not None and len(self.bounds) != self.num_vars:
            raise ValueError("bounds length != num_vars")


def constraint(coeffs: Sequence, relation: str, rhs) -> Constraint:
    return Constraint(tuple(Fraction(c) for c in coeffs), relation, Fraction(rhs))


def linear_program(objective, constraints, bounds=None) -> LinearProgram:
    return LinearProgram(
        num_vars=len(objective),
        objective=tuple(Fraction(c) for c in objective),
        constraints=tuple(constraints),
        bounds=None
        if bounds is None
        else tuple(
            (None if lo is None else Fraction(lo), None if hi is None else Fraction(hi))
            for lo, hi in bounds
        ),
    )


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Fraction | None = None
    vertex: tuple[Fraction, ...] | None = None
    # Dual multipliers over canonical_rows(lp), nonnegative at an optimum.
    dual: tuple[Fraction, ...] | None = None
    pivots: int = 0


def canonical_rows(lp: LinearProgram) -> tuple[list[tuple[tuple[Fraction, ...], Fraction]], list[bool]]:
    """Rewrite as ``G x <= h`` rows plus per-variable nonnegativity flags.

    Deterministic: constraints in order (equalities split into <= and
    negated >=), then bound rows per variable; exact duplicates dropped.
    A lower bound of exactly 0 becomes a sign flag instead of a row.
    """
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    seen = set()

    def push(coeffs, rhs):
        key = (coeffs, rhs)
        if key not in seen:
            seen.add(key)
            rows.append(key)

    for con in lp.constraints:
        neg = tuple(-c for c in con.coeffs)
        if con.relation in (LESS_EQ, EQUAL):
            push(con.coeffs, con.rhs)
        if con.relation in (GREATER_EQ, EQUAL):
            push(neg, -con.rhs)
    nonneg = [False] * lp.num_vars
    if lp.bounds is not None:
        unit = [Fraction(0)] * lp.num_vars
        for j, (lo, hi) in enumerate(lp.bounds):
            if lo is not None:
                if lo == 0:
                    nonneg[j] = True
                else:
                    row = unit.copy()
                    row[j] = Fraction(-1)
                    push(tuple(row), -lo)
            if hi is not None:
                row = unit.copy()
                row[j] = Fraction(1)
                push(tuple(row), hi)
    return rows, nonneg


def _scale_int_row(coeffs, rhs) -> tuple[list[int], int, int]:
    mult = lcm(*(c.denominator for c in coeffs), rhs.denominator)
    return [int(c * mult) for c in coeffs], int(rhs * mult), mult


class _Tableau:
    """Fraction-free simplex tableau; all entries are ints over ``den``."""

    __slots__ = ("mat", "den", "basis", "nrows", "ncols", "pivots", "trace")

    def __init__(self, mat, basis, trace=None):
        self.mat = mat  # constraint rows, then objective row(s); last col = rhs
        self.den = 1
        self.basis = basis  # column index of the basic variable per constraint row
        self.nrows = len(basis)
        self.ncols = len(mat[0]) - 1
        self.pivots = 0
        self.trace = trace

    def pivot(self, r: int, c: int) -> None:
        mat, den = self.mat, self.den
        prow = mat[r]
        piv = prow[c]
        if piv < 0:
            # Keep den positive by negating the equation row first.  Every
            # dual pivot lands here (its pivot and its rhs are both
            # negative, so the entering value is positive), as do the
            # zero-rhs pivots of the phase-1 cleanup.
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

    def _entering(self, obj_row: int) -> int | None:
        """Bland's rule: the first column with a negative reduced cost."""
        row = self.mat[obj_row]
        for j in range(self.ncols):
            if row[j] < 0:
                return j
        return None

    def optimize(self, obj_row: int) -> str:
        """Run simplex on the given objective row; 'optimal' or 'unbounded'."""
        while True:
            c = self._entering(obj_row)
            if c is None:
                return OPTIMAL
            r = self._ratio_row(c)
            if r is None:
                return UNBOUNDED
            self.pivot(r, c)

    def add_row(self, g: list[int]) -> "_Tableau":
        """A copy of this tableau with the row ``g . x <= 0`` appended.

        ``g`` has one entry per column.  The row is written in the current
        basis, ``den*g - sum g[basis[i]]*mat[i]``, and its new slack column
        is basic with entry ``den``, so every entry is still a minor of the
        enlarged input matrix and ``den`` is unchanged.  The row goes after
        the constraint rows, before the objective row; this tableau is
        left as it was.
        """
        den = self.den
        mat = [row[:-1] + [0, row[-1]] for row in self.mat]
        new = [den * a for a in g] + [den, 0]
        for i in range(self.nrows):
            f = g[self.basis[i]]
            if f:
                new = [a - f * b for a, b in zip(new, mat[i])]
        mat.insert(self.nrows, new)
        tab = _Tableau(mat, self.basis + [self.ncols], self.trace)
        tab.den = den
        return tab

    def dual_optimize(self, obj_row: int) -> str:
        """Dual simplex from a dual-feasible basis; 'optimal' or 'infeasible'.

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
                return OPTIMAL
            row, obj = mat[r], mat[obj_row]
            c = None
            for j in range(self.ncols):
                # obj[j]/-row[j] < obj[c]/-row[c], cross-multiplied
                if row[j] < 0 and (c is None or obj[j] * row[c] > obj[c] * row[j]):
                    c = j
            if c is None:
                return INFEASIBLE  # the row says: a sum of nonnegatives < 0
            self.pivot(r, c)


class _Build(NamedTuple):
    tab: "_Tableau"
    col_of_var: list[tuple[int, int | None]]
    rows: list[tuple[tuple[Fraction, ...], Fraction]]
    slack_cols: list[int]
    art_cols: list[int]
    obj_scale: int
    row_scales: list[int]


def _build(lp: LinearProgram, trace=None) -> "_Build":
    """Expand lp into the internal standard form.

    Columns: structural (split pairs for free vars), then one slack per
    row, then artificials for rows whose rhs was negative; the last
    column is the rhs.
    """
    rows, nonneg = canonical_rows(lp)
    col_of_var: list[tuple[int, int | None]] = []
    ncol = 0
    for j in range(lp.num_vars):
        if nonneg[j]:
            col_of_var.append((ncol, None))
            ncol += 1
        else:
            col_of_var.append((ncol, ncol + 1))
            ncol += 2
    nstruct = ncol
    m = len(rows)
    slack_cols = list(range(nstruct, nstruct + m))
    flipped = []
    int_rows = []
    row_scales = []
    for coeffs, rhs in rows:
        icoeffs, irhs, mult = _scale_int_row(coeffs, rhs)
        row_scales.append(mult)
        if irhs < 0:
            icoeffs = [-a for a in icoeffs]
            irhs = -irhs
            flipped.append(True)
        else:
            flipped.append(False)
        int_rows.append((icoeffs, irhs))
    art_cols = {}
    next_col = nstruct + m
    for i, flip in enumerate(flipped):
        if flip:
            art_cols[i] = next_col
            next_col += 1
    width = next_col + 1

    mat = []
    basis = []
    for i, (icoeffs, irhs) in enumerate(int_rows):
        row = [0] * width
        for j, (cp, cm) in enumerate(col_of_var):
            row[cp] = icoeffs[j]
            if cm is not None:
                row[cm] = -icoeffs[j]
        row[slack_cols[i]] = -1 if flipped[i] else 1
        if i in art_cols:
            row[art_cols[i]] = 1
            basis.append(art_cols[i])
        else:
            basis.append(slack_cols[i])
        row[-1] = irhs
        mat.append(row)

    # Phase-2 objective row: reduced costs -c (artificial/slack costs 0).
    obj_scale = lcm(*(c.denominator for c in lp.objective)) if lp.objective else 1
    obj2 = [0] * width
    for j, (cp, cm) in enumerate(col_of_var):
        cj = int(lp.objective[j] * obj_scale)
        obj2[cp] = -cj
        if cm is not None:
            obj2[cm] = cj
    mat.append(obj2)

    if art_cols:
        # Phase-1 reduced costs for "maximize -(sum of artificials)" with
        # the artificial columns basic: r_j = -sum over artificial rows.
        obj1 = [0] * width
        for i in art_cols:
            rowi = mat[i]
            for j in range(width):
                obj1[j] -= rowi[j]
        for col in art_cols.values():
            obj1[col] = 0
        mat.append(obj1)

    tab = _Tableau(mat, basis, trace)
    return _Build(tab, col_of_var, rows, slack_cols, sorted(art_cols.values()),
                  obj_scale, row_scales)


def _run_phase1(tab: _Tableau, art_cols: list[int]) -> bool:
    """Drive artificials to zero; returns False when the LP is infeasible."""
    obj1_idx = len(tab.mat) - 1
    status = tab.optimize(obj1_idx)
    if status != OPTIMAL or tab.mat[obj1_idx][-1] != 0:
        return False
    art_set = set(art_cols)
    for i in range(tab.nrows):
        if tab.basis[i] in art_set:
            # Degenerate artificial: pivot it out, or the row is redundant.
            row = tab.mat[i]
            for j in range(tab.ncols):
                if j not in art_set and row[j] != 0:
                    tab.pivot(i, j)
                    break
    tab.mat.pop()  # phase-1 row
    for row in tab.mat:
        for col in art_cols:
            row[col] = 0
    return True


def _run_phases(lp: LinearProgram, trace=None) -> tuple[_Build, str]:
    """Build ``lp``, run phase 1 and then phase 2; the build and its status."""
    b = _build(lp, trace)
    if b.art_cols and not _run_phase1(b.tab, b.art_cols):
        return b, INFEASIBLE
    return b, b.tab.optimize(b.tab.nrows)


def _reoptimize(b: _Build, tab: _Tableau, coeffs: Sequence[int]) -> tuple[_Tableau, str]:
    """Reoptimize ``tab`` with the integer row ``coeffs . x <= 0`` added.

    ``tab`` is an optimal tableau of ``b`` or of an earlier ``_reoptimize``;
    it is left untouched, so siblings can share it.  Returns the child's
    tableau, reoptimized by dual simplex, and its status.
    """
    g = [0] * tab.ncols
    for c, (cp, cm) in zip(coeffs, b.col_of_var):
        g[cp] = c
        if cm is not None:
            g[cm] = -c
    child = tab.add_row(g)
    return child, child.dual_optimize(child.nrows)


def _read_optimum(b: _Build, tab: _Tableau) -> tuple[tuple[Fraction, ...], Fraction]:
    """Vertex and objective value of an optimal tableau of ``b``."""
    return (_read_vertex(tab, b.col_of_var),
            Fraction(tab.mat[tab.nrows][-1], tab.den * b.obj_scale))


def solve(lp: LinearProgram, trace: Callable[[str], None] | None = None) -> LPResult:
    """Exact optimum of ``lp``; deterministic (one pivot path per input)."""
    b, status = _run_phases(lp, trace)
    tab = b.tab
    if status != OPTIMAL:
        return LPResult(status=status, pivots=tab.pivots)

    obj2_idx = tab.nrows
    vertex, value = _read_optimum(b, tab)
    dual = tuple(
        Fraction(tab.mat[obj2_idx][b.slack_cols[i]] * b.row_scales[i],
                 tab.den * b.obj_scale)
        for i in range(len(b.rows))
    )
    return LPResult(status=OPTIMAL, value=value, vertex=vertex, dual=dual,
                    pivots=tab.pivots)


def _read_vertex(tab: _Tableau, col_of_var) -> tuple[Fraction, ...]:
    col_val = {}
    for i in range(tab.nrows):
        col_val[tab.basis[i]] = Fraction(tab.mat[i][-1], tab.den)
    out = []
    for cp, cm in col_of_var:
        x = col_val.get(cp, Fraction(0))
        if cm is not None:
            x -= col_val.get(cm, Fraction(0))
        out.append(x)
    return tuple(out)


def check_certificate(lp: LinearProgram, result: LPResult) -> bool:
    """Re-verify an Optimal result from scratch, exactly.

    Checks: the vertex satisfies every rewritten row and sign constraint;
    the dual vector is nonnegative and dual-feasible (equality on free
    variables' columns); and both objective values agree.  Any failure,
    by however small a margin, returns False - there is no tolerance.
    """
    if result.status != OPTIMAL or result.vertex is None or result.dual is None:
        return False
    rows, nonneg = canonical_rows(lp)
    x, y = result.vertex, result.dual
    if len(x) != lp.num_vars or len(y) != len(rows):
        return False
    for j in range(lp.num_vars):
        if nonneg[j] and x[j] < 0:
            return False
    for (coeffs, rhs), yi in zip(rows, y):
        if yi < 0:
            return False
        if sum((c * xj for c, xj in zip(coeffs, x)), Fraction(0)) > rhs:
            return False
    for j in range(lp.num_vars):
        col = sum((rows[i][0][j] * y[i] for i in range(len(rows))), Fraction(0))
        if nonneg[j]:
            if col < lp.objective[j]:
                return False
        elif col != lp.objective[j]:
            return False
    primal = sum((cj * xj for cj, xj in zip(lp.objective, x)), Fraction(0))
    dual_val = sum((rows[i][1] * y[i] for i in range(len(rows))), Fraction(0))
    return primal == result.value and dual_val == result.value


def enumerate_optimal_vertices(lp: LinearProgram) -> tuple[list[tuple[Fraction, ...]], bool]:
    """All vertices of the optimal face, by walking zero-reduced-cost pivots.

    Returns (vertices, complete).  ``complete`` is False when the basis
    walk was cut off after ``_BASIS_LIMIT`` bases or the face is unbounded; the
    vertex list is deduplicated and sorted for determinism.
    """
    b, status = _run_phases(lp)
    if status != OPTIMAL:
        return [], status == INFEASIBLE
    return _optimal_face(b, b.tab)


def _optimal_face(b: _Build, tab: _Tableau) -> tuple[list[tuple[Fraction, ...]], bool]:
    """``enumerate_optimal_vertices`` from ``tab``, an optimal tableau of ``b``."""
    obj2_idx = tab.nrows
    complete = True
    dead_cols = set(b.art_cols)  # zeroed after phase 1, never re-enter
    seen_bases = {tuple(sorted(tab.basis))}
    queue = [(tab.mat, tab.den, list(tab.basis))]
    vertices = {_read_vertex(tab, b.col_of_var)}
    while queue:
        mat, den, basis = queue.pop()
        basic = set(basis)
        obj = mat[obj2_idx]
        for c in range(tab.ncols):
            if c in basic or c in dead_cols or obj[c] != 0:
                continue
            nxt = _Tableau([row.copy() for row in mat], list(basis))
            nxt.den = den
            r = nxt._ratio_row(c)
            if r is None:
                complete = False  # optimal face is unbounded along this column
                continue
            nxt.pivot(r, c)
            key = tuple(sorted(nxt.basis))
            if key in seen_bases:
                continue
            if len(seen_bases) >= _BASIS_LIMIT:
                complete = False
                continue
            seen_bases.add(key)
            vertices.add(_read_vertex(nxt, b.col_of_var))
            queue.append((nxt.mat, nxt.den, list(nxt.basis)))
    return sorted(vertices), complete
