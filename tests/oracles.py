"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's algebra: integer numpy grids for
the continuous searches, raw subset enumeration and a plain mask scan for
the discrete solver, every tight constraint set for the LP's optimal
face, the pattern LP in its chain form over the endpoints, a
``Fraction`` simplex dictionary for the tableau's pivot path, and plain
``Fraction`` interval algebra for the integer interval kernel, the
union parser and the sumset harness; ``merge_reference`` is the plain
list-rebuilding merge that the kernel's merge sweep replaced.
``mu_formula`` is the closed form that the search's optimum is compared
with for k >= 4 (F. Chung and J. Goldwasser, Electron. J. Combin. 3,
1996), and ``top_slice_bounds`` the refined case bounds behind
``certify``'s top-slice budget.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm

import numpy as np

from sumfree.certify import sumset_case_bounds
from sumfree.intervals import IntervalUnion
from sumfree.lp import LinearProgram
from sumfree.rationals import RationalParseError, require_int
from sumfree.search import build_pattern_lp


def mu_formula(k: int) -> Fraction:
    """Closed form for the maximal k-sum-free measure, valid for k >= 4."""
    if require_int(k, "k") < 4:
        raise ValueError(f"the closed form is only asserted for k >= 4, got {k}")
    main = Fraction(k * (k - 2), k * k - 2)
    corr = Fraction(8 * (k - 2), k * (k * k - 2) * (k**4 - 2 * k * k - 4))
    return main + corr


def top_slice_bounds(set_inf: Fraction, top_gap: Fraction) -> tuple[Fraction, Fraction]:
    """Measure bounds refined by a top slice of measure top_gap missing.

    A gap of measure g in (2/3, 1] sharpens the two case bounds to
    1/2 - inf/3 - g/2 and 1/2 - inf/4 - 3*g/4; for g > 2*delta either one
    already forces x < 1/2 - delta.
    """
    b1, b2 = sumset_case_bounds(set_inf)
    return b1 - top_gap / 2, b2 - 3 * top_gap / 4


def grid_best_1_interval(k: int, grid: int) -> Fraction:
    """Best k-sum-free single open interval with endpoints on i/grid.

    (a, b) works iff its sum window (2a, 2b) avoids k*(a, b):
    2b <= k*a or 2a >= k*b, all in integer grid units.
    """
    a = np.arange(grid + 1, dtype=np.int64)[:, None]
    b = np.arange(grid + 1, dtype=np.int64)[None, :]
    ok = (b > a) & ((2 * b <= k * a) | (2 * a >= k * b))
    best = int((np.where(ok, b - a, 0)).max())
    return Fraction(best, grid)


def _two_interval_feasible(k, a, b, c, d):
    """Vectorized over d: all six window/target conditions hold."""
    return (
        ((2 * b <= k * a) | (2 * a >= k * b))
        & ((2 * b <= k * c) | (2 * a >= k * d))
        & ((b + d <= k * a) | (a + c >= k * b))
        & ((b + d <= k * c) | (a + c >= k * d))
        & ((2 * d <= k * a) | (2 * c >= k * b))
        & ((2 * d <= k * c) | (2 * c >= k * d))
    )


def grid_best_2_intervals(k: int, grid: int) -> Fraction:
    """Best k-sum-free pair of open intervals on the i/grid lattice.

    For each self-feasible first interval (a, b) and each start c of the
    second, feasibility is monotone decreasing in d, so the largest
    feasible d is found by vectorized bisection.
    """
    best = 0
    for a in range(grid + 1):
        if grid - a <= best:
            break  # even a second interval reaching the top cannot win
        for b in range(a + 1, grid + 1):
            if not (2 * b <= k * a or 2 * a >= k * b):
                continue
            c = np.arange(b, grid, dtype=np.int64)
            lo = c + 1
            hi = np.full_like(c, grid)
            feas_lo = _two_interval_feasible(k, a, b, c, lo)
            lo = np.where(feas_lo, lo, c)  # c means "no second interval"
            hi = np.where(feas_lo, hi, c)
            while True:
                mid = (lo + hi + 1)
                mid //= 2
                active = lo < hi
                if not active.any():
                    break
                good = _two_interval_feasible(k, a, b, c, mid) & active
                lo = np.where(good, mid, lo)
                hi = np.where(active & ~good, mid - 1, hi)
            gain = int((lo - c).max()) if len(c) else 0
            best = max(best, b - a + gain, b - a)
    return Fraction(best, grid)


def triples_double_loop(n: int, k: int) -> list[tuple[int, int, int]]:
    """Every (a, b, c) with a <= b, a + b = k*c in {1..n}, by trying all (a, b) in order."""
    triples = []
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            s = a + b
            if s % k == 0 and 1 <= s // k <= n:
                if k == 2 and a == b == s // k:
                    continue
                triples.append((a, b, s // k))
    return triples


def _bits(mask: int) -> list[int]:
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def mask_weights(n: int, k: int) -> dict[int, int]:
    """Each distinct forbidden mask and its weight: the sum over its
    elements of their degrees, the number of distinct masks holding each."""
    masks = {(1 << a) | (1 << b) | (1 << c) for a, b, c in triples_double_loop(n, k)}
    degree = [sum(tm >> x & 1 for tm in masks) for x in range(n + 1)]
    return {tm: sum(degree[x] for x in _bits(tm)) for tm in masks}


def mask_order(n: int, k: int) -> list[int]:
    """The distinct forbidden masks by (weight, value), both decreasing: the
    order of ``discrete._Instance.masks``, the lightest mask last."""
    weights = mask_weights(n, k)
    return sorted(weights, key=lambda tm: (weights[tm], tm), reverse=True)


def instance_tables(n: int, k: int, masks: list[int] | None = None):
    """``(masks, clears, keeps, firsts, seconds)`` as ``discrete._Instance``
    tabulates them, built the direct way: ``masks`` by ``mask_order``,
    ``meets[x]``, the masks holding ``x``, from each mask's bits,
    ``clears[x]`` its complement, each keep row from the bits of
    ``meets[x]``, one M-bit int walked per element, and ``firsts``,
    ``seconds`` from each mask's lowest and second-lowest set bit.
    ``masks`` given in another order gives that order's tables."""
    if masks is None:
        masks = mask_order(n, k)
    meets = [0] * (n + 1)
    for i, tm in enumerate(masks):
        for x in _bits(tm):
            meets[x] |= 1 << i
    full = (1 << len(masks)) - 1
    clears = [full ^ m for m in meets]
    row = [full] * len(masks)
    keeps = [row, row]
    for x in range(1, n + 1):
        row = row.copy()
        for i in _bits(meets[x]):
            row[i] &= clears[x]
        keeps.append(row)
    firsts, seconds = [0] * (n + 1), [0] * (n + 1)
    for i, tm in enumerate(masks):
        lowest, second = _bits(tm)[:2]
        firsts[lowest] |= 1 << i
        seconds[second] |= 1 << i
    return masks, clears, keeps, firsts, seconds


class ScanBound:
    """The discrete counting bound by a scan of the mask list, as a reference.

    Masks are sorted lightest first (``mask_order`` reversed); ``below[b]``
    keeps those with an element below ``b``.  A mask counts when it meets no
    dead element and no element an earlier counted mask used.
    """

    def __init__(self, n: int, k: int):
        self.n = n
        masks = mask_order(n, k)[::-1]
        self.below = [[tm for tm in masks if (tm & -tm).bit_length() <= b] for b in range(n + 2)]

    def bound(self, chosen: int, avail: int, threshold: int) -> int:
        ub = chosen.bit_count() + avail.bit_count()
        if ub < threshold:
            return ub
        blocked = ((2 << self.n) - 1) ^ (chosen | avail)  # dead elements, then used ones
        for tm in self.below[avail.bit_length()]:
            if not tm & blocked:
                blocked |= tm & avail
                ub -= 1
                if ub < threshold:
                    break
        return ub


def brute_force_f(n: int, k: int) -> int:
    """Largest k-sum-free subset of {1..n} by raw subset enumeration."""
    triples = triples_double_loop(n, k)
    elems = list(range(1, n + 1))
    for size in range(n, 0, -1):
        for subset in combinations(elems, size):
            chosen = set(subset)
            if not any(a in chosen and b in chosen and c in chosen
                       for a, b, c in triples):
                return size
    return 0


def has_forbidden_triple(subset, k: int) -> bool:
    """Independent O(n^3)-style re-check used on solver witnesses."""
    chosen = set(subset)
    for a in chosen:
        for b in chosen:
            s = a + b
            if s % k == 0 and s // k in chosen:
                if k == 2 and a == b == s // k:
                    continue
                return True
    return False


def brute_force_extension(chosen, avail, k: int) -> int:
    """Most elements of ``avail`` that join ``chosen`` with no triple, by raw enumeration."""
    for size in range(len(avail), -1, -1):
        for extra in combinations(sorted(avail), size):
            if not has_forbidden_triple(set(chosen) | set(extra), k):
                return size
    return -1  # chosen itself holds a triple


def satisfies_lp(prob, x) -> bool:
    """``x`` lies in ``[0, 1]`` and meets every ``g . x <= 0`` row of ``prob``, exactly."""
    return (all(0 <= xj <= 1 for xj in x)
            and all(sum(g * xj for g, xj in zip(row, x)) <= 0 for row in prob.rows))


def chain_pattern_lp(m: int, k: int, choices=()) -> LinearProgram:
    """The search's pattern LP in chain form, over the endpoints (l1, r1, ..., lm, rm).

    The rows ``l1 <= r1 <= ... <= rm`` (``2m - 1`` of them), then for each
    choice (side, i, j, t) in sorted order ``r_i + r_j <= k l_t`` (``L``)
    or ``l_i + l_j >= k r_t`` (``R``); the objective is the total length.
    The reference for ``search``'s gap-form LPs (``pattern_lp``), which
    write the same LP over the gaps between endpoints.
    """
    n = 2 * m
    rows = []
    for q in range(n - 1):
        row = [0] * n
        row[q], row[q + 1] = 1, -1
        rows.append(tuple(row))
    for side, i, j, t in sorted(choices):
        row = [0] * n
        if side == "L":
            row[2 * i + 1] += 1
            row[2 * j + 1] += 1
            row[2 * t] -= k
        else:
            row[2 * i] -= 1
            row[2 * j] -= 1
            row[2 * t + 1] += k
        rows.append(tuple(row))
    return LinearProgram(objective=(-1, 1) * m, rows=tuple(rows))


def gap_form(row) -> tuple[int, ...]:
    """A row over (l1, r1, ..., lm, rm) written over (d_0, ..., d_{2m-2}, r_m).

    Each endpoint x_q with q < 2m - 1 is d_0 + ... + d_q, so the
    coefficient of d_p is ``row[p] + ... + row[2m - 2]``; r_m keeps its own.
    """
    n = len(row)
    return tuple(sum(row[p:n - 1]) for p in range(n - 1)) + (row[-1],)


def pattern_lp(m: int, k: int, choices=()) -> LinearProgram:
    """The gap-form LP of the search node that holds ``choices``, built cold.

    The root's rows (``search.build_pattern_lp``), then ``chain_pattern_lp``'s
    choice rows written over the gaps by ``gap_form``.  Tests check each warm
    child, which adds the search's own ``_choice_row`` to its parent's
    tableau, against this build.
    """
    root = build_pattern_lp(m)
    choice_rows = chain_pattern_lp(m, k, choices).rows[2 * m - 1:]
    return LinearProgram(objective=root.objective,
                         rows=root.rows + tuple(gap_form(row) for row in choice_rows))


def pick_branch_fraction(v, m: int, k: int, choices):
    """The search's branch choice on an exact ``Fraction`` vertex.

    Unresolved entry (i, j, t) with the largest positive overlap of the
    sum window (l_i+l_j, r_i+r_j) with k*(l_t, r_t), ties to the lowest
    (i, j, t); entries with a degenerate pair or target interval are
    skipped.  ``choices`` holds (side, i, j, t) tuples.
    """
    best_ov = Fraction(0)
    best = None
    for i in range(m):
        li, ri = v[2 * i], v[2 * i + 1]
        if li == ri:
            continue
        for j in range(i, m):
            lj, rj = v[2 * j], v[2 * j + 1]
            if lj == rj:
                continue
            slo, shi = li + lj, ri + rj
            for t in range(m):
                lt, rt = v[2 * t], v[2 * t + 1]
                if lt == rt:
                    continue
                if ("L", i, j, t) in choices or ("R", i, j, t) in choices:
                    continue
                ov = min(shi, k * rt) - max(slo, k * lt)
                if ov > best_ov:
                    best_ov = ov
                    best = (i, j, t)
    return best


def _solve_square(a, b):
    """The unique ``x`` with ``a x = b`` for integer ``a`` and ``b``, or None.

    Division-free elimination keeps every entry an integer.  Returns
    ``x`` as integer numerators over one positive denominator.
    """
    n = len(a)
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col]
        for r in range(n):
            f = rows[r][col]
            if r != col and f != 0:
                rows[r] = [v * p[col] - f * w for v, w in zip(rows[r], p)]
    den = lcm(*(abs(rows[i][i]) for i in range(n)))
    return [rows[i][n] * (den // rows[i][i]) for i in range(n)], den


def optimal_vertices_brute(prob):
    """The optimal vertices of a pattern LP, by trying every tight set.

    A vertex is a feasible point where ``n`` independent constraints
    among the rows ``g . x <= 0``, ``x <= 1`` and ``x >= 0`` are tight.
    ``x_j <= 1`` and ``x_j >= 0`` are never tight together, so each
    variable is at 0, at 1 or free, and the free ones are fixed by as
    many tight ``g`` rows.  Returns the feasible points of largest
    objective value, distinct and sorted.
    """
    n = prob.num_vars
    rows = list(dict.fromkeys(prob.rows))
    vertices = set()
    for fixed in product((0, 1, None), repeat=n):
        free = [j for j in range(n) if fixed[j] is None]
        ones = [j for j in range(n) if fixed[j] == 1]
        # a row over the fixed variables alone must already hold, and
        # a row with no free variable cannot help to fix them
        if any(sum(g[j] for j in ones) > 0 for g in rows if not any(g[j] for j in free)):
            continue
        for tight in combinations([g for g in rows if any(g[j] for j in free)], len(free)):
            sol = _solve_square([[g[j] for j in free] for g in tight],
                                [-sum(g[j] for j in ones) for g in tight])
            if sol is None:
                continue
            nums, den = sol
            x = [den * (v or 0) for v in fixed]
            for j, v in zip(free, nums):
                x[j] = v
            if (all(0 <= v <= den for v in x)
                    and all(sum(g * v for g, v in zip(row, x)) <= 0 for row in rows)):
                vertices.add(tuple(Fraction(v, den) for v in x))
    best = max(sum(c * xj for c, xj in zip(prob.objective, x)) for x in vertices)
    return sorted(x for x in vertices
                  if sum(c * xj for c, xj in zip(prob.objective, x)) == best)



class FractionDictionary:
    """``lp.Tableau``'s simplex dictionary in ``Fraction`` entries, pivoting
    by its rules as first written: each choice scans the variable ids in
    sorted order and keeps the first of least ratio.

    The reference for the tableau's pivot path.  Rows are the constraint
    rows, then the objective row, each over the nonbasic columns and then
    the rhs.  ``path`` lists this dictionary's pivots as (entering,
    leaving) variable ids, and ``ties`` counts the choices in which two or
    more variables tied for the least ratio; a child or a face basis
    starts both afresh.
    """

    def __init__(self, rows, basis, cobasis):
        self.rows, self.basis, self.cobasis = rows, basis, cobasis
        self.status = "optimal"
        self.path = []
        self.ties = 0

    @classmethod
    def solve(cls, objective, rows):
        """The optimum of max ``objective . x`` over ``a . x <= b`` for each
        ``(a, b)`` of ``rows`` (``lp.canonical_rows``), from the slack basis."""
        n = len(objective)
        d = cls([[Fraction(a) for a in g] + [Fraction(b)] for g, b in rows]
                + [[Fraction(-c) for c in objective] + [Fraction(0)]],
                list(range(n, n + len(rows))), list(range(n)))
        while True:
            obj = d.rows[-1]
            p = next((p for p in d._by_id() if obj[p] < 0), None)
            if p is None:
                return d
            d.pivot(d._ratio_row(p), p)

    @property
    def value(self) -> Fraction:
        return self.rows[-1][-1]

    def _by_id(self):
        return sorted(range(len(self.cobasis)), key=self.cobasis.__getitem__)

    def _first_least(self, candidates, ratio):
        ratios = [ratio(c) for c in candidates]
        if not ratios:
            return None
        self.ties += ratios.count(min(ratios)) > 1
        return candidates[ratios.index(min(ratios))]

    def _ratio_row(self, p):
        rows = sorted(range(len(self.basis)), key=self.basis.__getitem__)
        return self._first_least([i for i in rows if self.rows[i][p] > 0],
                                 lambda i: self.rows[i][-1] / self.rows[i][p])

    def pivot(self, r, p):
        self.path.append((self.cobasis[p], self.basis[r]))
        piv = self.rows[r][p]
        prow = [a / piv for a in self.rows[r]]
        prow[p] = 1 / piv
        for i, row in enumerate(self.rows):
            if i != r:
                f = row[p]
                self.rows[i] = [a - f * b for a, b in zip(row, prow)]
                self.rows[i][p] = -f / piv
        self.rows[r] = prow
        self.basis[r], self.cobasis[p] = self.cobasis[p], self.basis[r]

    def add_row(self, g, cutoff):
        """The child with ``g . x <= 0`` added, by dual simplex; it stops,
        with status "cutoff", before a pivot to a value below ``cutoff``."""
        n, nrows = len(self.cobasis), len(self.basis)
        new = [Fraction(g[v]) if v < n else Fraction(0) for v in self.cobasis] + [Fraction(0)]
        for b, row in zip(self.basis, self.rows):
            if b < n:
                new = [a - g[b] * x for a, x in zip(new, row)]
        child = FractionDictionary([list(row) for row in self.rows[:-1]]
                                   + [new, list(self.rows[-1])],
                                   self.basis + [n + nrows], list(self.cobasis))
        while True:
            neg = [i for i in range(nrows + 1) if child.rows[i][-1] < 0]
            if not neg:
                return child
            r = min(neg, key=child.basis.__getitem__)
            row, obj = child.rows[r], child.rows[-1]
            c = child._first_least([p for p in child._by_id() if row[p] < 0],
                                   lambda p: obj[p] / -row[p])
            if obj[-1] - obj[c] * row[-1] / row[c] < cutoff:
                child.status = "cutoff"
                return child
            child.pivot(r, c)

    def optimal_face(self):
        """Every basis of the optimal face by zero-reduced-cost pivots,
        this dictionary first, none pivoted into twice."""
        seen = {tuple(sorted(self.basis))}
        face = [self]
        for d in face:
            for p in d._by_id():
                if d.rows[-1][p] != 0:
                    continue
                r = d._ratio_row(p)
                key = tuple(sorted(d.basis[:r] + [d.cobasis[p]] + d.basis[r + 1:]))
                if key in seen:
                    continue
                seen.add(key)
                nxt = FractionDictionary([list(row) for row in d.rows], list(d.basis),
                                         list(d.cobasis))
                nxt.pivot(r, p)
                face.append(nxt)
        return face

def canonical_pairs_fraction(pairs):
    """Canonical form of raw (lo, hi) pairs in ``Fraction`` arithmetic.

    Drops degenerate pairs, sorts, and merges overlapping or touching
    ones; the reference for the canonical form that ``IntervalUnion`` stores.
    """
    live = sorted((Fraction(lo), Fraction(hi)) for lo, hi in pairs if lo < hi)
    merged = []
    for lo, hi in live:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def merge_reference(pairs):
    """``intervals._merge`` as it was written before it kept its open pair in
    locals: drop lo >= hi, sort, and merge overlapping or touching integer
    pairs by reading and rebuilding ``merged[-1]``; the reference for ``_merge``."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(pairs):
        if lo >= hi:
            continue
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def pairs(u: IntervalUnion) -> list[tuple[Fraction, Fraction]]:
    """The ``(lo, hi)`` endpoints of ``u``'s intervals, as ``Fraction`` pairs."""
    return [(iv.lo, iv.hi) for iv in u.intervals]


def union_fraction(pairs) -> IntervalUnion:
    """The union of raw ``Fraction`` (or ``int``) pairs, canonicalized in ``Fraction``
    by ``canonical_pairs_fraction``: ``den`` is the lcm of the endpoints'
    denominators, which is in lowest terms against the numerators since each
    endpoint is.  So the fields are canonical already, and the constructor
    keeps canonical fields as they are (``test_repr_rebuilds_the_union``)."""
    merged = canonical_pairs_fraction(pairs)
    den = lcm(*[v.denominator for pair in merged for v in pair])
    return IntervalUnion(den, tuple((int(lo * den), int(hi * den)) for lo, hi in merged))


def measure_fraction(pairs):
    """Total length of canonical pairs, summed in ``Fraction``."""
    return sum((hi - lo for lo, hi in pairs), Fraction(0))


def minkowski_sum_fraction(ours, theirs):
    """Canonical pairwise sum of two canonical pair lists, in ``Fraction``."""
    return canonical_pairs_fraction(
        [(alo + blo, ahi + bhi) for alo, ahi in ours for blo, bhi in theirs])


def is_k_sum_free_fraction(pairs, k: int):
    """The k-sum-free verdict and witness ``(x, y, z)`` of canonical pairs, in ``Fraction``.

    The sum windows are scaled by ``1/k`` and intersected with the set;
    the witness comes from the first overlap component, as documented
    for ``intervals.is_k_sum_free``.
    """
    if not pairs:
        return True, None
    scaled = [(lo / k, hi / k) for lo, hi in minkowski_sum_fraction(pairs, pairs)]
    overlap = canonical_pairs_fraction(
        [(max(slo, lo), min(shi, hi)) for slo, shi in scaled for lo, hi in pairs])
    if not overlap:
        return True, None
    first_lo, first_hi = overlap[0]
    for alo, ahi in pairs:
        for blo, bhi in pairs:
            s_lo = max(alo + blo, k * first_lo)
            s_hi = min(ahi + bhi, k * first_hi)
            if s_lo < s_hi:
                s = (s_lo + s_hi) / 2
                x_lo = max(alo, s - bhi)
                x_hi = min(ahi, s - blo)
                x = (x_lo + x_hi) / 2
                if k == 2 and 2 * x == s:
                    x = (x_lo + x) / 2
                return False, (x, s - x, s / k)
    raise AssertionError("overlap detected but no generating pair found")


def random_union_randint(rng, max_intervals: int) -> IntervalUnion:
    """A seeded union of ``certify._draw``'s draws as written with ``randint``:
    the reference for its draws.  Each union is built in ``Fraction`` and merged
    by ``union_fraction``."""
    while True:
        m = rng.randint(1, max_intervals)
        draws = [Fraction(rng.randint(0, d), d)
                 for d in (rng.randint(1, 64) for _ in range(2 * m))]
        cuts = sorted(draws)
        u = union_fraction(list(zip(cuts[0::2], cuts[1::2])))
        if u.nums:
            return u


def sumset_harness_fraction(draw, trials: int):
    """The sumset harness's ``(violations, min_slack, min_slack_example)``,
    with every slack in ``Fraction``.

    ``draw()`` gives the next union; the slack of A is
    ``|A+A| - min(3|A|, |A| + diam(A))`` over the union's pairs, and the
    first union of least slack is the example.  The reference for
    ``certify.sumset_bound_harness``.
    """
    violations = 0
    min_slack = min_example = None
    for _ in range(trials):
        u = draw()
        ends = pairs(u)
        measure = measure_fraction(ends)
        diam = ends[-1][1] - ends[0][0]
        slack = (measure_fraction(minkowski_sum_fraction(ends, ends))
                 - min(3 * measure, measure + diam))
        if slack < 0:
            violations += 1
        if min_slack is None or slack < min_slack:
            min_slack, min_example = slack, u
    return violations, min_slack, min_example


def parse_rational_fraction(text: str, offset: int = 0) -> Fraction:
    """"p/q" or a bare integer straight to a ``Fraction``, with the same
    checks, messages and positions as ``rationals.parse_pair``."""
    s = text.strip()
    if not s:
        raise RationalParseError(text, offset, "empty rational")
    shift = offset + text.index(s[0])
    num_part, slash, den_part = s.partition("/")
    try:
        p = int(num_part)
    except ValueError:
        raise RationalParseError(text, shift, f"bad integer {num_part!r}") from None
    if not slash:
        return Fraction(p)
    try:
        q = int(den_part)
    except ValueError:
        raise RationalParseError(
            text, shift + len(num_part) + 1, f"bad integer {den_part!r}") from None
    if q == 0:
        raise RationalParseError(text, shift + len(num_part) + 1, "zero denominator")
    return Fraction(p, q)


def parse_union_fraction(text: str) -> IntervalUnion:
    """``intervals.parse_union`` through ``Fraction`` endpoints and ``union_fraction``:
    the reference for its integer parse, its results and its errors."""
    if not text.strip():
        return IntervalUnion()
    pairs = []
    pos = 0
    for chunk in text.split(";"):
        piece = chunk.strip()
        if not piece:
            raise RationalParseError(text, pos, "empty interval entry")
        shift = pos + chunk.index(piece[0])
        if not (piece.startswith("(") and piece.endswith(")")):
            raise RationalParseError(text, shift, "interval must look like (p/q,r/s)")
        lo_txt, comma, hi_txt = piece[1:-1].partition(",")
        if not comma:
            raise RationalParseError(text, shift, "interval needs two comma-separated endpoints")
        try:
            lo = parse_rational_fraction(lo_txt, offset=shift + 1)
            hi = parse_rational_fraction(hi_txt, offset=shift + 2 + len(lo_txt))
        except RationalParseError as exc:
            raise RationalParseError(text, exc.pos, exc.reason) from None
        pairs.append((lo, hi))
        pos += len(chunk) + 1
    return union_fraction(pairs)


# Malformed ``--set`` texts, one per parse error: a zero denominator, a bad
# numerator, a bad denominator, empty entries, a missing comma, missing
# parentheses and empty endpoints, some after a good first interval.
MALFORMED_UNION_TEXTS = [
    "(1/0,1)", "(0,3/0)", "(1/2,1);(1/-0,1)",
    "(a,1)", "(x/2,1)", "(1.5,2)", "(1/2,1);( q/3 ,1)",
    "(1/b,1)", "(1/2,1/)", "(0,1/2.0)", "(1/2,1);(1/3,2/ x)",
    ";(1/2,1)", "(1/2,1);", "(1/2,1);;(0,1/8)", "(1/2,1); ;(0,1/8)",
    "(1/2 1)", "(1/2,1);(0)", "(1,2);(3;4)",
    "1/2,1", "(1/2,1", "1/2,1)", "(1/2,1);0,1/8",
    "(,1)", "(1/2,)", "( , )",
]
