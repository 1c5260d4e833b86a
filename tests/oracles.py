"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's algebra: integer numpy grids for
the continuous searches, raw subset enumeration for the discrete solver.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np


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


def brute_force_f(n: int, k: int) -> int:
    """Largest k-sum-free subset of {1..n} by raw subset enumeration."""
    triples = []
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            s = a + b
            if s % k == 0 and 1 <= s // k <= n:
                if k == 2 and a == b == s // k:
                    continue
                triples.append((a, b, s // k))
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
