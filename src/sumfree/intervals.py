"""Canonical unions of open intervals with rational endpoints.

The canonical form is a sorted tuple of disjoint, non-touching open
intervals: overlapping or touching inputs are merged, degenerate pairs
(lo >= hi) are dropped.  Touch-merging stores (a,b) u (b,c) as (a,c);
the two differ by a null set and every predicate here is measure
theoretic, so the merged form is the unique representative.

The k-sum-free test follows the same open-interval convention: a union U
is k-sum-free when (U+U)/k and U overlap in measure zero, i.e. sum sets
are allowed to *touch* U at endpoints.  When the test fails it produces
an explicit witness triple x + y = k*z with all three points interior.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple

from .rationals import RationalParseError, parse_rational, format_rational


class EmptyUnionError(ValueError):
    """Raised when an operation needs a nonempty union (e.g. extent)."""


@dataclass(frozen=True, order=True)
class Interval:
    """Open interval (lo, hi) with lo < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"degenerate interval ({self.lo}, {self.hi})")

    def contains(self, x: Fraction) -> bool:
        return self.lo < x < self.hi

    def __str__(self) -> str:
        return f"({format_rational(self.lo)},{format_rational(self.hi)})"


class Witness(NamedTuple):
    """Explicit failure certificate: x, y, z in the set with x + y = k*z."""

    x: Fraction
    y: Fraction
    z: Fraction


def _numerators(pairs: list[tuple[Fraction, Fraction]]) -> tuple[int, list[tuple[int, int]]]:
    """(den, numerators): ``den`` is the lcm of the endpoint denominators,
    and each (lo, hi) becomes its pair of integer numerators over ``den``.

    ``int`` and ``Fraction`` both carry ``.numerator`` and ``.denominator``,
    so no endpoint is re-wrapped.
    """
    den = lcm(*[v.denominator for pair in pairs for v in pair])  # a list: see _from_numerators
    return den, [(lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator))
                 for lo, hi in pairs]


def _merge(pairs: list[tuple[int, int]]) -> list[list[int]]:
    """Integer canonical form: drop lo >= hi, sort, merge overlapping or touching pairs."""
    merged: list[list[int]] = []
    for lo, hi in sorted(p for p in pairs if p[0] < p[1]):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return merged


def _from_numerators(merged: list[list[int]], den: int) -> "IntervalUnion":
    # tuple() of a list, not of a generator: on CPython 3.11 the generator
    # form leaves resized tuples behind and grows the peak RSS of long runs
    return IntervalUnion(tuple([Interval(Fraction(lo, den), Fraction(hi, den))
                                for lo, hi in merged]))


@dataclass(frozen=True)
class IntervalUnion:
    """Canonical finite union of disjoint open intervals."""

    intervals: tuple[Interval, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.intervals, self.intervals[1:]):
            if a.hi >= b.lo:
                raise ValueError(
                    f"non-canonical union: {a} and {b} overlap or touch; "
                    "construct via IntervalUnion.from_pairs"
                )

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Fraction, Fraction]]) -> "IntervalUnion":
        """Canonicalize raw (lo, hi) pairs: drop degenerates, sort, merge.

        Overlapping and touching intervals are merged; idempotent.  Only
        ``int`` and ``Fraction`` endpoints are accepted (``TypeError``
        otherwise), so no inexact value enters the exact algebra.
        """
        pairs = list(pairs)
        for pair in pairs:
            for v in pair:
                if not isinstance(v, (int, Fraction)):
                    raise TypeError(f"interval endpoint {v!r} is not an int or a Fraction")
        den, nums = _numerators(pairs)
        return _from_numerators(_merge(nums), den)

    def pairs(self) -> list[tuple[Fraction, Fraction]]:
        return [(iv.lo, iv.hi) for iv in self.intervals]

    def is_empty(self) -> bool:
        return not self.intervals

    def measure(self) -> Fraction:
        den, nums = _numerators(self.pairs())
        return Fraction(sum(hi - lo for lo, hi in nums), den)

    def contains(self, x: Fraction) -> bool:
        return any(iv.contains(x) for iv in self.intervals)

    def extent(self) -> tuple[Fraction, Fraction, Fraction]:
        """(inf, sup, diam); raises on the empty union."""
        if not self.intervals:
            raise EmptyUnionError("extent of empty union")
        lo = self.intervals[0].lo
        hi = self.intervals[-1].hi
        return lo, hi, hi - lo

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion.from_pairs(self.pairs() + other.pairs())

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        for a in self.intervals:
            for b in other.intervals:
                lo = max(a.lo, b.lo)
                hi = min(a.hi, b.hi)
                if lo < hi:
                    out.append((lo, hi))
        return IntervalUnion.from_pairs(out)

    def subtract(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        for a in self.intervals:
            cursor = a.lo
            for b in other.intervals:
                if b.hi <= cursor:
                    continue
                if b.lo >= a.hi:
                    break
                if b.lo > cursor:
                    out.append((cursor, b.lo))
                cursor = max(cursor, b.hi)
            if cursor < a.hi:
                out.append((cursor, a.hi))
        return IntervalUnion.from_pairs(out)

    def minkowski_sum(self, other: "IntervalUnion") -> "IntervalUnion":
        """Pairwise sum of components, O(m*n) intervals before merging."""
        den, nums = _numerators(self.pairs() + other.pairs())
        ours, theirs = nums[:len(self.intervals)], nums[len(self.intervals):]
        return _from_numerators(
            _merge([(alo + blo, ahi + bhi) for alo, ahi in ours for blo, bhi in theirs]), den)

    def scale(self, q: Fraction) -> "IntervalUnion":
        """Dilation by q > 0."""
        q = Fraction(q)
        if q <= 0:
            raise ValueError(f"scale factor must be positive, got {q}")
        return IntervalUnion.from_pairs([(iv.lo * q, iv.hi * q) for iv in self.intervals])

    def __str__(self) -> str:
        return format_union(self)


def is_k_sum_free(u: IntervalUnion, k: int) -> tuple[bool, Witness | None]:
    """Measure-theoretic test for x + y = k*z having no solutions in u.

    True iff (u+u)/k meets u in a set of measure zero (touching at single
    points is legal under the open-interval convention).  On failure the
    witness z is the midpoint of a positive-length slice of the first
    overlap component, so all three points are strictly interior and the
    arithmetic is exact.  For k = 2 the witness has x != y, since the
    trivial x = y = z is exempt.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    den, nums = _numerators(u.pairs())
    # the sum windows, merged; (u+u) is symmetric, so pairs i <= j suffice
    sums = _merge([(alo + blo, ahi + bhi) for i, (alo, ahi) in enumerate(nums)
                   for blo, bhi in nums[i:]])
    # first overlap component of (u+u) with k*u, all numerators over den;
    # both lists are sorted and disjoint, so the first hit is the lowest
    first = next(((max(s_lo, k * lo), min(s_hi, k * hi))
                  for s_lo, s_hi in sums for lo, hi in nums
                  if max(s_lo, k * lo) < min(s_hi, k * hi)), None)
    if first is None:
        return True, None
    # this component (scaled by k) is covered, up to finitely many touch
    # points, by the open pairwise sum windows; some window slice has
    # positive length, and its midpoint yields a strictly interior witness.
    for (alo, ahi), a in zip(nums, u.intervals):
        for (blo, bhi), b in zip(nums, u.intervals):
            s_lo = max(alo + blo, first[0])
            s_hi = min(ahi + bhi, first[1])
            if s_lo < s_hi:
                s = Fraction(s_lo + s_hi, 2 * den)
                x_lo = max(a.lo, s - b.hi)
                x_hi = min(a.hi, s - b.lo)
                x = (x_lo + x_hi) / 2
                if k == 2 and 2 * x == s:  # x = y = z is exempt: take x below s/2
                    x = (x_lo + x) / 2
                return False, Witness(x=x, y=s - x, z=s / k)
    raise AssertionError("overlap detected but no generating pair found")


def parse_union(text: str) -> IntervalUnion:
    """Parse the ";"-separated "(p/q,r/s)" form, e.g. "(2/3,1);(0,1/8)".

    An empty or all-whitespace string is the empty union.  Errors carry
    the character position of the offending token.
    """
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
        body = piece[1:-1]
        lo_txt, comma, hi_txt = body.partition(",")
        if not comma:
            raise RationalParseError(text, shift, "interval needs two comma-separated endpoints")
        try:
            lo = parse_rational(lo_txt, offset=shift + 1)
            hi = parse_rational(hi_txt, offset=shift + 2 + len(lo_txt))
        except RationalParseError as exc:
            raise RationalParseError(text, exc.pos, exc.reason) from None
        pairs.append((lo, hi))  # lo >= hi pairs are dropped by canonicalization
        pos += len(chunk) + 1
    return IntervalUnion.from_pairs(pairs)


def format_union(u: IntervalUnion) -> str:
    return ";".join(str(iv) for iv in u.intervals)
