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

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        return self.lo < x < self.hi

    def __str__(self) -> str:
        return f"({format_rational(self.lo)},{format_rational(self.hi)})"


class Witness(NamedTuple):
    """Explicit failure certificate: x, y, z in the set with x + y = k*z."""

    x: Fraction
    y: Fraction
    z: Fraction


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

        Overlapping and touching intervals are merged; idempotent.
        """
        live = sorted((Fraction(lo), Fraction(hi)) for lo, hi in pairs if lo < hi)
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in live:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        return IntervalUnion(tuple(Interval(lo, hi) for lo, hi in merged))

    def pairs(self) -> list[tuple[Fraction, Fraction]]:
        return [(iv.lo, iv.hi) for iv in self.intervals]

    def is_empty(self) -> bool:
        return not self.intervals

    def measure(self) -> Fraction:
        return sum((iv.length for iv in self.intervals), Fraction(0))

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
        return IntervalUnion.from_pairs(
            [(a.lo + b.lo, a.hi + b.hi) for a in self.intervals for b in other.intervals]
        )

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
    if u.is_empty():
        return True, None
    sums = u.minkowski_sum(u)
    overlap = sums.scale(Fraction(1, k)).intersect(u)
    if overlap.is_empty():
        return True, None
    # k * (first overlap component) is covered, up to finitely many touch
    # points, by the open pairwise sum windows; some window slice has
    # positive length, and its midpoint yields a strictly interior witness.
    first = overlap.intervals[0]
    for a in u.intervals:
        for b in u.intervals:
            s_lo = max(a.lo + b.lo, k * first.lo)
            s_hi = min(a.hi + b.hi, k * first.hi)
            if s_lo < s_hi:
                s = (s_lo + s_hi) / 2
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
