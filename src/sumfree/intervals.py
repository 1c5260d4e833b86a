"""Canonical unions of open intervals with rational endpoints.

The prover needs three things of a union U: its measure, the windows of
U+U (``sum_windows``) and the test that (U+U)/k misses U (``is_k_sum_free``).
A union is stored as integer numerators over one positive denominator:
``den`` and a tuple ``nums`` of (lo, hi) pairs, the interval (lo/den,
hi/den) each.  The canonical form has strictly increasing numerators
(sorted, lo < hi, no two pairs touching) and ``den`` in lowest terms
against all of them, so equal sets are equal unions with equal hashes.
Overlapping or touching inputs are merged and degenerate pairs (lo >= hi)
are dropped; merging (a,b) u (b,c) to (a,c) adds a null set, which every
predicate here, being measure theoretic, ignores.  The ``Fraction`` view,
``intervals``, is built only when it is read.

The k-sum-free test follows the same open-interval convention: a union U
is k-sum-free when (U+U)/k and U overlap in measure zero, i.e. sum sets
are allowed to *touch* U at endpoints.  When the test fails it produces
an explicit witness triple x + y = k*z with all three points interior.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .rationals import RationalParseError, parse_pair, require_int


class Interval(NamedTuple("Interval", [("lo", Fraction), ("hi", Fraction)])):
    """Open interval (lo, hi) with lo < hi."""

    __slots__ = ()
    # _replace builds through _make, which would skip __new__'s checks
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, lo: Fraction, hi: Fraction):
        if not lo < hi:
            raise ValueError(f"degenerate interval ({lo}, {hi})")
        return super().__new__(cls, lo, hi)

    def __str__(self) -> str:
        return f"({self.lo},{self.hi})"


class Witness(NamedTuple):
    """Explicit failure certificate: x, y, z in the set with x + y = k*z."""

    x: Fraction
    y: Fraction
    z: Fraction


def _numerators(pairs: Sequence[Sequence[tuple[int, int]]]) -> tuple[int, list[tuple[int, int]]]:
    """(den, numerators) of endpoint pairs written as integer ``(p, q)``, ``q > 0``:
    ``den`` is the lcm of the q's, and each endpoint becomes its numerator over ``den``."""
    den = lcm(*[q for pair in pairs for _, q in pair])  # a list: see IntervalUnion
    return den, [(lp * (den // lq), hp * (den // hq)) for (lp, lq), (hp, hq) in pairs]


def _merge(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Integer canonical form: drop lo >= hi, sort, merge overlapping or touching pairs,
    in one sweep that holds the open pair in ``start``, ``end`` until a pair starts past it."""
    merged: list[tuple[int, int]] = []
    ordered = iter(sorted(pairs))
    start, end = next(ordered, (0, 0))
    for lo, hi in ordered:
        if lo > end:
            if start < end:
                merged.append((start, end))
            start, end = lo, hi  # if degenerate, it grows only when start == end == a later lo
        elif hi > end:
            end = hi
    if start < end:
        merged.append((start, end))
    return merged


class IntervalUnion:
    """Canonical finite union of disjoint open intervals (lo/den, hi/den).

    ``IntervalUnion(den, nums)`` takes ``den`` >= 1 and any iterable of integer
    (lo, hi) pairs over it, and stores their canonical form (see the module
    docstring); ``parse_union`` reads one from text.
    A union is immutable and equals, and hashes with, unions only.
    """

    def __init__(self, den: int = 1, nums: Iterable[tuple[int, int]] = ()):
        require_int(den, "den", 1)
        nums = list(nums)
        if not all(type(lo) is int and type(hi) is int for lo, hi in nums):
            raise TypeError(f"IntervalUnion takes int endpoints, got {nums!r}")
        merged = _merge(nums)
        flat = [v for pair in merged for v in pair]
        g = gcd(den, *flat)
        if g > 1:
            merged = [(lo // g, hi // g) for lo, hi in merged]
        object.__setattr__(self, "den", den // g)
        # tuple() of a list, not of a generator: on CPython 3.11 the generator
        # form leaves resized tuples behind and grows the peak RSS of long runs
        object.__setattr__(self, "nums", tuple(merged))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.den, self.nums))

    def __setattr__(self, name, value):
        raise AttributeError(f"IntervalUnion is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"IntervalUnion is immutable: cannot delete {name!r}")

    def __repr__(self) -> str:
        return f"IntervalUnion(den={self.den!r}, nums={self.nums!r})"

    @cached_property
    def intervals(self) -> tuple[Interval, ...]:
        den = self.den
        return tuple([Interval(Fraction(lo, den), Fraction(hi, den)) for lo, hi in self.nums])

    def measure(self) -> Fraction:
        return Fraction(sum(hi - lo for lo, hi in self.nums), self.den)

    def __str__(self) -> str:
        return ";".join(map(str, self.intervals))


def sum_windows(nums: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The merged windows of U+U, numerator pairs over U's denominator.

    ``nums`` are U's (lo, hi) numerator pairs, sorted or not, touching or
    not.  U+U is symmetric, so the pairs i <= j suffice.
    """
    return _merge([(alo + blo, ahi + bhi) for i, (alo, ahi) in enumerate(nums)
                   for blo, bhi in nums[i:]])


def is_k_sum_free(u: IntervalUnion, k: int) -> tuple[bool, Witness | None]:
    """Measure-theoretic test for x + y = k*z having no solutions in u.

    True iff (u+u)/k meets u in a set of measure zero (touching at single
    points is legal under the open-interval convention).  On failure the
    witness z is the midpoint of a positive-length slice of the first
    overlap component, so all three points are strictly interior and the
    arithmetic is exact.  For k = 2 the witness has x != y, since the
    trivial x = y = z is exempt.  ``k`` is an ``int`` >= 1 (``require_int``).
    """
    require_int(k, "k", 1)
    den, nums = u.den, u.nums
    sums = sum_windows(nums)
    # first overlap component of (u+u) with k*u, all numerators over den:
    # both lists are sorted and disjoint, so a merge sweep that drops the
    # window ending first meets the lowest overlap first
    i = j = 0
    while i < len(sums) and j < len(nums):
        (s_lo, s_hi), (lo, hi) = sums[i], nums[j]
        first = max(s_lo, k * lo), min(s_hi, k * hi)
        if first[0] < first[1]:
            break
        i, j = (i + 1, j) if s_hi <= k * hi else (i, j + 1)
    else:
        return True, None
    # this component (scaled by k) is covered, up to finitely many touch
    # points, by the open pairwise sum windows; some window slice has
    # positive length, and its midpoint yields a strictly interior witness.
    # The sum s and the range (x_lo, x_hi) of x are numerators over h.
    h = 2 * den
    for alo, ahi in nums:
        for blo, bhi in nums:
            s_lo = max(alo + blo, first[0])
            s_hi = min(ahi + bhi, first[1])
            if s_lo < s_hi:
                s = s_lo + s_hi
                x_lo = max(2 * alo, s - 2 * bhi)
                x_hi = min(2 * ahi, s - 2 * blo)
                x, r = x_lo + x_hi, 2  # x over r*h: the midpoint of (x_lo, x_hi)
                if k == 2 and x == s:  # x = y = z is exempt: take x below s/2
                    x, r = 2 * x_lo + x, 4
                return False, Witness(x=Fraction(x, r * h), y=Fraction(r * s - x, r * h),
                                      z=Fraction(s, k * h))
    raise AssertionError("overlap detected but no generating pair found")


def parse_union(text: str) -> IntervalUnion:
    """Parse the ";"-separated "(p/q,r/s)" form, e.g. "(2/3,1);(0,1/8)".

    An empty or all-whitespace string is the empty union.  Errors carry
    the character position of the offending token.  Endpoints are parsed
    straight to integer numerators (``parse_pair``); no ``Fraction`` is built.
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
            lo = parse_pair(lo_txt, offset=shift + 1)
            hi = parse_pair(hi_txt, offset=shift + 2 + len(lo_txt))
        except RationalParseError as exc:
            raise RationalParseError(text, exc.pos, exc.reason) from None
        pairs.append((lo, hi))  # lo >= hi pairs are dropped by canonicalization
        pos += len(chunk) + 1
    return IntervalUnion(*_numerators(pairs))
