"""Mechanical re-derivation of the measure-deficiency bound delta = 1/114.

The upper-bound proof for 3-sum-free sets runs by contradiction: assume
measure x = 1/2 - delta, derive inf(A) <= 4*delta and a budget for how
much of the top interval (2/3, 1] can be missing, split the rest of the
set into three blocks, and close three case branches, each of the form

    x  <=  constant + coefficient * delta.

Each branch contradicts x = 1/2 - delta exactly below the delta solving
constant + coefficient*delta = 1/2 - delta, so the proof certifies every
delta below the *minimum* of the three branch suprema.  This module
stores the three (constant, coefficient) pairs as data, solves each
branch exactly, and re-checks the supporting inequality chain at the
substitution points the argument actually uses.

The sumset growth inequality |A+A| >= min(3|A|, |A| + diam(A)) enters the
derivation as an external fact; ``sumset_bound_harness`` stress-tests it
exactly on seeded random interval unions (any violation would mean a bug
in the interval algebra, not new mathematics).  The harness draws,
measures and compares each union as integer numerator pairs over one
fixed denominator; only the union it reports is built as ``IntervalUnion``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .intervals import IntervalUnion, sum_windows
from .rationals import HALF, require_exact, require_int

# Largest denominator of the random endpoints in ``_draw``; every drawn
# denominator d divides _DEN, and a cut p/d is the numerator p * _SCALE[d].
_MAX_DENOMINATOR = 64
_DEN = lcm(*range(1, _MAX_DENOMINATOR + 1))
_SCALE = [0] + [_DEN // d for d in range(1, _MAX_DENOMINATOR + 1)]


@dataclass(frozen=True)
class BranchBound:
    """One contradiction branch: x <= constant + delta_coeff * delta."""

    name: str
    constant: Fraction
    delta_coeff: Fraction

    @property
    def delta_sup(self) -> Fraction:
        """Exact delta where the branch bound meets x = 1/2 - delta."""
        return (HALF - self.constant) / (self.delta_coeff + 1)


@dataclass(frozen=True)
class ChainStep:
    name: str
    lhs: Fraction
    rhs: Fraction
    ok: bool


@dataclass(frozen=True)
class Certificate:
    branches: tuple[BranchBound, ...]
    delta_star: Fraction
    steps: tuple[ChainStep, ...]

    def all_steps_ok(self) -> bool:
        return all(s.ok for s in self.steps)


# Branch totals, as affine functions of delta:
#   empty middle block:  (2d/3 + 1/9) + 1/3 + 2d          = 4/9 + 8d/3
#   wide gap c - b > 1/3:  4/9 + 2d
#   narrow gap c - b <= 1/3: (2d/3 + 1/9) + 8d/3 + 1/3 + 2d = 4/9 + 16d/3
BRANCHES = (
    BranchBound("middle_block_empty", Fraction(4, 9), Fraction(8, 3)),
    BranchBound("wide_gap", Fraction(4, 9), Fraction(2)),
    BranchBound("narrow_gap", Fraction(4, 9), Fraction(16, 3)),
)


def sumset_case_bounds(set_inf: Fraction) -> tuple[Fraction, Fraction]:
    """The two sumset-driven measure bounds: 1/2 - inf/3 and 1/2 - inf/4.

    At least one of the two applies (they come from the two cases of
    min(3x, x + 1 - inf)), so only their maximum is binding.
    """
    return HALF - set_inf / 3, HALF - set_inf / 4


def check_chain(delta: Fraction, set_inf: Fraction,
                top_gap: Fraction = Fraction(0)) -> tuple[ChainStep, ...]:
    """Evaluate the supporting inequalities at measure x = 1/2 - delta.

    ``set_inf`` is the infimum of the candidate set, ``top_gap`` the
    measure missing from its top third (2/3, 1].  Each step's ``ok``
    means "no contradiction fires at this point"; a False anywhere shows
    the assumed parameters cannot coexist.  Each parameter is an ``int``
    or a ``Fraction`` (``TypeError``) and at least 0 (``ValueError``); the
    error names it.
    """
    delta, set_inf, top_gap = (Fraction(require_exact(v, what, 0)) for v, what in
                               ((delta, "delta"), (set_inf, "set_inf"), (top_gap, "top_gap")))
    x = HALF - delta
    case_bound = max(sumset_case_bounds(set_inf))
    low_block = set_inf / 6 + Fraction(1, 9)
    return (
        # any 3-sum-free subset of [0, w] has measure <= w/2 (w = 1)
        ChainStep("scaled_halving", x, HALF, x <= HALF),
        # one of the case bounds 1/2 - inf/3 and 1/2 - inf/4 always applies
        ChainStep("sumset_cases", x, case_bound, x <= case_bound),
        # x = 1/2 - delta in the weaker case bound caps the infimum at 4*delta
        ChainStep("inf_bound", set_inf, 4 * delta, set_inf <= 4 * delta),
        # a missing top slice g sharpens the case bounds to 1/2 - inf/3 - g/2
        # and 1/2 - inf/4 - 3g/4; above the budget either forces x < 1/2 - delta
        ChainStep("top_slice_budget", top_gap, 2 * delta, top_gap <= 2 * delta),
        # the block in [inf, inf/3 + 2/9] is halved, then inf <= 4*delta applied
        ChainStep("low_block_bound", low_block, 2 * delta / 3 + Fraction(1, 9),
                  low_block <= 2 * delta / 3 + Fraction(1, 9)),
    )


def derive_delta() -> Certificate:
    """Solve each branch exactly and take the minimum supremum."""
    delta_star = min(b.delta_sup for b in BRANCHES)
    steps = check_chain(delta_star, 4 * delta_star, 2 * delta_star)
    return Certificate(branches=BRANCHES, delta_star=delta_star, steps=steps)


@dataclass(frozen=True)
class HarnessReport:
    trials: int
    max_intervals: int
    seed: int
    violations: int
    min_slack: Fraction
    min_slack_example: IntervalUnion


def _below(getrandbits, n: int) -> int:
    """``randrange(n)`` as ``random.Random`` draws it: ``bit_length(n)`` bits, redrawn while >= n."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _draw(rng: random.Random, max_intervals: int) -> tuple[list[tuple[int, int]], int]:
    """One seeded draw of up to max_intervals intervals in [0, 1]: ``(pairs, _DEN)``.

    ``pairs`` are the sorted nondegenerate cut pairs (they may touch), as
    numerators over the fixed ``_DEN`` (not reduced), so every draw shares
    one denominator.  ``randint(a, b)`` is ``randrange(a, b + 1)``, so ``1 +
    _below(n)`` and ``_below(d + 1)`` draw ``randint(1, n)`` and ``randint(0, d)``.
    """
    bits = rng.getrandbits
    while True:
        m = 1 + _below(bits, max_intervals)
        # the draw order (a denominator, then its numerator) fixes every seeded union
        cuts = sorted([_below(bits, d + 1) * _SCALE[d]
                       for d in (1 + _below(bits, _MAX_DENOMINATOR) for _ in range(2 * m))])
        pairs = [(lo, hi) for lo, hi in zip(cuts[0::2], cuts[1::2]) if lo < hi]
        if pairs:
            return pairs, _DEN


def sumset_bound_harness(trials: int = 10_000, max_intervals: int = 6,
                        seed: int = 0) -> HarnessReport:
    """Exact check of |A+A| >= min(3|A|, |A| + diam(A)) on random unions.

    Each trial is drawn, measured and compared on integer numerator pairs
    over the one fixed denominator ``_DEN``, so slacks are integers
    compared directly; only the least-slack union is built as an
    ``IntervalUnion`` and its slack as a ``Fraction``, both reduced from
    ``_DEN``.  When any trial violates the bound, that union is the most
    violating draw.
    """
    require_int(trials, "trials", 1)
    require_int(max_intervals, "max_intervals", 1)
    rng = random.Random(require_int(seed, "seed"))
    min_slack = min_pairs = None
    violations = 0
    for _ in range(trials):
        pairs, _ = _draw(rng, max_intervals)
        measure = sum(hi - lo for lo, hi in pairs)
        diam = pairs[-1][1] - pairs[0][0]
        slack = (sum(hi - lo for lo, hi in sum_windows(pairs))
                 - min(3 * measure, measure + diam))
        if slack < 0:
            violations += 1
        if min_pairs is None or slack < min_slack:
            min_slack, min_pairs = slack, pairs
    return HarnessReport(trials=trials, max_intervals=max_intervals, seed=seed,
                         violations=violations, min_slack=Fraction(min_slack, _DEN),
                         min_slack_example=IntervalUnion.from_numerators(min_pairs, _DEN))
