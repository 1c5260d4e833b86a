import random
from decimal import Decimal
from fractions import Fraction

import pytest

from oracles import random_union_randint, sumset_harness_fraction, top_slice_bounds

from sumfree.certify import (
    BRANCHES,
    HarnessReport,
    _DEN,
    _MAX_DENOMINATOR,
    check_chain,
    _draw,
    derive_delta,
    sumset_bound_harness,
    sumset_case_bounds,
)
from sumfree.intervals import IntervalUnion, parse_union, sum_windows

F = Fraction


def _random_union(rng: random.Random, max_intervals: int) -> IntervalUnion:
    """The union of the harness's next draw."""
    return IntervalUnion.from_numerators(*_draw(rng, max_intervals))


def test_branch_suprema():
    by_name = {b.name: b for b in BRANCHES}
    assert by_name["middle_block_empty"].delta_sup == F(1, 66)
    assert by_name["wide_gap"].delta_sup == F(1, 54)
    assert by_name["narrow_gap"].delta_sup == F(1, 114)


def test_branch_suprema_solve_their_equations():
    for b in BRANCHES:
        d = b.delta_sup
        assert b.constant + b.delta_coeff * d == F(1, 2) - d  # exact crossing point


def test_branch_totals_decompose_into_block_bounds():
    # each branch total is a sum of named block bounds; both sides are
    # affine in d, so agreement at two points proves the identity
    top_block = F(1, 3)  # measure of the top third (2/3, 1]
    for d in (F(0), F(1)):
        low_block = 2 * d / 3 + F(1, 9)  # halved block below inf/3 + 2/9 at inf = 4d
        discard = 2 * d                  # the two slices removed up front
        middle_cap = 8 * d / 3           # middle block swallowed by the sum window
        bound = {b.name: b.constant + b.delta_coeff * d for b in BRANCHES}
        assert bound["middle_block_empty"] == low_block + top_block + discard
        assert bound["narrow_gap"] == low_block + middle_cap + top_block + discard
        # wide gap: the two lower blocks jointly fit in 1/9 regardless of d
        assert bound["wide_gap"] == F(1, 9) + top_block + discard


def test_delta_star_is_the_strict_minimum():
    cert = derive_delta()
    assert cert.delta_star == F(1, 114)
    others = sorted(b.delta_sup for b in cert.branches)
    assert others == [F(1, 114), F(1, 66), F(1, 54)]
    assert others[0] < others[1] < others[2]


def test_chain_clean_at_the_boundary_point():
    steps = check_chain(F(1, 114), F(4, 114), F(2, 114))
    assert all(s.ok for s in steps)
    cert = derive_delta()
    assert cert.all_steps_ok()


def test_chain_at_zero_reduces_to_half():
    steps = {s.name: s for s in check_chain(F(0), F(0), F(0))}
    assert steps["scaled_halving"].lhs == F(1, 2)
    assert steps["scaled_halving"].rhs == F(1, 2)
    assert steps["sumset_cases"].rhs == F(1, 2)
    assert all(s.ok for s in steps.values())


def test_chain_flags_impossible_parameters():
    # inf(A) above 4*delta contradicts the sumset bounds
    steps = {s.name: s for s in check_chain(F(1, 114), F(5, 114))}
    assert not steps["inf_bound"].ok
    assert not steps["sumset_cases"].ok
    # missing more than the top-slice budget
    steps = {s.name: s for s in check_chain(F(1, 114), F(0), F(3, 114))}
    assert not steps["top_slice_budget"].ok


def test_epsilon_correction_terms():
    d = F(1, 114)
    c1, c2 = top_slice_bounds(F(0), 2 * d)
    assert c1 == F(1, 2) - d            # first case: exactly the target bound
    assert c2 == F(1, 2) - 3 * d / 2    # second case lands strictly below
    assert c2 <= F(1, 2) - d
    b1, b2 = sumset_case_bounds(F(0))
    assert b1 == b2 == F(1, 2)


def test_overlap_branch_contradicts_any_smaller_delta():
    overlap = next(b for b in BRANCHES if b.name == "narrow_gap")
    for d in (F(0), F(1, 1000), F(1, 200), F(1, 115)):
        assert overlap.constant + overlap.delta_coeff * d < F(1, 2) - d
    assert overlap.constant + overlap.delta_coeff * F(1, 114) == F(1, 2) - F(1, 114)


@pytest.mark.parametrize("name", ["delta", "set_inf", "top_gap"])
def test_check_chain_rejects_negative_parameters(name):
    """A negative parameter raises ``ValueError`` naming it."""
    args = {"delta": F(1, 114), "set_inf": F(0), "top_gap": F(0), name: F(-1, 10)}
    with pytest.raises(ValueError) as exc:
        check_chain(**args)
    assert str(exc.value) == f"{name} must be >= 0, got -1/10"


@pytest.mark.parametrize("args", [(0.01, F(1, 25)), (F(1, 100), 0.04), (F(1, 100), F(0), 0.0),
                                  ("1/100", F(0)), (Decimal("0.01"), F(0))])
def test_check_chain_rejects_inexact_parameters(args):
    """Parameters are ``int`` or ``Fraction``, as interval endpoints are, and
    the error names the one that is not."""
    at = [type(a) in (int, F) for a in args].index(False)
    with pytest.raises(TypeError) as exc:
        check_chain(*args)
    name = ("delta", "set_inf", "top_gap")[at]
    assert str(exc.value) == f"{name} {args[at]!r} is not an int or a Fraction"


def test_check_chain_takes_int_parameters():
    assert check_chain(0, 0, 0) == check_chain(F(0), F(0), F(0))


def test_tight_sumset_examples():
    a = parse_union("(0,1/4);(3/4,1)")
    s = IntervalUnion.from_numerators(sum_windows(a.nums), a.den)
    assert s.pairs() == [(F(0), F(1, 2)), (F(3, 4), F(5, 4)), (F(3, 2), F(2))]
    assert s.measure() == F(3, 2)
    diam = a.pairs()[-1][1] - a.pairs()[0][0]
    assert min(3 * a.measure(), a.measure() + diam) == F(3, 2)

    whole = parse_union("(0,1)")
    assert IntervalUnion.from_numerators(sum_windows(whole.nums), whole.den).measure() == 2
    diam = whole.pairs()[-1][1] - whole.pairs()[0][0]
    assert min(3 * whole.measure(), whole.measure() + diam) == 2


def test_harness_small_run_has_no_violations():
    report = sumset_bound_harness(trials=400, max_intervals=6, seed=42)
    assert report.violations == 0
    assert report.min_slack >= 0


def test_harness_is_reproducible():
    a = sumset_bound_harness(trials=100, max_intervals=4, seed=7)
    b = sumset_bound_harness(trials=100, max_intervals=4, seed=7)
    assert a == b


@pytest.mark.parametrize("seed,example", [
    (0, "(5/21,3/4)"),
    (1, "(1/21,27/50)"),
    (2, "(1/12,10/47)"),
    (3, "(2/9,1/3)"),
])
def test_harness_reports_are_pinned(seed, example):
    """The seeded unions, and so the reports, depend on ``_draw``'s draw order."""
    report = sumset_bound_harness(trials=5000, max_intervals=6, seed=seed)
    assert report.violations == 0
    assert report.min_slack == 0
    assert report.min_slack_example == parse_union(example)


@pytest.mark.parametrize("seed,max_intervals,trials", [
    *[pytest.param(seed, 1 + seed % 6, 400, id=str(seed)) for seed in range(21)],
    *[pytest.param(seed, m, trials, id=f"{seed}-max{m}")
      for m, trials, seeds in ((7, 150, 3), (12, 150, 3), (64, 12, 2), (65, 12, 2))
      for seed in range(seeds)],
])
def test_harness_matches_the_fraction_reference(seed, max_intervals, trials):
    """Integer slacks over ``_DEN`` give the report that ``Fraction`` slacks give,
    up to and past ``_MAX_DENOMINATOR`` intervals a draw."""
    report = sumset_bound_harness(trials=trials, max_intervals=max_intervals, seed=seed)
    rng = random.Random(seed)
    violations, min_slack, example = sumset_harness_fraction(
        lambda: _random_union(rng, max_intervals), trials)
    assert report == HarnessReport(trials=trials, max_intervals=max_intervals, seed=seed,
                                   violations=violations, min_slack=min_slack,
                                   min_slack_example=example)
    assert type(report.min_slack) is Fraction


def test_every_drawn_denominator_divides_the_harness_denominator():
    assert all(_DEN % d == 0 for d in range(1, _MAX_DENOMINATOR + 1))


def test_harness_computes_no_denominator_per_draw(monkeypatch):
    """Every draw is over the fixed ``_DEN``: with ``lcm`` unusable the report is unchanged."""
    expected = sumset_bound_harness(trials=200, max_intervals=6, seed=4)

    def not_called(*args):
        raise AssertionError("lcm called by the harness")

    monkeypatch.setattr("sumfree.certify.lcm", not_called)
    assert sumset_bound_harness(trials=200, max_intervals=6, seed=4) == expected


def test_harness_counts_violations(monkeypatch):
    """With A+A replaced by A, every union of positive diameter is a violation."""
    monkeypatch.setattr("sumfree.certify.sum_windows", lambda nums: nums)
    report = sumset_bound_harness(trials=200, max_intervals=3, seed=5)
    rng = random.Random(5)
    unions = [_random_union(rng, 3) for _ in range(200)]
    assert report.violations == 200
    slacks = [-min(2 * u.measure(), F(u.nums[-1][1] - u.nums[0][0], u.den)) for u in unions]
    assert report.min_slack == min(slacks)
    assert report.min_slack_example == unions[slacks.index(min(slacks))]


def test_harness_builds_only_the_reported_unions(monkeypatch):
    """Draws and slacks stay integer pairs: only the least-slack example
    becomes an ``IntervalUnion``, one per run."""
    built = []
    post_init = IntervalUnion.__post_init__

    def counted(u):
        built.append(u)
        post_init(u)

    monkeypatch.setattr(IntervalUnion, "__post_init__", counted)
    report = sumset_bound_harness(trials=5000, max_intervals=6, seed=1)
    assert report.violations == 0 and built == [report.min_slack_example]


@pytest.mark.parametrize("seed", range(21))
def test_random_union_matches_the_randint_draws(seed):
    """``getrandbits`` draws give the unions that ``randint`` draws gave.

    ``randrange(2**j)`` redraws half of its ``getrandbits`` results, so the
    bounds at and around powers of two would show an off-by-one first.
    """
    for max_intervals in (*range(1, 9), 16, 31, 32, 33, 64, 65):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(200):
            assert _random_union(ours, max_intervals) == random_union_randint(ref, max_intervals)


def test_harness_rejects_bad_trials():
    with pytest.raises(ValueError):
        sumset_bound_harness(trials=0)


def test_random_union_is_seeded_and_nonempty():
    rng = random.Random(3)
    for _ in range(50):
        u = _random_union(rng, 5)
        assert u.nums
        assert 0 <= u.nums[0][0] < u.nums[-1][1] <= u.den
