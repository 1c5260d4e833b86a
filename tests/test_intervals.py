"""The integer interval kernel: the canonical form the ``IntervalUnion``
constructor and ``parse_union`` give, measure, U+U by ``sum_windows``, and
``is_k_sum_free``, against the ``Fraction`` oracles in ``oracles``."""

import pickle
import random
from fractions import Fraction
from math import lcm

import pytest

import oracles
from oracles import (
    MALFORMED_UNION_TEXTS,
    canonical_pairs_fraction,
    is_k_sum_free_fraction,
    measure_fraction,
    merge_reference,
    minkowski_sum_fraction,
    pairs,
    parse_union_fraction,
    union_fraction,
)
from sumfree.certify import _draw
from sumfree.intervals import (
    Interval,
    IntervalUnion,
    RationalParseError,
    _merge,
    format_union,
    is_k_sum_free,
    parse_union,
    sum_windows,
)

F = Fraction


def rand_union(rng: random.Random, max_intervals=5, denom=24) -> IntervalUnion:
    cuts = sorted(rng.randint(0, denom) for _ in range(2 * rng.randint(1, max_intervals)))
    return IntervalUnion(denom, list(zip(cuts[0::2], cuts[1::2])))


def _union(u: IntervalUnion, v: IntervalUnion) -> IntervalUnion:
    """u | v by the constructor, over the lcm of the two denominators."""
    den = lcm(u.den, v.den)
    return IntervalUnion(
        den, [(lo * (den // w.den), hi * (den // w.den)) for w in (u, v) for lo, hi in w.nums])


def _square(u: IntervalUnion) -> IntervalUnion:
    """U+U as a union: ``sum_windows`` over U's own denominator."""
    return IntervalUnion(u.den, sum_windows(u.nums))


def test_interval_requires_positive_length():
    with pytest.raises(ValueError):
        Interval(F(1, 3), F(1, 3))


def test_direct_construction_canonicalizes_non_canonical_tuples():
    touching = ((0, 2), (2, 4))  # (0, 1/2) and (1/2, 1) over 4
    out_of_order = ((2, 4), (0, 1))  # (1/2, 1) before (0, 1/4)
    assert pairs(IntervalUnion(4, touching)) == [(F(0), F(1))]
    assert pairs(IntervalUnion(4, out_of_order)) == [(F(0), F(1, 4)), (F(1, 2), F(1))]


@pytest.mark.parametrize("den,nums,error", [
    pytest.param(F(4), ((0, 1),), TypeError, id="fraction-den"),
    pytest.param(4, ((0, F(1)),), TypeError, id="fraction-numerator"),
    pytest.param(True, ((0, 1),), TypeError, id="bool-den"),
    pytest.param(0, ((0, 1),), ValueError, id="zero-den"),
    pytest.param(-3, ((0, 1),), ValueError, id="negative-den"),
])
def test_direct_construction_rejects_each_non_canonical_field(den, nums, error):
    with pytest.raises(error):
        IntervalUnion(den, nums)


@pytest.mark.parametrize("den,nums", [
    pytest.param(4, [(0, 1)], id="list-of-pairs"),
    pytest.param(4, ((0, 2),), id="unreduced"),  # (0, 1/2) is (0, 1) over 2
    pytest.param(2, (), id="unreduced-empty"),  # the empty union is over 1
    pytest.param(4, ((2, 3), (0, 1)), id="unsorted"),
    pytest.param(4, ((0, 1), (1, 3)), id="touching"),
    pytest.param(4, ((3, 3),), id="lo-equals-hi"),
    pytest.param(4, ((3, 1),), id="lo-above-hi"),
])
def test_direct_construction_canonicalizes_each_non_canonical_field(den, nums):
    """A field that is not canonical gives the union that the ``Fraction`` oracle gives."""
    assert IntervalUnion(den, nums) == union_fraction([(F(lo, den), F(hi, den))
                                                       for lo, hi in nums])


def test_the_three_constructors_agree():
    """The fields, numerators over a multiple of den, reduced or unreduced text and
    the ``Fraction`` oracle give one union."""
    want = IntervalUnion(177, ((8, 12), (28, 42), (118, 177)))
    built = [
        IntervalUnion(177 * 6, [(118 * 6, 177 * 6), (8 * 6, 12 * 6), (28 * 6, 42 * 6)]),
        parse_union("(2/3,1);(8/177,4/59);(28/177,14/59)"),
        parse_union("(16/354,8/118);(2/3,6/6);(28/177,14/59)"),
        union_fraction([(F(16, 354), F(8, 118)), (F(2, 3), F(6, 6)), (F(28, 177), F(14, 59))]),
    ]
    for u in built:
        assert u == want and hash(u) == hash(want)
        assert (u.den, u.nums) == (177, ((8, 12), (28, 42), (118, 177)))
    assert IntervalUnion(7, []) == IntervalUnion()
    assert IntervalUnion(5, [(3, 3)]) == IntervalUnion()
    with pytest.raises(ValueError):
        IntervalUnion(0, [(0, 1)])


def test_pickle_round_trip_keeps_the_union():
    rng = random.Random(14)
    for u in [IntervalUnion()] + [rand_union(rng) for _ in range(50)]:
        for read_first in (False, True):
            if read_first:
                u.intervals  # the lazy view travels along, or is rebuilt
            v = pickle.loads(pickle.dumps(u))
            assert v == u and hash(v) == hash(u)
            assert v.intervals == u.intervals and pairs(v) == pairs(u)


def test_repr_rebuilds_the_union(largest_known_3sumfree):
    """``eval(repr(u))`` is ``u``: the constructor keeps canonical fields as they are."""
    rng = random.Random(15)
    for u in [largest_known_3sumfree] + [rand_union(rng) for _ in range(50)]:
        assert eval(repr(u)) == u


def test_intervals_view_is_built_only_when_read(largest_known_3sumfree):
    u = largest_known_3sumfree
    u = IntervalUnion(u.den, u.nums)  # a fresh copy, whatever the fixture has read
    assert u.measure() == F(77, 177)
    assert sum_windows(u.nums) == [(16, 24), (36, 54), (56, 84), (126, 219), (236, 354)]
    assert is_k_sum_free(u, 3) == (True, None)
    assert "intervals" not in vars(u)
    assert u.intervals[0] == Interval(F(8, 177), F(12, 177))
    assert "intervals" in vars(u)


def test_canonicalize_overlap_merge():
    u = IntervalUnion(4, [(0, 2), (1, 3)])
    assert pairs(u) == [(F(0), F(3, 4))]


def test_canonicalize_drops_degenerate():
    assert IntervalUnion(3, [(1, 1)]) == IntervalUnion()
    assert IntervalUnion(3, [(2, 1)]) == IntervalUnion()


def test_canonicalize_sorts_record_configuration(largest_known_3sumfree):
    u = IntervalUnion(177, [(118, 177), (8, 12), (28, 42)])
    assert u == largest_known_3sumfree
    assert [iv.lo for iv in u.intervals] == [F(8, 177), F(28, 177), F(2, 3)]


@pytest.mark.parametrize("call", [
    pytest.param(lambda: is_k_sum_free(parse_union("(1/2,1)"), 3.0), id="float-k"),
    pytest.param(lambda: is_k_sum_free(parse_union("(1/2,1)"), 2.5), id="fractional-float-k"),
])
def test_inexact_numbers_are_rejected_up_front(call):
    """``k`` is an ``int``, even when the float is integral."""
    with pytest.raises(TypeError):
        call()


# Denominators for the kernel-against-oracle test: small ones, the record
# set's coprime 177 and 59, and primes near 10^6, so the common
# denominator of one union can be a product of large coprime factors.
_ORACLE_DENOMS = (1, 2, 3, 5, 8, 12, 24, 59, 177, 999_983, 1_000_003)


def _raw_pairs(rng: random.Random) -> list:
    """Unsorted raw pairs: some overlapping, touching, degenerate or int-valued."""
    points = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if points and roll < 0.2:
            points.append(rng.choice(points))  # shared endpoint: touching or degenerate
        elif roll < 0.35:
            points.append(rng.randint(0, 2))  # a plain int
        else:
            d = rng.choice(_ORACLE_DENOMS)
            points.append(F(rng.randint(0, 2 * d), d))
    pairs = []
    for _ in range(rng.randint(0, 6)):
        if len(points) < 2:
            break
        lo, hi = rng.sample(points, 2)  # either order, so some pairs are degenerate
        pairs.append((lo, hi) if rng.random() < 0.7 else (hi, lo))
    rng.shuffle(pairs)
    return pairs


def _over_lcm(raw: list) -> tuple[int, list[tuple[int, int]]]:
    """Raw ``int`` or ``Fraction`` pairs as numerators over the lcm of their
    denominators: ``(den, numerators)``."""
    den = lcm(*[F(v).denominator for pair in raw for v in pair])
    return den, [(int(lo * den), int(hi * den)) for lo, hi in raw]


def test_integer_kernel_matches_fraction_oracle():
    """The constructor, measure, U+U by sum_windows and is_k_sum_free against plain
    Fraction algebra."""
    rng = random.Random(13)
    raws = [[]] + [_raw_pairs(rng) for _ in range(2400)]
    unions = [IntervalUnion(*_over_lcm(raw)) for raw in raws]
    assert sum(not u.nums for u in unions) > 50
    assert sum(len(raw) > len(u.intervals) > 0 for raw, u in zip(raws, unions)) > 500
    verdicts = set()
    for raw, u in zip(raws, unions):
        ref = canonical_pairs_fraction(raw)
        assert pairs(u) == ref
        assert all(type(p) is Fraction for pair in pairs(u) for p in pair)
        assert u.measure() == measure_fraction(ref)
        assert pairs(_square(u)) == minkowski_sum_fraction(ref, ref)
        for k in range(1, 8):
            free, witness = is_k_sum_free(u, k)
            assert (free, witness and tuple(witness)) == is_k_sum_free_fraction(ref, k)
            verdicts.add((k, free))
    assert verdicts == {(k, free) for k in range(1, 8) for free in (True, False)}


def test_sum_windows_match_minkowski_sum(largest_known_3sumfree):
    """``sum_windows`` over a union's own ``den`` is its Minkowski square."""
    rng = random.Random(14)
    unions = [largest_known_3sumfree] + [rand_union(rng, 6, 64) for _ in range(500)]
    for u in unions:
        assert pairs(_square(u)) == minkowski_sum_fraction(pairs(u), pairs(u))


def _int_pairs(rng: random.Random) -> list[tuple[int, int]]:
    """Up to 8 unsorted integer pairs in [-12, 12], some repeated: degenerate,
    duplicate, nested and touching pairs all occur often."""
    pairs = [(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(rng.randint(0, 8))]
    return pairs + rng.sample(pairs, rng.randint(0, len(pairs)))


def test_merge_matches_the_reference_merge():
    """``_merge`` keeps its open pair in locals; it returns what the list-rebuilding
    merge returns on raw pair lists and on the harness's draws and their sum windows."""
    rng = random.Random(15)
    lists = [_int_pairs(rng) for _ in range(3000)]
    shapes = {
        "degenerate": lambda p: any(lo >= hi for lo, hi in p),
        "duplicate": lambda p: len(set(p)) < len(p),
        "nested": lambda p: any(a != b and a[0] <= b[0] < b[1] <= a[1] for a in p for b in p),
        "touching": lambda p: any(a[0] < a[1] == b[0] < b[1] for a in p for b in p),
        "negative": lambda p: any(v < 0 for pair in p for v in pair),
        "unsorted": lambda p: p != sorted(p),
    }
    assert all(sum(map(shape, lists)) > 200 for shape in shapes.values())
    draws = random.Random(16)
    for trial in range(500):
        drawn = _draw(draws, 1 + trial % 12)
        lists += [drawn, [(alo + blo, ahi + bhi) for i, (alo, ahi) in enumerate(drawn)
                          for blo, bhi in drawn[i:]]]
    for raw in [[]] + lists:
        assert _merge(raw) == merge_reference(raw)


def test_canonicalize_merges_touching():
    u = IntervalUnion(2, [(0, 1), (1, 2)])
    assert pairs(u) == [(F(0), F(1))]


def test_canonicalize_idempotent_on_random_input():
    rng = random.Random(1)
    for _ in range(300):
        u = rand_union(rng)
        assert IntervalUnion(u.den, u.nums) == u
        assert union_fraction(pairs(u)) == u


def test_measure_examples(largest_known_3sumfree):
    assert largest_known_3sumfree.measure() == F(77, 177)
    assert IntervalUnion().measure() == 0
    assert parse_union("(2/3,1)").measure() == F(1, 3)


def test_union_of_record_pieces_has_record_measure(largest_known_3sumfree):
    u = largest_known_3sumfree
    parts = [IntervalUnion(u.den, [p]) for p in u.nums]
    acc = IntervalUnion()
    for part in parts:
        acc = _union(acc, part)
    assert acc.measure() == F(77, 177)


def test_measure_additivity_on_random_pairs():
    rng = random.Random(2)
    for _ in range(300):
        u, v = rand_union(rng), rand_union(rng)
        # the components of each union are disjoint, so the overlap is the sum over pairs
        overlap = sum(max(0, min(b, d) - max(a, c)) for a, b in pairs(u) for c, d in pairs(v))
        lhs = _union(u, v).measure() + overlap
        assert lhs == u.measure() + v.measure()


def test_minkowski_single_interval():
    assert pairs(_square(parse_union("(2/3,1)"))) == [(F(4, 3), F(2))]


def test_minkowski_two_interval_example():
    u = parse_union("(0,1/8);(1/2,5/8)")
    s = _square(u)
    assert pairs(s) == [(F(0), F(1, 4)), (F(1, 2), F(3, 4)), (F(1), F(5, 4))]
    # grid sampler: every pairwise sum of interior grid points lands inside
    for x in _grid_points(u, 40):
        for y in _grid_points(u, 40):
            assert any(lo < x + y < hi for lo, hi in pairs(s))


def _grid_points(u: IntervalUnion, denom: int):
    pts = []
    for iv in u.intervals:
        i = int(iv.lo * denom) + 1
        while F(i, denom) < iv.hi:
            if F(i, denom) > iv.lo:
                pts.append(F(i, denom))
            i += 1
    return pts


def test_minkowski_commutative_and_monotone():
    """U+U by the pairs i <= j is the sum over every ordered pair, in any input
    order (so a + b = b + a), and U subset of U' gives U+U subset of U'+U'."""
    rng = random.Random(4)
    for _ in range(150):
        u = rand_union(rng, 4)
        every = IntervalUnion(
            u.den, [(alo + blo, ahi + bhi) for alo, ahi in u.nums for blo, bhi in u.nums])
        small, large = _square(u), _square(_union(u, rand_union(rng, 2)))
        assert small == every
        assert sum_windows(u.nums[::-1]) == sum_windows(u.nums)
        # each component of U+U lies inside one of U'+U'
        assert all(any(c <= a and b <= d for c, d in pairs(large)) for a, b in pairs(small))


def test_scale_multiplies_measure():
    rng = random.Random(5)
    for _ in range(200):
        u = rand_union(rng)
        q = F(rng.randint(1, 30), rng.randint(1, 30))
        p = q.numerator
        dilated = IntervalUnion(u.den * q.denominator, [(lo * p, hi * p) for lo, hi in u.nums])
        assert dilated.measure() == q * u.measure()


def test_scaled_sumset_stays_in_window(largest_known_3sumfree):
    # (A+A)/3 lies inside [2a/3, 2/3] when A is inside [a, 1]
    u = largest_known_3sumfree
    a = pairs(u)[0][0]
    c = pairs(IntervalUnion(3 * u.den, sum_windows(u.nums)))
    lo, hi = c[0][0], c[-1][1]
    assert lo >= 2 * a / 3 and hi <= F(2, 3)


def test_record_set_is_3_sum_free(largest_known_3sumfree):
    free, witness = is_k_sum_free(largest_known_3sumfree, 3)
    assert free and witness is None
    # its scaled sumset is interior-disjoint from the set itself
    u = largest_known_3sumfree
    c = IntervalUnion(3 * u.den, sum_windows(u.nums))
    assert all(b <= lo or hi <= a for a, b in pairs(c) for lo, hi in pairs(u))


def test_top_half_is_not_3_sum_free_with_valid_witness():
    u = parse_union("(1/2,1)")
    free, w = is_k_sum_free(u, 3)
    assert not free
    assert w.x + w.y == 3 * w.z
    assert all(any(lo < p < hi for lo, hi in pairs(u)) for p in w)


def test_top_half_is_1_sum_free():
    free, _ = is_k_sum_free(parse_union("(1/2,1)"), 1)
    assert free


def test_k_zero_rejected():
    with pytest.raises(ValueError):
        is_k_sum_free(parse_union("(0,1)"), 0)


def test_freeness_is_dilation_invariant():
    rng = random.Random(6)
    for _ in range(150):
        u = rand_union(rng, 4)
        k = rng.randint(1, 5)
        q = F(rng.randint(1, 20), rng.randint(1, 20))
        p = q.numerator
        dilated = IntervalUnion(u.den * q.denominator, [(lo * p, hi * p) for lo, hi in u.nums])
        assert is_k_sum_free(u, k)[0] == is_k_sum_free(dilated, k)[0]


def test_witness_soundness_on_random_unions():
    rng = random.Random(8)
    checked = 0
    for _ in range(400):
        u = rand_union(rng, 4)
        k = rng.randint(1, 4)
        free, w = is_k_sum_free(u, k)
        if not free:
            checked += 1
            assert w.x + w.y == k * w.z
            for point in (w.x, w.y, w.z):
                assert any(lo < point < hi for lo, hi in pairs(u))
    assert checked > 50  # the sample actually exercised failing cases


def test_k2_witness_is_not_the_trivial_triple():
    """For k = 2 the exempt x = y = z is never the witness."""
    rng = random.Random(12)
    unions = [parse_union("(0,1)"), parse_union("(1/3,1/2);(3/4,1)")]
    unions += [rand_union(rng, 4) for _ in range(100)]
    checked = 0
    for u in unions:
        free, w = is_k_sum_free(u, 2)
        if not u.nums:
            continue
        assert not free
        checked += 1
        assert w.x != w.y and w.x + w.y == 2 * w.z
        assert all(any(lo < p < hi for lo, hi in pairs(u)) for p in w)
    assert checked > 50


def test_touching_sumset_is_not_a_violation():
    # scaled sum window of (1/3, 1/2) is (2/9, 1/3): touches the set at 1/3 only
    u = parse_union("(1/3,1/2)")
    free, _ = is_k_sum_free(u, 3)
    assert free


def test_all_outputs_stay_canonical():
    rng = random.Random(9)
    for _ in range(150):
        u, v = rand_union(rng), rand_union(rng)
        for result in (_union(u, v), _square(u),
                       IntervalUnion(2 * u.den, [(3 * lo, 3 * hi) for lo, hi in u.nums])):
            assert union_fraction(pairs(result)) == result
            for first, second in zip(result.intervals, result.intervals[1:]):
                assert first.hi < second.lo  # strictly separated components


@pytest.mark.parametrize("text,pairs", [
    ("(8/177,4/59);(28/177,14/59);(2/3,1)",
     [(F(8, 177), F(4, 59)), (F(28, 177), F(14, 59)), (F(2, 3), F(1))]),
    ("(0,1/2)", [(F(0), F(1, 2))]),
    ("", []),
    ("(1/3,1/3)", []),  # degenerate pair dropped
])
def test_parse_union(text, pairs):
    assert oracles.pairs(parse_union(text)) == pairs


def test_parse_union_round_trips_formatting():
    rng = random.Random(10)
    for _ in range(100):
        u = rand_union(rng)
        assert parse_union(format_union(u)) == u


@pytest.mark.parametrize("text,pos", [
    ("(1/0,1)", 3),
    ("(a,1)", 1),
    ("(1,2);(3;4)", 6),
    ("1,2", 0),
])
def test_parse_union_reports_positions(text, pos):
    err = pytest.raises(RationalParseError, parse_union, text).value
    assert err.pos == pos
    assert str(err).endswith(f" in {text!r}")


def _union_text(rng: random.Random) -> str:
    """Up to 6 intervals in shuffled order, some in (1/2, 1] or (2/3, 1], endpoints
    written reduced, unreduced, as integers or with a moved sign."""
    m = rng.randint(1, 6)
    base = rng.choice((F(0), F(0), F(1, 2), F(2, 3)))
    cuts = sorted(base + (1 - base) * F(rng.randint(0, d), d)
                  for d in (rng.randint(1, 64) for _ in range(2 * m)))
    pairs = list(zip(cuts[0::2], cuts[1::2]))
    rng.shuffle(pairs)

    def write(v):
        roll, s = rng.random(), rng.randint(2, 5)
        if roll < 0.2:
            return f"{v.numerator * s}/{v.denominator * s}"
        if roll < 0.3:
            return f"{-v.numerator}/-{v.denominator}"
        return str(v)

    return ";".join(f"({write(lo)},{write(hi)})" for lo, hi in pairs)


@pytest.mark.parametrize("text", [
    "(1/-2,1)", "(+3/4,1)", "(-0/5,1/2)", "( 1 / 2 , 1 )", "(1_0/40,1)",
    "(0,1);(2,3)", "(-1,0);(1,2)", "(3,1)", "(2/4,4/8)", "(1/3,2/6);(2/6,1/2)",
    "(-1/3,-1/6)", "(2/-3,1/-6)", "(0/7,14/-21);(1,2)", "", "  ",
])
def test_parse_union_matches_the_fraction_path_on_edge_cases(text):
    assert parse_union(text) == parse_union_fraction(text)


def test_parse_union_matches_the_fraction_path_on_seeded_texts():
    """Integer numerators over the lcm of the written denominators, reduced by
    the constructor, give the union that ``Fraction`` endpoints give."""
    rng = random.Random(21)
    texts = [_union_text(rng) for _ in range(2000)]
    assert sum("-" in t for t in texts) > 100
    for text in texts:
        assert parse_union(text) == parse_union_fraction(text)


@pytest.mark.parametrize("text", MALFORMED_UNION_TEXTS)
def test_parse_union_errors_match_the_fraction_path(text):
    ours = pytest.raises(RationalParseError, parse_union, text).value
    ref = pytest.raises(RationalParseError, parse_union_fraction, text).value
    assert (ours.pos, ours.reason, str(ours)) == (ref.pos, ref.reason, str(ref))
