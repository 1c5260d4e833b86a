import functools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (
    ScanBound,
    brute_force_extension,
    brute_force_f,
    has_forbidden_triple,
    instance_tables,
    mask_weights,
    pairs,
    triples_double_loop,
)

from sumfree import discrete, maximize_measure
from sumfree.discrete import (
    EnumerationLimitError,
    _Instance,
    _search,
    enumerate_maximum_sets,
    f_max,
    forbidden_triples,
)

# (n, k, enumerate_all) -> nodes explored by the branch-and-bound; any
# change to the bound, the branching order or the seed shows here first
DISCRETE_COUNTERS = {(24, 3, False): 383, (23, 3, True): 281, (30, 3, True): 883,
                     (40, 3, False): 1961, (58, 4, False): 83, (50, 3, False): 4749,
                     (60, 4, False): 83, (45, 3, False): 1639, (59, 4, False): 85,
                     (60, 3, False): 18673}

# k -> (f_max, enumeration) nodes summed over n = 1..40: pins the whole tree
# over a sweep, k = 2 enumeration included, which no bench workload runs
SWEEP_NODES = {1: (4644, 10264), 2: (361376, 819232), 3: (13572, 21604),
               4: (1362, 10692), 5: (1210, 3382), 6: (1228, 1620),
               7: (1286, 1836), 8: (1326, 1678)}


def test_forbidden_triples_examples():
    assert set(forbidden_triples(4, 3)) == {(1, 2, 1), (3, 3, 2), (2, 4, 2)}
    assert forbidden_triples(2, 1) == [(1, 1, 2)]
    assert forbidden_triples(3, 2) == [(1, 3, 2)]  # all-equal excluded


def test_forbidden_triples_complete_and_duplicate_free():
    for n, k in [(12, 1), (12, 2), (12, 3), (9, 4)]:
        triples = forbidden_triples(n, k)
        assert len(triples) == len(set(triples))
        expected = {
            (a, b, c)
            for a in range(1, n + 1)
            for b in range(a, n + 1)
            for c in range(1, n + 1)
            if a + b == k * c and not (k == 2 and a == b == c)
        }
        assert set(triples) == expected


def test_forbidden_triples_match_the_double_loop():
    for n in range(1, 41):
        for k in range(1, 8):
            assert forbidden_triples(n, k) == triples_double_loop(n, k), (n, k)


def test_no_two_triples_share_an_element_set():
    # _Instance counts degrees once per triple, so each mask must come from one
    # triple; a shared set would move node counts only, never a result
    for k in range(1, 9):
        for n in range(1, 61):
            sets = [frozenset(t) for t in forbidden_triples(n, k)]
            assert len(sets) == len(set(sets)), (n, k)


def test_f_against_brute_force_oracle():
    for k in (1, 2, 3, 4):
        for n in range(1, 13):
            value, witness = f_max(n, k)
            assert value == brute_force_f(n, k), (n, k)
            assert len(witness) == value
            assert not has_forbidden_triple(witness, k)


def test_exceptional_small_case():
    # the one n where f(n, 3) != ceil(n/2); value fixed by the oracle
    assert brute_force_f(4, 3) == 3
    assert f_max(4, 3)[0] == 3


def test_ap_free_small_value_from_oracle():
    assert f_max(9, 2)[0] == brute_force_f(9, 2) == 5


def test_halving_laws_up_to_50():
    for n in range(1, 51):
        assert f_max(n, 1)[0] == (n + 1) // 2
        expected = 3 if n == 4 else (n + 1) // 2
        assert f_max(n, 3)[0] == expected


def test_f_monotone_in_n():
    for k in (1, 3):
        prev = 0
        for n in range(1, 26):
            value, _ = f_max(n, k)
            assert value >= prev
            prev = value


def test_witnesses_pass_independent_recheck():
    for n, k in [(23, 3), (30, 1), (17, 4), (15, 2)]:
        value, witness = f_max(n, k)
        assert len(witness) == value
        assert not has_forbidden_triple(witness, k)


@pytest.mark.parametrize("k", range(3, 9))
def test_continuous_witness_read_at_the_integers_is_discrete_sum_free(k):
    """The two solvers agree: ``x + y = kz`` scales by ``n``, so the integers
    ``x`` with ``x/n`` in an open k-sum-free union form a k-sum-free subset
    of ``1..n``, no larger than ``f(n, k)``."""
    result = maximize_measure(4, k)
    assert result.witnesses_exact and len(result.witnesses) == 1
    (witness,) = result.witnesses
    for n in range(10, 61, 10):
        s_n = [x for x in range(1, n + 1)
               if any(lo < Fraction(x, n) < hi for lo, hi in pairs(witness))]
        assert not has_forbidden_triple(s_n, k), (n, s_n)
        assert len(s_n) <= f_max(n, k)[0], (n, s_n)


def test_enumeration_counts_and_sets():
    odd_11 = tuple(range(1, 12, 2))
    top_11 = tuple(range(6, 12))
    assert enumerate_maximum_sets(11, 1) == sorted([odd_11, top_11])

    odd_10 = tuple(range(1, 11, 2))
    assert enumerate_maximum_sets(10, 1) == sorted([
        odd_10, tuple(range(6, 11)), tuple(range(5, 10)),
    ])

    assert enumerate_maximum_sets(23, 3) == [tuple(range(1, 24, 2))]


def test_enumerated_sets_are_all_distinct_maxima():
    sets = enumerate_maximum_sets(12, 1)
    value, _ = f_max(12, 1)
    assert len(sets) == len(set(sets))
    for s in sets:
        assert len(s) == value
        assert not has_forbidden_triple(s, 1)


def test_enumeration_node_limit_is_explicit():
    with pytest.raises(EnumerationLimitError) as err:
        enumerate_maximum_sets(23, 3, node_limit=10)
    assert str(err.value) == "node limit reached after 10 nodes"


def test_f_max_node_limit_is_explicit():
    with pytest.raises(EnumerationLimitError) as err:
        f_max(60, 3, node_limit=10)
    assert str(err.value) == "node limit reached after 10 nodes"
    with pytest.raises(ValueError):
        f_max(10, 3, node_limit=-1)
    # f(45,3) takes 1639 nodes: one fewer stops it, exactly that many is enough
    with pytest.raises(EnumerationLimitError) as err:
        f_max(45, 3, node_limit=1638)
    assert str(err.value) == "node limit reached after 1638 nodes"
    assert f_max(45, 3, node_limit=1639)[0] == 23


def test_seeded_search_equals_the_unseeded_one(monkeypatch):
    def run(n, k, enumerate_all):
        return _search(_Instance(n, k), enumerate_all=enumerate_all, node_limit=None)

    seeded = {(n, k, e): run(n, k, e)
              for k in range(1, 8) for n in range(1, 31) for e in (False, True)}
    monkeypatch.setattr(discrete, "_seed", lambda inst: 0)
    for key, (best, sets, nodes) in seeded.items():
        ref_best, ref_sets, ref_nodes = run(*key)
        assert (best, sets) == (ref_best, ref_sets), key
        assert nodes <= ref_nodes, key


@pytest.mark.parametrize("seed", [[1, 2], [2, 3, 4, 6], [0], [11]],
                         ids=["triple-1-2", "triple-2-4", "element-0", "element-n+1"])
def test_a_bad_seed_is_rejected(monkeypatch, seed):
    monkeypatch.setattr(discrete, "_seed", lambda inst: sum(1 << x for x in seed))
    for enumerate_all in (False, True):
        with pytest.raises(AssertionError):
            _search(_Instance(10, 3), enumerate_all=enumerate_all, node_limit=None)


@pytest.mark.parametrize("n, k, enumerate_all", sorted(DISCRETE_COUNTERS))
def test_discrete_counters(n, k, enumerate_all):
    _, _, nodes = _search(_Instance(n, k), enumerate_all=enumerate_all, node_limit=None)
    assert nodes == DISCRETE_COUNTERS[n, k, enumerate_all]


@functools.cache
def _sweep() -> dict:
    """(n, k, enumerate_all) -> _search's (best, sets, nodes) for n <= 40, k = 1..8."""
    return {(n, k, e): _search(_Instance(n, k), enumerate_all=e, node_limit=None)
            for k in range(1, 9) for n in range(1, 41) for e in (False, True)}


def test_sweep_node_totals():
    for k, totals in SWEEP_NODES.items():
        got = tuple(sum(_sweep()[n, k, e][2] for n in range(1, 41)) for e in (False, True))
        assert got == totals, k


def test_mask_order_is_a_bound_heuristic_only():
    # the tables rebuilt in (element count, value) order, which packs the
    # pairs first, prune differently, yet give the same f and sets in both modes
    for (n, k, e), (best, sets, _) in _sweep().items():
        inst = _Instance(n, k)
        by_count = sorted(inst.masks, key=lambda tm: (tm.bit_count(), tm), reverse=True)
        inst.masks, inst.clears, inst.keeps, inst.firsts, inst.seconds = instance_tables(n, k, by_count)
        assert _search(inst, enumerate_all=e, node_limit=None)[:2] == (best, sets), (n, k, e)


def test_pinned_witnesses_and_enumeration():
    assert f_max(58, 4) == (34, (1, 4, 5, 6, 7) + tuple(range(30, 59)))
    assert f_max(24, 3) == (12, tuple(range(1, 24, 2)))
    assert enumerate_maximum_sets(20, 4) == [(2, 3) + tuple(range(11, 21))]
    # the bench's discrete answers, whose node counts DISCRETE_COUNTERS pins
    assert f_max(45, 3) == (23, tuple(range(1, 46, 2)))
    assert f_max(59, 4) == (35, (1, 4, 5, 6, 7) + tuple(range(30, 60)))
    assert enumerate_maximum_sets(30, 3) == [tuple(range(1, 30, 2))]


def _random_state(rng, n, k):
    """A k-sum-free ``chosen`` inside {e+1..n} and any ``avail`` inside {1..e}."""
    e = rng.randint(0, n)
    chosen: list[int] = []
    for x in rng.sample(range(e + 1, n + 1), n - e):
        if rng.random() < 0.6 and not has_forbidden_triple(chosen + [x], k):
            chosen.append(x)
    avail = [x for x in range(1, e + 1) if rng.random() < 0.7]
    return chosen, avail


def _live(inst, chosen: int, avail: int) -> int:
    """The masks (by index) that meet no element outside chosen | avail, recomputed."""
    dead = ((2 << inst.n) - 2) & ~(chosen | avail)
    return sum(1 << i for i, tm in enumerate(inst.masks) if not tm & dead)


def test_bound_is_sound_against_brute_force():
    rng = random.Random(10)
    for k in (1, 2, 3, 4):
        for n in range(1, 13):
            inst = _Instance(n, k)
            for _ in range(40):
                chosen, avail = _random_state(rng, n, k)
                cm = sum(1 << x for x in chosen)
                am = sum(1 << x for x in avail)
                live = _live(inst, cm, am)
                ub = inst.bound(cm, am, live, 0)
                assert ub >= len(chosen) + brute_force_extension(chosen, avail, k), (n, k, chosen, avail)
                # the threshold only stops the packing early: same prune decision
                for threshold in range(ub + 2):
                    assert (inst.bound(cm, am, live, threshold) < threshold) == (ub < threshold)


def test_bound_equals_the_scan_reference():
    rng = random.Random(15)
    for k in range(1, 8):
        for n in range(1, 31):
            inst, ref = _Instance(n, k), ScanBound(n, k)
            for _ in range(20):
                chosen, avail = _random_state(rng, n, k)
                cm = sum(1 << x for x in chosen)
                am = sum(1 << x for x in avail)
                live = _live(inst, cm, am)
                for threshold in range(cm.bit_count() + am.bit_count() + 3):
                    assert inst.bound(cm, am, live, threshold) == ref.bound(cm, am, threshold), \
                        (n, k, chosen, avail, threshold)


def test_keep_rows_match_their_definition():
    for k in range(1, 8):
        for n in range(1, 31):
            inst = _Instance(n, k)
            full = (1 << len(inst.masks)) - 1
            weights = mask_weights(n, k)
            order = [(weights[tm], tm) for tm in inst.masks]
            assert all(a > b for a, b in zip(order, order[1:])), (n, k)
            # meets[x]: the masks holding x, from the masks' bits
            meets = [sum(1 << i for i, tm in enumerate(inst.masks) if tm >> x & 1) for x in range(n + 1)]
            assert inst.clears == [full ^ m for m in meets]
            assert len(inst.keeps) == n + 2
            assert inst.keeps[0] == inst.keeps[1] == [full] * len(inst.masks)
            for b, row in enumerate(inst.keeps):
                for i, tm in enumerate(inst.masks):
                    dropped = 0
                    for x in range(1, b):
                        if tm >> x & 1:
                            dropped |= meets[x]
                    assert row[i] == full ^ dropped, (n, k, b, i)
            # an empty avail leaves no mask to pack: the bound is |chosen|
            chosen = sum(1 << x for x in range(1, n + 1, 2)) if k % 2 else 0
            for t in range(chosen.bit_count() + 2):
                assert inst.bound(chosen, 0, 0, t) == chosen.bit_count()


def test_instance_tables_equal_the_reference_builder():
    # the build from each mask's element list gives the tables the direct
    # build from the masks' bits gives, so every node count stays the same
    for k in range(1, 8):
        for n in range(1, 41):
            inst = _Instance(n, k)
            tables = (inst.masks, inst.clears, inst.keeps, inst.firsts, inst.seconds)
            assert tables == instance_tables(n, k), (n, k)
            # each mask has one lowest and one second-lowest element, in that order
            for i in range(len(inst.masks)):
                lows = [x for x, m in enumerate(inst.firsts) if m >> i & 1]
                seconds = [y for y, m in enumerate(inst.seconds) if m >> i & 1]
                assert len(lows) == len(seconds) == 1 and lows[0] < seconds[0], (n, k, i)


def test_keep_rows_share_their_ints():
    # row b copies row b - 1 and ANDs clears[b - 1] into the masks holding
    # b - 1 only; a table that rebuilt every entry would hold n + 2 times the ints
    for k in range(1, 8):
        for n in range(1, 31):
            inst = _Instance(n, k)
            for b in range(1, n + 2):
                for i, tm in enumerate(inst.masks):
                    if not tm >> (b - 1) & 1:
                        assert inst.keeps[b][i] is inst.keeps[b - 1][i], (n, k, b, i)


def test_carried_live_matches_a_recomputed_one(monkeypatch):
    calls = 0
    bound = _Instance.bound

    def checked(inst, chosen, avail, live, threshold):
        nonlocal calls
        calls += 1
        assert live == _live(inst, chosen, avail), (inst.n, chosen, avail)
        # the node state bound() assumes: avail is disjoint from chosen, inside
        # {1..n}, and below the lowest chosen element
        assert chosen & avail == 0, (inst.n, chosen, avail)
        assert avail & ~((2 << inst.n) - 2) == 0, (inst.n, avail)
        assert not chosen or avail < (chosen & -chosen), (inst.n, chosen, avail)
        return bound(inst, chosen, avail, live, threshold)

    monkeypatch.setattr(_Instance, "bound", checked)
    assert f_max(24, 3)[0] == 12
    assert f_max(30, 3)[0] == 15
    assert enumerate_maximum_sets(23, 3) == [tuple(range(1, 24, 2))]
    assert enumerate_maximum_sets(20, 4) == [(2, 3) + tuple(range(11, 21))]
    for k in range(1, 8):
        f_max(12, k)
    assert calls > 1000


def test_propagation_is_sound_and_complete_at_every_bounded_node(monkeypatch):
    # at each bounded node no mask lies inside chosen (sound), and none is
    # one available element short of it (complete: that element was banned)
    calls = 0
    bound = _Instance.bound

    def checked(inst, chosen, avail, live, threshold):
        nonlocal calls
        calls += 1
        for tm in inst.masks:
            rest = tm & ~chosen
            assert rest, (inst.n, inst.k, chosen, tm)
            assert rest & (rest - 1) or not rest & avail, (inst.n, inst.k, chosen, avail, tm)
        return bound(inst, chosen, avail, live, threshold)

    monkeypatch.setattr(_Instance, "bound", checked)
    for k in range(1, 8):
        for n in range(1, 25):
            for enumerate_all in (False, True):
                _search(_Instance(n, k), enumerate_all=enumerate_all, node_limit=None)
    assert calls > 1000


def test_bad_instance_parameters():
    with pytest.raises(ValueError):
        forbidden_triples(0, 1)
    with pytest.raises(ValueError):
        forbidden_triples(5, 0)
