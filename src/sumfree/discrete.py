"""Exact maximum k-sum-free subsets of {1..n}.

The forbidden structures are the triples a + b = k*c inside {1..n}
(taken as element sets, so a triple may involve only two distinct
numbers).  f(n, k) is computed by depth-first branch-and-bound over
elements in decreasing order.  A node is ``(chosen, avail, live)``: the
chosen elements, the undecided ones not banned, and the live masks
(below); it decides e, the highest element of ``avail``, and is a leaf
once ``avail`` is 0.  Three exact devices:

* unit propagation: a live mask meets no dead element, so at element e
  its elements above e are chosen and those below e available.  Choosing
  e thus leaves a live mask one element short exactly when e is its
  second-lowest element (``seconds[e]``), and the include child bans its
  lowest: clears it from ``avail``.  So the chosen set never completes a
  triple: a live mask whose lowest element is e (``firsts[e]``) would be
  one, and the ban came before e was decided;
* counting bound: chosen + remaining - (greedy count of triples fully
  inside chosen + remaining whose remaining parts are disjoint), each
  such triple forcing at least one future removal.  ``live`` is a bitset
  over the masks (bit i = ``masks[i]``) that meet no dead element:
  excluding or banning x ANDs ``clears[x]`` (the masks not holding x)
  into it.  The bound is sound for any packing order; the order decides
  only how many masks the greedy packs.  It follows the min-degree rule
  for greedy packing (Halldorsson and Radhakrishnan, Algorithmica 18,
  1997): a mask's weight is the sum of its elements' degrees, the number
  of masks holding each, counted once per instance, and ``masks`` is
  sorted by weight, then by value, both decreasing.  So the mask the
  packing takes next, the lightest (its elements lie in the fewest other
  masks), then the lowest value, is the highest set bit of ``live``;
  the packing stops once the bound falls below the pruning threshold.
  Packing mask i keeps the masks that miss its available part, which for
  a live mask is its elements below ``b = avail.bit_length()``;
  ``_Instance`` tabulates that set once per level as ``keeps[b][i]``, so
  each packed mask costs one lookup and one AND;
* seeded incumbent: ``_seed`` gives a known k-sum-free set (the odd
  numbers for odd k, since x + y is even and k*z odd), checked against
  the forbidden masks, and the pruning threshold starts at its size.

The seed cannot change a witness or an enumerated list.  f >= |seed|
and the bound is sound, so a node whose subtree holds a set of size f
has a bound of at least f, which is at least the threshold until that
set is found: the first maximum set in DFS order is still the first one
reached, and every maximum set is still enumerated.  That is why f_max
starts from |seed| - 1 and not |seed|: a strict threshold of |seed|
would prune the path to the first maximum set when f = |seed|, and the
witness would become the seed.  Enumeration keeps ties, so it starts at
|seed|.  The same argument holds for any mask order: it moves node
counts only, never a witness or an enumerated list.

Sets are bitmasks (bit i = element i), so all of the above are a few
integer operations per triple.  Enumeration of *all* maximum sets runs
the same tree with strict pruning only; its output order is made
deterministic by sorting.
"""

from __future__ import annotations

from .rationals import require_int


class EnumerationLimitError(RuntimeError):
    """Node limit hit before the search tree was exhausted."""


def forbidden_triples(n: int, k: int) -> list[tuple[int, int, int]]:
    """All (a, b, c) with a <= b, a + b = k*c in {1..n}.

    For k = 2 the all-equal triple is excluded as trivial; for any other
    k it cannot occur.
    """
    require_int(n, "n", 1)
    require_int(k, "k", 1)
    out = []
    for a in range(1, n + 1):
        # b runs over a + b = 0 (mod k), from the first b >= a up to c = n
        for b in range(a + (-2 * a) % k, min(n, k * n - a) + 1, k):
            c = (a + b) // k
            if not (k == 2 and a == b == c):
                out.append((a, b, c))
    return out


class _Instance:
    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        # each mask's elements; a mask's weight is its elements' degree sum,
        # the degree of x the number of masks holding x, one per triple, as no
        # two triples share an element set.  The masks are sorted by the key
        # weight << (n + 1) | mask, decreasing: the lightest mask, the lowest
        # value among ties, the one the greedy packing takes first, comes last
        elements, degree = {}, [0] * (n + 1)
        for a, b, c in forbidden_triples(n, k):
            elements[(1 << a) | (1 << b) | (1 << c)] = elems = {a, b, c}
            for x in elems:
                degree[x] += 1
        self.masks = [key & ((2 << n) - 1) for key in sorted(
            [sum(map(degree.__getitem__, elems)) << (n + 1) | tm for tm, elems in elements.items()],
            reverse=True)]
        # meets[x]: bit i set when masks[i] holds element x, and holders[x] the
        # indices i themselves; clears[x]: its complement among the mask
        # indices, kept non-negative so that ANDing it into a live set makes no
        # two's-complement copy
        meets = [0] * (n + 1)
        holders = [[] for _ in range(n + 1)]
        for i, tm in enumerate(self.masks):
            for x in elements[tm]:
                meets[x] |= 1 << i
                holders[x].append(i)
        full = (1 << len(self.masks)) - 1
        self.clears = [full ^ m for m in meets]
        # firsts[x], seconds[x]: the masks whose lowest, second-lowest element
        # is x, from prefix ORs of the masks with one, two elements below x
        self.firsts, self.seconds = [0] * (n + 1), [0] * (n + 1)
        one = two = 0
        for x, meet in enumerate(meets):
            self.firsts[x], self.seconds[x] = meet & ~one, meet & one & ~two
            two |= meet & one
            one |= meet
        # keeps[b][i]: clears[x] ANDed over the elements x < b of masks[i], the
        # masks that packing masks[i] keeps when avail.bit_length() == b; each
        # row copies the one before it, so the rows share their ints
        row = [full] * len(self.masks)
        self.keeps = [row, row]
        for x in range(1, n + 1):
            row = row.copy()
            clear = self.clears[x]
            for i in holders[x]:
                row[i] &= clear
            self.keeps.append(row)

    def bound(self, chosen: int, avail: int, live: int, threshold: int) -> int:
        """chosen size + available size - greedy disjoint forced removals.

        ``chosen`` is k-sum-free and lies above every element of ``avail``;
        ``live`` holds the masks (by index) that meet no dead element, one
        that is neither chosen nor available.  Each such mask forces one
        removal from its available part (it has one, as ``chosen`` is
        sum-free); masks whose available parts are disjoint force distinct
        removals.  The packing takes the highest live index, the lightest
        live mask (see the module docstring), then keeps only the masks
        that miss its available part, so it drops itself.  A live mask's
        available part is exactly its elements below
        ``b = avail.bit_length()`` (those above are chosen), so the masks
        it keeps are the table entry ``keeps[b][i]``.  It stops as soon as
        the bound falls below ``threshold`` (0 packs every live mask).
        """
        ub = chosen.bit_count() + avail.bit_count()
        if ub < threshold:
            return ub
        keep = self.keeps[avail.bit_length()]
        while live:
            ub -= 1
            if ub < threshold:
                break
            live &= keep[live.bit_length() - 1]
        return ub


def _seed(inst: _Instance) -> int:
    """Bitmask of a known k-sum-free subset of {1..n}: the odd numbers for
    odd k (x + y is even, k*z odd), else the empty set."""
    return sum(1 << x for x in range(1, inst.n + 1, 2)) if inst.k % 2 else 0


def _search(inst: _Instance, *, enumerate_all: bool, node_limit: int | None):
    """Shared B&B core; returns (best_size, sets, nodes).

    Raises ``EnumerationLimitError`` once ``node_limit`` nodes are explored
    before the tree is exhausted, and ``ValueError`` on a negative limit.
    """
    if node_limit is not None:
        require_int(node_limit, "node_limit", 0)
    n = inst.n
    masks, clears, firsts, seconds = inst.masks, inst.clears, inst.firsts, inst.seconds
    seed = _seed(inst)
    if seed & ~((2 << n) - 2) or any(not tm & ~seed for tm in masks):
        raise AssertionError(f"seed {_bits(seed)} is not a {inst.k}-sum-free subset of 1..{n}")
    # the pruning threshold starts at |seed| in both modes (see the module
    # docstring); f_max needs a strictly larger set, so it starts one below
    best = max(seed.bit_count() - (not enumerate_all), 0)
    best_sets: list[int] = []
    nodes = 0

    # a node is (chosen, avail, live), as in the module docstring; e = max(avail)
    stack = [(0, (2 << n) - 2, (1 << len(masks)) - 1)]
    while stack:
        if node_limit is not None and nodes >= node_limit:
            raise EnumerationLimitError(f"node limit reached after {nodes} nodes")
        nodes += 1
        chosen, avail, live = stack.pop()
        if not avail:
            size = chosen.bit_count()
            if size > best:
                best = size
                best_sets = [chosen]
            elif size == best and enumerate_all:
                best_sets.append(chosen)
            continue
        # f_max needs a strictly larger set; enumeration keeps ties
        threshold = best if enumerate_all else best + 1
        if inst.bound(chosen, avail, live, threshold) < threshold:
            continue
        e = avail.bit_length() - 1
        avail ^= 1 << e
        # exclude-branch first on the stack so the include-branch pops first
        stack.append((chosen, avail, live & clears[e]))
        if live & firsts[e]:  # a live mask inside chosen | e: its ban never came
            raise AssertionError(f"choosing {e} completes a forbidden triple")
        pending = live & seconds[e]
        while pending:
            i = pending.bit_length() - 1
            pending ^= 1 << i
            missing = masks[i] & -masks[i]  # its lowest element: e is its second-lowest
            avail &= ~missing  # not ^=: two pending masks may share their lowest
            live &= clears[missing.bit_length() - 1]
        stack.append((chosen | (1 << e), avail, live))
    return best, sorted(tuple(_bits(mask)) for mask in best_sets), nodes


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def f_max(n: int, k: int, node_limit: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Maximum size of a k-sum-free subset of {1..n}, with one witness.

    A search stopped by ``node_limit`` raises ``EnumerationLimitError``.
    """
    best, sets, _ = _search(_Instance(n, k), enumerate_all=False, node_limit=node_limit)
    return best, sets[0]


def enumerate_maximum_sets(n: int, k: int, node_limit: int | None = None) -> list[tuple[int, ...]]:
    """All maximum-cardinality k-sum-free subsets, lexicographically sorted.

    A search stopped by ``node_limit`` raises ``EnumerationLimitError``.
    """
    return _search(_Instance(n, k), enumerate_all=True, node_limit=node_limit)[1]
