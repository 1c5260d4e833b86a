"""Exact maximum k-sum-free subsets of {1..n}.

The forbidden structures are the triples a + b = k*c inside {1..n}
(taken as element sets, so a triple may involve only two distinct
numbers).  f(n, k) is computed by depth-first branch-and-bound over
elements in decreasing order, with three exact devices:

* unit propagation: once all but one element of a triple are chosen,
  the last is banned for the rest of the subtree, so the chosen set
  never completes a triple (every triple has two or more elements, and
  the ban comes before its last element is decided);
* counting bound: chosen + remaining - (greedy count of triples fully
  inside chosen + remaining whose remaining parts are disjoint), each
  such triple forcing at least one future removal.  The two-element
  triples (``{z, 2z}`` for k = 3) are packed first, since each costs
  two live elements per removal against three.  Each stack entry
  carries ``live``, a bitset over the masks (bit i = ``masks[i]``) that
  meet no dead element: excluding or banning x ANDs ``clears[x]`` (the
  masks not holding x) into it.  ``masks`` is sorted by element count,
  then by value, both decreasing, so the mask the packing takes next
  (the fewest elements, then the lowest value) is the highest set bit
  of ``live``; the packing stops once the bound falls below the
  pruning threshold.  Packing mask i keeps the masks that miss its
  available part, which for a live mask is its elements below
  ``b = avail.bit_length()``; ``_Instance`` tabulates that set once per
  level as ``keeps[b][i]``, so each packed mask costs one lookup and
  one AND;
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
|seed|.

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
        # each mask's elements, keyed by its element count above its value, so
        # that the key order is (bit_count, mask); triples before pairs, each
        # by decreasing value: the cheapest mask, the one the greedy packing
        # takes first, has the highest index
        elements = {}
        for a, b, c in forbidden_triples(n, k):
            elems = {a, b, c}
            elements[len(elems) << (n + 1) | (1 << a) | (1 << b) | (1 << c)] = elems
        order = sorted(elements, reverse=True)
        low = (2 << n) - 1
        self.masks = [key & low for key in order]
        # meets[x]: bit i set when masks[i] holds element x, and holders[x] the
        # indices i themselves; clears[x]: its complement among the mask
        # indices, kept non-negative so that ANDing it into a live set makes no
        # two's-complement copy
        self.meets = [0] * (n + 1)
        holders = [[] for _ in range(n + 1)]
        for i, key in enumerate(order):
            for x in elements[key]:
                self.meets[x] |= 1 << i
                holders[x].append(i)
        full = (1 << len(order)) - 1
        self.clears = [full ^ m for m in self.meets]
        # keeps[b][i]: clears[x] ANDed over the elements x < b of masks[i], the
        # masks that packing masks[i] keeps when avail.bit_length() == b; each
        # row copies the one before it, so the rows share their ints
        row = [full] * len(order)
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
        removals.  The packing takes the highest live index, the cheapest
        live mask, so the two-element masks go first, then keeps only the
        masks that miss its available part, so it drops itself.  A live
        mask's available part is exactly its elements below
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
    masks, meets, clears = inst.masks, inst.meets, inst.clears
    seed = _seed(inst)
    if seed & ~((2 << n) - 2) or any(not tm & ~seed for tm in masks):
        raise AssertionError(f"seed {_bits(seed)} is not a {inst.k}-sum-free subset of 1..{n}")
    # the pruning threshold starts at |seed| in both modes (see the module
    # docstring); f_max needs a strictly larger set, so it starts one below
    best = max(seed.bit_count() - (not enumerate_all), 0)
    best_sets: list[int] = []
    nodes = 0

    # e = highest element not yet decided, chosen/banned element masks, and
    # live = the forbidden masks (by index) that meet no dead element
    stack = [(n, 0, 0, (1 << len(masks)) - 1)]
    while stack:
        if node_limit is not None and nodes >= node_limit:
            raise EnumerationLimitError(f"node limit reached after {nodes} nodes")
        nodes += 1
        e, chosen, banned, live = stack.pop()
        while e >= 1 and (banned >> e) & 1:
            e -= 1
        if e == 0:
            size = chosen.bit_count()
            if size > best:
                best = size
                best_sets = [chosen]
            elif size == best and enumerate_all:
                best_sets.append(chosen)
            continue
        avail = (((1 << (e + 1)) - 1) & ~1) & ~banned
        # f_max needs a strictly larger set; enumeration keeps ties
        threshold = best if enumerate_all else best + 1
        if inst.bound(chosen, avail, live, threshold) < threshold:
            continue
        # exclude-branch first on the stack so the include-branch pops first
        stack.append((e - 1, chosen, banned, live & clears[e]))
        new_chosen = chosen | (1 << e)
        unchosen = ~new_chosen
        new_banned, new_live = banned, live
        # a mask inside new_chosen meets no dead element, so it is live here
        pending = live & meets[e]
        while pending:
            i = pending.bit_length() - 1
            pending ^= 1 << i
            missing = masks[i] & unchosen
            if missing & (missing - 1) == 0:
                if not missing:  # unit propagation banned e before it got here
                    raise AssertionError(f"choosing {e} completes a forbidden triple")
                new_banned |= missing
                new_live &= clears[missing.bit_length() - 1]
        stack.append((e - 1, new_chosen, new_banned, new_live))
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
