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
  two live elements per removal against three.  Each stack entry carries
  ``live``, a bitset over the masks (bit i = mask i) that meet no dead
  element: excluding or banning x clears ``meets[x]`` from it, so the
  packing walks only the set bits of ``live`` and stops once the bound
  falls below the pruning threshold.  Packing mask i drops the masks
  that meet its available part, which for a live mask is its elements
  below ``b = avail.bit_length()``; ``_Instance`` tabulates that set once
  per level as ``drops[b][i]``, so each packed mask costs one lookup;
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
|seed|.  A search stopped by its node limit before it met a set as large
as the seed reports the seed as its partial result.

Sets are bitmasks (bit i = element i), so all of the above are a few
integer operations per triple.  Enumeration of *all* maximum sets runs
the same tree with strict pruning only; its output order is made
deterministic by sorting.  ``discretize`` turns a continuous k-sum-free
interval union into a certified discrete set: it takes the lattice
points i with i/n in a half-open component (lo, hi], which is sound
because an exact solution i + j = k*l there would perturb downward to a
solution inside the open union.
"""

from __future__ import annotations

from .intervals import IntervalUnion, is_k_sum_free
from .rationals import require_int


class EnumerationLimitError(RuntimeError):
    """Node limit hit before the search tree was exhausted.

    ``partial`` holds the best sets found so far (the seed, when none found is
    as large), ``nodes`` the nodes explored.
    """

    def __init__(self, partial: list[tuple[int, ...]], nodes: int):
        self.partial = partial
        self.nodes = nodes
        super().__init__(f"node limit reached after {nodes} nodes; partial result")


def forbidden_triples(n: int, k: int) -> list[tuple[int, int, int]]:
    """All (a, b, c) with a <= b, a + b = k*c in {1..n}.

    For k = 2 the all-equal triple is excluded as trivial; for any other
    k it cannot occur.
    """
    if require_int(n, "n") < 1 or require_int(k, "k") < 1:
        raise ValueError("n and k must be positive")
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
        triples = forbidden_triples(n, k)
        # pairs before triples: the greedy packing takes the cheaper masks first
        self.masks = sorted({(1 << a) | (1 << b) | (1 << c) for a, b, c in triples},
                            key=lambda tm: (tm.bit_count(), tm))
        # meets[x]: bit i set when masks[i] holds element x
        self.meets = [0] * (n + 1)
        for i, tm in enumerate(self.masks):
            for x in _bits(tm):
                self.meets[x] |= 1 << i
        # drops[b][i]: meets[x] ORed over the elements x < b of masks[i], the
        # masks that packing masks[i] drops when avail.bit_length() == b; each
        # row copies the one before it, so the rows share their ints
        row = [0] * len(self.masks)
        self.drops = [row, row]
        for x in range(1, n + 1):
            row = row.copy()
            for i in _bits(self.meets[x]):
                row[i] |= self.meets[x]
            self.drops.append(row)

    def bound(self, chosen: int, avail: int, live: int, threshold: int) -> int:
        """chosen size + available size - greedy disjoint forced removals.

        ``chosen`` is k-sum-free and lies above every element of ``avail``;
        ``live`` holds the masks (by index) that meet no dead element, one
        that is neither chosen nor available.  Each such mask forces one
        removal from its available part (it has one, as ``chosen`` is
        sum-free); masks whose available parts are disjoint force distinct
        removals.  The packing takes the lowest live mask, so the
        two-element masks go first, then drops every mask meeting its
        available part, itself included.  A live mask's available part is
        exactly its elements below ``b = avail.bit_length()`` (those above
        are chosen), so the masks to drop are the table entry
        ``drops[b][i]``.  It stops as soon as the bound falls below
        ``threshold`` (0 packs every live mask).
        """
        ub = chosen.bit_count() + avail.bit_count()
        if ub < threshold:
            return ub
        drop = self.drops[avail.bit_length()]
        while live:
            ub -= 1
            if ub < threshold:
                break
            live &= ~drop[(live & -live).bit_length() - 1]
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
    if node_limit is not None and require_int(node_limit, "node_limit") < 0:
        raise ValueError(f"node_limit must be >= 0, got {node_limit}")
    n = inst.n
    masks, meets = inst.masks, inst.meets
    seed = _seed(inst)
    if seed & ~((2 << n) - 2) or any(not tm & ~seed for tm in masks):
        raise AssertionError(f"seed {_bits(seed)} is not a {inst.k}-sum-free subset of 1..{n}")
    # the pruning threshold starts at |seed| in both modes (see the module
    # docstring); f_max needs a strictly larger set, so it starts one below
    best = max(seed.bit_count() - (not enumerate_all), 0)
    best_sets: list[int] = []
    nodes = 0
    exhausted = True

    # e = highest element not yet decided, chosen/banned element masks, and
    # live = the forbidden masks (by index) that meet no dead element
    stack = [(n, 0, 0, (1 << len(masks)) - 1)]
    while stack:
        if node_limit is not None and nodes >= node_limit:
            exhausted = False
            break
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
        stack.append((e - 1, chosen, banned, live & ~meets[e]))
        new_chosen = chosen | (1 << e)
        new_banned, new_live = banned, live
        # a mask inside new_chosen meets no dead element, so it is live here
        pending = live & meets[e]
        while pending:
            low = pending & -pending
            pending ^= low
            missing = masks[low.bit_length() - 1] & ~new_chosen
            if missing & (missing - 1) == 0:
                if not missing:  # unit propagation banned e before it got here
                    raise AssertionError(f"choosing {e} completes a forbidden triple")
                new_banned |= missing
                new_live &= ~meets[missing.bit_length() - 1]
        stack.append((e - 1, new_chosen, new_banned, new_live))
    sets = sorted(tuple(_bits(mask)) for mask in best_sets if mask.bit_count() == best)
    if not exhausted:
        raise EnumerationLimitError(sets or ([tuple(_bits(seed))] if seed else []), nodes)
    return best, sets, nodes


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
    return best, sets[0] if sets else ()


def enumerate_maximum_sets(n: int, k: int, node_limit: int | None = None) -> list[tuple[int, ...]]:
    """All maximum-cardinality k-sum-free subsets, lexicographically sorted.

    A search stopped by ``node_limit`` raises ``EnumerationLimitError``.
    """
    return _search(_Instance(n, k), enumerate_all=True, node_limit=node_limit)[1]


def discretize(u: IntervalUnion, n: int, k: int) -> tuple[int, ...]:
    """Lattice points {i : i/n in (lo, hi] for a component of u}.

    Requires u to be k-sum-free; the result is then guaranteed k-sum-free
    (a solution i + j = k*l would shift down by a small epsilon into the
    open set), so it is a valid lower-bound certificate for f(n, k).
    """
    if require_int(n, "n") < 1:
        raise ValueError(f"n must be positive, got {n}")
    free, witness = is_k_sum_free(u, k)
    if not free:
        raise ValueError(f"input union is not {k}-sum-free (witness {witness})")
    # the components are sorted and never touch, so their lattice ranges
    # (lo*n, hi*n] are disjoint and increasing
    points: list[int] = []
    for lo, hi in u.nums:
        first = lo * n // u.den + 1  # smallest integer strictly above lo*n/den
        last = hi * n // u.den       # hi*n/den itself is included when integral
        points.extend(range(max(first, 1), min(last, n) + 1))
    return tuple(points)
