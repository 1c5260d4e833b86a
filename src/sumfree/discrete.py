"""Exact maximum k-sum-free subsets of {1..n}.

The forbidden structures are the triples a + b = k*c inside {1..n}
(taken as element sets, so a triple may involve only two distinct
numbers).  f(n, k) is computed by depth-first branch-and-bound over
elements in decreasing order, with three exact pruning devices:

* membership check: an element is added only if it completes no triple
  against the chosen set;
* unit propagation: once two elements of a triple are chosen, the third
  is banned for the rest of the subtree;
* counting bound: chosen + remaining - (greedy count of element-disjoint
  triples that are already fully inside chosen + remaining), each such
  triple forcing at least one future removal.

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

from math import floor

from .intervals import IntervalUnion, is_k_sum_free


class EnumerationLimitError(RuntimeError):
    """Node limit hit before the search tree was exhausted.

    ``partial`` holds the best sets found so far, ``nodes`` the nodes explored.
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
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    out = []
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            s = a + b
            if s % k == 0:
                c = s // k
                if 1 <= c <= n and not (k == 2 and a == b == c):
                    out.append((a, b, c))
    return out


class _Instance:
    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        triples = forbidden_triples(n, k)
        self.masks = sorted({(1 << a) | (1 << b) | (1 << c) for a, b, c in triples})
        self.by_elem: list[list[int]] = [[] for _ in range(n + 1)]
        for tm in self.masks:
            m = tm
            while m:
                low = m & -m
                self.by_elem[low.bit_length() - 1].append(tm)
                m ^= low

    def bound(self, chosen: int, avail: int) -> int:
        """chosen size + available size - greedy disjoint forced removals."""
        ub = chosen.bit_count() + avail.bit_count()
        live = chosen | avail
        used = 0
        for tm in self.masks:
            if tm & ~live:
                continue
            inside = tm & avail
            if inside and not inside & used:
                used |= inside
                ub -= 1
        return ub


def _search(inst: _Instance, *, enumerate_all: bool, node_limit: int | None):
    """Shared B&B core; returns (best_size, sets).

    Raises ``EnumerationLimitError`` once ``node_limit`` nodes are explored
    before the tree is exhausted, and ``ValueError`` on a negative limit.
    """
    if node_limit is not None and node_limit < 0:
        raise ValueError(f"node_limit must be >= 0, got {node_limit}")
    n = inst.n
    by_elem = inst.by_elem
    best = 0
    best_sets: list[int] = []
    nodes = 0
    exhausted = True

    # chosen/banned masks plus e = highest element not yet decided
    stack = [(n, 0, 0)]
    while stack:
        if node_limit is not None and nodes >= node_limit:
            exhausted = False
            break
        nodes += 1
        e, chosen, banned = stack.pop()
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
        ub = inst.bound(chosen, avail)
        if ub < best or (ub == best and not enumerate_all):
            continue
        # exclude-branch first on the stack so the include-branch pops first
        stack.append((e - 1, chosen, banned))
        can_add = True
        bit = 1 << e
        for tm in by_elem[e]:
            if tm & ~chosen == bit:
                can_add = False
                break
        if can_add:
            new_chosen = chosen | bit
            new_banned = banned
            for tm in by_elem[e]:
                missing = tm & ~new_chosen
                if missing and missing & (missing - 1) == 0:
                    new_banned |= missing
            stack.append((e - 1, new_chosen, new_banned))
    sets = sorted(tuple(_bits(mask)) for mask in best_sets if mask.bit_count() == best)
    if not exhausted:
        raise EnumerationLimitError(sets, nodes)
    return best, sets


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
    best, sets = _search(_Instance(n, k), enumerate_all=False, node_limit=node_limit)
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
    free, witness = is_k_sum_free(u, k)
    if not free:
        raise ValueError(f"input union is not {k}-sum-free (witness {witness})")
    points: list[int] = []
    for iv in u.intervals:
        first = floor(iv.lo * n) + 1  # smallest integer strictly above lo*n
        last = floor(iv.hi * n)       # hi*n itself is included when integral
        for i in range(max(first, 1), min(last, n) + 1):
            points.append(i)
    return tuple(sorted(set(points)))
