"""Global maximization of the measure of a k-sum-free union of intervals.

A candidate set is a configuration of m open intervals in [0, 1] given by
an ordered endpoint chain l1 <= r1 <= l2 <= ... <= lm <= rm.  The set is
k-sum-free exactly when, for every component pair (i, j) and every target
component t, the open sum window (l_i+l_j, r_i+r_j) stays off k*(l_t, r_t):
entirely left (r_i + r_j <= k*l_t) or entirely right (l_i + l_j >= k*r_t).
Each such either/or is a disjunctive constraint, linear once a side is
chosen, so the problem is solved by branch-and-bound over exact LP
relaxations: solve the LP with the resolved rows only, and if the optimal
configuration still has a positively overlapping unresolved window, branch
it LEFT/RIGHT; otherwise the vertex is feasible and fathoms the node.

The two-sided split covers every configuration whose intervals all have
positive length (for such, non-overlap really is left-or-right), so the
search runs once per interval count m' = 1..m and takes the best;
incumbents from small m' prune the larger trees.  No choice set is
reached twice: two nodes part where one holds L(e) and the other R(e),
and an entry is never branched on once resolved.

Only the root of each run (the empty pattern, one per m') builds and
solves its LP from scratch.  Every other node, including each node a
parallel run hands to a worker, is its parent plus one choice row, so it
is reoptimized from the parent's optimal tableau by a few dual simplex
pivots; a fathomed leaf walks its optimal face from that same tableau.

With ``all_optima`` the search additionally walks every basis of each
fathomed node's optimal face (zero-reduced-cost pivots), proving
uniqueness claims instead of merely returning one maximizer.  The branch
rule judges every basis on its integer numerators: one with no
positively overlapping window is k-sum-free.  Only the fathomed vertex
itself is checked again, by the independent ``intervals.is_k_sum_free``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .intervals import IntervalUnion, is_k_sum_free
from . import lp as lp_mod
from .lp import LinearProgram

LEFT = "L"
RIGHT = "R"

PROVEN = "proven"
INTERRUPTED = "interrupted"

Choice = tuple[str, int, int, int]  # side, i, j, t


@dataclass(frozen=True)
class Configuration:
    """Endpoint chain of m possibly-degenerate intervals in [0, 1]."""

    m: int
    endpoints: tuple[Fraction, ...]  # l1, r1, l2, r2, ...

    def __post_init__(self):
        if len(self.endpoints) != 2 * self.m:
            raise ValueError("endpoint count != 2m")
        prev = Fraction(0)
        for x in self.endpoints:
            if x < prev:
                raise ValueError("endpoint chain is not nondecreasing")
            prev = x
        if prev > 1:
            raise ValueError("endpoints must lie in [0, 1]")

    def to_union(self) -> IntervalUnion:
        """Drop vanished intervals and canonicalize."""
        e = self.endpoints
        return IntervalUnion.from_pairs([(e[2 * i], e[2 * i + 1]) for i in range(self.m)])


@dataclass(frozen=True)
class DisjunctionPattern:
    """Resolved LEFT/RIGHT choices per (pair, target); absent = unresolved."""

    m: int
    choices: frozenset[Choice] = frozenset()

    def resolve(self, side: str, i: int, j: int, t: int) -> "DisjunctionPattern":
        if side not in (LEFT, RIGHT):
            raise ValueError(f"bad side {side!r}")
        if not (0 <= i <= j < self.m and 0 <= t < self.m):
            raise ValueError(f"bad entry ({i},{j},{t}) for m={self.m}")
        return DisjunctionPattern(self.m, self.choices | {(side, i, j, t)})

    def is_resolved(self, i: int, j: int, t: int) -> bool:
        return (LEFT, i, j, t) in self.choices or (RIGHT, i, j, t) in self.choices


@dataclass(frozen=True)
class SearchResult:
    optimum: Fraction
    witnesses: tuple[IntervalUnion, ...]
    nodes_explored: int
    status: str
    # True when the witness list is provably the complete set of maximizers
    # (every basis of each contributing optimal face was sum-free, and each
    # face gave one union).
    witnesses_exact: bool = True
    lp_pivots: int = 0


def mu_formula(k: int) -> Fraction:
    """Closed form for the maximal k-sum-free measure, valid for k >= 4."""
    if k < 4:
        raise ValueError(f"the closed form is only asserted for k >= 4, got {k}")
    main = Fraction(k * (k - 2), k * k - 2)
    corr = Fraction(8 * (k - 2), k * (k * k - 2) * (k**4 - 2 * k * k - 4))
    return main + corr


def _choice_row(m: int, k: int, choice: Choice) -> list[int]:
    """Coefficients over (l1, r1, ..., lm, rm) of a choice as a ``<= 0`` row."""
    side, i, j, t = choice
    row = [0] * (2 * m)
    if side == LEFT:  # r_i + r_j <= k l_t
        row[2 * i + 1] += 1
        row[2 * j + 1] += 1
        row[2 * t] -= k
    else:  # l_i + l_j >= k r_t
        row[2 * i] -= 1
        row[2 * j] -= 1
        row[2 * t + 1] += k
    return row


def build_pattern_lp(m: int, k: int, pattern: DisjunctionPattern) -> LinearProgram:
    """LP relaxation: maximize total length under chain, box and resolved rows.

    Variables are (l1, r1, ..., lm, rm) in [0, 1].  All rows are
    non-strict: touching windows are legal under the open-interval
    convention, so no epsilons.
    """
    if pattern.m != m:
        raise ValueError("pattern built for a different m")
    rows = []
    for x in range(2 * m - 1):  # l_i <= r_i, and r_i <= l_{i+1}
        row = [0] * (2 * m)
        row[x], row[x + 1] = 1, -1
        rows.append(tuple(row))
    rows += [tuple(_choice_row(m, k, choice)) for choice in sorted(pattern.choices)]
    return LinearProgram(objective=(-1, 1) * m, rows=tuple(rows))


def _pick_branch(v: Sequence, m: int, k: int,
                 choices: frozenset[Choice]) -> Choice | None:
    """Unresolved entry with the largest positive sum-window overlap.

    The search passes ``v`` as ``Tableau.vertex_numerators``, integers
    over the positive ``den``.  Any exact numbers over one positive scale
    give the same choice: the scale multiplies every overlap alike, as
    does the (A+A)-scale (a constant k versus the z-scale), so the argmax
    is the exact vertex's; ties go to the lowest (i, j, t).  Entries whose
    pair or target interval is degenerate at the vertex are skipped: they
    witness nothing about the actual point set.  With no choices resolved,
    ``None`` says that the configuration is k-sum-free.
    """
    resolved = {choice[1:] for choice in choices}
    live = [(i, v[2 * i], v[2 * i + 1]) for i in range(m) if v[2 * i] != v[2 * i + 1]]
    targets = [(t, k * lt, k * rt) for t, lt, rt in live]
    best_ov = 0
    best = None
    for a, (i, li, ri) in enumerate(live):
        for j, lj, rj in live[a:]:
            slo, shi = li + lj, ri + rj
            for t, klt, krt in targets:
                ov = min(shi, krt) - max(slo, klt)
                if ov > best_ov and (i, j, t) not in resolved:
                    best_ov = ov
                    best = (i, j, t)
    return best


@dataclass
class _RunState:
    k: int
    all_optima: bool
    node_limit: int | None
    best: Fraction = Fraction(0)
    witnesses: set = field(default_factory=set)
    witnesses_exact: bool = True
    nodes: int = 0
    pivots: int = 0
    interrupted: bool = False

    def offer(self, value: Fraction, unions: set, exact: bool) -> None:
        """Take ``unions`` of measure ``value`` as candidate maximizers.

        A higher value replaces the incumbent; an equal one adds its
        unions, and ``exact`` says whether they are all of its maximizers.
        """
        if value > self.best:
            self.best = value
            self.witnesses = set()
            self.witnesses_exact = True
        if value == self.best:
            self.witnesses |= unions
            self.witnesses_exact &= exact


def _record_leaf(state: _RunState, m: int, tab: lp_mod.Tableau) -> None:
    """Offer the fathomed basis ``tab``, or with all optima its whole face.

    ``is_k_sum_free`` checks the fathomed vertex again.  The branch rule
    judges each basis on its numerators, and the free ones give unions:
    all the maximizers when every basis is free and they give one union
    (as ``tab`` alone does, since a resolved row forbids positive overlap).
    """
    union = Configuration(m, tab.vertex).to_union()
    if not is_k_sum_free(union, state.k)[0]:
        raise AssertionError("relaxation vertex fathomed but union is not sum-free")
    tabs = tab.optimal_face() if state.all_optima else [tab]
    free = [t for t in tabs
            if _pick_branch(t.vertex_numerators, m, state.k, frozenset()) is None]
    unions = {Configuration(m, t.vertex).to_union() for t in free}
    state.offer(tab.value, unions, len(free) == len(tabs) and len(unions) == 1)


# An open node: its choice set, and the solved parent it extends, as
# (parent tableau, new choice); the root of a run has no parent.
Node = tuple[frozenset, tuple | None]


def _expand(m: int, state: _RunState, node: Node) -> list[Node]:
    """Process one node: solve its LP, then prune it, fathom it or branch it.

    The root is built and solved from scratch.  Any other node adds its
    one new choice row to its parent's optimal tableau, which both
    children share, and reoptimizes by dual simplex.  A pattern LP is
    never infeasible (``x = 0`` meets every row; ``lp`` asserts it), so
    every node has an optimum.  Returns the open children, LEFT first;
    pruned and fathomed nodes have none.
    """
    choices, parent = node
    state.nodes += 1
    if parent is None:
        tab = lp_mod.solve(build_pattern_lp(m, state.k, DisjunctionPattern(m, choices)))
    else:
        tab, choice = parent
        tab = tab.add_row(_choice_row(m, state.k, choice))
    state.pivots += tab.pivots
    value = tab.value
    if value < state.best:
        return []
    if value == state.best and not state.all_optima:
        # Equal-bound nodes can only tie the incumbent; when ties are
        # not being collected the incumbent witness already realizes it.
        return []
    entry = _pick_branch(tab.vertex_numerators, m, state.k, choices)
    if entry is None:
        _record_leaf(state, m, tab)
        return []
    return [(choices | {choice}, (tab, choice))
            for choice in ((LEFT, *entry), (RIGHT, *entry))]


def _explore(m: int, state: _RunState, nodes: Iterable[Node] = ((frozenset(), None),),
             want: int | None = None) -> list[Node]:
    """Branch-and-bound below ``nodes`` (by default the root) for fixed m.

    Without ``want`` the tree is searched depth-first, LEFT child first,
    until it is exhausted.  With ``want`` it is expanded breadth-first
    until at least ``want`` nodes are open, and those are returned in
    order, each with its parent's tableau.
    """
    open_nodes = deque(nodes)
    while open_nodes and (want is None or len(open_nodes) < want):
        if state.node_limit is not None and state.nodes >= state.node_limit:
            state.interrupted = True
            return []
        if want is None:
            open_nodes.extend(reversed(_expand(m, state, open_nodes.pop())))
        else:
            open_nodes.extend(_expand(m, state, open_nodes.popleft()))
    return list(open_nodes)


def _worker(m: int, state: _RunState, nodes: list[Node]) -> _RunState:
    _explore(m, state, nodes)
    return state


def maximize_measure(m: int, k: int, *, all_optima: bool = False,
                     parallel: int = 1, node_limit: int | None = None) -> SearchResult:
    """Exact maximum measure of a k-sum-free union of at most m intervals.

    Runs the disjunctive branch-and-bound once per interval count
    m' = 1..m (each covers all configurations of exactly m' nondegenerate
    intervals; together they cover every union of at most m).  The global
    incumbent is shared across runs, so the cheap small-m' optima prune
    the large trees.  ``parallel`` distributes the largest run's subtrees
    over worker processes.  They search the serial tree, each node warm
    from its parent, so the optimum is schedule-independent, and with
    ``all_optima`` so is the witness list, which is then the complete,
    deduplicated set of maximizers whenever ``witnesses_exact`` is True.
    The node and pivot counts can differ from the serial run's only if the
    incumbent rises during the last run, where the workers prune against
    their own incumbents.  Without ``all_optima`` the single reported
    witness may depend on the schedule and no completeness is claimed.
    ``node_limit`` caps the nodes explored in total, across all runs and
    workers (each worker gets a share of what is left); a search it stops
    is ``interrupted``.
    """
    if m < 1 or k < 1:
        raise ValueError("m and k must be positive")
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    if node_limit is not None and node_limit < 0:
        raise ValueError(f"node_limit must be >= 0, got {node_limit}")
    state = _RunState(k=k, all_optima=all_optima, node_limit=node_limit)
    state.witnesses.add(IntervalUnion())  # measure-0 incumbent

    for m_eff in range(1, m + 1):
        if state.interrupted:
            break
        if m_eff == m and parallel > 1:
            _explore_parallel(m_eff, state, parallel)
        else:
            _explore(m_eff, state)

    # Completeness of the witness list is only established (and only
    # schedule-independent) when ties were collected and every optimal
    # face resolved cleanly.
    exact = all_optima and not state.interrupted and state.witnesses_exact
    return SearchResult(
        optimum=state.best,
        witnesses=tuple(sorted(state.witnesses, key=IntervalUnion.pairs)),
        nodes_explored=state.nodes,
        status=INTERRUPTED if state.interrupted else PROVEN,
        witnesses_exact=exact,
        lp_pivots=state.pivots,
    )


def _explore_parallel(m: int, state: _RunState, workers: int) -> None:
    from concurrent.futures import ProcessPoolExecutor

    nodes = _explore(m, state, want=max(4 * workers, 8))
    if not nodes:  # interrupted, or the tree ran out first
        return
    # node_limit caps the whole run, so the workers split what is left of it.
    left = None if state.node_limit is None else state.node_limit - state.nodes
    limits = [None if left is None else left // workers + (w < left % workers)
              for w in range(workers)]
    shares = [_RunState(k=state.k, all_optima=state.all_optima, node_limit=limit,
                        best=state.best) for limit in limits]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(_worker, [m] * workers, shares,
                                 [nodes[w::workers] for w in range(workers)]))
    for out in outcomes:
        state.nodes += out.nodes
        state.pivots += out.pivots
        state.interrupted |= out.interrupted
        state.offer(out.best, out.witnesses, out.witnesses_exact)
