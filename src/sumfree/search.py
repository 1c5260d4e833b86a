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
incumbents from small m' prune the larger trees.  For k >= 2 the RIGHT
child of an entry (i, j, t) with j <= t is never opened: with the chain
its row forces l_t = r_t, so it holds only configurations that run
m' - 1 covers.  No choice set is reached twice: two nodes part where one
holds L(e) and the other R(e), and an entry is never branched on once
resolved, since the branch rule runs only at points of the node's LP,
where the entry's own row holds its overlap to at most 0.

The LP is solved in gap coordinates: its variables are d_0 = l1, the
gaps d_q = x_q - x_{q-1} between consecutive endpoints of the chain
x = (l1, r1, ..., lm, rm) for 0 < q < 2m - 1, and r_m itself.  The chain
is then d >= 0 and the one row d_0 + ... + d_{2m-2} <= r_m, and r_m <= 1
is the only box row, so every tableau has two base rows instead of 2m.
The change of variables is unimodular, so each node's feasible set is
the chain form's under that map; the search reads a vertex back as its
endpoint numerators, the prefix sums of the gaps.

Only the root of each run (no choices, one per m') builds and solves
its LP from scratch.  Every other node, including each node a parallel
run hands to a worker, is its parent's optimal tableau and one choice,
whose row a few dual simplex pivots add; a fathomed leaf walks its
optimal face from its own optimal tableau.
The dual simplex stops as soon as its bound would fall below the
incumbent, since such a child is pruned whatever its optimum; this
saves pivots and changes no node, witness or status.

The search walks every basis of each fathomed node's optimal face
(zero-reduced-cost pivots), proving uniqueness claims instead of merely
returning one maximizer.  The branch rule judges every basis on its
integer numerators: one with no positively overlapping window is
k-sum-free.  A face that mixes free bases with one that is not is
branched on that basis's entry like any other node, after its free
unions are offered.  Only the fathomed vertex itself is checked again,
by the independent ``intervals.is_k_sum_free``.  Each walked basis after
the first costs one pivot, counted with the rest.

A node whose value ties the incumbent is closed, before any branch
choice or face walk, when its optimal tableau forces an interval to
vanish or two to touch (reduced-cost fixing; Crowder, Johnson and
Padberg, Oper. Res. 31, 1983).  The variables that can force
it are the gaps d_q, 0 < q < 2m - 1 (odd q a length, even q the gap
between two intervals), and the chain row's slack, the last interval's
length; d_0 = l1 and r_m are not among them.  At an optimum every
reduced cost is >= 0 and every point of the node's LP has value
``tab.value - sum rc_p x_p`` over the nonbasic p, so a positive reduced
cost on one of those variables holds it at 0 at every point that reaches
the incumbent.  Such a point is a union of at most m - 1 intervals
(touching open intervals merge up to a point, which changes neither the
measure nor k-sum-freeness), and the runs for 1..m - 1 collected every
such union of the incumbent's value, or proved that none reaches it.
The same holds in a parallel worker, which starts from the
incumbent of those runs.  The test is sufficient only: under dual
degeneracy a forced variable can have a zero reduced cost, and the node
then goes on as before.

Each explored node branches or is closed by ``_RunState.close(reason)``,
which counts it: ``bound`` below the incumbent (a warm child cut off
included), ``forced_zero`` as above, or ``leaf``, fathomed with no
entry left to branch on.
"""

from __future__ import annotations

from collections import Counter, deque
from fractions import Fraction
from functools import cache
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

from .intervals import IntervalUnion, is_k_sum_free
from . import lp as lp_mod
from .lp import LinearProgram
from .rationals import require_int

LEFT = "L"
RIGHT = "R"

PROVEN = "proven"
INTERRUPTED = "interrupted"

Choice = tuple[str, int, int, int]  # side, i, j, t


class SearchResult(NamedTuple):
    optimum: Fraction
    witnesses: tuple[IntervalUnion, ...]
    nodes_explored: int
    status: str
    # True when the witness list is provably the complete set of maximizers
    # (the sum-free bases of each contributing optimal face gave one union,
    # and a face with a basis that is not sum-free was branched on).
    witnesses_exact: bool
    lp_pivots: int
    # Closed nodes by reason: "bound", "forced_zero" and "leaf"; every
    # other explored node branched.
    closures: Counter


def _gap_row(row: Sequence[int]) -> tuple[int, ...]:
    """A row over (l1, r1, ..., lm, rm) written over the gap variables.

    Each endpoint but r_m is the sum of the gaps up to it, so a gap's
    coefficient is the sum of ``row``'s from its position to the one
    before r_m's; r_m keeps its own.
    """
    *head, top = row
    return (*reversed(list(accumulate(reversed(head)))), top)


@cache
def _choice_row(m: int, k: int, choice: Choice) -> tuple[int, ...]:
    """Coefficients over the gap variables of a choice as a ``<= 0`` row."""
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
    return _gap_row(row)


def build_pattern_lp(m: int) -> LinearProgram:
    """The root LP relaxation: maximize total length under the chain row.

    Variables are the gaps (d_0, ..., d_{2m-2}, r_m) of the endpoint chain
    (l1, r1, ..., lm, rm), all in [0, 1]; the chain is the one row
    d_0 + ... + d_{2m-2} <= r_m, and the objective is the chain form's
    written over the gaps (``_gap_row``).  Neither depends on k; each
    node below the root adds its choice's ``_choice_row`` to its parent's
    tableau.  Rows are non-strict: touching windows are legal under the
    open-interval convention, so no epsilons.
    """
    require_int(m, "m", 1)
    return LinearProgram(objective=_gap_row((-1, 1) * m), rows=((1,) * (2 * m - 1) + (-1,),))


def _point(tab: lp_mod.Tableau) -> tuple[int, ...]:
    """The vertex as endpoint numerators (l1, r1, ..., lm, rm) over ``tab.den``."""
    *gaps, top = tab.vertex_numerators
    return (*accumulate(gaps), top)


def _pick_branch(v: Sequence, m: int, k: int) -> tuple[int, int, int] | None:
    """Entry (i, j, t) with the largest positive sum-window overlap.

    The search passes ``v`` as the vertex's endpoint numerators
    (``_point``), integers over the positive ``den``.  Any exact numbers
    over one positive scale give the same choice: the scale multiplies
    every overlap alike, as does the (A+A)-scale (a constant k versus the
    z-scale), so the argmax is the exact vertex's; ties go to the lowest
    (i, j, t).  Entries whose pair or target interval is degenerate at the
    vertex are skipped: they witness nothing about the actual point set.
    ``None`` says that the configuration is k-sum-free.  At a point of a
    node's LP, each entry that its choices resolve has overlap at most 0,
    so the entry returned is unresolved.
    """
    live = [(i, v[2 * i], v[2 * i + 1]) for i in range(m) if v[2 * i] != v[2 * i + 1]]
    targets = [(t, k * lt, k * rt) for t, lt, rt in live]
    best_ov = 0
    best = None
    for a, (i, li, ri) in enumerate(live):
        for j, lj, rj in live[a:]:
            slo, shi = li + lj, ri + rj
            for t, klt, krt in targets:
                ov = (shi if shi < krt else krt) - (slo if slo > klt else klt)
                if ov > best_ov:
                    best_ov = ov
                    best = (i, j, t)
    return best


class _RunState:
    def __init__(self, k: int, node_limit: int | None, best: Fraction = Fraction(0)):
        self.k = k
        self.node_limit = node_limit
        self.best = best
        self.witnesses = set()
        self.witnesses_exact = True
        self.interrupted = False
        self.counts = Counter()  # "nodes", "pivots", closures by reason

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

    def close(self, reason: str) -> list:
        """Count a node closed for ``reason``; it opens no children."""
        self.counts[reason] += 1
        return []


def _union(v: Sequence[int], den: int) -> IntervalUnion:
    """The union of a vertex's intervals (l1, r1), (l2, r2), ..., given as
    numerators over ``den`` > 0; vanished ones drop out."""
    if not all(a <= b for a, b in zip((0, *v), (*v, den))):
        raise AssertionError(f"vertex {v} over {den} is not a nondecreasing chain in [0, 1]")
    return IntervalUnion(den, zip(v[0::2], v[1::2]))


def _record_leaf(state: _RunState, m: int, tab: lp_mod.Tableau,
                 v: tuple[int, ...]) -> tuple[int, int, int] | None:
    """Offer the free bases of ``tab``'s optimal face (``tab``'s endpoints
    are ``v``); return the entry to branch on, if any.

    ``is_k_sum_free`` checks the fathomed vertex again.  Each other
    basis's endpoints are read once and, deduped on (numerators, den),
    judged by the branch rule; a resolved row forbids positive overlap
    at every feasible point, so the entry it finds is unresolved.  The
    free bases give unions, offered as all this face's free maximizers
    when they give one union.  The first basis that is not free gives
    the entry to branch on, whose children cover the rest of the face.
    """
    first = _union(v, tab.den)
    if not is_k_sum_free(first, state.k)[0]:
        raise AssertionError("relaxation vertex fathomed but union is not sum-free")
    bases = tab.optimal_face()[1:]
    state.counts["pivots"] += len(bases)  # one walk pivot per basis after the first
    others = dict.fromkeys((_point(t), t.den) for t in bases)  # in face order
    others.pop((v, tab.den), None)
    entries = {vx: _pick_branch(vx[0], m, state.k) for vx in others}
    unions = {first} | {_union(*vx) for vx, entry in entries.items() if entry is None}
    state.offer(tab.value, unions, len(unions) == 1)
    return next((entry for entry in entries.values() if entry is not None), None)


def _forces_zero(tab: lp_mod.Tableau, m: int) -> bool:
    """True when ``tab`` holds a length or an interior gap at 0 at every optimum.

    That is a positive reduced cost on a nonbasic d_q, 0 < q < 2m - 1, or
    on the chain row's slack, variable 2m; variable 2m - 1 is r_m.
    """
    return any(rc > 0 and 0 < x <= 2 * m and x != 2 * m - 1
               for x, rc in zip(tab.cobasis, tab.mat[tab.nrows]))


# An open node: None for the root of a run, else the solved parent it
# extends and its one new choice, as (parent tableau, choice).
Node = tuple[lp_mod.Tableau, Choice] | None


def _expand(m: int, state: _RunState, node: Node) -> list[Node]:
    """Process one node: solve its LP, then close it or branch it.

    The root is built and solved from scratch.  Any other node adds its
    one new choice row to its parent's optimal tableau, which both
    children share, and reoptimizes by dual simplex.  A pattern LP is
    never infeasible (``x = 0`` meets every row; ``lp`` asserts it), so
    every node has an optimum; a warm child's dual simplex stops once its
    bound falls below the incumbent.  Returns the open children, LEFT
    first, as (this tableau, choice), or ``state.close(reason)``'s ``[]``;
    a degenerate-only RIGHT child is not opened.  A fathomed node whose
    optimal face holds a basis that is not free is branched on that
    basis's entry.
    """
    state.counts["nodes"] += 1
    if node is None:
        tab = lp_mod.solve(build_pattern_lp(m))
    else:
        tab, choice = node
        tab = tab.add_row(_choice_row(m, state.k, choice), cutoff=state.best)
    state.counts["pivots"] += tab.pivots
    order = -1 if tab.status == lp_mod.CUTOFF else tab.compare(state.best)
    if order < 0:
        return state.close("bound")
    if order == 0 and _forces_zero(tab, m):
        return state.close("forced_zero")
    v = _point(tab)
    entry = _pick_branch(v, m, state.k)
    if entry is None:
        entry = _record_leaf(state, m, tab, v)
        if entry is None:
            return state.close("leaf")
    children = [(LEFT, *entry)]
    _, j, t = entry
    # With i <= j <= t the chain gives l_i + l_j <= 2 l_t, so for k >= 2 the
    # RIGHT row l_i + l_j >= k r_t forces l_t = r_t: that child holds only
    # configurations with a vanished interval, which run m - 1 covers.
    if state.k < 2 or j > t:
        children.append((RIGHT, *entry))
    return [(tab, choice) for choice in children]


def _explore(m: int, state: _RunState, nodes: Iterable[Node] = (None,),
             want: int | None = None) -> list[Node]:
    """Branch-and-bound below ``nodes`` (by default the root) for fixed m.

    Without ``want`` the tree is searched depth-first, LEFT child first,
    until it is exhausted.  With ``want`` it is expanded breadth-first
    until at least ``want`` nodes are open, and those are returned in
    order, each with its parent's tableau.
    """
    open_nodes = deque(nodes)
    while open_nodes and (want is None or len(open_nodes) < want):
        if state.node_limit is not None and state.counts["nodes"] >= state.node_limit:
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


def maximize_measure(m: int, k: int, *, all_optima: bool = True,
                     parallel: int = 1, node_limit: int | None = None) -> SearchResult:
    """Exact maximum measure of a k-sum-free union of at most m intervals.

    Runs the disjunctive branch-and-bound once per interval count
    m' = 1..m (each covers all configurations of exactly m' nondegenerate
    intervals; together they cover every union of at most m).  The global
    incumbent is shared across runs, so the cheap small-m' optima prune
    the large trees.  ``parallel`` distributes the largest run's subtrees
    over worker processes.  They search the serial tree, each node warm
    from its parent, so the optimum and the witness list are
    schedule-independent; the list is the complete, deduplicated set of
    maximizers whenever ``witnesses_exact`` is True.
    The node, pivot and closure counts can differ from the serial run's
    only if the incumbent rises during the last run, where the workers
    prune against their own incumbents; a warm child stops pivoting once
    its bound falls below the incumbent it sees, and a forced-zero tie is
    one with that incumbent, so the pivot and closure counts follow it.
    ``all_optima`` is accepted and ignored, whatever its value: every
    search collects all optima.
    ``node_limit`` caps the nodes explored in total, across all runs and
    workers (each worker gets a share of what is left); a search it stops
    is ``interrupted``.
    """
    require_int(m, "m", 1)
    require_int(k, "k", 1)
    require_int(parallel, "parallel", 1)
    if node_limit is not None:
        require_int(node_limit, "node_limit", 0)
    state = _RunState(k=k, node_limit=node_limit)
    state.witnesses.add(IntervalUnion())  # measure-0 incumbent

    for m_eff in range(1, m + 1):
        if state.interrupted:
            break
        if m_eff == m and parallel > 1:
            _explore_parallel(m_eff, state, parallel)
        else:
            _explore(m_eff, state)

    # The witness list is complete when the search ran to the end and
    # every optimal face gave one union.
    exact = not state.interrupted and state.witnesses_exact
    return SearchResult(
        optimum=state.best,
        witnesses=tuple(sorted(state.witnesses, key=lambda u: u.intervals)),
        nodes_explored=state.counts["nodes"],
        status=INTERRUPTED if state.interrupted else PROVEN,
        witnesses_exact=exact,
        lp_pivots=state.counts["pivots"],
        closures=Counter({r: n for r, n in state.counts.items() if r not in ("nodes", "pivots")}),
    )


def _explore_parallel(m: int, state: _RunState, workers: int) -> None:
    from concurrent.futures import ProcessPoolExecutor

    nodes = _explore(m, state, want=max(4 * workers, 8))
    if not nodes:  # interrupted, or the tree ran out first
        return
    # node_limit caps the whole run, so the workers split what is left of it.
    left = None if state.node_limit is None else state.node_limit - state.counts["nodes"]
    limits = [None if left is None else left // workers + (w < left % workers)
              for w in range(workers)]
    shares = [_RunState(k=state.k, node_limit=limit, best=state.best) for limit in limits]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(_worker, [m] * workers, shares,
                                 [nodes[w::workers] for w in range(workers)]))
    for out in outcomes:
        state.counts += out.counts
        state.interrupted |= out.interrupted
        state.offer(out.best, out.witnesses, out.witnesses_exact)
