"""In-memory spans around sumfree's public functions, for the traced run.

A wrap replaces a function at the module (or class) attribute where the
calling code looks the name up, so ``sumfree.lp.solve`` is wrapped where
``search`` calls ``lp_mod.solve``.  Spans nest, since the benchmark runs
in one thread; a span's self time is its duration minus the durations of
the wrapped spans directly inside it.  Everything is restored on
``uninstall``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name) for every place the workloads reach a
# function through.  A module of None means the attribute is on
# sumfree.intervals.IntervalUnion.
WRAPS = [
    ("sumfree.search", "maximize_measure", "search.maximize_measure"),
    ("sumfree.cli", "maximize_measure", "search.maximize_measure"),
    ("sumfree.search", "build_pattern_lp", "search.build_pattern_lp"),
    ("sumfree.lp", "solve", "lp.solve"),
    ("sumfree.lp", "canonical_rows", "lp.canonical_rows"),
    ("sumfree.lp", "enumerate_optimal_vertices", "lp.enumerate"),
    ("sumfree.intervals", "is_k_sum_free", "intervals.is_k_sum_free"),
    ("sumfree.search", "is_k_sum_free", "intervals.is_k_sum_free"),
    (None, "minkowski_sum", "intervals.minkowski_sum"),
    (None, "from_pairs", "intervals.from_pairs"),
    ("sumfree.intervals", "parse_union", "intervals.parse_union"),
    ("sumfree.intervals", "parse_rational", "rationals.parse_rational"),
    ("sumfree.certify", "derive_delta", "certify.derive_delta"),
    ("sumfree.certify", "sumset_bound_harness", "certify.harness"),
    ("sumfree.certify", "random_union", "certify.random_union"),
    ("sumfree.discrete", "forbidden_triples", "discrete.forbidden_triples"),
    ("sumfree.discrete", "f_max", "discrete.solve"),
    ("sumfree.cli", "f_max", "discrete.solve"),
    ("sumfree.discrete", "enumerate_maximum_sets", "discrete.solve"),
    ("sumfree.cli", "enumerate_maximum_sets", "discrete.solve"),
    ("sumfree.cache", "lookup", "cache.lookup"),
    ("sumfree.cache", "append_record", "cache.append"),
    ("sumfree.cli", "main", "cli.main"),
]


def _count_result(counts: Counter, name: str, result) -> None:
    """Work counters read off a wrapped function's return value."""
    if name == "search.maximize_measure":
        counts["search.nodes"] += result.nodes_explored
    elif name == "lp.solve":
        counts["lp.pivots"] += result.pivots
        counts["lp.infeasible"] += result.status == "infeasible"
    elif name == "lp.enumerate":
        counts["lp.vertices"] += len(result[0])
    elif name == "discrete.forbidden_triples":
        counts["discrete.triples"] += len(result)
    elif name == "cache.lookup":
        counts["cache.hits"] += result is not None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, name: str):
        spans, counts, open_ = self.spans, self.counts, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            counts[name + ".calls"] += 1
            _count_result(counts, name, result)
            return result

        return traced

    def install(self) -> None:
        union_cls = sys.modules["sumfree.intervals"].IntervalUnion
        for module, attr, name in WRAPS:
            owner = union_cls if module is None else sys.modules[module]
            raw = vars(owner).get(attr)
            if raw is None:
                self.missing.append(f"{module or 'IntervalUnion'}.{attr}")
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the direct children's."""
        out: defaultdict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)
