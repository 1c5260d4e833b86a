import importlib.util
from pathlib import Path

import sumfree.cli  # noqa: F401  (the tracer wraps names in every sumfree module)

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


# Wraps whose targets are deleted from the package, in WRAPS order.  Their
# spans read 0 calls on every workload; the bench's next revision drops them.
STALE_WRAPS = [
    "sumfree.lp.enumerate_optimal_vertices",
    "IntervalUnion.minkowski_sum",
    "IntervalUnion.from_pairs",
    "sumfree.intervals.parse_rational",
    "sumfree.certify.random_union",
]


def test_bench_tracer_reaches_every_layer():
    """Every (module, attribute) the traced benchmark wraps still exists,
    but for the stale wraps, in ``WRAPS`` order."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == STALE_WRAPS
    finally:
        tracer.uninstall()
