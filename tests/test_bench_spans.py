import importlib.util
from pathlib import Path

import sumfree.cli  # noqa: F401  (the tracer wraps names in every sumfree module)

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_bench_tracer_reaches_every_layer():
    """Every (module, attribute) the traced benchmark wraps still exists."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
