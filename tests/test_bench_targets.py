"""The benchmark tracer's wrap targets must all resolve in the package.

``bench/tracer.py`` wraps the names the pipeline and the oracle call through
(module attributes and class methods).  A refactor that drops or moves one
of them silently loses that layer's metrics, so tier 1 checks them here.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_bench_wrap_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert len(tracer.wrapped) >= len(module.TARGETS)
    finally:
        tracer.uninstall()
