"""The benchmark's per-layer tracer still finds every function it names.

``benchmarks/tracing.py`` patches youngconv functions by module and name;
a renamed or removed target is skipped and its metric silently drops out
of the benchmark, so every target must resolve.
"""

import importlib
from pathlib import Path

import youngconv
import youngconv.verify  # noqa: F401  (the benchmark job loads it before tracing)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracer = importlib.import_module("tracing").Tracer()
    original = youngconv.convolution._convolve
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert youngconv.convolution._convolve is original
