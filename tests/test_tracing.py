"""The benchmark tracer wraps caylex entry points by name; a rename in the
library must fail here rather than in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_layer_functions_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # read-only
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYER_FUNCTIONS
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"caylex.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
