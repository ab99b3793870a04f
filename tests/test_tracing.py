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


def test_tracer_patch_targets_exist():
    """``install`` also wraps the scipy solver that dirichlet calls and
    counts ``multiply`` where a family class defines it itself, on the
    direct subclasses of ``GroupModel`` only."""
    from caylex import dirichlet
    from caylex.groups import (FreeGroup, GroupModel, HeisenbergGroup,
                               ZdGroup)
    assert callable(dirichlet.spla.spsolve)
    for cls in (ZdGroup, FreeGroup, HeisenbergGroup):
        assert "multiply" in vars(cls), cls.__name__
        assert cls in GroupModel.__subclasses__(), cls.__name__
