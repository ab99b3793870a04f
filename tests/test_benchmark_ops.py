"""The benchmark's operations, each run once at its small size against the
benchmark's reference values: a rename of a caylex name the benchmark
imports, or a change to the CayleyBall(...) call in its oracle, fails here
rather than in a benchmark run.  perfbench/ is only read."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import caylex
import caylex.cli          # noqa: F401  (the operations call through these)
import caylex.verify       # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """(workloads, run) loaded from perfbench/ without writing bytecode,
    each in sys.modules while the test runs (its dataclasses look it up).
    run.py imports its tracer as ``tracing``, found on a sys.path entry;
    both are removed again."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    had_tracing = "tracing" in sys.modules
    modules = []
    try:
        for name in ("workloads", "run"):
            spec = importlib.util.spec_from_file_location(
                f"_bench_{name}", PERFBENCH / f"{name}.py")
            modules.append(importlib.util.module_from_spec(spec))
            monkeypatch.setitem(sys.modules, spec.name, modules[-1])
            spec.loader.exec_module(modules[-1])
    finally:
        if not had_tracing:
            sys.modules.pop("tracing", None)
    return modules


@pytest.mark.parametrize("workload", ["p2-scan", "p-descent", "iso-profile",
                                      "suites"])
def test_small_workload_operations_pass_their_oracles(bench, workload,
                                                      tmp_path):
    workloads, run = bench
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    ctx = workloads.Context(caylex, str(tmp_path), 1, "small")
    ops = workloads.build_ops(workload, ctx)
    records = run.run_pass(ops, reference, caylex)
    assert len(records) == len(ops) > 0
    assert [(r["op"], r["problems"]) for r in records if r["problems"]] == []
