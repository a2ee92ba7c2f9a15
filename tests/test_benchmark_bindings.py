"""The program names the benchmark in benchmarks/ imports and traces still exist."""

import importlib
import pathlib
import sys

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def test_benchmark_imports_and_traced_bindings_exist(monkeypatch):
    # workloads imports build_window, sigma_eval, NormParams, mod_norm and
    # synthesize at module level; tracing lists every wrapped function.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as it is
    tracing = importlib.import_module("tracing")
    importlib.import_module("workloads")
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.TRACED
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
