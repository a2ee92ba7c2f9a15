"""The program names the benchmark in benchmarks/ imports and traces still exist."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import modspaces

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


def test_cli_import_loads_every_traced_module(monkeypatch):
    # Tracer.install reads sys.modules[mod] for each traced module, so a
    # module the CLI imported lazily would be missing when it patches
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    traced = sorted({mod for mod, _, _ in importlib.import_module("tracing").TRACED})
    code = ("import json, sys, modspaces.cli; "
            f"print(json.dumps([m for m in {traced!r} if m not in sys.modules]))")
    src = os.path.dirname(os.path.dirname(modspaces.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert json.loads(out.stdout) == []
