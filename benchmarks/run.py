#!/usr/bin/env python3
"""Benchmark of the modspaces toolkit.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports modspaces from its
src/ directory.  One process, one client, closed loop: each operation
starts when the previous one has returned, and whole rounds of the
workload's operations repeat until S seconds have passed.  Every output
is checked after the loop (see workloads.py).

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced and half with every layer boundary wrapped (tracing.py), and
prints the per-layer metrics, per operation, plus the tracing overhead.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(BENCH_DIR, "runs")
TRACES_DIR = os.path.join(BENCH_DIR, "traces")

# BLAS/OpenMP pools pinned to one thread: the baseline is single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
TAIL_BEYOND = 10   # samples beyond the tail percentile
TAIL_MIN_SAMPLES = 40

END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_SPAN_METRICS = {
    # span name: reported suffixes
    "cli.load_function": ("ms", "calls"),
    "cli.cmd_norm": ("self_ms",),
    "cli.verify_weights": ("ms",),
    "cli.verify_partition_family": ("ms",),
    "cli.verify_algebra": ("ms",),
    "cli.verify_subalgebra": ("ms",),
    "cli.verify_superposition": ("ms",),
    "cli.verify_constants": ("ms",),
    "modspace.mod_norm_record.lattice": ("ms", "self_ms", "calls"),
    "modspace.mod_norm_record.continuum": ("ms", "self_ms", "calls"),
    "modspace.stft_norm": ("ms", "calls"),
    "modspace.fft": ("ms",),
    "modspace.refine": ("ms",),
    "modspace.check_algebra_ratio": ("ms",),
    "weights.weight_eval": ("ms", "calls"),
    "weights.verify_weight_inequality.gevrey": ("ms",),
    "weights.verify_weight_inequality.loglog": ("ms",),
    "weights.verify_weight_inequality.elementary": ("ms",),
    "weights.analyze_weight": ("ms",),
    "superpose.exp_minus_one_norm": ("ms", "calls"),
    "superpose.lipschitz_check": ("ms", "calls"),
    "superpose.subalgebra_ladder": ("ms", "calls"),
    "superpose.fit_growth_envelope": ("ms", "calls"),
    "superpose.phase_split": ("ms", "calls"),
    "specialfn.measure_L1": ("ms", "calls"),
    "constants.upper_incomplete_gamma": ("ms", "calls"),
    "constants.inverse_g": ("ms", "calls"),
    "partition.verify_partition": ("ms",),
}
_COUNTERS = (
    "modspace.lattice_cells",
    "modspace.lattice_cells_above_floor",
    "modspace.fft_transforms",
    "weights.verify_weight_inequality.gevrey.points",
    "weights.verify_weight_inequality.loglog.points",
    "weights.verify_weight_inequality.elementary.points",
)
_UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count"}

PER_LAYER = {f"{span}.{suffix}": _UNITS[suffix]
             for span, suffixes in _SPAN_METRICS.items() for suffix in suffixes}
PER_LAYER.update({name: "count" for name in _COUNTERS})
PER_LAYER["cli.corpus_generate.ms"] = "ms"
PER_LAYER["trace.overhead_ms"] = "ms"
PER_LAYER["trace.overhead_pct"] = "%"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(samples: list[float]):
    """(percentile, value) of the highest percentile with ten samples beyond it.

    None below TAIL_MIN_SAMPLES samples: there, that percentile would be
    no tail.  The value is the sample with exactly TAIL_BEYOND above it.
    """
    n = len(samples)
    if n < TAIL_MIN_SAMPLES:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds() -> float:
    """Time to import the CLI and everything it pulls in, in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import modspaces.cli; "
            "print(repr(time.perf_counter() - t))")
    out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip())


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def warm_up(wl, state) -> None:
    """Whole rounds, untimed, until wl.warmup_s have passed: first-call costs settle."""
    start = time.perf_counter()
    while time.perf_counter() - start < wl.warmup_s:
        for _, op in wl.operations(state):
            op()


class Phase:
    """Closed-loop measurement: whole rounds until `seconds` have passed."""

    def __init__(self, wl, state, seconds: float):
        self.latencies: list[float] = []
        self.outputs: dict = {}
        self.failed = 0
        self.errors: list[str] = []
        ops = wl.operations(state)
        gc.collect()
        start = time.perf_counter()
        while True:
            for key, op in ops:
                t0 = time.perf_counter()
                try:
                    out = op()
                except Exception as exc:  # counted as a failed operation
                    out = None
                    self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
                self.latencies.append(time.perf_counter() - t0)
                if out is None or wl.failed(out):
                    self.failed += 1
                else:
                    self.outputs.setdefault(key, []).append(out)
            if time.perf_counter() - start >= seconds:
                break
        self.elapsed = time.perf_counter() - start

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    workdir = os.path.join(RUNS_DIR, f"{name}-seed{seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    run_cli = workloads.CliRunner()  # finds the caches before any wrapping
    setup_tracer = tracing.Tracer()
    try:
        if trace:
            setup_tracer.install()
        setup_times = []
        for i in range(SETUP_REPEATS):
            imp = import_seconds()
            rep_dir = os.path.join(workdir, f"setup{i}")
            os.makedirs(rep_dir)
            setup_tracer.enabled = trace
            t0 = time.perf_counter()
            state = wl.setup(seed, rep_dir, run_cli)
            gen = time.perf_counter() - t0
            setup_tracer.enabled = False
            setup_times.append(imp + gen)
        setup_tracer.uninstall()
        warm_up(wl, state)

        tracer = None
        if trace:
            plain = Phase(wl, state, seconds / 2.0)
            tracer = tracing.Tracer()
            tracer.install()
            tracer.enabled = True
            try:
                traced = Phase(wl, state, seconds / 2.0)
            finally:
                tracer.enabled = False
                tracer.uninstall()
            phases = [plain, traced]
        else:
            phases = [Phase(wl, state, seconds)]
        rss = peak_rss_mb()

        outputs: dict = {}
        for ph in phases:
            for key, outs in ph.outputs.items():
                outputs.setdefault(key, []).extend(outs)
        try:
            checks = wl.check(state, outputs)
        except Exception as exc:  # an output the checks cannot read is wrong
            checks = workloads.Checks()
            checks.expect(False, f"check raised {type(exc).__name__}: {exc}")
    finally:
        setup_tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(RUNS_DIR)  # only when no other run is using it

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    report = {
        "workload": name,
        "seed": seed,
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "check_failures": checks.failures,
        "errors": [e for ph in phases for e in ph.errors],
        "worst_deviation": checks.worst,
    }
    if trace:
        report["metrics"] = layer_metrics(setup_tracer, tracer, phases[0], phases[1])
        report["trace_file"] = write_trace(name, seed, setup_tracer, tracer, phases[1])
    else:
        ph = phases[0]
        lat_ms = [x * 1e3 for x in ph.latencies]
        p50 = statistics.median(lat_ms)
        t = tail(lat_ms)
        report["samples"] = len(lat_ms)
        report["tail_percentile"] = None if t is None else t[0]
        values = {
            "setup_s": statistics.median(setup_times),
            "latency_ms_p50": p50,
            # Below 40 samples there is no tail; the median stands in for it.
            "latency_ms_tail": p50 if t is None else t[1],
            "ops_per_s": ph.attempted / ph.elapsed,
            "peak_rss_mb": rss,
        }
        report["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return report


def layer_metrics(setup_tracer, tracer, plain: Phase, traced: Phase) -> dict:
    """Per-layer metrics, per operation of the traced phase."""
    ops = traced.attempted
    values = {}
    for span, suffixes in _SPAN_METRICS.items():
        calls, incl, self_s = tracer.stats.get(span, (0, 0.0, 0.0))
        per = {"ms": incl * 1e3 / ops, "self_ms": self_s * 1e3 / ops, "calls": calls / ops}
        for suffix in suffixes:
            values[f"{span}.{suffix}"] = per[suffix]
    for name in _COUNTERS:
        values[name] = tracer.counters.get(name, 0) / ops
    _, gen_s, _ = setup_tracer.stats.get("cli.corpus_generate", (0, 0.0, 0.0))
    values["cli.corpus_generate.ms"] = gen_s * 1e3 / SETUP_REPEATS
    plain_ms = plain.elapsed * 1e3 / plain.attempted
    traced_ms = traced.elapsed * 1e3 / traced.attempted
    values["trace.overhead_ms"] = traced_ms - plain_ms
    values["trace.overhead_pct"] = 100.0 * (traced_ms - plain_ms) / plain_ms
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def write_trace(name: str, seed: int, setup_tracer, tracer, traced: Phase) -> str:
    os.makedirs(TRACES_DIR, exist_ok=True)
    path = os.path.join(TRACES_DIR, f"{name}-seed{seed}.json")
    doc = {"workload": name, "seed": seed, "operations": traced.attempted,
           "elapsed_s": traced.elapsed, "setup": setup_tracer.summary(),
           "run": tracer.summary()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return os.path.relpath(path, ROOT)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _print_report(rep: dict) -> None:
    print(f"== {rep['workload']} (seed {rep['seed']}): attempted {rep['attempted']}, "
          f"failed {rep['failed']}, correct {str(rep['correct']).lower()}")
    if "samples" in rep:
        pct = rep["tail_percentile"]
        print(f"   latency samples {rep['samples']}; tail = "
              + (f"p{pct:.2f}" if pct is not None else
                 f"median (fewer than {TAIL_MIN_SAMPLES} samples, no tail)"))
    for name, m in rep["metrics"].items():
        print(f"   {name:52s} {m['value']:.6g} {m['unit']}")
    for name, v in sorted(rep["worst_deviation"].items()):
        print(f"   check {name}: worst {v:.3g}")
    for line in (rep["check_failures"] + rep["errors"])[:20]:
        print(f"   FAILED: {line}")
    if rep.get("trace_file"):
        print(f"   trace written to {rep['trace_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "modspaces", "cli.py")):
        print(f"error: no modspaces sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["MODSPACES_WORKERS"] = "1"
    sys.path.insert(0, SRC)
    import modspaces
    if os.path.dirname(os.path.dirname(os.path.abspath(modspaces.__file__))) != SRC:
        print(f"error: modspaces imported from {modspaces.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    reports = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for rep in reports:
        _print_report(rep)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:  # one process for every workload: names carry the workload
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
