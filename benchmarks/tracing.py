"""Layer timing by wrapping the program's public functions from outside.

A Tracer rebinds every reference to a traced function inside the
modspaces modules (module attributes and module-level dicts such as the
CLI's family table) and the numpy.fft transforms, so each call through a
layer boundary becomes a span.  Spans are aggregated in memory per
(parent, name) edge; inclusive time, self time (inclusive minus the time
of child spans) and call counts come out per boundary.  Nothing under
src/ is modified: uninstall() restores every binding.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name): the public functions timed per layer.
TRACED = [
    ("modspaces.modspace", "load_function", "cli.load_function"),
    ("modspaces.cli", "cmd_norm", "cli.cmd_norm"),
    ("modspaces.cli", "cmd_corpus_generate", "cli.corpus_generate"),
    ("modspaces.cli", "verify_weights", "cli.verify_weights"),
    ("modspaces.cli", "verify_partition_family", "cli.verify_partition_family"),
    ("modspaces.cli", "verify_algebra", "cli.verify_algebra"),
    ("modspaces.cli", "verify_subalgebra", "cli.verify_subalgebra"),
    ("modspaces.cli", "verify_superposition", "cli.verify_superposition"),
    ("modspaces.cli", "verify_constants", "cli.verify_constants"),
    ("modspaces.modspace", "mod_norm_record", "modspace.mod_norm_record"),
    ("modspaces.modspace", "stft_norm", "modspace.stft_norm"),
    ("modspaces.modspace", "refine", "modspace.refine"),
    ("modspaces.modspace", "check_algebra_ratio", "modspace.check_algebra_ratio"),
    ("modspaces.weights", "weight_eval", "weights.weight_eval"),
    ("modspaces.weights", "verify_weight_inequality",
     "weights.verify_weight_inequality"),
    ("modspaces.weights", "analyze_weight", "weights.analyze_weight"),
    ("modspaces.superpose", "exp_minus_one_norm", "superpose.exp_minus_one_norm"),
    ("modspaces.superpose", "lipschitz_check", "superpose.lipschitz_check"),
    ("modspaces.superpose", "subalgebra_ladder", "superpose.subalgebra_ladder"),
    ("modspaces.superpose", "fit_growth_envelope", "superpose.fit_growth_envelope"),
    ("modspaces.superpose", "phase_split", "superpose.phase_split"),
    ("modspaces.specialfn", "measure_L1", "specialfn.measure_L1"),
    ("modspaces.constants", "upper_incomplete_gamma",
     "constants.upper_incomplete_gamma"),
    ("modspaces.constants", "inverse_g", "constants.inverse_g"),
    ("modspaces.partition", "verify_partition", "partition.verify_partition"),
]

FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
FFT_SPAN = "modspace.fft"


def fft_transform_count(name: str, a, args, kwargs) -> int:
    """Transforms done by one numpy.fft call, each batch row counted."""
    shape = np.shape(a)
    if name in ("fft", "ifft"):
        axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
        return int(math.prod(shape)) // max(shape[axis], 1)
    axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
    if axes is None:
        axes = (-2, -1) if name in ("fft2", "ifft2") else range(len(shape))
    done = math.prod(shape[ax] for ax in axes)
    return int(math.prod(shape)) // max(done, 1)


def _lattice_cells(f, params) -> tuple[int, int]:
    """Nonzero lattice coefficients inside k_max, and those above 1e-13 of the peak."""
    F = np.abs(f.spectrum)
    inside = np.abs(f.index_axis()) <= params.resolved_k_max(f)
    if f.n == 2:
        inside = inside[:, None] & inside[None, :]
    kept = F[inside]
    peak = float(np.max(F)) if F.size else 0.0
    return int(np.count_nonzero(kept)), int(np.count_nonzero(kept > 1e-13 * peak))


class Tracer:
    """Spans at layer boundaries, aggregated per boundary and per edge."""

    def __init__(self):
        self.enabled = False
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl s, self s
        self.edges = defaultdict(lambda: [0, 0.0])        # (parent, child)
        self.counters = defaultdict(int)
        self._stack: list[list] = []                      # [name, child s]
        self._depth = defaultdict(int)
        self._restore: list = []

    # -- spans -----------------------------------------------------------
    def _span(self, name, fn, args, kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._depth[name] -= 1
            parent = self._stack[-1][0] if self._stack else "<op>"
            if self._stack:
                self._stack[-1][1] += dt
            st = self.stats[name]
            st[0] += 1
            st[2] += dt - frame[1]
            if self._depth[name] == 0:  # inclusive time once per nest
                st[1] += dt
            edge = self.edges[(parent, name)]
            edge[0] += 1
            edge[1] += dt

    def _untimed(self, fn, *args):
        """Run benchmark bookkeeping, kept out of the enclosing span's self time."""
        t0 = time.perf_counter()
        out = fn(*args)
        if self._stack:
            self._stack[-1][1] += time.perf_counter() - t0
        return out

    def _count_cells(self, f, params) -> None:
        nz, signal = _lattice_cells(f, params)
        self.counters["modspace.lattice_cells"] += nz
        self.counters["modspace.lattice_cells_above_floor"] += signal

    def _count_fft(self, name, a, args, kwargs) -> None:
        self.counters["modspace.fft_transforms"] += \
            fft_transform_count(name, a, args, kwargs)

    def _wrap(self, base, fn):
        tracer = self

        if base == "modspace.mod_norm_record":
            def wrapper(f, params, *args, **kwargs):
                if not tracer.enabled:
                    return fn(f, params, *args, **kwargs)
                out = tracer._span(f"{base}.{params.mode}", fn,
                                   (f, params) + args, kwargs)
                if params.mode == "lattice":
                    tracer._untimed(tracer._count_cells, f, params)
                return out
        elif base == "weights.verify_weight_inequality":
            def wrapper(kind, *args, **kwargs):
                if not tracer.enabled:
                    return fn(kind, *args, **kwargs)
                name = f"{base}.{kind}"
                rep = tracer._span(name, fn, (kind,) + args, kwargs)
                tracer.counters[f"{name}.points"] += rep.points_checked
                return rep
        else:
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                return tracer._span(base, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def _wrap_fft(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if tracer.enabled:
                tracer._untimed(tracer._count_fft, name, a, args, kwargs)
                return tracer._span(FFT_SPAN, fn, (a,) + args, kwargs)
            return fn(a, *args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Rebind every reference to a traced function, in every modspaces module."""
        modules = [m for name, m in sys.modules.items()
                   if name == "modspaces" or name.startswith("modspaces.")]
        for mod_name, attr, base in TRACED:
            orig = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(base, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod.__dict__, key, orig))
                        setattr(mod, key, wrapped)
                    elif isinstance(val, dict) and not key.startswith("__"):
                        for k, v in list(val.items()):
                            if v is orig:
                                self._restore.append((val, k, orig))
                                val[k] = wrapped
        for name in FFT_FUNCS:
            orig = getattr(np.fft, name)
            self._restore.append((np.fft.__dict__, name, orig))
            setattr(np.fft, name, self._wrap_fft(name, orig))

    def uninstall(self) -> None:
        for table, key, orig in reversed(self._restore):
            table[key] = orig
        self._restore.clear()

    # -- results -----------------------------------------------------------
    def summary(self) -> dict:
        """Per-boundary calls, inclusive and self seconds, counters and edges."""
        return {
            "spans": {k: {"calls": v[0], "incl_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
            "edges": [{"parent": p, "child": c, "calls": v[0], "incl_s": v[1]}
                      for (p, c), v in sorted(self.edges.items())],
        }
