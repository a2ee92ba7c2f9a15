"""Fast tests of the benchmark itself: reference formulas, tail rule, tracer.

    python3 -m pytest -q benchmarks/selftest.py

The file name keeps it out of the repository's default test collection.
The reference formulas are checked on tiny inputs against brute-force
loops that follow the definitions term by term.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from modspaces import cli  # noqa: E402
from modspaces.modspace import NormParams, mod_norm, synthesize  # noqa: E402
from modspaces.weights import WeightSpec  # noqa: E402


def _rows(ks, xi):
    return workloads._axis_rows(ks, xi)


def _loop_idft(G: np.ndarray) -> np.ndarray:
    """Inverse DFT by explicit sums over every index."""
    N = G.shape[0]
    out = np.zeros(G.shape, dtype=complex)
    for j in np.ndindex(G.shape):
        for m in np.ndindex(G.shape):
            out[j] += G[m] * np.exp(2j * math.pi * np.dot(m, j) / N)
    return out / N ** G.ndim


# ---------------------------------------------------------------------------
# statistics and the metric lists
# ---------------------------------------------------------------------------

def test_no_tail_below_forty_samples():
    assert run.tail([1.0] * 39) is None
    assert run.tail(list(range(39))) is None


def test_tail_has_ten_samples_beyond_it():
    samples = [float(x) for x in range(40)]
    assert run.tail(samples) == (75.0, 29.0)
    samples = [float(x) for x in range(1000)][::-1]
    pct, value = run.tail(samples)
    assert pct == 99.0 and value == 989.0
    assert sum(s > value for s in samples) == 10


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------

def test_weight_closed_forms():
    assert ref.weight("polynomial", 2.0, 3.0) == pytest.approx(10.0, rel=1e-15)
    assert ref.weight("gevrey", 2.0, 4.0) == pytest.approx(math.e ** 2, rel=1e-15)
    # b(0) = e^e, so log b = e and log log b = 1
    assert ref.weight("loglog", 0.0, 0.0) == pytest.approx(math.e ** math.e, rel=1e-15)
    assert ref.parse_weight("gevrey:s=1.5") == ("gevrey", 1.5)
    assert ref.parse_weight("loglog") == ("loglog", 0.0)


@pytest.mark.parametrize("shape", [(8,), (4, 4)])
def test_direct_dft_is_the_dft(shape):
    x = np.random.default_rng(1).standard_normal(shape) + 0j
    np.testing.assert_allclose(ref.direct_dft(x), np.fft.fftn(x), atol=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_lattice_norm_single_mode(p, q):
    N, k, c = 16, 3, 0.5 - 2.0j
    F = np.zeros(N, dtype=complex)
    F[k] = c
    # box_k f = c e^{ikx} (2pi)^(-1/2) on [-pi, pi): its L^p norm is
    # |c| (2pi)^(1/p - 1/2); no other cell contributes.
    block = abs(c) * (2.0 * math.pi) ** ((0.0 if p == math.inf else 1.0 / p) - 0.5)
    want = ref.weight("gevrey", 2.0, k) * block
    assert ref.lattice_norm(F, 1, math.pi, p, q, "gevrey", 2.0, N // 2) == \
        pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("n,N,L", [(1, 16, 2.5), (2, 8, 4.0)])
def test_continuum_parseval_matches_block_loops(n, N, L):
    f = synthesize("random_bandlimited", n=n, N=N, L=L, seed=5, B=2.0)
    F = ref.direct_dft(f.values) * ref.spectrum_scale(n, L, N)
    xi = math.pi * ref.fft_order_indices(N) / L
    k_max = int(math.floor(math.pi * (N // 2) / L))
    ks = range(-k_max, k_max + 1)
    total = 0.0
    for k in np.ndindex(*(len(ks),) * n):
        kk = [ks[i] for i in k]
        sig = _rows([kk[0]], xi)[0]
        if n == 2:
            sig = sig[:, None] * _rows([kk[1]], xi)[0][None, :]
        vals = _loop_idft(F * sig / ref.spectrum_scale(n, L, N))
        block2 = (2.0 * L / N) ** n * np.sum(np.abs(vals) ** 2)
        total += ref.weight("gevrey", 2.0, math.hypot(*kk)) ** 2 * block2
    got = ref.continuum_p2_norm(f.values, L, 2.0, "gevrey", 2.0, _rows)
    assert got == pytest.approx(math.sqrt(total), rel=1e-12)


@pytest.mark.parametrize("n,N,L", [(1, 16, math.pi), (2, 4, 3.0)])
def test_stft_correlation_matches_shift_loop(n, N, L):
    f = synthesize("random_bandlimited", n=n, N=N, L=L, seed=9, B=1.0)
    w = synthesize("gaussian", n=n, N=N, L=L, a=2.0)
    scale = ref.spectrum_scale(n, L, N)
    m = ref.fft_order_indices(N)
    phase = np.where(m % 2 == 0, 1.0, -1.0)
    if n == 2:
        phase = phase[:, None] * phase[None, :]
    acc = np.zeros(f.values.shape)
    for shift in np.ndindex(f.values.shape):
        G = f.values * np.conj(np.roll(w.values, shift, axis=tuple(range(n))))
        acc += np.abs(scale * phase * ref.direct_dft(G)) ** 2
    inner = np.sqrt((2.0 * L / N) ** n * acc)
    xi = math.pi * m / L
    r = np.abs(xi) if n == 1 else np.hypot(xi[:, None], xi[None, :])
    want = math.sqrt((math.pi / L) ** n * np.sum((ref.weight("gevrey", 2.0, r) * inner) ** 2))
    got = ref.stft_p2_norm(f.values, w.values, L, 2.0, "gevrey", 2.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_band_ladder_ratio_matches_grid_product():
    N, R, s = 64, 4.0, 1.5
    F = np.zeros(N, dtype=complex)
    F[5:8] = 1.0  # the integer modes of (4, 7]
    x = -math.pi + 2.0 * math.pi * np.arange(N) / N
    m = ref.fft_order_indices(N)
    f = (2.0 * math.pi) ** -0.5 * (np.exp(1j * np.outer(x, m)) @ F)
    sq = f * f
    phase = np.where(m % 2 == 0, 1.0, -1.0)
    G = ref.spectrum_scale(1, math.pi, N) * phase * ref.direct_dft(sq)
    num = ref.lattice_norm(G, 1, math.pi, 2.0, 1.0, "gevrey", s, N // 2)
    den = ref.lattice_norm(F, 1, math.pi, 2.0, 1.0, "gevrey", s, N // 2) ** 2
    assert ref.band_ladder_ratio(R, s) == pytest.approx(num / den, rel=1e-10)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_fft_transform_count_includes_batch_rows():
    a1 = np.zeros((64, 256))
    assert tracing.fft_transform_count("ifft", a1, (), {"axis": 1}) == 64
    assert tracing.fft_transform_count("fft", np.zeros(256), (), {}) == 1
    a2 = np.zeros((16, 32, 32))
    assert tracing.fft_transform_count("ifft2", a2, (), {"axes": (1, 2)}) == 16
    assert tracing.fft_transform_count("fftn", np.zeros((32, 32)), (), {}) == 1


def test_tracer_wraps_and_restores_every_binding():
    orig_norm, orig_family = cli.cmd_norm, cli._FAMILIES["weights"]
    orig_fft = np.fft.ifft
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.cmd_norm is not orig_norm
        assert cli._FAMILIES["weights"] is not orig_family
        tracer.enabled = True
        f = synthesize("random_bandlimited", N=16, seed=3, B=3.0)
        mod_norm(f.copy_with(f.values), NormParams(2.0, 2.0, WeightSpec.gevrey(2.0)))
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert cli.cmd_norm is orig_norm and cli._FAMILIES["weights"] is orig_family
    assert np.fft.ifft is orig_fft
    assert tracer.stats["modspace.mod_norm_record.lattice"][0] == 1
    cells = tracer.counters["modspace.lattice_cells"]
    assert cells > 0 and tracer.stats["weights.weight_eval"][0] == cells
    assert tracer.counters["modspace.fft_transforms"] >= 1 + cells  # spectrum + blocks
