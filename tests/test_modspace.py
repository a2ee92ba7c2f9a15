"""Sampled functions, spectra, decomposition and short-time norms."""

import itertools
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modspaces import cli, modspace
from modspaces.modspace import (
    NormParams,
    SampledFunction,
    TruncationWarning,
    check_algebra_ratio,
    default_k_max,
    from_spectrum,
    load_function,
    mod_norm,
    mod_norm_record,
    multiply,
    refine,
    save_function,
    stft_norm,
    synthesize,
)
from modspaces.partition import _sigma_axis, build_window, sigma_partial
from modspaces.weights import WeightSpec, weight_eval

import _oracles as orc

PI = math.pi


# ----------------------------------------------------------------------
# spectra and transform conventions
# ----------------------------------------------------------------------

def test_mode_spectrum_single_coefficient():
    f = synthesize("mode", k=3, N=64)
    F = f.spectrum
    idx = f.index_axis()
    expect = np.where(idx == 3, math.sqrt(2 * PI), 0.0)
    np.testing.assert_allclose(F, expect, atol=1e-12)


def test_gaussian_spectrum_matches_closed_form():
    f = synthesize("gaussian", a=1.0, L=12.0, N=512)
    xi = f.xi_axis()
    expect = np.array([float(orc.gaussian_transform(1.0, x)) for x in xi])
    np.testing.assert_allclose(f.spectrum.real, expect, atol=1e-12)
    np.testing.assert_allclose(f.spectrum.imag, 0.0, atol=1e-12)


def test_from_spectrum_round_trip():
    rng = np.random.default_rng(41)
    coeffs = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    f = from_spectrum(1, PI, 64, coeffs)
    g = SampledFunction(1, PI, 64, f.values)  # force recomputation
    np.testing.assert_allclose(g.spectrum, coeffs, atol=1e-10)


def test_parseval_identity():
    f = synthesize("random_bandlimited", B=10.0, N=128, seed=5)
    space = f.cell_volume * np.sum(np.abs(f.values) ** 2)
    freq = (PI / f.L) ** f.n * np.sum(np.abs(f.spectrum) ** 2)
    assert space == pytest.approx(freq, rel=1e-12)


def test_grid_bookkeeping():
    f = synthesize("gaussian", a=1.0, L=2.0, N=8)
    np.testing.assert_allclose(f.grid_axis(), -2.0 + 0.5 * np.arange(8))
    assert f.spacing == pytest.approx(0.5)
    assert f.cell_volume == pytest.approx(0.5)
    np.testing.assert_allclose(f.xi_axis(), PI * f.index_axis() / 2.0)
    assert default_k_max(f) == int(PI * 4 / 2.0)


def test_sampled_function_validation():
    with pytest.raises(ValueError):
        SampledFunction(3, PI, 8, np.zeros(8))
    with pytest.raises(ValueError):
        SampledFunction(1, PI, 12, np.zeros(12))
    with pytest.raises(ValueError):
        SampledFunction(1, PI, 8, np.zeros(9))


def test_synthesize_validation():
    with pytest.raises(ValueError):
        synthesize("mode", k=1, L=2.0)  # off the frequency grid
    with pytest.raises(ValueError):
        synthesize("mode", k=200, N=64)  # beyond Nyquist
    with pytest.raises(ValueError):
        synthesize("gaussian", a=-1.0)
    with pytest.raises(ValueError):
        synthesize("random_bandlimited", B=8.0)  # no seed
    with pytest.raises(ValueError):
        synthesize("random_bandlimited", B=1e6, seed=1)
    with pytest.raises(ValueError):
        synthesize("wavelet")


def test_synthesize_rejects_a_negative_band():
    # a negative band has no modes: it gave an all-zero "random" function
    with pytest.raises(ValueError, match="nonnegative"):
        synthesize("random_bandlimited", B=-0.5, N=16, seed=0)
    # B = 0 keeps the constant mode alone
    f = synthesize("random_bandlimited", B=0.0, N=16, seed=0)
    assert f.values[0] != 0 and np.all(f.values == f.values[0])


def test_random_bandlimited_is_real_and_banded():
    f = synthesize("random_bandlimited", B=6.0, N=64, seed=11)
    assert np.max(np.abs(f.values.imag)) < 1e-12
    xi = f.xi_axis()
    outside = np.abs(xi) > 6.0 + 1e-9
    assert np.max(np.abs(f.spectrum[outside])) == 0.0


def test_random_bandlimited_seed_determinism():
    f = synthesize("random_bandlimited", B=6.0, N=64, seed=11)
    g = synthesize("random_bandlimited", B=6.0, N=64, seed=11)
    np.testing.assert_array_equal(f.values, g.values)
    h = synthesize("random_bandlimited", B=6.0, N=64, seed=12)
    assert np.max(np.abs(f.values - h.values)) > 1e-6


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
@pytest.mark.parametrize("L", [PI, 2.8, 3.5, 5.0])
def test_tensor_grid_generator_and_refine_match_the_per_dimension_loops(n, N, L):
    nyq = PI * (N // 2 - 1) / L
    for B in (0.0, 1.0, 0.5 * nyq, nyq):
        for real in (True, False):
            for seed in (0, 1, 2):
                f = synthesize("random_bandlimited", n=n, L=L, N=N, seed=seed, B=B, real=real)
                g = orc.random_bandlimited_per_mode(n, L, N, B, real, seed)
                assert np.array_equal(f.spectrum, g.spectrum)
                assert np.array_equal(f.values, g.values)
                for factor in (2, 4):
                    r, s = refine(f, factor), orc.refine_per_dimension(f, factor)
                    assert np.array_equal(r.spectrum, s.spectrum)
                    assert np.array_equal(r.values, s.values)


def test_mode_radius_by_sqrt_is_hypot():
    # The band test takes sqrt of the exact integer |m|^2; it equals
    # math.hypot bit for bit on these pairs (signs do not matter).
    side = np.arange(701)
    r = np.sqrt(side[:, None] ** 2 + side[None, :] ** 2)
    hyp = np.array([[math.hypot(a, b) for b in range(701)] for a in range(701)])
    assert np.array_equal(r, hyp)


# ----------------------------------------------------------------------
# block operators
# ----------------------------------------------------------------------

def test_box_k_lattice_selects_exactly():
    f = synthesize("random_bandlimited", B=5.0, N=64, seed=2)
    g = orc.box_k(f, 3)
    idx = f.index_axis()
    expect = np.where(idx == 3, f.spectrum, 0.0)
    np.testing.assert_allclose(g.spectrum, expect, atol=1e-12)


def test_box_sum_reconstructs():
    f = synthesize("random_bandlimited", B=5.0, N=64, seed=3)
    total = np.zeros_like(f.values)
    for k in range(-6, 7):
        total = total + orc.box_k(f, k).values
    np.testing.assert_allclose(total, f.values, atol=1e-10)


def test_box_sum_reconstructs_continuum():
    f = synthesize("gaussian", a=1.0, L=8.0, N=256)
    total = np.zeros_like(f.values)
    for k in range(-12, 13):
        total = total + orc.box_k(f, k, mode="continuum").values
    np.testing.assert_allclose(total, f.values, atol=1e-9)


@pytest.mark.parametrize("L", [PI, PI / 2, 2 * PI, 3.5])
def test_axis_sigma_rows_banded_equal_dense(L):
    # Only the band |xi_m - k| < 1 of each row is evaluated; the dense
    # matrix must be bit-identical to evaluating every row on the whole
    # axis.  L = pi/2 puts grid points exactly on k +- 1.
    f = synthesize("gaussian", L=L, N=64)
    k_max = default_k_max(f)
    ks = np.arange(-k_max, k_max + 1)
    dense = np.stack([_sigma_axis(f.xi_axis(), int(k)) for k in ks])
    banded = modspace._band_rows(modspace._axis_sigma_band(f, ks), f.N)
    assert np.array_equal(banded, dense)
    assert np.array_equal(orc.axis_sigma_rows(f, ks), dense)


def test_box_mode_validation():
    f = synthesize("gaussian", a=1.0, L=2.0, N=32)
    with pytest.raises(ValueError):
        orc.box_k(f, 0, mode="lattice")  # L != pi
    with pytest.raises(ValueError):
        orc.box_k(f, 0, mode="windowed")


# ----------------------------------------------------------------------
# norms
# ----------------------------------------------------------------------

def test_lp_norm_gaussian_against_oracle():
    f = synthesize("gaussian", a=1.0, L=10.0, N=512)
    assert orc.lp_norm(f, 2) == pytest.approx(float(orc.gaussian_l2_norm(1.0)), rel=1e-10)
    assert orc.lp_norm(f, math.inf) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        orc.lp_norm(f, 0.5)


def test_mod_norm_single_mode_closed_form():
    c, k = 2.5, 4
    f = synthesize("mode", k=k, c=c, N=64)
    for spec in (WeightSpec.polynomial(2.0), WeightSpec.gevrey(2.0)):
        for p, q in [(2.0, 1.0), (1.0, 2.0), (math.inf, math.inf)]:
            val = mod_norm(f, NormParams(p, q, spec))
            blk = c * (2 * PI) ** (1.0 / p) if p != math.inf else c
            assert val == pytest.approx(weight_eval(spec, k) * blk, rel=1e-12)


def test_mod_norm_two_modes_q_aggregation():
    f1 = synthesize("mode", k=2, c=1.0, N=64)
    f2 = synthesize("mode", k=5, c=3.0, N=64)
    f = f1.copy_with(f1.values + f2.values)
    spec = WeightSpec.polynomial(1.0)
    q = 2.0
    terms = [
        math.sqrt(1 + 2 * 2) * 1.0 * math.sqrt(2 * PI),
        math.sqrt(1 + 5 * 5) * 3.0 * math.sqrt(2 * PI),
    ]
    expect = (terms[0] ** q + terms[1] ** q) ** (1.0 / q)
    assert mod_norm(f, NormParams(2.0, q, spec)) == pytest.approx(expect, rel=1e-12)
    # q = inf takes the max term
    expect_sup = max(terms)
    assert mod_norm(f, NormParams(2.0, math.inf, spec)) == pytest.approx(expect_sup, rel=1e-12)


def _block_route(f, p):
    """Cells with a nonzero block and their ||box_k f||_p, one block at a time."""
    half = f.N // 2
    side = range(-half, half + 1)
    cells = [(k,) for k in side] if f.n == 1 else [(a, b) for a in side for b in side]
    blocks = [(c, orc.lp_norm(orc.box_k(f, c), p)) for c in cells]
    return [(c, blk) for c, blk in blocks if blk != 0.0]


def _weighted_lq(blocks, weight, q):
    terms = np.array([weight_eval(weight, c) * blk for c, blk in blocks])
    if q == math.inf:
        return float(np.max(terms))
    return float(np.sum(terms**q) ** (1.0 / q))


@pytest.mark.filterwarnings("ignore::modspaces.modspace.TruncationWarning")
@pytest.mark.parametrize("n,N", [(1, 256), (2, 32)])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_mod_norm_lattice_matches_block_route(n, N, p):
    # The lattice norm is a closed form in the coefficients; the oracle's
    # box_k + lp_norm inverts each block separately, the independent route.
    # Random samples give a recomputed spectrum with every mode nonzero.
    rng = np.random.default_rng(70 + n)
    shape = (N,) if n == 1 else (N, N)
    f = SampledFunction(n, PI, N, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert np.all(f.spectrum != 0)
    blocks = _block_route(f, p)
    for spec in (WeightSpec.gevrey(2.0), WeightSpec.loglog(), WeightSpec.polynomial(1.5)):
        for q in (1.0, 2.0, math.inf):
            got = mod_norm(f, NormParams(p, q, spec))
            assert got == pytest.approx(_weighted_lq(blocks, spec, q), rel=1e-13)


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_mod_norm_lattice_zero_coefficient_at_infinite_weight():
    # 2^(10|k|) overflows to inf beyond |k| ~ 102.4; the coefficients
    # there are exactly zero, and 0 * inf must not turn the norm into NaN.
    coeffs = np.zeros(256, dtype=np.complex128)
    coeffs[[1, 2, 5, -3]] = [1.0, 0.5j, -2.0, 0.25]
    f = from_spectrum(1, PI, 256, coeffs)
    spec = WeightSpec.exponential(10.0)
    assert weight_eval(spec, 110) == math.inf
    blocks = _block_route(f, 2.0)
    for q in (1.0, 2.0, math.inf):
        got = mod_norm(f, NormParams(2.0, q, spec))
        assert math.isfinite(got)
        assert got == pytest.approx(_weighted_lq(blocks, spec, q), rel=1e-13)


def test_mod_norm_lattice_on_cached_spectrum_needs_no_fft(monkeypatch):
    f = synthesize("random_bandlimited", n=2, B=6.0, N=32, seed=8)
    f.spectrum  # cache it before the transforms are blocked

    def no_fft(*args, **kwargs):
        raise AssertionError("lattice norm ran an FFT")

    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, no_fft)
    assert mod_norm(f, NormParams(2.0, 1.0, WeightSpec.gevrey(2.0))) > 0.0


def test_mod_norm_lattice_equals_continuum_at_integer_period():
    # At L = pi the window restricted to the xi grid is a Kronecker
    # delta, so the two modes must agree to rounding.
    f = synthesize("random_bandlimited", B=8.0, N=64, seed=9)
    spec = WeightSpec.gevrey(2.0)
    a = mod_norm(f, NormParams(2.0, 2.0, spec, mode="lattice"))
    b = mod_norm(f, NormParams(2.0, 2.0, spec, mode="continuum"))
    assert a == pytest.approx(b, rel=1e-12)


def test_mod_norm_continuum_refinement_stable():
    f = synthesize("gaussian", a=1.0, L=8.0, N=256)
    spec = WeightSpec.polynomial(2.0)
    a = mod_norm(f, NormParams(2.0, 2.0, spec, mode="continuum"))
    b = mod_norm(refine(f), NormParams(2.0, 2.0, spec, mode="continuum"))
    assert a == pytest.approx(b, rel=1e-9)


def _continuum_cases():
    """1-d and 2-d functions at L = pi and off the integer lattice, plus one
    spectrum recomputed from samples, where every coefficient is nonzero."""
    cases = []
    for n, N, B in ((1, 256, 10.0), (2, 32, 7.0)):
        for L in (PI, 3.5, 2.8):
            cases.append(synthesize("random_bandlimited", n=n, L=L, N=N, seed=11, B=B))
    rng = np.random.default_rng(12)
    samples = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    cases.append(SampledFunction(2, 2.8, 32, samples))
    return cases


@pytest.mark.filterwarnings("ignore::modspaces.modspace.TruncationWarning")
@pytest.mark.parametrize("f", _continuum_cases(), ids=lambda f: f"n{f.n}-N{f.N}-L{f.L:.3g}")
def test_mod_norm_continuum_p2_matches_ifft_route(f, monkeypatch):
    # p = 2 is the discrete Parseval closed form; inverting sigma_k * F
    # by band synthesis (the p != 2 route) is the dual route, forced
    # here at p = 2.
    k_max = default_k_max(f)
    if f._spectrum is None:
        assert np.all(f.spectrum != 0)
    cells, blocks = modspace._continuum_block_norms(f, k_max, 2.0)
    cells_band, blocks_band = modspace._band_block_norms(f, k_max, 2.0)
    assert np.array_equal(cells, cells_band)
    np.testing.assert_allclose(blocks, blocks_band, rtol=1e-12)
    spec = WeightSpec.gevrey(2.0)
    got = [mod_norm(f, NormParams(2.0, q, spec, mode="continuum")) for q in (1.0, 2.0, math.inf)]
    monkeypatch.setattr(modspace, "_continuum_block_norms", modspace._band_block_norms)
    expect = [mod_norm(f, NormParams(2.0, q, spec, mode="continuum")) for q in (1.0, 2.0, math.inf)]
    assert got == pytest.approx(expect, rel=1e-12)


def test_band_rows_equal_dense_rows():
    # 2-d _cell_sums scatters the band entries, raised to a power, into
    # the dense K x N matrix; power 0 must mark the support and no more.
    f = synthesize("gaussian", L=3.5, N=64)
    k_max = default_k_max(f)
    ks = np.arange(-k_max, k_max + 1)
    lo, row, t, val = modspace._axis_sigma_band(f, ks)
    dense = np.stack([_sigma_axis(f.xi_axis(), int(k)) for k in ks])
    for power in (0, 1, 2):
        got = modspace._band_rows((lo, row, t, val**power), f.N)
        assert np.array_equal(got, np.where(dense != 0, dense**power, 0.0))


@pytest.mark.filterwarnings("ignore::modspaces.modspace.TruncationWarning")
@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
@pytest.mark.parametrize("f", _continuum_cases(), ids=lambda f: f"n{f.n}-N{f.N}-L{f.L:.3g}")
def test_band_block_norms_match_ifft_oracle(f, p):
    # band synthesis against the inverse FFT of each whole block, the
    # route it replaced; the last case keeps every cell of a 2-d grid
    k_max = default_k_max(f)
    cells, blocks = modspace._band_block_norms(f, k_max, p)
    cells_fft, blocks_fft = orc.ifft_block_norms(f, k_max, p)
    assert np.array_equal(cells, cells_fft)
    np.testing.assert_allclose(blocks, blocks_fft, rtol=1e-13)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2])
def test_continuum_norm_evaluates_the_sigma_band_once(n, p, monkeypatch):
    # the cell list and either block route share one band; each
    # evaluating its own made two calls per norm
    calls = []
    band = modspace._axis_sigma_band

    def counting(*args):
        calls.append(args)
        return band(*args)
    monkeypatch.setattr(modspace, "_axis_sigma_band", counting)
    f = synthesize("random_bandlimited", n=n, L=3.5, N=64 if n == 1 else 32, seed=11, B=5.0)
    mod_norm_record(f, NormParams(p, 2.0, WeightSpec.gevrey(2.0), mode="continuum"))
    assert len(calls) == 1


@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
def test_continuum_ifft_blocks_match_box_route(p):
    # Samples with no zero spectral entry keep every cell, so 1-d N = 256
    # spans four batches and 2-d N = 16 batches mix rows of several k.
    rng = np.random.default_rng(21)
    for n, N in ((1, 256), (2, 16)):
        shape = (N,) * n
        f = SampledFunction(n, 2.8, N, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        k_max = default_k_max(f)
        cells, blocks = modspace._band_block_norms(f, k_max, p)
        assert len(cells) == (2 * k_max + 1) ** n
        expect = [orc.lp_norm(orc.box_k(f, tuple(k), mode="continuum"), p) for k in cells]
        np.testing.assert_allclose(blocks, expect, rtol=1e-12)


@pytest.mark.filterwarnings("ignore::modspaces.modspace.TruncationWarning")
def test_continuum_ifft_route_memory():
    # The p != 2 route must not hold a K x N matrix (128 MiB of axis rows
    # or 256 MiB of block samples at N = 4096); one chunk of 64 cells
    # takes a few MiB.  The band-limited input keeps about 21 cells; the
    # random samples keep 4096 of the 4097, so only chunking stays under
    # the cap.
    rng = np.random.default_rng(22)
    noise = SampledFunction(1, PI, 4096, rng.standard_normal(4096) + 1j * rng.standard_normal(4096))
    assert len(modspace._band_block_norms(noise, 2048, 1.0)[0]) == 4096
    for f in (synthesize("random_bandlimited", N=4096, seed=7, B=10), noise):
        f.spectrum  # cached before tracing starts
        tracemalloc.start()
        try:
            mod_norm(f, NormParams(1.0, 2.0, WeightSpec.gevrey(2.0), mode="continuum"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_mod_norm_continuum_zero_block_at_infinite_weight(p):
    # The row k = N/2 lies beyond the grid's last frequency, so its block
    # is exactly zero while e^(10|k|) overflows; continuum mode must drop
    # that cell as lattice mode does, not return 0 * inf = NaN.
    f = synthesize("random_bandlimited", N=256, seed=3, B=5.0)
    spec = WeightSpec.exponential(10.0)
    for q in (1.0, 2.0, math.inf):
        lattice = mod_norm(f, NormParams(p, q, spec, mode="lattice"))
        continuum = mod_norm(f, NormParams(p, q, spec, mode="continuum"))
        assert math.isfinite(lattice)
        assert continuum == pytest.approx(lattice, rel=1e-12)


def test_mod_norm_zero_function():
    f = SampledFunction(1, PI, 32, np.zeros(32, dtype=complex))
    rec = mod_norm_record(f, NormParams(2.0, 1.0, WeightSpec.polynomial(0.0)))
    assert rec["value"] == 0.0
    assert rec["truncation_tail"] == 0.0


def test_mod_norm_truncation_warning():
    f = synthesize("random_bandlimited", B=20.0, N=64, seed=4)
    params = NormParams(2.0, 1.0, WeightSpec.polynomial(0.0), k_max=5)
    with pytest.warns(TruncationWarning):
        rec = mod_norm_record(f, params)
    assert rec["truncation_tail"] > 1e-9
    assert rec["warnings"]


def test_norm_params_validation():
    f = synthesize("mode", k=1, N=32)
    with pytest.raises(ValueError):
        NormParams(2.0, 1.0, WeightSpec.loglog(), k_max=100).resolved_k_max(f)
    with pytest.raises(ValueError):
        mod_norm(f, NormParams(2.0, 0.5, WeightSpec.loglog()))
    with pytest.raises(ValueError):
        mod_norm(f, NormParams(2.0, 1.0, WeightSpec.loglog(), mode="spooky"))


def test_norm_params_to_dict_tokens():
    d = NormParams(math.inf, 2.0, WeightSpec.gevrey(1.5)).to_dict()
    assert d["p"] == "inf" and d["q"] == 2.0
    assert d["weight"] == {"variant": "gevrey", "s": 1.5}


_PINS = pathlib.Path(__file__).parent / "data" / "norm_layer_pins.json"
_PIN_GRIDS = [(1, 256, PI, 20.0), (1, 512, 3.5, 20.0), (2, 32, PI, 6.0), (2, 32, 2.8, 6.0)]
_PIN_WEIGHTS = {"gevrey:2": WeightSpec.gevrey(2.0), "loglog": WeightSpec.loglog(),
                "polynomial:1.5": WeightSpec.polynomial(1.5)}


def _token(v) -> str:
    return "inf" if v == math.inf else f"{v:g}"


def norm_layer_values() -> dict:
    """float.hex of mod_norm and stft_norm over the pinned grids, and of sigma_partial.

    The recorded file was written by this function; rewrite it with
    `json.dump(norm_layer_values(), fh, indent=1, sort_keys=True)` only
    when a change of the norm layer is meant to move its floats.
    """
    norms = {}
    for n, N, L, B in _PIN_GRIDS:
        window = synthesize("gaussian", n=n, L=L, N=N)
        modes = ("lattice", "continuum") if L == PI else ("continuum",)
        for seed in (0, 1):
            f = synthesize("random_bandlimited", n=n, L=L, N=N, B=B, seed=seed)
            for wname, spec in _PIN_WEIGHTS.items():
                at = f"n={n} N={N} L={L!r} seed={seed} {wname}"
                for q in (1.0, 2.0, math.inf):
                    for p in (1.0, 2.0, 3.0, math.inf):
                        for mode in modes:
                            value = mod_norm(f, NormParams(p, q, spec, mode=mode))
                            norms[f"mod_norm {at} p={_token(p)} q={_token(q)} {mode}"] = value.hex()
                    for p in (2.0, math.inf):
                        value = stft_norm(f, p, q, spec, window)
                        norms[f"stft_norm {at} p={_token(p)} q={_token(q)}"] = value.hex()
    sigma = {}
    for n, ks, axis in [(1, [(0,), (1,), (-2,)], np.linspace(-2.5, 2.5, 41)),
                        (2, [(0, 0), (1, -2)], np.linspace(-2.5, 2.5, 9))]:
        w = build_window(n)
        xi = np.array(list(itertools.product(axis, repeat=n)))
        for k in ks:
            for alpha in itertools.product(range(3), repeat=n):
                values = np.atleast_1d(sigma_partial(w, k, xi, alpha))
                sigma[f"n={n} k={k} alpha={alpha}"] = [float(v).hex() for v in values]
    return {"norms": norms, "sigma_partial": sigma}


@pytest.mark.filterwarnings("ignore::modspaces.modspace.TruncationWarning")
def test_norm_layer_floats_match_the_recorded_pins():
    # every norm and partition derivative bit for bit as recorded, so a
    # change that merges their code paths cannot move one float
    with open(_PINS) as fh:
        recorded = json.load(fh)
    got = norm_layer_values()
    for section in ("norms", "sigma_partial"):
        assert got[section].keys() == recorded[section].keys()
        moved = [key for key in got[section] if got[section][key] != recorded[section][key]]
        assert not moved, f"{len(moved)} {section} pins moved, first {moved[0]}"


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    st.integers(min_value=0, max_value=9999),
)
def test_mod_norm_homogeneous_and_triangle(c, seed):
    f = synthesize("random_bandlimited", B=5.0, N=32, seed=seed)
    g = synthesize("random_bandlimited", B=5.0, N=32, seed=seed + 13)
    params = NormParams(2.0, 1.0, WeightSpec.gevrey(2.0))
    nf, ng = mod_norm(f, params), mod_norm(g, params)
    scaled = mod_norm(f.copy_with(c * f.values), params)
    assert scaled == pytest.approx(abs(c) * nf, rel=1e-10, abs=1e-12)
    nsum = mod_norm(f.copy_with(f.values + g.values), params)
    assert nsum <= nf + ng + 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=9999))
def test_mod_norm_decreasing_in_q(seed):
    f = synthesize("random_bandlimited", B=5.0, N=32, seed=seed)
    spec = WeightSpec.loglog()
    vals = [mod_norm(f, NormParams(2.0, q, spec)) for q in (1.0, 2.0, 4.0, math.inf)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


# ----------------------------------------------------------------------
# short-time transform norm
# ----------------------------------------------------------------------

def test_stft_norm_mode_closed_form():
    # For f = e^{ikx} the transform modulus is |spectrum of window| at
    # xi - k, independent of the shift, so the norm reduces to a single
    # weighted sum over the window spectrum.
    N, k = 128, 3
    f = synthesize("mode", k=k, N=N)
    window = synthesize("gaussian", a=2.0, N=N)
    p, q = 2.0, 2.0
    spec = WeightSpec.polynomial(1.0)
    got = stft_norm(f, p, q, spec, window)

    W = np.abs(np.roll(window.spectrum, k))
    idx = f.index_axis()
    wts = (1.0 + (PI * idx / f.L) ** 2) ** 0.5
    inner = (2 * f.L) ** (1.0 / p) * W
    expect = ((PI / f.L) * np.sum((wts * inner) ** q)) ** (1.0 / q)
    assert got == pytest.approx(expect, rel=1e-10)


def test_stft_norm_sup_variants():
    f = synthesize("mode", k=0, N=64)
    window = synthesize("gaussian", a=1.0, N=64)
    val = stft_norm(f, math.inf, math.inf, WeightSpec.polynomial(0.0), window)
    assert val == pytest.approx(float(np.max(np.abs(window.spectrum))), rel=1e-10)


def test_stft_norm_guards():
    f = synthesize("gaussian", a=1.0, N=8192)
    window = synthesize("gaussian", a=1.0, N=8192)
    with pytest.raises(ValueError):
        stft_norm(f, 2, 2, WeightSpec.loglog(), window)
    f = synthesize("gaussian", a=1.0, N=64)
    wrong = synthesize("gaussian", a=1.0, N=32)
    with pytest.raises(ValueError):
        stft_norm(f, 2, 2, WeightSpec.loglog(), wrong)


@pytest.mark.parametrize("p, q", [(-1.0, 2.0), (2.0, -1.0), (0.5, 2.0), (2.0, 0.5),
                                  (math.nan, 2.0), (2.0, math.nan)])
def test_stft_norm_rejects_exponents_outside_one_to_inf(p, q):
    # unchecked, p = -1 returned 0.902, q = -1 5.8e-6, p = 0.5 262,
    # q = 0.5 977 and a NaN exponent nan, none with a warning
    f = synthesize("random_bandlimited", N=64, B=4.0, seed=1)
    window = synthesize("gaussian", a=1.0, N=64)
    with pytest.raises(ValueError, match=r"p and q must lie in \[1, inf\]"):
        stft_norm(f, p, q, WeightSpec.gevrey(2.0), window)


def test_stft_and_decomposition_comparable():
    f = synthesize("random_bandlimited", B=10.0, N=128, seed=21)
    window = synthesize("gaussian", a=2.0, N=128)
    spec = WeightSpec.gevrey(2.0)
    s = stft_norm(f, 2.0, 2.0, spec, window)
    m = mod_norm(f, NormParams(2.0, 2.0, spec))
    assert 0.05 < s / m < 20.0


def _modulated_pair(n, N, L):
    """Complex f and the window gaussian * e^{i(3 x_1 - 2 x_2)} (1-d: e^{3 i x})."""
    f = synthesize("random_bandlimited", n=n, L=L, N=N, seed=31, B=6.0, real=False)
    window = synthesize("gaussian", n=n, L=L, N=N, a=2.0)
    x = window.grid_axis()
    phase = 3 * x if n == 1 else 3 * x[:, None] - 2 * x[None, :]
    return f, window.copy_with(window.values * np.exp(1j * phase))


def _stft_both_routes(f, window, spec, monkeypatch, qs=(1.0, 2.0, math.inf)):
    """stft_norm at p = 2 for each q, by the correlation identity and by the shift loop."""
    got = [stft_norm(f, 2.0, q, spec, window) for q in qs]
    with monkeypatch.context() as m:
        m.setattr(modspace, "_stft_parseval_inner",
                  lambda f, window: modspace._stft_shift_inner(f, window, 2.0))
        expect = [stft_norm(f, 2.0, q, spec, window) for q in qs]
    return got, expect


@pytest.mark.parametrize("n,N,L", [(1, 128, PI), (1, 256, 3.5), (2, 16, PI), (2, 32, 2.8)])
def test_stft_norm_p2_matches_shift_loop(n, N, L, monkeypatch):
    # Complex f and a modulated window: the correlation runs over m - l,
    # and the reversed order l - m differs once |W| is not even.
    f, window = _modulated_pair(n, N, L)
    assert np.any(f.values.imag != 0)
    inner = modspace._stft_parseval_inner(f, window)
    np.testing.assert_allclose(inner, modspace._stft_shift_inner(f, window, 2.0),
                               rtol=1e-12, atol=1e-12 * float(np.max(inner)))
    got, expect = _stft_both_routes(f, window, WeightSpec.gevrey(2.0), monkeypatch)
    assert got == pytest.approx(expect, rel=1e-12)


def test_stft_norm_p2_matches_shift_loop_under_steep_weight(monkeypatch):
    # At N = 1024 the gevrey weight reaches e^22.6.  An FFT convolution
    # is off by a factor 2.7 here, because its absolute round-off is
    # amplified by the weight; the direct sum is not.  The two routes
    # differ by 4.3e-12 at q = 2: the shift loop's transforms and the
    # spectrum of the samples carry different round-off, and the weight
    # amplifies both, so the bound is 1e-11.  (At q = 1 the amplified
    # round-off of the far frequencies weighs more: 4.6e-9.)
    f = synthesize("random_bandlimited", N=1024, seed=7, B=10.0)
    window = synthesize("gaussian", N=1024, a=2.0)
    got, expect = _stft_both_routes(f, window, WeightSpec.gevrey(2.0), monkeypatch, qs=(2.0,))
    assert got == pytest.approx(expect, rel=1e-11)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("L", [PI, 5.0])
@pytest.mark.parametrize("n,N", [(1, 64), (1, 512), (2, 16), (2, 32)])
def test_stft_shift_loop_matches_per_dimension_loop(n, N, L, p):
    # One n-dimensional roll and transform per shift gives the
    # per-dimension loop's inner norms bit for bit.  Both factors are
    # complex and asymmetric, so a roll along the wrong axis shows.
    f = synthesize("random_bandlimited", n=n, L=L, N=N, seed=41, B=3.0, real=False)
    window = synthesize("random_bandlimited", n=n, L=L, N=N, seed=42, B=3.0, real=False)
    assert np.array_equal(modspace._stft_shift_inner(f, window, p),
                          orc.stft_shift_inner_per_dimension(f, window, p))


# ----------------------------------------------------------------------
# algebra helpers
# ----------------------------------------------------------------------

def test_multiply_and_refine():
    f = synthesize("mode", k=2, N=64)
    g = synthesize("mode", k=3, N=64)
    h = multiply(f, g)
    expect = synthesize("mode", k=5, N=64)
    np.testing.assert_allclose(h.values, expect.values, atol=1e-12)
    r = refine(f)
    assert r.N == 128 and r.L == f.L
    expect_fine = synthesize("mode", k=2, N=128)
    np.testing.assert_allclose(r.values, expect_fine.values, atol=1e-10)
    with pytest.raises(ValueError):
        multiply(f, synthesize("mode", k=1, N=32))
    with pytest.raises(ValueError):
        refine(f, 3)


def test_refine_2d_preserves_spectrum():
    f = synthesize("random_bandlimited", n=2, B=4.0, N=16, seed=30)
    r = refine(f)
    params = NormParams(2.0, 2.0, WeightSpec.polynomial(1.0))
    assert mod_norm(r, params) == pytest.approx(mod_norm(f, params), rel=1e-10)


def test_check_algebra_ratio_constant_pair_is_one():
    # f = g = 1: every norm involves only the k = 0 block, and with
    # p1 = p2 = 2p the (2L)^(1/p) factors cancel exactly.
    one = synthesize("mode", k=0, N=32)
    params = NormParams(2.0, 1.0, WeightSpec.polynomial(2.0))
    [rep] = check_algebra_ratio([(one, one)], [params])
    assert rep.passed
    assert rep.extra["max_ratio"] == pytest.approx(1.0, rel=1e-12)


def test_check_algebra_ratio_corpus():
    corpus = [
        (
            synthesize("random_bandlimited", B=6.0, N=64, seed=50 + i),
            synthesize("random_bandlimited", B=6.0, N=64, seed=60 + i),
        )
        for i in range(4)
    ]
    params = NormParams(2.0, 2.0, WeightSpec.gevrey(2.0))
    [rep] = check_algebra_ratio(corpus, [params])
    assert rep.passed
    assert len(rep.extra["ratios"]) == 4
    assert all(math.isfinite(r) for r in rep.extra["ratios"])
    assert rep.extra["rel_change"] < 0.05


def _algebra_params(**changes):
    return [NormParams(**{"p": 2.0, "q": 2.0, "weight": w, **changes})
            for w in cli._ALGEBRA_WEIGHTS.values()]


def _zero_pair():
    g = synthesize("random_bandlimited", B=20.0, N=128, seed=101)
    return g.copy_with(np.zeros(128)), g


def test_check_algebra_ratio_matches_per_norm_route():
    # the shared weight-free work against one mod_norm per norm and weight,
    # exactly, at both scales; the zero factor's ratio is inf on both routes
    pairs = cli._algebra_corpus(10) + [_zero_pair()]
    params = _algebra_params()
    reports = check_algebra_ratio(pairs, params)
    assert len(reports) == 3
    for rep, par in zip(reports, params):
        assert rep.params == par.to_dict()
        assert rep.extra["ratios"] == orc.algebra_ratios_per_norm(pairs, par, 1)
        assert rep.extra["ratios_refined"] == orc.algebra_ratios_per_norm(pairs, par, 2)
        assert rep.extra["ratios"][-1] == math.inf


def test_check_algebra_ratio_zero_factor_is_inf_not_nan():
    # unguarded, rel_change would be |inf - inf| / inf = nan
    pairs = cli._algebra_corpus(2) + [_zero_pair()]
    for rep in check_algebra_ratio(pairs, _algebra_params()):
        assert rep.extra["max_ratio"] == rep.extra["max_ratio_refined"] == math.inf
        assert rep.extra["rel_change"] == math.inf
        assert rep.min_margin == -math.inf and not rep.passed


@pytest.mark.parametrize("corpus, params, match", [
    ([], _algebra_params(), r"at least one \(f, g\) pair"),
    ("corpus", [], "at least one NormParams"),
    ("corpus", _algebra_params()[:1] + _algebra_params(p=1.0)[1:], "p is 2.0 and 1.0"),
    ("corpus", _algebra_params()[:2] + _algebra_params(q=1.0)[2:], "q is 2.0 and 1.0"),
    ("corpus", _algebra_params()[:1] + _algebra_params(mode="continuum")[1:],
     "mode is 'lattice' and 'continuum'"),
    ("corpus", _algebra_params()[:1] + _algebra_params(k_max=10)[1:], "k_max is None and 10"),
], ids=["empty-corpus", "empty-params", "p", "q", "mode", "k_max"])
def test_check_algebra_ratio_rejects_empty_or_mixed_input(corpus, params, match):
    corpus = cli._algebra_corpus(1) if corpus == "corpus" else corpus
    with pytest.raises(ValueError, match=match):
        check_algebra_ratio(corpus, params)


# ----------------------------------------------------------------------
# file format
# ----------------------------------------------------------------------

def test_save_load_round_trip_bit_exact(tmp_path):
    f = synthesize("random_bandlimited", B=7.0, N=64, seed=77)
    path = tmp_path / "fn.csv"
    save_function(f, path, kind="random_bandlimited", seed=77)
    g, header = load_function(path)
    np.testing.assert_array_equal(g.values, f.values)
    assert (g.n, g.L, g.N) == (f.n, f.L, f.N)
    assert header["kind"] == "random_bandlimited" and header["seed"] == 77


def test_load_function_rejects_short_file(tmp_path):
    f = synthesize("mode", k=1, N=32)
    path = tmp_path / "fn.csv"
    save_function(f, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-4]) + "\n")
    with pytest.raises(ValueError):
        load_function(path)
