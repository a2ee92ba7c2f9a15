"""Phase splitting, product identity, composition norms, growth envelopes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modspaces.modspace import (
    NormParams,
    TruncationWarning,
    from_spectrum,
    mod_norm,
    refine,
    synthesize,
)
from modspaces.specialfn import density_by_name
from modspaces.superpose import (
    _scan_rows,
    bound_scan,
    compose,
    exp_minus_one_norm,
    fit_growth_envelope,
    lipschitz_check,
    phase_split,
    product_identity_check,
    subalgebra_band_ratio,
    subalgebra_ladder,
)
from modspaces.weights import WeightSpec

import _oracles as orc

PI = math.pi


# ----------------------------------------------------------------------
# phase split
# ----------------------------------------------------------------------

def test_phase_split_reconstructs_1d_and_2d():
    u1 = synthesize("random_bandlimited", B=12.0, N=128, seed=300)
    sp1 = phase_split(u1, 4.0)
    assert sp1.residual(u1) < 1e-10
    assert len(sp1.parts) == 2
    u2 = synthesize("random_bandlimited", n=2, B=8.0, N=32, seed=301)
    sp2 = phase_split(u2, 3.0)
    assert sp2.residual(u2) < 1e-10
    assert len(sp2.parts) == 4


def test_phase_split_pieces_have_disjoint_spectra():
    u = synthesize("random_bandlimited", B=12.0, N=128, seed=302)
    sp = phase_split(u, 4.0)
    pieces = sp.pieces()
    supports = [np.abs(p.spectrum) > 1e-13 for p in pieces]
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            assert not np.any(supports[i] & supports[j])
    # the low piece really is confined to the cube
    xi = u.xi_axis()
    assert np.max(np.abs(sp.u0.spectrum[np.abs(xi) > 4.0 + 1e-9])) == 0.0


def test_phase_split_zero_axis_goes_to_positive_side():
    # frequency (0, 7): outside the cube, first coordinate exactly zero,
    # so the (+,+) orthant must claim it
    N = 32
    coeffs = np.zeros((N, N), dtype=complex)
    coeffs[0, 7] = 1.0
    coeffs[0, N - 7] = 1.0  # Hermitian partner (0, -7)
    u = from_spectrum(2, PI, N, coeffs)
    sp = phase_split(u, 2.0)
    assert abs(sp.parts[(0, 0)].spectrum[0, 7]) == pytest.approx(1.0)
    assert abs(sp.parts[(0, 1)].spectrum[0, N - 7]) == pytest.approx(1.0)
    for eps in [(1, 0), (1, 1)]:
        assert np.max(np.abs(sp.parts[eps].spectrum)) == 0.0


def test_phase_split_norm_subadditive():
    u = synthesize("random_bandlimited", B=12.0, N=128, seed=303)
    sp = phase_split(u, 4.0)
    params = NormParams(2.0, 1.0, WeightSpec.gevrey(2.0))
    total = sum(mod_norm(p, params) for p in sp.pieces())
    assert mod_norm(u, params) <= total + 1e-12


def test_phase_split_validation():
    u = synthesize("random_bandlimited", B=6.0, N=64, seed=304)
    with pytest.raises(ValueError):
        phase_split(u, 1.0)
    complex_u = u.copy_with(u.values + 1j)
    with pytest.raises(ValueError):
        phase_split(complex_u, 3.0)


# ----------------------------------------------------------------------
# product identity
# ----------------------------------------------------------------------

def test_product_identity_exact_cases():
    assert product_identity_check([2.0 + 1.0j]) == 0.0
    assert product_identity_check([1.5, -0.5 + 2j]) < 1e-14
    with pytest.raises(ValueError):
        product_identity_check([])
    with pytest.raises(ValueError):
        product_identity_check([1.0] * 21)


def test_product_identity_twenty_factors():
    rng = np.random.default_rng(20260814)
    a = rng.standard_normal(20) * 0.3 + 1.0 + 0.2j * rng.standard_normal(20)
    assert product_identity_check(a) < 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=10,
    )
)
def test_product_identity_property(a):
    assert product_identity_check(a) < 1e-10


# ----------------------------------------------------------------------
# e^{iu} - 1 norms
# ----------------------------------------------------------------------

def test_exp_minus_one_constant_closed_form():
    c = 1.3
    u = synthesize("mode", k=0, c=c, N=64)
    params = NormParams(2.0, 1.0, WeightSpec.polynomial(0.0))
    got = exp_minus_one_norm(u, params)
    expect = 2.0 * abs(math.sin(c / 2.0)) * math.sqrt(2 * PI)
    assert got == pytest.approx(expect, rel=1e-10)


def test_exp_minus_one_validation_and_tail_guard():
    u = synthesize("random_bandlimited", B=10.0, N=64, seed=310)
    with pytest.raises(ValueError):
        exp_minus_one_norm(u, NormParams(1.0, 1.0, WeightSpec.loglog()))
    with pytest.raises(ValueError):
        exp_minus_one_norm(u, NormParams(math.inf, 1.0, WeightSpec.loglog()))
    with pytest.raises(ValueError):
        exp_minus_one_norm(u.copy_with(u.values + 1j),
                           NormParams(2.0, 1.0, WeightSpec.loglog()))
    big = u.copy_with(8.0 * u.values)
    tight = NormParams(2.0, 1.0, WeightSpec.polynomial(0.0), k_max=8)
    with pytest.raises(ValueError, match="refine the grid"):
        with pytest.warns(TruncationWarning):
            exp_minus_one_norm(big, tight)


def test_exp_minus_one_record_fields():
    u = synthesize("random_bandlimited", B=6.0, N=64, seed=311)
    rec = exp_minus_one_norm(u, NormParams(2.0, 1.0, WeightSpec.loglog()),
                             record=True)
    assert set(rec) >= {"value", "truncation_tail", "params", "warnings"}
    assert rec["value"] > 0.0
    assert rec["truncation_tail"] <= 1e-6


# ----------------------------------------------------------------------
# growth envelopes
# ----------------------------------------------------------------------

def test_fit_growth_envelope_recovers_synthetic_bound():
    vs = np.geomspace(0.5, 50.0, 12)
    big = np.maximum(vs, 1.0)
    lhs = 0.8 * vs * np.exp(0.05 * big ** 0.5 * np.log(big))
    fit = fit_growth_envelope(vs, lhs, "gevrey", {"s": 2.0})
    assert fit["min_residual"] >= 0.0
    assert np.all(fit["bounds"] >= lhs)
    # the fitted envelope is tight: within a factor ~2 at the worst point
    assert fit["max_residual"] <= np.max(lhs)


# Pooled (norm, lhs) points of the full campaign's growth-envelope check:
# five fixtures scaled to gevrey norm 0.5, lambda in {2, 4, 8, 16}.
_CAMPAIGN_NORMS = [
    1.0000000000000142, 2.0000000000000284, 4.000000000000057, 8.000000000000114,
    0.9999999999999212, 1.9999999999998423, 3.9999999999996847, 7.999999999999369,
    1.0000000000000302, 2.0000000000000604, 4.000000000000121, 8.000000000000242,
    1.000000000000031, 2.000000000000062, 4.000000000000124, 8.000000000000249,
    1.0000000000000848, 2.0000000000001696, 4.000000000000339, 8.000000000000679,
]
_CAMPAIGN_LHS = [
    1.0092322155167488, 2.0371821185404113, 4.150775115236044, 8.61888400474895,
    1.0097689996851509, 2.0392026043744504, 4.157788530382738, 8.638445042116468,
    1.0123309764149, 2.049507982955969, 4.199565593702042, 8.811010883726091,
    1.0082230064204558, 2.0329399605921314, 4.132167403898088, 8.531914946895531,
    1.0096355682838936, 2.038737271717415, 4.156739249335571, 8.646097795751762,
]


@pytest.mark.parametrize(
    "regime,rparams",
    [("gevrey", {"s": 2.0}), ("loglog", {"theta": 1.5, "N": 3.0})],
)
def test_fit_growth_envelope_b_is_stable_under_round_off(regime, rparams):
    # On these points the worst slack is flat in b to ~2e-13 relative
    # over the low end of the grid, so a plain argmin follows round-off.
    # The tie rule must pick the same, mildest b however the inputs
    # move at that level.
    vs = np.array(_CAMPAIGN_NORMS)
    lhs = np.array(_CAMPAIGN_LHS)
    base = fit_growth_envelope(vs, lhs, regime, rparams)
    assert base["b"] == pytest.approx(1e-3, rel=1e-12)  # first grid point
    for scale in (1.0 + 1e-14, 1.0 - 1e-14):
        assert fit_growth_envelope(vs, lhs * scale, regime, rparams)["b"] == base["b"]
    for seed in range(6):
        noise = np.random.default_rng(seed).uniform(-1.0, 1.0, vs.size)
        moved = fit_growth_envelope(vs * (1.0 + 1e-13 * noise), lhs, regime, rparams)
        assert moved["b"] == base["b"]
        assert moved["min_residual"] >= 0.0


def test_fit_growth_envelope_validation():
    gevrey = {"s": 2.0}
    with pytest.raises(ValueError):
        fit_growth_envelope([], [], "gevrey", gevrey)
    with pytest.raises(ValueError):
        fit_growth_envelope([1.0, 2.0], [1.0], "gevrey", gevrey)
    with pytest.raises(ValueError):
        fit_growth_envelope([0.0, 1.0], [1.0, 1.0], "gevrey", gevrey)
    with pytest.raises(ValueError):
        fit_growth_envelope([1.0], [1.0], "weird", {})
    # measure_L1's loglog keys name no N: the envelope must not default it,
    # and a missing key is a ValueError naming it
    with pytest.raises(ValueError, match="'N'"):
        fit_growth_envelope([1.0, 2.0], [1.0, 2.0], "loglog", {"theta": 1.5, "eps": 0.5})
    with pytest.raises(ValueError, match="'s'"):
        fit_growth_envelope([1, 2], [1, 2], "gevrey", {})


def test_fit_growth_envelope_rejects_a_nan_norm():
    # unchecked, the fit returned c = nan with min_residual = inf, which
    # the campaign's min_residual >= 0 rule passes
    with pytest.raises(ValueError, match="finite norms; entry 1 is nan"):
        fit_growth_envelope([1.0, math.nan], [1.0, 1.0], "gevrey", {"s": 2.0})


def test_fit_growth_envelope_rejects_an_infinite_norm():
    # unchecked, this fit passed with max_residual = inf
    with pytest.raises(ValueError, match="finite norms; entry 1 is inf"):
        fit_growth_envelope([1.0, math.inf], [1.0, 1.0], "gevrey", {"s": 2.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_growth_envelope_rejects_a_non_finite_lhs(bad):
    # unchecked, this raised "min() arg is an empty sequence"
    with pytest.raises(ValueError, match=f"finite lhs_values; entry 0 is {bad}"):
        fit_growth_envelope([1.0, 2.0], [bad, 1.0], "gevrey", {"s": 2.0})


@pytest.mark.parametrize("norm, lhs", [(1e300, 1.0), (1e-300, 1e300)],
                         ids=["underflow", "overflow"])
def test_fit_growth_envelope_rejects_a_constant_beyond_the_float_range(norm, lhs):
    # unchecked, c = exp(log_c) underflowed to 0.0 with min_residual =
    # 0.0, bounds that 0 * shape cannot reproduce, or math.exp raised a
    # bare OverflowError
    with pytest.raises(ValueError, match="log_c"):
        fit_growth_envelope([norm], [lhs], "gevrey", {"s": 2.0})


_FIT_FIELDS = ("b", "c", "bounds", "residuals", "max_residual", "min_residual")


@st.composite
def _envelope_points(draw):
    """Fit inputs: random points, scaled campaign ties, or an overflowing one."""
    kind = draw(st.sampled_from(["random", "campaign", "overflow"]))
    if kind == "campaign":
        scale = draw(st.floats(0.01, 100.0))
        lhs_scale = draw(st.floats(0.5, 2.0))
        return (np.array(_CAMPAIGN_NORMS) * scale,
                np.array(_CAMPAIGN_LHS) * scale * lhs_scale)
    size = draw(st.integers(1, 30))
    exps = st.floats(-3.0, 3.0)
    vs = 10.0 ** np.array(draw(st.lists(exps, min_size=size, max_size=size)))
    lhs = 10.0 ** np.array(draw(st.lists(exps, min_size=size, max_size=size)))
    if kind == "overflow":
        # a norm this large sends its bound to inf at every b
        vs[0] = 10.0 ** draw(st.floats(150.0, 300.0))
    return vs, lhs


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(points=_envelope_points(),
       regime=st.sampled_from([("gevrey", {"s": 2.0}),
                               ("loglog", {"theta": 1.5, "N": 3.0})]))
def test_fit_growth_envelope_matches_per_b_route(points, regime):
    vs, lhs = points
    slow = orc.fit_growth_envelope_per_b(vs, lhs, *regime)
    if not 0.0 < slow["c"] < math.inf:
        # a lone overflowing norm underflows c; such a fit is rejected
        with pytest.raises(ValueError, match="log_c"):
            fit_growth_envelope(vs, lhs, *regime)
        return
    fast = fit_growth_envelope(vs, lhs, *regime)
    assert set(fast) == set(_FIT_FIELDS)
    for key in _FIT_FIELDS:
        assert np.array_equal(fast[key], slow[key]), key


def _real_fixture(seed, *, n=1, L=PI, N=64, B=6.0):
    u = synthesize("random_bandlimited", n=n, L=L, N=N, seed=seed, B=B)
    u = u.copy_with(u.values.real.astype(np.complex128))
    return u.copy_with(u.values / np.max(np.abs(u.values)))


def _scan_cases():
    gevrey = NormParams(p=2.0, q=1.0, weight=WeightSpec.gevrey(s=2.0), mode="lattice")
    campaign = []
    for i in range(5):  # the superposition family's fixtures
        f = synthesize("random_bandlimited", n=1, N=256, seed=300 + i, B=12.0)
        f = f.copy_with(f.values.real.astype(np.complex128))
        campaign.append(f.copy_with(f.values * (0.5 / mod_norm(f, gevrey))))
    return {
        "campaign": (campaign, gevrey, [2.0, 4.0, 8.0, 16.0]),
        "2-d": ([_real_fixture(340, n=2, N=16, B=3.0), _real_fixture(341, n=2, N=16, B=2.0)],
                NormParams(2.0, 2.0, WeightSpec.polynomial(1.0)), [0.5, 1.0]),
        # a 512^2 refined row: 4 rows per stack, so the scan runs in two parts
        "2-d-in-parts": ([_real_fixture(343, n=2, N=128, B=3.0)],
                         NormParams(2.0, 1.0, WeightSpec.gevrey(2.0)), [0.25, 0.5, 1.0, 1.5, 2.0]),
        "continuum": ([_real_fixture(342, L=3.5, B=4.0)],
                      NormParams(2.0, 2.0, WeightSpec.gevrey(2.0), mode="continuum"), [0.5, 1.0]),
        # the tails of rows 0 and 1 stay under 1e-9; row 2 warns
        "warning-rows": ([_real_fixture(311)],
                         NormParams(2.0, 1.0, WeightSpec.polynomial(0.0), k_max=20),
                         [0.25, 0.5, 1.0]),
    }


def _recorded(fn, *args):
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, sorted(str(w.message) for w in got if w.category is TruncationWarning)


@pytest.mark.parametrize("case", ["campaign", "2-d", "2-d-in-parts", "continuum", "warning-rows"])
def test_scan_stack_matches_the_per_row_route(case):
    fixtures, params, lambdas = _scan_cases()[case]
    got, got_warned = _recorded(_scan_rows, fixtures, params, lambdas)
    expect, expect_warned = _recorded(
        lambda: [row for u in fixtures for row in orc.bound_scan_per_row(u, params, lambdas)])
    assert got == expect
    assert got_warned == expect_warned
    assert len(got_warned) == (1 if case == "warning-rows" else 0)
    if len(fixtures) == 1:
        assert _recorded(bound_scan, fixtures[0], params, lambdas) == (got, got_warned)
    for u in fixtures:
        got_rec, got_warned = _recorded(lambda: exp_minus_one_norm(u, params, record=True))
        expect_rec, expect_warned = _recorded(
            lambda: orc.exp_minus_one_norm_per_row(u, params, record=True))
        assert got_rec == expect_rec and got_warned == expect_warned


@pytest.mark.parametrize("lambdas", [[0.25, 0.5], [0.5]])
def test_scan_tail_error_matches_the_per_row_route(lambdas):
    # the lambda = 0.5 row leaves 1.1e-6 of e^(iu)-1 beyond k_max = 14
    u = _real_fixture(311)
    params = NormParams(2.0, 1.0, WeightSpec.polynomial(0.0), k_max=14)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        with pytest.raises(ValueError, match="refine the grid") as got:
            bound_scan(u, params, lambdas)
        with pytest.raises(ValueError, match="refine the grid") as expect:
            orc.bound_scan_per_row(u, params, lambdas)
    assert str(got.value) == str(expect.value)


def test_scan_rows_need_one_grid_and_allow_no_rows():
    u, v = _real_fixture(350), _real_fixture(351, N=128)
    params = NormParams(2.0, 1.0, WeightSpec.polynomial(0.0))
    assert bound_scan(u, params, []) == []
    with pytest.raises(ValueError, match="share a grid"):
        _scan_rows([u, v], params, [1.0])


@pytest.mark.parametrize(
    "regime,rparams",
    [("gevrey", {"s": 2.0}), ("loglog", {"theta": 1.5, "N": 1.0})],
)
def test_bound_scan_residuals_one_sided(regime, rparams):
    u = synthesize("random_bandlimited", B=8.0, N=128, seed=320)
    u = u.copy_with(u.values / np.max(np.abs(u.values)))
    params = NormParams(2.0, 1.0, WeightSpec.loglog()
                        if regime == "loglog" else WeightSpec.gevrey(2.0))
    lambdas = [0.25, 0.5, 1.0, 2.0, 4.0]
    rows = bound_scan(u, params, lambdas)
    fit = fit_growth_envelope([row["norm_u"] for row in rows],
                              [row["lhs"] for row in rows], regime, rparams)
    assert fit["min_residual"] >= 0.0
    assert fit["c"] > 0.0 and fit["b"] > 0.0
    norm_u1 = rows[2]["norm_u"]
    for row, residual, lam in zip(rows, fit["residuals"], lambdas):
        assert row["lambda"] == lam
        assert residual >= 0.0
        assert row["lhs"] > 0.0
        # the scaled norm is exactly homogeneous in lambda
        assert row["norm_u"] == pytest.approx(lam * norm_u1, rel=1e-10)


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------

def test_compose_density_matches_gaussian_closed_form():
    # for g = e^{-xi^2}: (2 pi)^{-1/2} int (e^{i xi t} - 1) g = (e^{-t^2/4} - 1)/sqrt(2)
    u = synthesize("random_bandlimited", B=6.0, N=64, seed=330)
    u = u.copy_with(u.values / np.max(np.abs(u.values)))
    g = density_by_name("gaussian", a=1.0)
    out = compose(g, u)
    t = refine(u.copy_with(u.values.real.astype(complex)), 4).values.real
    expect = (np.exp(-t * t / 4.0) - 1.0) / math.sqrt(2.0)
    np.testing.assert_allclose(out.values.real, expect, atol=1e-13)
    np.testing.assert_allclose(out.values.imag, 0.0, atol=1e-13)


def test_compose_bump_dual_route():
    # closed-form route (the bump vanishes at 0, so f = phi) against the
    # quadrature reconstruction from its transform
    u = synthesize("random_bandlimited", B=6.0, N=64, seed=331)
    u = u.copy_with(0.5 + 0.4 * u.values / np.max(np.abs(u.values)))
    direct = compose("gevrey_bump", u, mu=-1.0)
    via_density = compose(density_by_name("gevrey_bump", mu=-1.0), u)
    assert np.max(np.abs(direct.values - via_density.values)) < 1e-12


def test_compose_up_and_zero_fixed_point():
    u = synthesize("gaussian", a=1.0, N=64)
    out = compose("up", u)
    assert np.all(out.values.real >= 0.0)
    # u ~ 0 far from the center, and up(0) = 0 keeps the tail at zero
    edge = out.values.real[0]
    assert abs(edge) < 1e-8
    with pytest.raises(ValueError):
        compose("mystery", u)


def test_compose_rejects_complex_input():
    u = synthesize("mode", k=1, N=32)  # e^{ix} is complex
    with pytest.raises(ValueError):
        compose("up", u)


# ----------------------------------------------------------------------
# exponential-difference identity / local Lipschitz
# ----------------------------------------------------------------------

def test_lipschitz_identity_is_machine_exact():
    u = synthesize("random_bandlimited", B=8.0, N=128, seed=340)
    v = synthesize("random_bandlimited", B=8.0, N=128, seed=341)
    params = NormParams(2.0, 1.0, WeightSpec.gevrey(2.0))
    out = lipschitz_check(u, v, params)
    assert out["identity_residual"] < 1e-12
    assert out["ratio"] > 0.0
    assert out["numerator"] == pytest.approx(out["ratio"] * out["denominator"])


def test_lipschitz_reduces_to_exp_norm_at_zero():
    u = synthesize("random_bandlimited", B=8.0, N=128, seed=342)
    zero = u.copy_with(0 * u.values)
    params = NormParams(2.0, 1.0, WeightSpec.loglog())
    out = lipschitz_check(u, zero, params)
    expect = exp_minus_one_norm(u, params) / mod_norm(refine(u, 4), params)
    assert out["ratio"] == pytest.approx(expect, rel=1e-12)


def test_lipschitz_equal_inputs_and_grid_mismatch():
    u = synthesize("random_bandlimited", B=6.0, N=64, seed=343)
    params = NormParams(2.0, 1.0, WeightSpec.loglog())
    out = lipschitz_check(u, u, params)
    assert out["ratio"] is None
    assert out["identity_residual"] < 1e-14
    other = synthesize("random_bandlimited", B=6.0, N=32, seed=344)
    with pytest.raises(ValueError):
        lipschitz_check(u, other, params)
    with pytest.raises(ValueError):
        lipschitz_check(u, u, NormParams(1.0, 1.0, WeightSpec.loglog()))


# ----------------------------------------------------------------------
# subalgebra ladders
# ----------------------------------------------------------------------

def test_band_ratio_bounded_and_decaying_gevrey():
    spec = WeightSpec.gevrey(1.5)
    ladder = subalgebra_ladder(spec, [4.0, 8.0, 16.0, 32.0])
    rs = ladder["ratio"]
    assert all(0.0 < r < 1.0 for r in rs)
    for a, b in zip(rs, rs[1:]):
        assert b < a
    assert ladder["weight"] == {"variant": "gevrey", "s": 1.5}


def test_band_ratio_slowly_varying_eventual_decay():
    # the slowly varying weight is nearly constant below |xi| ~ 15, so
    # decay is only asserted once the ladder passes that knee
    spec = WeightSpec.loglog()
    ladder = subalgebra_ladder(spec, [16.0, 64.0])
    assert ladder["ratio"][1] < ladder["ratio"][0] / 2.0


# the campaign's ladders: Gevrey s in {1.5, 2} and the slowly varying
# weight, each with the grid size its former grid route used
_LADDERS = {
    "gevrey_1.5": (WeightSpec.gevrey(1.5), [4.0, 8.0, 16.0, 32.0], 256),
    "gevrey_2": (WeightSpec.gevrey(2.0), [4.0, 8.0, 16.0, 32.0], 256),
    "loglog": (WeightSpec.loglog(), [4.0, 16.0, 64.0, 256.0, 512.0], 4096),
}


@pytest.mark.parametrize("ladder", sorted(_LADDERS))
def test_band_ratio_matches_mpmath(ladder):
    spec, Rs, _ = _LADDERS[ladder]
    for R in Rs:
        exact = float(orc.band_ratio_mp(R, spec))
        assert subalgebra_band_ratio(R, spec) == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_band_ratio_matches_grid_route():
    # dual route: squaring the band function on a grid agrees to its
    # FFT round-off floor on every campaign ladder point
    for spec, Rs, N in _LADDERS.values():
        for R in Rs:
            assert subalgebra_band_ratio(R, spec) == pytest.approx(
                orc.band_ratio_on_grid(R, spec, N), rel=1e-7, abs=0.0)
