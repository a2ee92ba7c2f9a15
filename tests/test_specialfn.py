"""Bump and scaling-equation exemplars, densities, weighted integrals."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modspaces.specialfn import (
    Density,
    density_by_name,
    density_condition_quotient,
    gevrey_bump,
    gevrey_bump_decay,
    gevrey_bump_ft,
    loglog_condition_quotient,
    measure_L1,
    up_decay_bound,
    up_derivative_residual,
    up_eval,
    up_fourier,
    up_fourier_log_abs,
    up_grid,
)

import _oracles as orc

SQRT_2PI = math.sqrt(2 * math.pi)


# ----------------------------------------------------------------------
# bump
# ----------------------------------------------------------------------

def test_bump_values_and_support():
    mu = -1.0
    assert gevrey_bump(mu, 0.5) == pytest.approx(math.exp(-2 * 0.5 ** mu), rel=1e-15)
    assert gevrey_bump(mu, 0.0) == 0.0
    assert gevrey_bump(mu, 1.0) == 0.0
    assert gevrey_bump(mu, -0.3) == 0.0
    assert gevrey_bump(mu, 1.7) == 0.0
    with pytest.raises(ValueError):
        gevrey_bump(0.5, 0.5)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=-4.0, max_value=-0.25, allow_nan=False),
)
def test_bump_bounded_by_center(t, mu):
    assert 0.0 <= gevrey_bump(mu, t) <= gevrey_bump(mu, 0.5) + 1e-15


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
    st.floats(min_value=-3.0, max_value=-0.5, allow_nan=False),
)
def test_bump_symmetric_about_center(t, mu):
    # t away from the endpoints so computing 1 - t loses no precision
    assert gevrey_bump(mu, t) == pytest.approx(gevrey_bump(mu, 1.0 - t), rel=1e-12)


@pytest.mark.parametrize("xi", [0.0, 1.0, 5.0, 20.0, 60.0])
@pytest.mark.parametrize("mu", [-1.0, -2.0])
def test_bump_transform_matches_mpmath(mu, xi):
    ref = orc.bump_transform(mu, xi)
    got = gevrey_bump_ft(mu, xi)
    assert got.real == pytest.approx(float(ref.real), abs=5e-13)
    assert got.imag == pytest.approx(float(ref.imag), abs=5e-13)


def test_bump_transform_conjugate_symmetry():
    vals_pos = gevrey_bump_ft(-1.0, np.array([0.7, 3.3, 11.0]))
    vals_neg = gevrey_bump_ft(-1.0, np.array([-0.7, -3.3, -11.0]))
    np.testing.assert_allclose(vals_neg, np.conj(vals_pos), atol=1e-14)


# the bump underflows to 0 at a different number of quadrature nodes for each mu
@pytest.mark.parametrize("mu", [-0.5, -1.0, -2.0, -3.0])
def test_bump_transform_negative_xi_is_exact_conjugate(mu):
    xi = np.concatenate([np.linspace(-300.0, 300.0, 601), [0.7, -0.7, -3.3]])
    got = gevrey_bump_ft(mu, xi)
    # summing at each negative xi gives the conjugate bit for bit
    assert np.array_equal(got, orc.bump_transform_direct(mu, xi))
    assert np.all(gevrey_bump_ft(mu, -xi) == np.conj(got))


def test_bump_decay_certificate_is_one_sided():
    fit = gevrey_bump_decay(-1.0, np.linspace(5.0, 200.0, 40))
    assert fit["s"] == pytest.approx(2.0)
    assert fit["eps"] > 0.0
    assert fit["min_residual"] >= 0.0
    # the bound keeps holding on a fresh, denser grid inside the range
    xs = np.linspace(5.0, 200.0, 173)
    lhs = np.abs(gevrey_bump_ft(-1.0, xs))
    rhs = fit["c"] * np.exp(-fit["eps"] * xs ** (1.0 / fit["s"]))
    assert np.all(lhs <= rhs * (1 + 1e-9) + 1e-12)


def test_bump_decay_floor_guard():
    with pytest.raises(ValueError):
        gevrey_bump_decay(-1.0, np.linspace(500.0, 900.0, 30))


# ----------------------------------------------------------------------
# the scaling-equation function
# ----------------------------------------------------------------------

def test_up_transform_value_at_zero_and_error_bound():
    # The truncated product is within 2.3e-17 relative of the infinite
    # one; against 200 factors in mpmath only round-off remains.
    assert up_fourier(0.0) == 1.0 / SQRT_2PI
    xs = [0.0, 40.0, 1e3, 1e6]
    vec = up_fourier(np.array(xs))
    for xi, v in zip(xs, vec):
        exact = complex(orc.up_transform(xi))
        assert abs(up_fourier(xi) - exact) <= 1e-13 * abs(exact)
        assert abs(v - exact) <= 1e-13 * abs(exact)


def test_up_transform_matches_grid_quadrature():
    # independent route: Riemann transform of the convolution samples
    grid = up_grid()
    h = 2.0 ** -14
    xs = h * np.arange(grid.size)
    for xi in (0.7, 2.1, 6.3, 15.9):
        riemann = h * np.sum(grid * np.exp(-1j * xs * xi)) / SQRT_2PI
        exact = up_fourier(xi)
        assert abs(riemann - exact) < 1e-7


def test_up_log_abs_consistent_with_linear():
    xs = np.array([0.3, 1.7, 5.5, 23.1, 87.3])
    np.testing.assert_allclose(
        up_fourier_log_abs(xs), np.log(np.abs(up_fourier(xs))), rtol=1e-10
    )


def test_up_log_abs_deep_range():
    # far beyond double underflow: still finite and decreasing
    vals = up_fourier_log_abs(np.array([1e6, 1e10, 1e16]))
    assert np.all(np.isfinite(vals))
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < -700.0  # linear evaluation would have underflowed


def test_up_decay_majorant_holds():
    xs = np.geomspace(2.0, 1e5, 400)
    assert np.all(up_fourier_log_abs(xs) <= np.log(up_decay_bound(xs)) + 1e-12)
    assert up_decay_bound(4.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-13)


def test_up_grid_mass_and_range():
    grid = up_grid()
    h = 2.0 ** -14
    assert grid.size == 2 ** 15 + 1
    assert h * np.sum(grid[:-1]) == pytest.approx(1.0, abs=1e-13)
    assert np.trapezoid(grid, dx=h) == pytest.approx(1.0, abs=1e-8)
    assert np.all(grid >= 0.0)
    assert grid[0] == 0.0 and grid[-1] == 0.0


def test_up_eval_symmetry_support_and_methods():
    xs = np.linspace(-0.5, 2.5, 801)
    conv = up_eval(xs)
    four = up_eval(xs, method="fourier")
    assert np.max(np.abs(conv - four)) < 1e-6
    assert np.all(conv[(xs < 0) | (xs > 2)] == 0.0)
    inner = np.linspace(0.0, 2.0, 257)
    sym = np.abs(up_eval(inner) - up_eval(2.0 - inner))
    assert np.max(sym) < 1e-9
    with pytest.raises(ValueError):
        up_eval(0.5, method="magic")


def test_up_derivative_rescaling_identity():
    assert up_derivative_residual() < 2e-7


# ----------------------------------------------------------------------
# densities
# ----------------------------------------------------------------------

def test_density_registry_and_envelope_fallback():
    g = density_by_name("gaussian", a=2.0)
    xs = np.array([0.5, 3.0])
    np.testing.assert_allclose(g.envelope(xs), -2.0 * xs ** 2)
    np.testing.assert_allclose(g(xs), np.exp(-2.0 * xs ** 2))
    r = density_by_name("rational_decay", k=3.0)
    np.testing.assert_allclose(
        np.log(np.abs(r(xs))), r.log_abs(xs), rtol=1e-12
    )
    assert np.all(r.envelope(xs) >= r.log_abs(xs) - 1e-12)
    with pytest.raises(ValueError):
        density_by_name("mystery")


def test_density_envelopes_are_majorants():
    bump = density_by_name("gevrey_bump", mu=-1.0)
    xs = np.geomspace(5.0, 190.0, 60)
    assert np.all(bump.envelope(xs) >= bump.log_abs(xs) - 1e-9)
    up = density_by_name("up")
    xs = np.geomspace(2.0, 1e4, 60)
    assert np.all(up.envelope(xs) >= up.log_abs(xs) - 1e-12)


def test_bump_density_value_matches_quadrature_inside_range():
    bump = density_by_name("gevrey_bump", mu=-1.0)
    xs = np.array([0.0, 7.7, 150.0])
    np.testing.assert_allclose(bump(xs), gevrey_bump_ft(-1.0, xs), atol=1e-14)


# ----------------------------------------------------------------------
# weighted integrals
# ----------------------------------------------------------------------

def _moment(density: Density) -> complex:
    """int g dxi over [-256, 256]: 32-point Gauss-Legendre on 128 panels of width 4."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    mids = np.arange(-254.0, 256.0, 4.0)
    vals = density.value((mids[:, None] + 2.0 * nodes).ravel()).reshape(mids.size, -1)
    return complex(2.0 * np.sum(vals @ weights))


def test_measure_gaussian_matches_mpmath():
    g = density_by_name("gaussian", a=1.0)
    got = measure_L1("gevrey", g, 1.0, {"s": 2.0})
    assert got["converged"]

    def integrand(x):
        if x == 0:
            return mp.mpf(1)
        return mp.exp(mp.sqrt(x) * mp.log(x)) * mp.exp(-x * x)

    ref = 2 * mp.quad(integrand, [0, 1, 10, 40])
    assert got["value"] == pytest.approx(float(ref), rel=1e-8)
    # the density has nonzero mean; the moment is sqrt(pi) for a = 1
    moment = _moment(g)
    assert moment.real == pytest.approx(math.sqrt(math.pi), rel=1e-10)
    assert moment.imag == pytest.approx(0.0, abs=1e-12)


def test_measure_flags_honest_divergence():
    bump = density_by_name("gevrey_bump", mu=-1.0)
    out = measure_L1("gevrey", bump, 1.0, {"s": 2.0})
    assert not out["converged"]
    rat = density_by_name("rational_decay", k=2.0)
    out = measure_L1("gevrey", rat, 0.5, {"s": 2.0})
    assert not out["converged"]


def test_measure_converges_after_long_rise():
    # the integrand climbs for ~28 octaves before the bump decay wins;
    # the ladder must not mistake that rise for divergence
    bump = density_by_name("gevrey_bump", mu=-2.0)
    out = measure_L1("gevrey", bump, 1.0, {"s": 2.0})
    assert out["converged"]
    assert out["value"] == math.inf  # too large for a double ...
    assert 100.0 < out["log_value"] < 1e5  # ... but the log is exact
    assert len(out["octaves"]) > 20


def test_measure_up_under_slowly_varying_weight():
    up = density_by_name("up")
    out = measure_L1("loglog", up, 1.0, {"theta": 1.5, "eps": 0.5})
    assert out["converged"]
    assert math.isfinite(out["value"]) and out["value"] > 0
    # zero-mean: integral of the transform is sqrt(2 pi) * up(0) = 0
    assert abs(_moment(up)) < 1e-6


def _shifted_gaussian() -> Density:
    """Test-only density exp(-(xi - 1)^2): |g(-xi)| != |g(xi)|."""
    def val(xi):
        return np.exp(-(np.atleast_1d(np.asarray(xi, dtype=float)) - 1.0) ** 2) + 0j

    return Density("shifted_gaussian", val,
                   lambda xi: -(np.atleast_1d(np.asarray(xi, dtype=float)) - 1.0) ** 2)


_ML1_DENSITIES = {
    "gaussian": lambda: density_by_name("gaussian"),
    "rational_decay": lambda: density_by_name("rational_decay"),
    "gevrey_bump": lambda: density_by_name("gevrey_bump", mu=-2.0),
    "up": lambda: density_by_name("up"),
    "shifted_gaussian": _shifted_gaussian,
}


@pytest.mark.parametrize("name", sorted(_ML1_DENSITIES))
def test_measure_matches_per_octave_route(name):
    # one-pass ladder against the panel-by-panel route, every field exactly, over the campaign's regimes and lambdas
    density = _ML1_DENSITIES[name]()
    for regime, params in (("gevrey", {"s": 2.0}),
                           ("loglog", {"theta": 1.0, "eps": 0.5})):
        for lam in (0.1, 1.0, 10.0):
            got = measure_L1(regime, density, lam, params)
            assert got == orc.measure_L1_per_octave(regime, density, lam, params)


@pytest.mark.parametrize("name", ["gevrey_bump", "up"])
def test_measure_evaluates_the_ladder_once_per_density(name):
    density = _ML1_DENSITIES[name]()
    calls = []
    log_abs = density.log_abs

    def counted(xi):
        calls.append(np.size(xi))
        return log_abs(xi)

    density.log_abs = counted
    lams = (0.1, 1.0, 10.0)
    got = [measure_L1("gevrey", density, lam, {"s": 2.0}) for lam in lams]
    assert len(calls) == 1
    for lam, res in zip(lams, got):
        assert res == orc.measure_L1_per_octave("gevrey", density, lam, {"s": 2.0})


def test_measure_validation():
    g = density_by_name("gaussian")
    with pytest.raises(ValueError):
        measure_L1("gevrey", g, 0.0, {"s": 2.0})
    with pytest.raises(ValueError):
        measure_L1("other", g, 1.0, {})
    # every regime key must be given: a missing one is a ValueError naming it
    with pytest.raises(ValueError, match="'eps'"):
        measure_L1("loglog", g, 1.0, {"theta": 1.5})
    with pytest.raises(ValueError, match="'s'"):
        measure_L1("gevrey", density_by_name("up"), 1.0, {})


# ----------------------------------------------------------------------
# decay-quotient diagnostics
# ----------------------------------------------------------------------

def test_condition_quotients_decrease():
    bump = density_by_name("gevrey_bump", mu=-1.0)
    ladder = [1e2, 1e3, 1e4]
    for s_prime in (3.5, 4.0):
        qs = density_condition_quotient(bump, s_prime, ladder)
        assert all(q > 0 for q in qs)
        assert qs[0] > qs[1] > qs[2]
    up = density_by_name("up")
    qs = loglog_condition_quotient(up, ladder)
    assert all(q > 0 for q in qs)
    assert qs[0] > qs[1] > qs[2]


def test_condition_quotient_uses_envelope_not_samples():
    # place a sample exactly on an oscillation zero of the raw density;
    # the envelope keeps the quotient finite
    r = density_by_name("rational_decay", k=2.0)
    qs = density_condition_quotient(r, 3.0, [math.pi * 20])  # sin = 0 here
    assert math.isfinite(qs[0]) and qs[0] > 0
