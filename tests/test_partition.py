"""Smooth partition of unity: profile, members, derivatives, verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modspaces.partition import (
    build_window,
    rho1,
    sigma_eval,
    sigma_partial,
    verify_partition,
)

import _oracles as orc


def test_profile_plateau_support_and_evenness():
    xs = np.linspace(-2.0, 2.0, 801)
    vals = rho1(xs)
    assert np.all(vals[np.abs(xs) <= 0.5] == 1.0)
    assert np.all(vals[np.abs(xs) >= 1.0] == 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    np.testing.assert_allclose(vals, rho1(-xs), rtol=0, atol=0)


def test_profile_zero_at_nonzero_integers():
    for m in (-3, -2, -1, 1, 2, 3):
        assert rho1(float(m)) == 0.0
    assert rho1(0.0) == 1.0


def test_profile_derivatives_match_finite_differences():
    xs = np.linspace(0.51, 0.99, 25)
    h = 1e-5
    d1 = (rho1(xs + h) - rho1(xs - h)) / (2 * h)
    d2 = (rho1(xs + h) - 2 * rho1(xs) + rho1(xs - h)) / (h * h)
    np.testing.assert_allclose(rho1(xs, 1), d1, atol=5e-8)
    np.testing.assert_allclose(rho1(xs, 2), d2, atol=5e-4)


def test_profile_flat_to_all_orders_at_boundaries():
    for x in (0.5, 1.0):
        for order in (1, 2):
            assert rho1(x, order) == 0.0


def test_window_dimension_validation():
    with pytest.raises(ValueError):
        build_window(3)


def test_sigma_kronecker_on_lattice():
    w = build_window(1)
    ints = np.arange(-4.0, 5.0)[:, None]
    for k in range(-3, 4):
        v = sigma_eval(w, k, ints)
        expect = (ints[:, 0] == k).astype(float)
        np.testing.assert_allclose(v, expect, atol=1e-15)


def test_sigma_sums_to_one_1d():
    w = build_window(1)
    xs = np.linspace(-2.7, 2.7, 1001)[:, None]
    total = sum(sigma_eval(w, k, xs) for k in range(-4, 5))
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_sigma_sums_to_one_2d():
    w = build_window(2)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.0, 2.0, size=(300, 2))
    total = np.zeros(300)
    for a in range(-3, 4):
        for b in range(-3, 4):
            total += sigma_eval(w, (a, b), pts)
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def test_sigma_support_and_lower_bound_2d():
    w = build_window(2)
    rng = np.random.default_rng(8)
    inner = rng.uniform(-0.5, 0.5, size=(200, 2))
    assert np.min(sigma_eval(w, (0, 0), inner)) >= 1.0 / 9.0 - 1e-12
    outside = rng.uniform(1.0, 2.0, size=(200, 2))
    assert np.max(np.abs(sigma_eval(w, (0, 0), outside))) == 0.0


def test_sigma_partial_matches_finite_difference():
    w = build_window(2)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-0.9, 0.9, size=(50, 2))
    h = 1e-4
    for alpha in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        exact = sigma_partial(w, (0, 0), pts, alpha)
        step_x = np.array([h, 0.0])
        step_y = np.array([0.0, h])

        def f(p):
            return sigma_eval(w, (0, 0), p)

        if alpha == (1, 0):
            fd = (f(pts + step_x) - f(pts - step_x)) / (2 * h)
            tol = 1e-6
        elif alpha == (0, 1):
            fd = (f(pts + step_y) - f(pts - step_y)) / (2 * h)
            tol = 1e-6
        elif alpha == (1, 1):
            fd = (
                f(pts + step_x + step_y)
                - f(pts + step_x - step_y)
                - f(pts - step_x + step_y)
                + f(pts - step_x - step_y)
            ) / (4 * h * h)
            tol = 1e-5
        else:  # (2, 0)
            fd = (f(pts + step_x) - 2 * f(pts) + f(pts - step_x)) / (h * h)
            tol = 1e-3
        np.testing.assert_allclose(exact, fd, atol=tol)


def test_sigma_partial_validation():
    w = build_window(1)
    with pytest.raises(ValueError):
        sigma_partial(w, 0, 0.3, (3,))
    with pytest.raises(ValueError):
        sigma_eval(w, (0, 0), 0.3)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=-5, max_value=5),
)
def test_sigma_translation_property(x, k):
    w = build_window(1)
    assert sigma_eval(w, k, x + k) == pytest.approx(sigma_eval(w, 0, x), abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_sigma_pointwise_partition_property(x):
    w = build_window(1)
    total = sum(sigma_eval(w, k, x) for k in range(-5, 6))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_verify_partition_1d_passes():
    rep = verify_partition(build_window(1))
    assert rep.passed
    checks = rep.extra["checks"]
    assert set(checks) == {
        "sum_to_one", "range", "support", "lower_bound",
        "lattice_delta", "translation", "deriv_translate",
    }
    assert checks["lower_bound"]["margin"] >= 0.0
    assert rep.points_checked == 10_000


@pytest.mark.parametrize("n", [1, 2])
def test_verify_partition_derivative_translation_is_exact(n):
    # the check differentiates analytically, so translating sigma_k
    # leaves its partials unchanged up to rounding
    grid = np.linspace(-3.2, 3.2, 41)
    rep = verify_partition(build_window(n), grid=grid)
    assert rep.extra["checks"]["deriv_translate"]["deviation"] <= 1e-12


def test_verify_partition_2d_passes():
    rep = verify_partition(build_window(2), grid=np.linspace(-3.2, 3.2, 41))
    assert rep.passed
    assert rep.points_checked == 41 * 41


_UNEVEN_AXIS = np.concatenate([np.linspace(-3.7, -1.1, 23),
                               np.geomspace(0.013, 2.9, 31) - 0.4, [1.0, 2.0, 3.5]])


@pytest.mark.parametrize("grid", [None, _UNEVEN_AXIS], ids=["default", "uneven"])
@pytest.mark.parametrize("n", [1, 2])
def test_verify_partition_matches_per_cell_route(n, grid):
    # separable axis factors against sigma_eval at every point for every cell
    got = verify_partition(build_window(n), grid)
    assert got.to_dict() == orc.verify_partition_per_cell(build_window(n), grid).to_dict()
