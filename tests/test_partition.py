"""Smooth partition of unity: profile, members, derivatives, verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modspaces import partition
from modspaces.partition import (
    _sigma_axis,
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


# ----------------------------------------------------------------------
# lattice indices and grids are checked, not coerced
# ----------------------------------------------------------------------

@pytest.mark.parametrize("k", [0.5, 1.7, True, np.bool_(True), "1", np.float64(1.0)])
def test_sigma_rejects_a_non_integer_cell(k):
    with pytest.raises(ValueError, match="k must be an integer"):
        sigma_eval(build_window(1), k, 0.3)


@pytest.mark.parametrize("alpha", [(1.7,), (True,), (np.float64(1.0),)])
def test_sigma_partial_rejects_a_non_integer_order(alpha):
    with pytest.raises(ValueError, match="alpha must be an integer"):
        sigma_partial(build_window(1), 0, 0.7, alpha)


def test_sigma_accepts_python_and_numpy_integers():
    w = build_window(2)
    pts = np.array([[0.3, -0.8], [1.2, 0.1]])
    expect = sigma_partial(w, (1, 0), pts, (1, 0))
    for k in [(np.int64(1), np.int32(0)), np.array([1, 0]), [1, 0]]:
        assert np.array_equal(sigma_partial(w, k, pts, np.array([1, 0])), expect)
    with pytest.raises(ValueError, match="k must have length 2"):
        sigma_eval(w, (1, 0, 0), pts)


@pytest.mark.parametrize("grid,match", [
    ([], "at least one point"),
    ([0.0, np.nan, 1.0], "entry 1 is nan"),
    ([0.0, np.inf], "entry 1 is inf"),
    (np.zeros((3, 2)), "1-d axis"),
    (["a"], "grid must be"),
])
def test_verify_partition_rejects_a_bad_grid(grid, match):
    with pytest.raises(ValueError, match=match):
        verify_partition(build_window(1), grid)


def test_verify_partition_describes_its_grid():
    assert verify_partition(build_window(1)).domain_description == (
        "uniform grid of 10000 points per axis on [-3.2, 3.2], 9^n cells")
    got = verify_partition(build_window(2), _UNEVEN_AXIS).domain_description
    assert got == f"grid of {_UNEVEN_AXIS.size} points per axis on [-3.7, 3.5], 9^n cells"


# ----------------------------------------------------------------------
# the one-pass kernel against the per-order chain
# ----------------------------------------------------------------------

def _ulps(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


_KERNEL_POINTS = np.concatenate([
    np.arange(-6.0, 7.0),
    *(_ulps(v) for v in (0.5, -0.5, 1.0, -1.0, 1.5, -2.5)),
    [0.0, -0.0, 257.3, -256.9, 257.5, -257.0, 0.999999, 0.500001],
    np.random.default_rng(29).uniform(-4.0, 4.0, 300),
])


def _same_floats(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_kernel_matches_the_per_order_chain(order):
    x = _KERNEL_POINTS
    assert _same_floats(rho1(x, order), orc.rho1_chain(x, order))
    for k in (0, 3, -257, np.arange(-4, 5)[:, None]):
        assert _same_floats(_sigma_axis(x, k, order), orc.sigma_axis_chain(x, k, order))
    # per-point cells, as modspace._axis_sigma_band passes them
    ks = np.rint(x).astype(np.int64) + np.resize([-1, 0, 1], x.size)
    assert _same_floats(_sigma_axis(x, ks, order), orc.sigma_axis_chain(x, ks, order))
    assert _sigma_axis(0.25, 0, order) == orc.sigma_axis_chain(0.25, 0, order)


def test_verify_partition_makes_a_fixed_number_of_kernel_calls(monkeypatch):
    # factors on the axis, at the integers, per axis for the translation
    # probe and per axis and order for the derivative probe: 1 + 1 + 2 + 6
    def calls(m):
        count = [0]
        real = partition._sigma_axis

        def counted(*args, **kwargs):
            count[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(partition, "_sigma_axis", counted)
        rep = verify_partition(build_window(2), np.linspace(-3.2, 3.2, m))
        monkeypatch.undo()
        assert rep.passed and rep.points_checked == m * m
        return count[0]

    assert calls(41) == calls(101) == 10


# ----------------------------------------------------------------------
# negative controls: a broken kernel fails through both routes alike
# ----------------------------------------------------------------------

# each maps the true factor val of cell k at distance d = x - k to a broken one
def _scaled(val, d, k):
    return val * (1.0 + 1e-9)


def _dropped(val, d, k):
    return np.where(np.asarray(k) == 1, 0.0, val)


def _leaking(val, d, k):
    # cell 1 alone leaks, most at |d| = 1 (x = 0 is a grid point)
    band = (np.asarray(k) == 1) & (np.abs(d) >= 1.0) & (np.abs(d) < 1.2)
    return val + np.where(band, 1e-3 * (1.2 - np.abs(d)), 0.0)


def _leaking_off_diagonal(val, d, k):
    # cell 2 alone leaks, at x = 0.96: in 2-d the worst cell is (0, 2),
    # whose leak lies off the support along the second axis
    band = (np.asarray(k) == 2) & (np.abs(d) >= 1.0) & (np.abs(d) < 1.2)
    return val + np.where(band, 1e-3, 0.0)


def _low_plateau(val, d, k):
    return np.where(np.abs(d) <= 0.5, 0.5 * val, val)


def _undershoot(val, d, k):
    # a negative factor makes the mixed corner products the extremes
    return val - np.where((np.abs(d) > 0.9) & (np.abs(d) < 1.0), 1e-3, 0.0)


def _negative_plateau(val, d, k):
    return np.where((np.asarray(k) == 1) & (np.abs(d) <= 0.5), -val, val)


@pytest.mark.parametrize("perturb,failing", [
    (_scaled, {"sum_to_one", "range"}),
    (_dropped, {"sum_to_one", "lower_bound"}),
    (_leaking, {"support"}),
    (_leaking_off_diagonal, {"support"}),
    (_low_plateau, {"lower_bound"}),
    (_undershoot, {"range"}),
    (_negative_plateau, {"range", "lower_bound"}),
], ids=["scaled", "dropped-cell", "leak", "leak-off-diagonal", "low-plateau", "undershoot",
        "negative-plateau"])
@pytest.mark.parametrize("n", [1, 2])
def test_verify_partition_negative_controls(monkeypatch, n, perturb, failing):
    real = partition._sigma_axis

    def broken(x, k, order=0):
        return perturb(real(x, k, order), np.asarray(x, dtype=float) - k, k)

    monkeypatch.setattr(partition, "_sigma_axis", broken)
    grid = np.linspace(-3.2, 3.2, 41)
    got = verify_partition(build_window(n), grid)
    assert not got.passed and got.min_margin < 0.0
    checks = got.extra["checks"]
    for name in failing:
        assert checks[name]["deviation"] > checks[name]["threshold"]
    worst = checks[got.extra["worst_check"]]
    assert worst["threshold"] - worst["deviation"] == got.min_margin
    assert got.to_dict() == orc.verify_partition_per_cell(build_window(n), grid).to_dict()


_AXIS_POINT = st.one_of(
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.5]),
)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2]),
       st.lists(_AXIS_POINT, min_size=1, max_size=40).flatmap(
           lambda xs: st.permutations(xs + xs[: len(xs) // 2])))
def test_verify_partition_matches_per_cell_route_on_any_axis(n, axis):
    # unsorted, with repeats, possibly far from every cell
    got = verify_partition(build_window(n), axis)
    assert got.to_dict() == orc.verify_partition_per_cell(build_window(n), axis).to_dict()
