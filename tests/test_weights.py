"""Weight profile, critical constants, weight families, inequality sweeps."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modspaces
from modspaces.weights import (
    LOG_TOL,
    SHIFT,
    WeightSpec,
    analyze_weight,
    bracket_star,
    log_weight_eval,
    verify_weight_inequality,
    w_star,
    weight_eval,
)

import _oracles as orc


# ----------------------------------------------------------------------
# profile and derivatives against mpmath
# ----------------------------------------------------------------------

def test_shift_value():
    assert SHIFT == pytest.approx(math.exp(2 * math.e), rel=0, abs=0)
    # log(bracket(0)) = e, loglog(bracket(0)) = 1, so w(0) = e exactly.
    assert w_star(0.0) == pytest.approx(math.e, rel=1e-15)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 3.7, 16.4, 100.0, 1e4, 1e8])
def test_bracket_star_matches_oracle(t):
    expected = float((orc._E2E + orc.mp.mpf(t) ** 2) ** orc.mp.mpf("0.5"))
    assert bracket_star(t) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("t", [0.1, 1.0, 5.0, 16.445, 42.0, 300.0, 1e5])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_w_star_derivatives_match_mpmath(t, order):
    expected = float(orc.w_derivative(t, order))
    assert w_star(t, order) == pytest.approx(expected, rel=1e-9, abs=1e-18)


def test_w_star_vectorized_consistent():
    ts = np.array([0.0, 1.0, 10.0, 1e3])
    for order in (0, 1, 2):
        vec = w_star(ts, order)
        scalars = [w_star(float(t), order) for t in ts]
        np.testing.assert_allclose(vec, scalars, rtol=0, atol=0)


def test_w_star_bad_order():
    with pytest.raises(ValueError):
        w_star(1.0, order=3)


# ----------------------------------------------------------------------
# critical constants
# ----------------------------------------------------------------------

def test_analysis_against_mpmath_oracle():
    ana = analyze_weight()
    t0_ref = float(orc.t0_oracle())
    assert ana.t0 == pytest.approx(t0_ref, abs=1e-7)
    # stationarity at the package's own argmax: the oracle polishes the
    # stationary point of p independently and evaluates p there.
    tstar, p0_ref = orc.p0_oracle()
    assert ana.p0 == pytest.approx(float(p0_ref), abs=1e-10)
    assert ana.s_admissible == pytest.approx(1.0 - float(p0_ref), abs=1e-10)
    assert ana.deriv_sup == pytest.approx(float(orc.w_derivative(t0_ref, 1)), rel=1e-9)


def test_analysis_internal_identities():
    ana = analyze_weight()
    # the profile inflects at t0: w'' changes sign there
    assert w_star(ana.t0 - 1e-3, 2) > 0 > w_star(ana.t0 + 1e-3, 2)
    # deriv_sup really is a local max of w'
    assert w_star(ana.t0, 1) >= w_star(ana.t0 * 0.99, 1)
    assert w_star(ana.t0, 1) >= w_star(ana.t0 * 1.01, 1)
    assert ana.s_admissible == pytest.approx(1.0 - ana.p0, rel=0, abs=0)
    # no coarse grid point beats the reported sup
    grid = np.logspace(-3, 6, 4000)
    p = grid * w_star(grid, 1) / w_star(grid)
    assert p.max() <= ana.p0 + 1e-12


# ----------------------------------------------------------------------
# weight families
# ----------------------------------------------------------------------

def test_weight_values_closed_forms():
    k = 3.0
    assert weight_eval(WeightSpec.polynomial(2.0), k) == pytest.approx(1 + k * k)
    assert weight_eval(WeightSpec.gevrey(2.0), k) == pytest.approx(math.exp(math.sqrt(k)))
    assert weight_eval(WeightSpec.loglog(), k) == pytest.approx(math.exp(w_star(k)))
    assert weight_eval(WeightSpec.exponential(1.5), k) == pytest.approx(2.0 ** (1.5 * k))


def test_weight_multidim_radial():
    spec = WeightSpec.gevrey(1.5)
    assert weight_eval(spec, [3.0, 4.0]) == pytest.approx(weight_eval(spec, 5.0))


def test_weight_log_linear_consistency():
    ks = np.arange(0, 30, dtype=float)
    for spec in (WeightSpec.polynomial(1.7), WeightSpec.gevrey(2.0),
                 WeightSpec.loglog(), WeightSpec.exponential(0.3)):
        np.testing.assert_allclose(
            weight_eval(spec, ks), np.exp(log_weight_eval(spec, ks)), rtol=1e-13
        )


def test_weight_log_domain_survives_huge_radius():
    # linear evaluation would overflow here; log stays finite
    val = log_weight_eval(WeightSpec.exponential(2.0), 1e6)
    assert math.isfinite(val) and val == pytest.approx(2e6 * math.log(2.0))


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec("fancy")
    with pytest.raises(ValueError):
        WeightSpec.gevrey(0.0)
    with pytest.raises(ValueError):
        WeightSpec.exponential(-1.0)


def test_weight_spec_params_round_trip():
    spec = WeightSpec.gevrey(2.5)
    assert spec.params() == {"variant": "gevrey", "s": 2.5}
    assert WeightSpec(**spec.params()) == spec


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
def test_weights_even_in_k(k):
    for spec in (WeightSpec.polynomial(2.0), WeightSpec.gevrey(2.0),
                 WeightSpec.loglog(), WeightSpec.exponential(0.1)):
        assert log_weight_eval(spec, k) == log_weight_eval(spec, -k)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
)
def test_weights_monotone_in_radius(a, b):
    lo, hi = min(a, b), max(a, b)
    for spec in (WeightSpec.polynomial(1.0), WeightSpec.gevrey(1.5),
                 WeightSpec.loglog(), WeightSpec.exponential(0.5)):
        assert log_weight_eval(spec, lo) <= log_weight_eval(spec, hi) + 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
def test_profile_subadditive(x, y):
    # w(x+y) <= w(x) + w(y): the sweep checks a strictly stronger bound
    # on a fixed grid; this probes plain subadditivity at random points.
    assert w_star(x + y) <= w_star(x) + w_star(y) + 1e-10


# ----------------------------------------------------------------------
# inequality sweeps (small domains; acceptance runs the big ones)
# ----------------------------------------------------------------------

def test_sweep_gevrey_small_passes():
    rep = verify_weight_inequality("gevrey", {"s": 2.0}, {"radius": 40, "n": 1})
    assert rep.passed and rep.min_margin >= -LOG_TOL
    assert rep.points_checked == 81 * 81
    assert rep.kind == "gevrey"
    assert rep.params["delta"] == pytest.approx(2.0 - math.sqrt(2.0))


def test_sweep_gevrey_margin_matches_bruteforce():
    s, radius = 1.5, 12
    rep = verify_weight_inequality("gevrey", {"s": s}, {"radius": radius, "n": 1})
    delta = 2.0 - 2.0 ** (1.0 / s)
    best = math.inf
    for k in range(-radius, radius + 1):
        for l in range(-radius, radius + 1):
            m = (abs(l) ** (1 / s) + abs(l - k) ** (1 / s)
                 - delta * min(abs(l - k), abs(l)) ** (1 / s) - abs(k) ** (1 / s))
            best = min(best, m)
    assert rep.min_margin == pytest.approx(best, abs=1e-12)


def test_sweep_gevrey_2d_small():
    rep = verify_weight_inequality("gevrey", {"s": 2.0}, {"radius": 8, "n": 2})
    assert rep.passed
    assert rep.points_checked == 17 ** 4
    assert len(rep.worst_point) == 4


# (n, radius): the 2-d cases keep their bare radius as id
_FULL_BOX_CASES = ([(2, r) for r in (0, 1, 2, 7, 16, 40)]
                   + [(1, r) for r in (0, 1, 2, 50, 200)])


@pytest.mark.parametrize("n, radius", _FULL_BOX_CASES,
                         ids=[str(r) if n == 2 else f"1d-{r}" for n, r in _FULL_BOX_CASES])
@pytest.mark.parametrize("s", [1.2, 1.5, 2.0, 3.0])
def test_sweep_gevrey_2d_matches_full_box(s, n, radius):
    # cone sweep against the full-box loop, exactly, in both dimensions
    rep = verify_weight_inequality("gevrey", {"s": s}, {"radius": radius, "n": n})
    margin, worst, count = orc.sweep_gevrey_full_box(s, radius, n)
    assert rep.min_margin == margin
    assert rep.worst_point == worst
    assert rep.points_checked == count == (2 * radius + 1) ** (2 * n)


@pytest.mark.parametrize("grid_max, step, n_random", [
    (2000.0, 0.5, 100_000),  # the full campaign's grid
    (127.5, 0.5, 1000),      # m + 1 = 256 rows, whole row blocks only
    (50.0, 0.5, 0),          # m + 1 = 101 < 256
    (3.5, 0.5, 10),          # m + 1 = 8, less than one row block
    (0.0, 0.5, 10),          # m = 0: a single grid point
], ids=["campaign", "whole-blocks", "under-256", "under-one-block", "m0"])
@pytest.mark.parametrize("s", ["admissible", 0.99])
def test_sweep_loglog_matches_index_gather(s, grid_max, step, n_random):
    # mirrored-table row windows against the index-gather loop, exactly
    s = analyze_weight().s_admissible if s == "admissible" else s
    rep = verify_weight_inequality(
        "loglog", {"s": s}, {"grid_max": grid_max, "step": step, "n_random": n_random})
    margin, worst, count = orc.sweep_loglog_gather(s, grid_max, step, n_random,
                                                   20260814, 1e6)
    assert (rep.min_margin, rep.worst_point, rep.points_checked) == (margin, worst, count)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported by analyze_weight alone, on first use
    src = os.path.dirname(os.path.dirname(modspaces.__file__))
    code = ("import sys, modspaces, modspaces.cli; "
            "print('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_sweep_loglog_admissible_passes():
    s = analyze_weight().s_admissible
    rep = verify_weight_inequality(
        "loglog", {"s": s},
        {"grid_max": 300.0, "step": 1.0, "n_random": 5000},
    )
    assert rep.passed and rep.min_margin >= -LOG_TOL


def test_sweep_loglog_excessive_subtraction_fails():
    rep = verify_weight_inequality(
        "loglog", {"s": 0.99},
        {"grid_max": 300.0, "step": 1.0, "n_random": 0},
    )
    assert not rep.passed
    assert rep.min_margin < -1.0  # a genuine violation, not tolerance noise


def test_sweep_elementary_passes():
    rep = verify_weight_inequality("elementary", {}, {"n_points": 20001})
    assert rep.passed
    assert rep.params == {"eps": 0.5}
    assert rep.domain_description == "xi in [0,10000], 20001 uniform points"


def test_sweep_validation_errors():
    with pytest.raises(ValueError, match="s > 1"):
        verify_weight_inequality("gevrey", {"s": 1.0}, {"n": 1, "radius": 4})
    with pytest.raises(ValueError, match="n must be 1 or 2"):
        verify_weight_inequality("gevrey", {"s": 2.0}, {"n": 3, "radius": 4})
    with pytest.raises(ValueError, match="0 < s <= 1"):
        verify_weight_inequality(
            "loglog", {"s": 1.5}, {"grid_max": 4.0, "step": 1.0, "n_random": 0})
    with pytest.raises(ValueError, match="'mystery'"):
        verify_weight_inequality("mystery", {}, {})


# each kind's full key set, and one key it does not take
_SWEEP_CALLS = {
    "gevrey": ({"s": 2.0}, {"n": 1, "radius": 4}, "seed"),
    "loglog": ({"s": 0.5}, {"grid_max": 4.0, "step": 1.0, "n_random": 10},
               "random_max"),
    "elementary": ({}, {"n_points": 11}, "xi_maxx"),
}


@pytest.mark.parametrize("kind", sorted(_SWEEP_CALLS))
def test_sweep_rejects_an_unknown_key(kind):
    params, domain, extra = _SWEEP_CALLS[kind]
    with pytest.raises(ValueError, match=f"no domain key '{extra}'"):
        verify_weight_inequality(kind, params, {**domain, extra: 1.0})
    with pytest.raises(ValueError, match="no params key 'epsilon'"):
        verify_weight_inequality(kind, {**params, "epsilon": 0.9}, domain)


@pytest.mark.parametrize("kind", sorted(_SWEEP_CALLS))
def test_sweep_rejects_a_missing_key(kind):
    params, domain, _ = _SWEEP_CALLS[kind]
    for key in domain:
        with pytest.raises(ValueError, match=f"needs domain key '{key}'"):
            verify_weight_inequality(
                kind, params, {k: v for k, v in domain.items() if k != key})
    if kind == "gevrey":
        with pytest.raises(ValueError, match="needs params key 's'"):
            verify_weight_inequality(kind, {}, domain)
    else:  # s is optional for loglog, and elementary takes no params key
        assert verify_weight_inequality(kind, {}, domain).passed


def test_report_serialization_round_trip():
    import json

    rep = verify_weight_inequality("elementary", {}, {"n_points": 101})
    doc = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
    assert doc["passed"] is True
    assert doc["kind"] == "elementary"
    assert doc["points_checked"] == 101
    assert doc["min_margin"] == rep.min_margin
