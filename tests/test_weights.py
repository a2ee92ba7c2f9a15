"""Weight profile, critical constants, weight families, inequality sweeps."""

import math
import os
import re
import reprlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modspaces
from modspaces import cli, weights
from modspaces.weights import (
    LOG_TOL,
    SHIFT,
    WeightSpec,
    _bisect,
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
    assert ana.t0 == pytest.approx(t0_ref, abs=1e-13)
    # stationarity at the package's own argmax: the oracle polishes the
    # stationary point of p independently and evaluates p there.
    tstar, p0_ref = orc.p0_oracle()
    assert ana.p0 == pytest.approx(float(p0_ref), abs=1e-10)
    assert ana.s_admissible == pytest.approx(1.0 - float(p0_ref), abs=1e-10)
    assert ana.deriv_sup == pytest.approx(float(orc.w_derivative(t0_ref, 1)), rel=1e-9)


def test_analysis_matches_scipy_route():
    ana, ref = analyze_weight(), orc.analyze_weight_scipy()
    assert (ana.p0, ana.s_admissible, ana.deriv_sup) == (ref.p0, ref.s_admissible, ref.deriv_sup)
    assert ana.t0 == pytest.approx(ref.t0, abs=1e-12)


def test_bisect_without_sign_change_raises():
    with pytest.raises(RuntimeError, match="no sign change"):
        _bisect(lambda t: t * t + 1.0, -1.0, 1.0)


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


# s in (1, 12], s -> 1+ included; 2-d radii 0-25 and 1-d radii 0-60
_GEVREY_S = st.one_of(st.just(math.nextafter(1.0, 2.0)), st.just(1.0 + 1e-9), st.just(12.0),
                      st.floats(1.0, 12.0, exclude_min=True))
_GEVREY_BOXES = st.one_of(st.tuples(st.just(2), st.integers(0, 25)),
                          st.tuples(st.just(1), st.integers(0, 60)))
# the full profile's exponents and its 2-d radius
_CAMPAIGN_S = cli._CONFIG["weights"]["gevrey_s"][1]
_CAMPAIGN_RADIUS_2D = cli._CONFIG["weights"]["gevrey_radius_2d"][1]


def _gevrey_table(s, radius, n):
    return np.arange(4 * n * radius * radius + 1, dtype=float) ** (0.5 * (1.0 / s))


def _cone_cells(radius, n):
    # k in radius >= k_1 >= ... >= k_n >= 0, l in the whole box
    return (radius + 1 if n == 1 else (radius + 1) * (radius + 2) // 2) * (2 * radius + 1) ** n


@settings(max_examples=60, deadline=None)
@given(s=_GEVREY_S, box=_GEVREY_BOXES)
def test_sweep_gevrey_pruned_equals_full_box(s, box):
    # the branch-and-bound sweep against every cell of the box, exactly
    n, radius = box
    rep = verify_weight_inequality("gevrey", {"s": s}, {"n": n, "radius": radius})
    assert (rep.min_margin, rep.worst_point, rep.points_checked) == \
        orc.sweep_gevrey_full_box(s, radius, n)


@settings(max_examples=60, deadline=None)
@given(rises=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 50.0)),
                      min_size=1, max_size=256),
       delta=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       box=st.one_of(st.tuples(st.just(2), st.integers(0, 8)),
                     st.tuples(st.just(1), st.integers(0, 8))))
def test_gevrey_box_holds_its_contract_on_nondecreasing_tables(rises, delta, box):
    # any nondecreasing table from 0 prunes; flat stretches make exact ties
    n, radius = box
    size = 4 * n * radius * radius + 1
    table = np.cumsum([0.0] + (rises * size)[: size - 1])
    margin, cell, evaluated = weights._gevrey_box(table, delta, radius, n)
    assert (margin, cell) == orc.gevrey_box_gather(table, delta, radius, n)[:2]
    assert 0 < evaluated <= _cone_cells(radius, n)


@pytest.mark.parametrize("n, radius", [(1, 30), (2, 9)], ids=["1d", "2d"])
@pytest.mark.parametrize("change", ["dip", "shuffled", "offset", "delta-above-1"])
def test_gevrey_box_evaluates_every_cell_of_other_tables(change, n, radius):
    # the bounds need table[0] = 0, a nondecreasing table and delta in
    # [0, 1]; without them nothing is pruned, not even by the mirror
    table, delta = _gevrey_table(2.0, radius, n), 2.0 - math.sqrt(2.0)
    if change == "dip":
        table[table.size // 2] = 0.5
    elif change == "shuffled":
        table = np.random.default_rng(5).permutation(table)
    elif change == "offset":
        table += 1.0
    else:
        delta = 1.5
    margin, cell, evaluated = weights._gevrey_box(table, delta, radius, n)
    assert evaluated == _cone_cells(radius, n)
    assert (margin, cell) == orc.gevrey_box_gather(table, delta, radius, n)[:2]


@pytest.mark.parametrize("n, radius", [(1, 200), (2, _CAMPAIGN_RADIUS_2D)], ids=["1d", "2d"])
@pytest.mark.parametrize("s", _CAMPAIGN_S)
def test_gevrey_box_fails_when_delta_is_raised_by_one_percent(s, n, radius):
    # negative control: a subtraction factor 1 % too large breaks the
    # bound at k = 2l, and the pruned pass still finds it, exactly
    table, delta = _gevrey_table(s, radius, n), 1.01 * (2.0 - 2.0 ** (1.0 / s))
    margin, cell, _ = weights._gevrey_box(table, delta, radius, n)
    assert margin < -LOG_TOL
    assert (margin, cell) == orc.gevrey_box_gather(table, delta, radius, n)[:2]


def test_gevrey_box_evaluates_at_most_a_fifth_of_the_full_profile_cone():
    cells = _cone_cells(_CAMPAIGN_RADIUS_2D, 2)
    assert cells == 5_649_021
    for s in _CAMPAIGN_S:
        table = _gevrey_table(s, _CAMPAIGN_RADIUS_2D, 2)
        _, _, evaluated = weights._gevrey_box(table, 2.0 - 2.0 ** (1.0 / s), _CAMPAIGN_RADIUS_2D, 2)
        assert evaluated <= 0.2 * cells, (s, evaluated)


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


# s in (0, 1], s = 1 included; grids of one point, a few steps or an odd
# number of steps, so chunks of 16 rows end inside the grid
_LOGLOG_S = st.one_of(st.just(1.0), st.just(0.99),
                      st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False))
_LOGLOG_STEPS = st.sampled_from([0.25, 0.5, 1.0, 3.0])
_LOGLOG_ROWS = st.one_of(st.just(0), st.integers(1, 20), st.integers(0, 200).map(lambda k: 2 * k + 1))


@settings(max_examples=80, deadline=None)
@given(s=_LOGLOG_S, step=_LOGLOG_STEPS, rows=_LOGLOG_ROWS,
       n_random=st.sampled_from([0, 1, 1000]))
def test_sweep_loglog_pruned_equals_full_grid(s, step, rows, n_random):
    # the pruned sweep against every cell of the grid, then the cloud
    grid_max = rows * step
    rep = verify_weight_inequality(
        "loglog", {"s": s}, {"grid_max": grid_max, "step": step, "n_random": n_random})
    assert (rep.min_margin, rep.worst_point, rep.points_checked) == orc.sweep_loglog_gather(
        s, grid_max, step, n_random, 20260814, 1e6)


@settings(max_examples=80, deadline=None)
@given(s=_LOGLOG_S, step=_LOGLOG_STEPS, rows=_LOGLOG_ROWS,
       cloud=st.sampled_from(["below", "tie", "above"]))
def test_sweep_loglog_cloud_wins_only_strictly_below(s, step, rows, cloud):
    # a cloud one ulp below the grid's minimum wins, and prunes nothing
    # that holds it; a tied cloud leaves the grid's first minimizer
    grid_max = rows * step
    margin, worst, count = orc.sweep_loglog_gather(s, grid_max, step, 0, 20260814, 1e6)
    bar = {"below": math.nextafter(margin, -math.inf), "tie": margin,
           "above": math.nextafter(margin, math.inf)}[cloud]
    with mock.patch.object(weights, "_loglog_cloud", return_value=(bar, (-1.0, -2.0))):
        got = weights._sweep_loglog(s, grid_max, step, 1)
    expected = (bar, (-1.0, -2.0)) if cloud == "below" else (margin, worst)
    assert got == (*expected, count + 1)


@settings(max_examples=150, deadline=None)
@given(s=_LOGLOG_S,
       rises=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 50.0)),
                      min_size=40, max_size=200),
       start=st.floats(0.0, 10.0), above=st.sampled_from([0.0, 1e-12, 0.5, math.inf]))
def test_loglog_grid_holds_its_contract_on_nondecreasing_tables(s, rises, start, above):
    # any nonnegative nondecreasing table prunes; with a bar at or above
    # the grid's minimum the minimum and its first cell must survive
    W = start + np.cumsum([0.0] + rises)
    expected = orc.loglog_grid_gather(W, s)
    margin, cell, evaluated = weights._loglog_grid(W, s, expected[0] + above)
    assert (margin, cell) == expected
    assert 0 < evaluated <= W.size ** 2


_TS = np.arange(301) * 0.5


@pytest.mark.parametrize("W", [
    w_star(_TS)[::-1].copy(),                                   # decreasing
    np.where(np.arange(301) == 150, 1.0, w_star(_TS)),          # one dip
    np.random.default_rng(3).permutation(w_star(_TS)),          # shuffled
    w_star(_TS) - 4.0,                                          # increasing from below 0
], ids=["decreasing", "dip", "shuffled", "negative-start"])
@pytest.mark.parametrize("s", [0.3, 0.99, 1.0])
def test_loglog_grid_evaluates_every_cell_of_other_tables(W, s):
    # the bounds need W nonnegative and nondecreasing; without that even
    # a bar far below every margin skips nothing
    margin, cell, evaluated = weights._loglog_grid(W, s, -1e9)
    assert evaluated == W.size ** 2
    assert (margin, cell) == orc.loglog_grid_gather(W, s)


def test_loglog_grid_skips_most_of_the_full_profile_grid():
    # the full campaign's domain: the admissible sweep and the s = 0.99 probe
    W = w_star(np.arange(4001) * 0.5)
    for s, share in ((analyze_weight().s_admissible, 0.05), (0.99, 0.01)):
        bar, _ = weights._loglog_cloud(s, 100_000)
        _, _, evaluated = weights._loglog_grid(W, s, bar)
        assert evaluated <= share * 4001 ** 2, (s, evaluated)


_CLOUD_DOMAIN = {"grid_max": 50.0, "step": 0.5, "n_random": 1000}


@pytest.mark.parametrize("s", ["admissible", 0.99, 0.3])
def test_a_shared_cloud_gives_the_report_of_a_fresh_one(s):
    # the first sweep draws and evaluates the cloud, the next ones reuse it
    params = {} if s == "admissible" else {"s": s}
    fresh = verify_weight_inequality("loglog", params, _CLOUD_DOMAIN).to_dict()
    cloud = weights.LoglogCloud(1000)
    for _ in range(2):
        assert verify_weight_inequality("loglog", params, _CLOUD_DOMAIN, cloud=cloud).to_dict() == fresh


def test_verify_weights_evaluates_the_cloud_once(monkeypatch):
    # the admissible sweep and the s = 0.99 probe: three w evaluations of
    # the cloud, not six
    sizes = []

    def counted(t, order=0):
        sizes.append(np.size(t))
        return w_star(t, order)

    monkeypatch.setattr(weights, "w_star", counted)
    cli.verify_weights("quick", {"weights": {"sharpness_probe": True, "loglog_random": 777}})
    assert sizes.count(777) == 3


@pytest.mark.parametrize("kind, params, domain", [
    ("loglog", {}, {**_CLOUD_DOMAIN, "n_random": 999}),
    ("gevrey", {"s": 2.0}, {"n": 1, "radius": 4}),
], ids=["other-n_random", "gevrey"])
def test_sweep_rejects_a_cloud_it_cannot_use(kind, params, domain):
    with pytest.raises(ValueError, match="cloud of 1000 points"):
        verify_weight_inequality(kind, params, domain, cloud=weights.LoglogCloud(1000))


def test_import_leaves_scipy_optimize_unloaded():
    # the critical constants are bisected with numpy alone
    src = os.path.dirname(os.path.dirname(modspaces.__file__))
    code = ("import sys, modspaces, modspaces.cli; modspaces.analyze_weight(); "
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
    for s in (1.0, math.nan):
        with pytest.raises(ValueError, match="s > 1"):
            verify_weight_inequality("gevrey", {"s": s}, {"n": 1, "radius": 4})
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


@pytest.mark.parametrize("kind, key, value", [
    ("gevrey", "radius", 2.7),
    ("gevrey", "radius", -3),
    ("gevrey", "n", 1.9),
    ("gevrey", "n", True),
    ("loglog", "n_random", 2.5),
    ("loglog", "n_random", -5),
    ("loglog", "step", 0),
    ("loglog", "grid_max", -10),
    ("loglog", "grid_max", math.nan),
    ("elementary", "n_points", 1.5),
    ("elementary", "n_points", 0),
], ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_sweep_rejects_a_bad_domain_value(kind, key, value):
    # without the up-front check these ran on a truncated value or raised from numpy
    params, domain, _ = _SWEEP_CALLS[kind]
    with pytest.raises(ValueError, match=f"{kind} sweep: {key} must be .*, got {value!r}"):
        verify_weight_inequality(kind, params, {**domain, key: value})


@pytest.mark.parametrize("kind, s", [
    ("gevrey", "2"), ("gevrey", math.inf), ("gevrey", [2]), ("gevrey", True),
    ("loglog", True), ("loglog", "0.5"), ("loglog", math.inf), ("loglog", [2]),
], ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_sweep_rejects_an_s_that_is_no_finite_number(kind, s):
    # float() used to turn these into 2.0, 1.0 and delta = 1, or raise TypeError
    params, domain, _ = _SWEEP_CALLS[kind]
    with pytest.raises(ValueError, match=f"requires a finite number .*got s = "
                                         f"{re.escape(reprlib.repr(s))}$"):
        verify_weight_inequality(kind, {**params, "s": s}, domain)


@pytest.mark.parametrize("kind, domain, key", [
    ("loglog", {"grid_max": 1e12, "step": 0.001, "n_random": 0}, "grid_max"),
    ("loglog", {"grid_max": 1e300, "step": 1e-300, "n_random": 0}, "grid_max"),
    ("loglog", {"grid_max": 4.0, "step": 1.0, "n_random": 10**12}, "n_random"),
    ("gevrey", {"n": 2, "radius": 100_000}, "radius"),
    ("gevrey", {"n": 1, "radius": 10**6}, "radius"),
    ("elementary", {"n_points": 10**12}, "n_points"),
], ids=["loglog-7-PiB", "loglog-inf", "cloud", "gevrey-2d", "gevrey-1d", "elementary"])
def test_sweep_over_the_element_cap_is_a_value_error(kind, domain, key):
    # checked before anything is allocated; numpy used to fail, or the
    # float grid size overflowed int()
    params = _SWEEP_CALLS[kind][0]
    with pytest.raises(ValueError, match=f"{kind} sweep: {key} .* over the cap of "
                                         f"{weights._MAX_ELEMENTS}"):
        verify_weight_inequality(kind, params, domain)


def test_report_serialization_round_trip():
    import json

    rep = verify_weight_inequality("elementary", {}, {"n_points": 101})
    doc = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
    assert doc["passed"] is True
    assert doc["kind"] == "elementary"
    assert doc["points_checked"] == 101
    assert doc["min_margin"] == rep.min_margin
