"""Acceptance battery: the end-to-end claims the package must certify.

Each test pins one headline guarantee — critical-constant brackets,
zero-violation inequality sweeps, partition exactness, norm-equivalence
spread, algebra/subalgebra ratio behavior, constant identities,
special-function certificates, superposition envelopes, wall-clock
budgets for the verification campaigns, and both campaigns' recorded
results.  Tolerances here are the package's published numbers;
loosening them is an interface change.
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest

from modspaces.constants import inverse_g, upper_incomplete_gamma
from modspaces.modspace import (
    NormParams,
    check_algebra_ratio,
    mod_norm,
    refine,
    stft_norm,
    synthesize,
)
from modspaces.partition import build_window, verify_partition
from modspaces.specialfn import (
    density_by_name,
    gevrey_bump_decay,
    measure_L1,
    up_decay_bound,
    up_derivative_residual,
    up_eval,
    up_fourier,
    up_grid,
)
from modspaces.superpose import (
    bound_scan,
    exp_minus_one_norm,
    fit_growth_envelope,
    lipschitz_check,
    phase_split,
    product_identity_check,
    subalgebra_ladder,
)
from modspaces.weights import WeightSpec, analyze_weight, verify_weight_inequality

import _oracles as orc

_DATA = pathlib.Path(__file__).parent / "data"


# ----------------------------------------------------------------------
# 1. critical constants of the weight profile
# ----------------------------------------------------------------------

def test_acceptance_01_critical_constants():
    analyze_weight.cache_clear()
    start = time.monotonic()
    ana = analyze_weight()
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    assert 16.4449 < ana.t0 < 16.4451
    assert 0.410247 < ana.p0 < 0.410248
    # solver tolerance: the mpmath-polished root agrees to 1e-8
    assert ana.t0 == pytest.approx(float(orc.t0_oracle()), abs=1e-8)


# ----------------------------------------------------------------------
# 2. exponent triangle sweep for the fast-growing family
# ----------------------------------------------------------------------

def test_acceptance_02_gevrey_sweep_zero_violations():
    start = time.monotonic()
    for s in (1.2, 1.5, 2.0, 3.0):
        rep1 = verify_weight_inequality("gevrey", {"s": s}, {"radius": 200, "n": 1})
        assert rep1.passed, f"1d sweep failed at s={s}: {rep1.min_margin}"
        assert rep1.min_margin >= -1e-12
        rep2 = verify_weight_inequality("gevrey", {"s": s}, {"radius": 40, "n": 2})
        assert rep2.passed, f"2d sweep failed at s={s}: {rep2.min_margin}"
        assert rep2.min_margin >= -1e-12
    assert time.monotonic() - start < 30.0


# ----------------------------------------------------------------------
# 3. subadditivity sweep for the slowly varying profile, with sharpness
# ----------------------------------------------------------------------

def test_acceptance_03_loglog_sweep_and_sharpness_probe():
    start = time.monotonic()
    s_adm = analyze_weight().s_admissible
    rep = verify_weight_inequality(
        "loglog", {"s": s_adm},
        {"grid_max": 2000.0, "step": 0.5, "n_random": 100_000},
    )
    assert rep.passed and rep.min_margin >= -1e-12
    # pushing the subtraction factor to 0.99 must break the inequality
    probe = verify_weight_inequality(
        "loglog", {"s": 0.99},
        {"grid_max": 2000.0, "step": 0.5, "n_random": 0},
    )
    assert not probe.passed
    assert probe.min_margin < 0.0
    assert time.monotonic() - start < 60.0


# ----------------------------------------------------------------------
# 4. partition exactness
# ----------------------------------------------------------------------

def test_acceptance_04_partition_suite():
    rep = verify_partition(build_window(1))
    assert rep.passed
    assert rep.points_checked == 10_000
    checks = rep.extra["checks"]
    assert checks["sum_to_one"]["deviation"] <= 1e-10
    assert checks["lattice_delta"]["deviation"] <= 1e-14
    assert checks["translation"]["deviation"] <= 1e-14


# ----------------------------------------------------------------------
# 5. norm equivalence: short-time vs decomposition form
# ----------------------------------------------------------------------

def test_acceptance_05_norm_equivalence_interval():
    spec = WeightSpec.gevrey(2.0)
    params = NormParams(2.0, 2.0, spec)

    def ratios(N, upsample):
        window = synthesize("gaussian", a=2.0, N=N)
        out = []
        for seed in range(500, 520):
            f = synthesize("random_bandlimited", B=10.0, N=128, seed=seed)
            if upsample:
                f = refine(f)
            out.append(stft_norm(f, 2.0, 2.0, spec, window) / mod_norm(f, params))
        return min(out), max(out)

    a, A = ratios(128, upsample=False)
    assert 0 < a <= A
    assert A / a <= 20.0
    a2, A2 = ratios(256, upsample=True)
    assert abs(a2 - a) / a <= 0.10
    assert abs(A2 - A) / A <= 0.10


# ----------------------------------------------------------------------
# 6. algebra ratios and subalgebra decay
# ----------------------------------------------------------------------

def _algebra_corpus(n_pairs=50):
    return [
        (
            synthesize("random_bandlimited", B=20.0, N=128, seed=100 + 2 * i),
            synthesize("random_bandlimited", B=20.0, N=128, seed=101 + 2 * i),
        )
        for i in range(n_pairs)
    ]


@pytest.mark.parametrize(
    "weight,p,q",
    [
        (WeightSpec.gevrey(2.0), 2.0, 2.0),
        (WeightSpec.loglog(), 2.0, 2.0),
        (WeightSpec.polynomial(2.0), 2.0, 2.0),  # s = 2 > n/q' = 1/2
    ],
    ids=["gevrey", "loglog", "polynomial"],
)
def test_acceptance_06a_algebra_ratios(weight, p, q):
    [rep] = check_algebra_ratio(_algebra_corpus(), [NormParams(p, q, weight)])
    assert rep.passed
    assert math.isfinite(rep.extra["max_ratio"])
    assert rep.extra["rel_change"] < 0.05


def test_acceptance_06b_subalgebra_ladder_decay():
    ladder = subalgebra_ladder(WeightSpec.gevrey(1.5), [4.0, 8.0, 16.0, 32.0])
    rs = ladder["ratio"]
    for lo, hi in zip(rs[1:], rs[:-1]):
        assert lo <= hi
    assert rs[0] / rs[-1] >= 10.0


# ----------------------------------------------------------------------
# 7. tail-integral identities and the inverse
# ----------------------------------------------------------------------

def test_acceptance_07_constants():
    # closed form at order 1 and integration by parts at order 2
    for t in (0.1, 1.0, 5.0, 30.0):
        assert upper_incomplete_gamma(1.0, t) == pytest.approx(math.exp(-t), rel=1e-9, abs=0.0)
        assert upper_incomplete_gamma(2.0, t) == pytest.approx(
            (t + 1.0) * math.exp(-t), rel=1e-9, abs=0.0
        )
        # recurrence f_{a+1}(t) = a f_a(t) + t^a e^{-t}
        for alpha in (1.5, 3.0):
            lhs = upper_incomplete_gamma(alpha + 1.0, t)
            rhs = alpha * upper_incomplete_gamma(alpha, t) + t**alpha * math.exp(-t)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=0.0)
    # inverse round trip
    for alpha in (1.0, 2.0, 3.5):
        for u_frac in (0.5, 1e-4, 1e-10):
            u = u_frac * math.gamma(alpha)
            assert upper_incomplete_gamma(alpha, inverse_g(alpha, u)) == pytest.approx(
                u, rel=1e-8, abs=0.0
            )
    # logarithmic asymptote of the inverse at order 2
    ratios = [inverse_g(2.0, u) / math.log(1.0 / u) for u in (1e-4, 1e-8, 1e-12)]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert abs(ratios[2] - 1.0) <= 0.2


# ----------------------------------------------------------------------
# 8. special-function certificates
# ----------------------------------------------------------------------

def test_acceptance_08_special_functions():
    grid = up_grid()
    h = 2.0 ** -14
    assert np.trapezoid(grid, dx=h) == pytest.approx(1.0, abs=1e-6)

    xs = np.linspace(-0.25, 2.25, 801)
    assert np.max(np.abs(up_eval(xs) - up_eval(xs, method="fourier"))) <= 1e-5

    assert up_derivative_residual() <= 1e-4

    for xi in (4.0, 8.0, 16.0, 32.0, 64.0):
        assert abs(up_fourier(xi)) <= up_decay_bound(xi) * (1 + 1e-12)

    fit = gevrey_bump_decay(-1.0, np.linspace(5.0, 200.0, 40))
    assert fit["eps"] > 0.0
    assert fit["xi_max"] == pytest.approx(200.0)


# ----------------------------------------------------------------------
# 9. superposition bounds
# ----------------------------------------------------------------------

def _superposition_fixtures():
    out = []
    for i in range(5):
        f = synthesize("random_bandlimited", B=12.0, N=256, seed=300 + i)
        peak = float(np.max(np.abs(f.values.real)))
        out.append(f.copy_with((0.5 / peak) * f.values))
    return out


@pytest.mark.parametrize(
    "regime,rparams,weight",
    [
        ("gevrey", {"s": 2.0}, WeightSpec.gevrey(2.0)),
        ("loglog", {"theta": 1.5, "N": 3.0}, WeightSpec.loglog()),
    ],
    ids=["gevrey", "loglog"],
)
def test_acceptance_09a_growth_envelope_single_constants(regime, rparams, weight):
    params = NormParams(2.0, 1.0, weight)
    lambdas = [0.25, 0.5, 1.0, 2.0, 4.0]
    fixtures = _superposition_fixtures()
    vs, lhss = [], []
    for u in fixtures:
        scan = bound_scan(u, params, regime, lambdas, regime_params=rparams)
        assert scan["min_residual"] >= 0.0  # per-fixture fit is one-sided
        for row in scan["rows"]:
            vs.append(row["norm_u"])
            lhss.append(row["lhs"])
    # one (b, c) pair must cover every fixture and every lambda at once
    pooled = fit_growth_envelope(vs, lhss, regime, rparams)
    assert pooled["min_residual"] >= 0.0
    assert np.all(pooled["residuals"] >= 0.0)
    assert pooled["c"] > 0.0 and pooled["b"] > 0.0


def test_acceptance_09b_exponential_difference_identity():
    u = synthesize("random_bandlimited", B=12.0, N=256, seed=305)
    v = synthesize("random_bandlimited", B=12.0, N=256, seed=306)
    out = lipschitz_check(u, v, NormParams(2.0, 1.0, WeightSpec.gevrey(2.0)))
    assert out["identity_residual"] <= 1e-12


def test_acceptance_09c_phase_split_reconstruction():
    for n, N, B in ((1, 256, 12.0), (2, 32, 8.0)):
        u = synthesize("random_bandlimited", n=n, B=B, N=N, seed=307)
        split = phase_split(u, 4.0)
        assert split.residual(u) <= 1e-10


def test_acceptance_09d_product_identity_to_eight_factors():
    rng = np.random.default_rng(20260814)
    for n in range(1, 9):
        a = 1.0 + 0.4 * rng.standard_normal(n) + 0.4j * rng.standard_normal(n)
        assert product_identity_check(a) <= 1e-12


def test_acceptance_09e_density_integrals_finite():
    bump = density_by_name("gevrey_bump", mu=-2.0)
    up = density_by_name("up")
    for lam in (0.1, 1.0, 10.0):
        out = measure_L1("gevrey", bump, lam, {"s": 2.0})
        assert out["converged"]
        assert math.isfinite(out["log_value"])
        out = measure_L1("loglog", up, lam, {"theta": 1.5, "eps": 0.5})
        assert out["converged"]
        assert math.isfinite(out["log_value"])


# ----------------------------------------------------------------------
# 10. wall-clock budget of the bundled campaigns
# ----------------------------------------------------------------------

def _run_cli_campaign(profile):
    from modspaces.cli import main

    start = time.monotonic()
    code = main(["verify", "all", "--profile", profile])
    return code, time.monotonic() - start


def test_acceptance_10_campaign_budgets(capsys):
    code, quick = _run_cli_campaign("quick")
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"] is True
    assert quick < 120.0
    # every leaf of the quick campaign's result, exactly as recorded
    with open(_DATA / "verify_quick_result.json") as fh:
        assert doc["result"] == json.load(fh)

    code, full = _run_cli_campaign("full")
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["passed"] is True
    assert full < 600.0
    # every leaf of the full campaign's result, exactly as recorded
    with open(_DATA / "verify_full_result.json") as fh:
        assert doc["result"] == json.load(fh)
