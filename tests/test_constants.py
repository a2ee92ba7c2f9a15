"""Tail-integral kernel, its inverse, and the explicit estimate constants."""

import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modspaces
from modspaces.constants import (
    choose_R,
    constant_E_R,
    constant_G_RN,
    constant_c3,
    constant_c4,
    inverse_g,
    upper_incomplete_gamma,
)
from modspaces.weights import analyze_weight, w_star

import _oracles as orc


def test_scipy_special_loads_on_the_first_tail_integral(tmp_path):
    # importing the package and running norm leave scipy.special unloaded;
    # the tail integral imports it on first use
    code = textwrap.dedent(f"""
        import contextlib, io, json, sys
        import modspaces, modspaces.cli
        seen = {{"import": "scipy.special" in sys.modules}}
        with contextlib.redirect_stdout(io.StringIO()):
            modspaces.cli.main(["corpus", "generate", "--count", "1",
                                "--out", {str(tmp_path)!r}])
            modspaces.cli.main(["norm", {str(tmp_path / "fixture_000.csv")!r},
                                "--weight", "gevrey:s=2"])
        seen["norm"] = "scipy.special" in sys.modules
        modspaces.constants.upper_incomplete_gamma(1.5, 2.0)
        seen["tail"] = "scipy.special" in sys.modules
        print(json.dumps(seen))
    """)
    src = os.path.dirname(os.path.dirname(modspaces.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert json.loads(out.stdout) == {"import": False, "norm": False, "tail": True}


# ----------------------------------------------------------------------
# tail integral against mpmath
# ----------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.7, 10.0])
@pytest.mark.parametrize("t", [0.0, 1e-6, 0.3, 1.0, 7.0, 80.0, 400.0])
def test_tail_integral_matches_mpmath(alpha, t):
    got = upper_incomplete_gamma(alpha, t)
    ref = float(orc.tail_integral(alpha, t))
    assert got == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_tail_integral_matches_mpmath_grid():
    alphas = np.linspace(0.25, 8.0, 16)
    ts = np.geomspace(1e-4, 200.0, 25)
    for a in alphas:
        for t in ts:
            ref = float(orc.tail_integral(float(a), float(t)))
            assert upper_incomplete_gamma(float(a), float(t)) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_tail_integral_special_values():
    # alpha = 1: closed form e^{-t}
    for t in (0.0, 0.5, 3.0, 40.0):
        assert upper_incomplete_gamma(1.0, t) == pytest.approx(math.exp(-t), rel=1e-12, abs=0.0)
    assert upper_incomplete_gamma(2.5, 0.0) == pytest.approx(math.gamma(2.5), rel=1e-14, abs=0.0)


def test_tail_integral_validation():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(1.0, -1.0)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.3, max_value=6.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
def test_tail_integral_monotone_in_t(alpha, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    a = upper_incomplete_gamma(alpha, lo)
    b = upper_incomplete_gamma(alpha, hi)
    assert b <= a * (1 + 1e-12)


# ----------------------------------------------------------------------
# inverse
# ----------------------------------------------------------------------

def test_inverse_round_trip():
    for alpha in (0.7, 1.0, 2.0, 4.5):
        for u_frac in (0.9, 0.5, 1e-3, 1e-8):
            u = u_frac * math.gamma(alpha)
            t = inverse_g(alpha, u)
            assert upper_incomplete_gamma(alpha, t) == pytest.approx(u, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.3, 6.0])
def test_inverse_round_trip_through_mpmath(alpha):
    for u in (1e-12, 1e-6, 1e-2, 0.5 * math.gamma(alpha)):
        t = inverse_g(alpha, u)
        assert float(orc.tail_integral(alpha, t)) == pytest.approx(u, rel=1e-12, abs=0.0)


def test_inverse_endpoints_and_validation():
    assert inverse_g(2.0, math.gamma(2.0)) == 0.0
    with pytest.raises(ValueError):
        inverse_g(2.0, 0.0)
    with pytest.raises(ValueError):
        inverse_g(2.0, math.gamma(2.0) * 1.01)


def test_inverse_log_asymptote():
    # g(u)/log(1/u) decreases toward 1 as u -> 0 (alpha = 2)
    ratios = [inverse_g(2.0, u) / math.log(1.0 / u) for u in (1e-4, 1e-8, 1e-12)]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] == pytest.approx(1.0, abs=0.2)


# ----------------------------------------------------------------------
# estimate constants
# ----------------------------------------------------------------------

def test_tail_constant_closed_form_q1():
    # q = 1 degenerates to the sup form exp(-delta (R-2)^(1/s))
    s, R = 2.0, 10.0
    delta = 2.0 - math.sqrt(2.0)
    expect = math.exp(-delta * math.sqrt(R - 2.0))
    assert constant_E_R(s, 1.0, 1, R) == pytest.approx(expect, rel=1e-12)


def test_tail_constant_prefactor_q2():
    s, q, n, R = 2.0, 2.0, 1, 6.0
    delta = 2.0 - math.sqrt(2.0)
    pref = 2.0 * math.pi ** 0.5 / math.gamma(0.5) * s * (2.0 * delta) ** (-2.0)
    expect = pref * float(orc.tail_integral(2.0, 2.0 * delta * (R - 2.0) ** 0.5))
    assert constant_E_R(s, q, n, R) == pytest.approx(expect, rel=1e-10)


def test_tail_constant_monotone_in_R():
    vals = [constant_E_R(1.5, 2.0, 1, R) for R in (2.0, 4.0, 8.0, 16.0, 64.0)]
    for a, b in zip(vals, vals[1:]):
        assert b < a
    assert vals[-1] < 1e-3 * vals[0]


def test_tail_constant_validation():
    with pytest.raises(ValueError):
        constant_E_R(1.0, 2.0, 1, 5.0)
    with pytest.raises(ValueError):
        constant_E_R(2.0, 2.0, 1, 1.0)
    with pytest.raises(ValueError):
        constant_E_R(2.0, 2.0, 3, 5.0)
    with pytest.raises(ValueError):
        constant_G_RN(0, 5.0)
    with pytest.raises(ValueError):
        constant_G_RN(2, 1.0)


def test_lattice_sum_constants():
    # gevrey: independent partial sum over integers
    s, q = 2.0, 2.0
    delta = 2.0 - math.sqrt(2.0)
    ms = np.arange(-20_000, 20_001, dtype=float)
    expect = float(np.sum(np.exp(-2.0 * delta * np.abs(ms) ** 0.5))) ** 0.5
    assert constant_c3("gevrey", q, 1, s=s) == pytest.approx(expect, rel=1e-12)
    # q = 1 degenerate forms
    assert constant_c3("gevrey", 1.0, 1, s=s) == 1.0
    s_adm = analyze_weight().s_admissible
    assert constant_c3("loglog", 1.0, 1) == pytest.approx(
        math.exp(-s_adm * math.e), rel=1e-12
    )
    # loglog sum converges slowly but the partial sums must be stable
    a = constant_c3("loglog", 2.0, 1, m_max=10_000)
    b = constant_c3("loglog", 2.0, 1, m_max=20_000)
    assert math.isfinite(a) and math.isfinite(b)
    with pytest.raises(NotImplementedError):
        constant_c3("gevrey", 2.0, 2, s=s)
    with pytest.raises(ValueError):
        constant_c3("gevrey", 2.0, 1)  # s missing
    with pytest.raises(ValueError):
        constant_c3("other", 2.0, 1)


def test_short_range_constants():
    assert constant_c4("gevrey", 1, s=2.0) == pytest.approx(math.exp(math.sqrt(2.0)))
    assert constant_c4("gevrey", 2, s=2.0) == pytest.approx(math.exp(2.0 ** 0.5 * 2 ** 0.25), rel=1e-12)
    ana = analyze_weight()
    assert constant_c4("loglog", 1) == pytest.approx(math.exp(2.0 * ana.deriv_sup))
    # sup of w' really is the value used
    assert ana.deriv_sup == pytest.approx(w_star(ana.t0, 1), rel=1e-12)
    with pytest.raises(ValueError):
        constant_c4("gevrey", 1)
    with pytest.raises(ValueError):
        constant_c4("other", 1)


# ----------------------------------------------------------------------
# radius selection
# ----------------------------------------------------------------------

def test_choose_R_loglog_closed_form():
    assert choose_R("loglog", 16.0, {"N": 4}) == pytest.approx(4.0)
    assert choose_R("loglog", 7.3, {"N": 1}) == pytest.approx(14.6)


def test_choose_R_gevrey_solves_the_tail_equation():
    s, q, n = 2.0, 2.0, 1
    qp = 2.0
    delta = 2.0 - math.sqrt(2.0)
    for norm_u in (1.5, 10.0, 1e3):
        R = choose_R("gevrey", norm_u, {"s": s, "q": q, "n": n})
        assert R > 2.0
        lhs = (
            upper_incomplete_gamma(s * n, delta * qp * (R - 2.0) ** (1.0 / s))
            / math.gamma(s * n)
        ) ** (1.0 / qp)
        assert lhs == pytest.approx(norm_u ** (1.0 / s - 1.0), rel=1e-8)


def test_choose_R_monotone_in_norm():
    Rs = [choose_R("gevrey", u, {"s": 1.5, "q": 2.0, "n": 1}) for u in (2.0, 8.0, 64.0)]
    assert Rs[0] < Rs[1] < Rs[2]


def test_choose_R_validation():
    with pytest.raises(ValueError):
        choose_R("gevrey", 0.5, {"s": 2.0, "q": 2.0, "n": 1})
    with pytest.raises(ValueError):
        choose_R("gevrey", 2.0, {"s": 1.0, "q": 2.0, "n": 1})
    with pytest.raises(ValueError):
        choose_R("gevrey", 2.0, {"s": 2.0, "q": 1.0})
    with pytest.raises(ValueError):
        choose_R("loglog", 2.0, {"N": 0})
    with pytest.raises(ValueError):
        choose_R("other", 2.0, {})
    # a missing regime key is a ValueError naming it, not a bare KeyError
    with pytest.raises(ValueError, match="'n'"):
        choose_R("gevrey", 2.0, {"s": 2.0, "q": 2.0})
    with pytest.raises(ValueError, match="'s'"):
        choose_R("gevrey", 2.0, {})
    with pytest.raises(ValueError, match="'N'"):
        choose_R("loglog", 2.0, {})
