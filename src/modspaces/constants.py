"""Explicit tail constants of the algebra and superposition estimates.

Everything here reduces to the upper incomplete gamma kernel

    f_a(t) = integral_t^inf y^(a-1) e^(-y) dy,

its monotone inverse, and a handful of lattice sums.  The two
"regimes" refer to which weight family drives the estimate:

  * gevrey: weight exp(|k|^(1/s)), s > 1, with subtraction rate
    delta = 2 - 2^(1/s); tail factors decay like exp(-delta*R^(1/s)).
  * loglog: weight exp(w(|k|)) with the slowly varying profile from
    `weights`; tail factors decay like a power R^(-N).

Calibration constants the source estimates leave unquantified are
caller-supplied multipliers defaulting to 1; every test works with
ratios in which those multipliers cancel.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from .weights import analyze_weight, w_star

__all__ = [
    "upper_incomplete_gamma",
    "inverse_g",
    "constant_E_R",
    "tail_factor",
    "constant_G_RN",
    "constant_c3",
    "constant_c4",
    "choose_R",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _gl_panel(func, a: float, b: float) -> float:
    """48-node Gauss-Legendre quadrature of func over [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.sum(_GL_WEIGHTS * func(mid + half * _GL_NODES)))


def upper_incomplete_gamma(alpha: float, t: float) -> float:
    """Tail integral f_alpha(t) = int_t^inf y^(alpha-1) e^(-y) dy.

    alpha > 0, t >= 0.  Gauss-Legendre panels with geometrically
    growing boundaries up to T = max(t, 50*alpha, 50), then the
    asymptotic series e^(-T) T^(alpha-1) sum_k prod_{i<=k}(alpha-i)/T^k
    truncated at its smallest term.  Relative error <= 1e-10 on the
    tested ranges; t = 0 short-circuits to Gamma(alpha).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return math.gamma(alpha)

    T = max(t, 50.0 * alpha, 50.0)

    def integrand(y):
        return y ** (alpha - 1.0) * np.exp(-y)

    total = 0.0
    # geometric panels from t up to max(t, 1), then up to T
    a = t
    while a < min(T, 1.0):
        b = min(2.0 * a if a > 0 else 1.0, 1.0, T)
        if b <= a:
            break
        total += _gl_panel(integrand, a, b)
        a = b
    while a < T:
        b = min(2.0 * a, T)
        total += _gl_panel(integrand, a, b)
        a = b

    # asymptotic tail from T: e^-T T^(alpha-1) * (1 + (a-1)/T + ...)
    term = 1.0
    series = 1.0
    k = 0
    while True:
        k += 1
        nxt = term * (alpha - k) / T
        if abs(nxt) >= abs(term) or k > 60:
            break
        series += nxt
        term = nxt
        if abs(nxt) < 1e-18 * abs(series):
            break
    total += math.exp(-T + (alpha - 1.0) * math.log(T)) * series
    return total


def inverse_g(alpha: float, u: float) -> float:
    """Inverse of the tail integral: the t >= 0 with f_alpha(t) = u.

    Defined for u in (0, Gamma(alpha)]; decreasing in u with
    g(Gamma(alpha)) = 0 and g(u)/log(1/u) -> 1 as u -> 0.
    """
    if not 0.0 < u <= math.gamma(alpha):
        raise ValueError("u must lie in (0, Gamma(alpha)]")
    if u == math.gamma(alpha):
        return 0.0
    hi = 1.0
    while upper_incomplete_gamma(alpha, hi) > u:
        hi *= 2.0
        if hi > 1e8:
            raise RuntimeError("bracket expansion failed")
    return float(brentq(lambda t: upper_incomplete_gamma(alpha, t) - u,
                        0.0, hi, xtol=1e-14, rtol=1e-12))


def _conjugate(q: float) -> float:
    """Hoelder conjugate; q = 1 -> inf, q = inf -> 1."""
    if q == 1.0:
        return math.inf
    if q == math.inf:
        return 1.0
    return q / (q - 1.0)


def constant_E_R(s: float, q: float, n: int, R: float,
                 calibration: float = 1.0) -> float:
    """Radial tail constant of the gevrey regime.

    E_R = 2 pi^(n/2)/Gamma(n/2) * s * (delta q')^(-s n)
          * f_{s n}(delta q' (R-2)^(1/s)),   delta = 2 - 2^(1/s).

    For q = 1 (q' = inf) the l^{q'} aggregation degenerates to a sup
    and the returned quantity is the sup-form tail exp(-delta (R-2)^(1/s))
    times the calibration; see tail_factor for the (1/q')-power form.
    """
    if s <= 1.0:
        raise ValueError("gevrey regime requires s > 1")
    if R < 2.0:
        raise ValueError("R must be >= 2")
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    delta = 2.0 - 2.0 ** (1.0 / s)
    qp = _conjugate(q)
    if qp == math.inf:
        return calibration * math.exp(-delta * (R - 2.0) ** (1.0 / s))
    pref = 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n) * s * (delta * qp) ** (-s * n)
    return calibration * pref * upper_incomplete_gamma(s * n, delta * qp * (R - 2.0) ** (1.0 / s))


def tail_factor(s: float, q: float, n: int, R: float,
                calibration: float = 1.0) -> float:
    """Gevrey-regime tail in the form calibration * E_R^(1/q').

    This is the shape in which the constant enters the product and
    superposition bounds; q = 1 returns the sup-form value itself.
    """
    qp = _conjugate(q)
    E = constant_E_R(s, q, n, R, 1.0)
    if qp == math.inf:
        return calibration * E
    return calibration * E ** (1.0 / qp)


def constant_G_RN(N: int, R: float, calibration: float = 1.0) -> float:
    """Power-law tail of the loglog regime: calibration * R^(-N)."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if R < 2.0:
        raise ValueError("R must be >= 2")
    return calibration * R ** (-float(N))


def constant_c3(regime: str, q: float, n: int, s: float | None = None,
                m_max: int = 20_000) -> float:
    """Lattice tail sum c3 = (sum_m exp(-rate(|m|) q'))^(1/q').

    regime = "gevrey": rate(r) = delta * r^(1/s), delta = 2 - 2^(1/s).
    regime = "loglog": rate(r) = s_adm * w(r) with s_adm = 1 - p0 by
        default (s overrides).
    q = 1 (q' = inf): the sum degenerates to sup_m exp(-rate) = 1
    (attained at m = 0 for gevrey; for loglog the m = 0 term
    exp(-s_adm*e) < 1 is the sup).  The sum runs over the 1D shells of
    Z^n with multiplicities; m_max bounds the summation radius and the
    remainder is controlled by the integral tail (returned value is
    the partial sum; convergence is asserted in the tests).
    """
    qp = _conjugate(q)
    ana = analyze_weight()
    if regime == "gevrey":
        if s is None or s <= 1.0:
            raise ValueError("gevrey c3 requires s > 1")
        delta = 2.0 - 2.0 ** (1.0 / s)
        rate = lambda r: delta * r ** (1.0 / s)
    elif regime == "loglog":
        s_eff = ana.s_admissible if s is None else s
        rate = lambda r: s_eff * w_star(r)
    else:
        raise ValueError(f"unknown regime {regime!r}")

    if qp == math.inf:
        if regime == "gevrey":
            return 1.0
        return math.exp(-rate(0.0))

    if n != 1:
        raise NotImplementedError("c3 lattice sum implemented for n = 1")
    rr = np.abs(np.arange(-m_max, m_max + 1, dtype=float))
    expo = -qp * rate(rr)
    total = float(np.sum(np.exp(expo)))
    return total ** (1.0 / qp)


def constant_c4(regime: str, n: int, s: float | None = None) -> float:
    """Short-range factor c4 = exp(rate'(sup) * 2 sqrt(n)).

    gevrey: exp((2 sqrt(n))^(1/s)); loglog: exp(sup|w'| * 2 sqrt(n))
    with sup|w'| = w'(t0) from the weight analysis.
    """
    if regime == "gevrey":
        if s is None or s <= 1.0:
            raise ValueError("gevrey c4 requires s > 1")
        return math.exp((2.0 * math.sqrt(n)) ** (1.0 / s))
    if regime == "loglog":
        return math.exp(analyze_weight().deriv_sup * 2.0 * math.sqrt(n))
    raise ValueError(f"unknown regime {regime!r}")


def choose_R(regime: str, norm_u: float, params: dict | None = None) -> float:
    """Truncation radius balancing the tail against the norm growth.

    gevrey: solves tail_factor-ratio = norm_u^(1/s - 1), i.e.
        (f_{sn}(delta q' (R-2)^(1/s)) / Gamma(sn))^(1/q') = norm_u^(1/s-1),
    via the inverse tail integral (calibration cancels in the ratio);
    requires q > 1 so that q' < inf.  params: {"s": >1, "q": >1, "n"}.

    loglog: R = 2 * norm_u^(1/N).  params: {"N": positive int}.

    norm_u <= 1 is rejected: the estimates pin R = 3 there and callers
    use that constant directly.
    """
    params = dict(params or {})
    if norm_u <= 1.0:
        raise ValueError("choose_R requires norm_u > 1 (use R = 3 below)")
    if regime == "loglog":
        N = int(params.get("N", 3))
        if N < 1:
            raise ValueError("N must be a positive integer")
        return 2.0 * norm_u ** (1.0 / N)
    if regime == "gevrey":
        s = float(params.get("s", 2.0))
        q = float(params.get("q", 2.0))
        n = int(params.get("n", 1))
        if s <= 1.0:
            raise ValueError("gevrey regime requires s > 1")
        if q <= 1.0:
            raise ValueError("gevrey choose_R requires q > 1 (q' finite)")
        qp = _conjugate(q)
        delta = 2.0 - 2.0 ** (1.0 / s)
        target = math.gamma(s * n) * norm_u ** (qp * (1.0 / s - 1.0))
        x = inverse_g(s * n, target)
        return 2.0 + (x / (delta * qp)) ** s
    raise ValueError(f"unknown regime {regime!r}")
