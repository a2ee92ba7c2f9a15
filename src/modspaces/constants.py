"""Explicit tail constants of the algebra and superposition estimates.

Everything here reduces to the upper incomplete gamma kernel

    f_a(t) = integral_t^inf y^(a-1) e^(-y) dy,

its monotone inverse, and a handful of lattice sums.  The kernel and
its inverse come from scipy.special (gammaincc, gammainccinv), which
is imported on the first tail-integral call, not with this module; the
tests check both against mpmath.  The two
"regimes" refer to which weight family drives the estimate:

  * gevrey: weight exp(|k|^(1/s)), s > 1, with subtraction rate
    delta = 2 - 2^(1/s); tail factors decay like exp(-delta*R^(1/s)).
  * loglog: weight exp(w(|k|)) with the slowly varying profile from
    `weights`; tail factors decay like a power R^(-N).
"""

from __future__ import annotations

import math

import numpy as np

from .weights import _regime_param, analyze_weight, w_star

__all__ = [
    "upper_incomplete_gamma",
    "inverse_g",
    "constant_E_R",
    "constant_G_RN",
    "constant_c3",
    "constant_c4",
    "choose_R",
]

def upper_incomplete_gamma(alpha: float, t: float) -> float:
    """Tail integral f_alpha(t) = int_t^inf y^(alpha-1) e^(-y) dy.

    alpha > 0, t >= 0.  Computed as Gamma(alpha) * Q(alpha, t) with the
    regularized upper incomplete gamma Q = scipy.special.gammaincc
    (DiDonato & Morris, ACM TOMS 12, 1986); the tests check it against
    mpmath.  Underflows to 0 where e^(-t) does, near t = 745.
    """
    # imported here: scipy.special is slow to import and only the
    # tail constants use it
    from scipy.special import gammaincc

    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(gammaincc(alpha, t)) * math.gamma(alpha)


def inverse_g(alpha: float, u: float) -> float:
    """Inverse of the tail integral: the t >= 0 with f_alpha(t) = u.

    Defined for u in (0, Gamma(alpha)]; decreasing in u with
    g(Gamma(alpha)) = 0 and g(u)/log(1/u) -> 1 as u -> 0.  Computed as
    scipy.special.gammainccinv(alpha, u / Gamma(alpha)).
    """
    from scipy.special import gammainccinv

    if not 0.0 < u <= math.gamma(alpha):
        raise ValueError("u must lie in (0, Gamma(alpha)]")
    if u == math.gamma(alpha):
        return 0.0
    return float(gammainccinv(alpha, u / math.gamma(alpha)))


def _conjugate(q: float) -> float:
    """Hoelder conjugate; q = 1 -> inf, q = inf -> 1."""
    if q == 1.0:
        return math.inf
    if q == math.inf:
        return 1.0
    return q / (q - 1.0)


def constant_E_R(s: float, q: float, n: int, R: float) -> float:
    """Radial tail constant of the gevrey regime.

    E_R = 2 pi^(n/2)/Gamma(n/2) * s * (delta q')^(-s n)
          * f_{s n}(delta q' (R-2)^(1/s)),   delta = 2 - 2^(1/s).

    For q = 1 (q' = inf) the l^{q'} aggregation degenerates to a sup
    and the returned quantity is the sup-form tail exp(-delta (R-2)^(1/s)).
    For q > 1 the constant enters the product and superposition bounds
    as E_R^(1/q').
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
        return math.exp(-delta * (R - 2.0) ** (1.0 / s))
    pref = 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n) * s * (delta * qp) ** (-s * n)
    return pref * upper_incomplete_gamma(s * n, delta * qp * (R - 2.0) ** (1.0 / s))


def constant_G_RN(N: int, R: float) -> float:
    """Power-law tail of the loglog regime: R^(-N)."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    if R < 2.0:
        raise ValueError("R must be >= 2")
    return R ** (-float(N))


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


def choose_R(regime: str, norm_u: float, params: dict) -> float:
    """Truncation radius balancing the tail against the norm growth.

    gevrey: solves
        (f_{sn}(delta q' (R-2)^(1/s)) / Gamma(sn))^(1/q') = norm_u^(1/s-1),
    via the inverse tail integral;
    requires q > 1 so that q' < inf.  params: {"s": >1, "q": >1, "n"}.

    loglog: R = 2 * norm_u^(1/N).  params: {"N": positive int}.

    norm_u <= 1 is rejected: the estimates pin R = 3 there and callers
    use that constant directly.
    """
    if norm_u <= 1.0:
        raise ValueError("choose_R requires norm_u > 1 (use R = 3 below)")
    if regime == "loglog":
        N = int(_regime_param(params, regime, "N"))
        if N < 1:
            raise ValueError("N must be a positive integer")
        return 2.0 * norm_u ** (1.0 / N)
    if regime == "gevrey":
        s = float(_regime_param(params, regime, "s"))
        q = float(_regime_param(params, regime, "q"))
        if s <= 1.0:
            raise ValueError("gevrey regime requires s > 1")
        if q <= 1.0:
            raise ValueError("gevrey choose_R requires q > 1 (q' finite)")
        qp = _conjugate(q)
        delta = 2.0 - 2.0 ** (1.0 / s)
        n = int(_regime_param(params, regime, "n"))
        target = math.gamma(s * n) * norm_u ** (qp * (1.0 / s - 1.0))
        x = inverse_g(s * n, target)
        return 2.0 + (x / (delta * qp)) ** s
    raise ValueError(f"unknown regime {regime!r}")
