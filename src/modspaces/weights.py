"""Subexponential weight families and their inequality verification.

The central object is the slowly varying profile

    w(t) = log(b(t)) * log(log(b(t))),   b(t) = (exp(2e) + t^2)^(1/2),

which grows slower than any power of t yet faster than any power of
log t.  The shift exp(2e) keeps both logarithms bounded away from the
region where loglog changes sign, so w, w', w'' have closed forms that
are valid on all of [0, inf).

Weight families evaluated on frequency lattices:

  * Polynomial(s):   (1 + |k|^2)^(s/2)
  * Gevrey(s):       exp(|k|^(1/s)),  s > 1 for the algebra estimates
  * LogLog:          exp(w(|k|))
  * Exponential(l):  2^(l*|k|)

Three sweep-style verifications back the multiplicative estimates used
by the algebra and superposition bounds; all comparisons run in the
log domain so nothing overflows at radius ~1e6.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.optimize import brentq, minimize_scalar

__all__ = [
    "SHIFT",
    "bracket_star",
    "w_star",
    "aux_p_q",
    "WeightAnalysis",
    "analyze_weight",
    "WeightSpec",
    "weight_eval",
    "log_weight_eval",
    "VerificationReport",
    "verify_weight_inequality",
]

# exp(2e): inner shift of the regularized bracket.  Evaluates to
# 229.6516... so log(bracket) >= e and loglog(bracket) >= 1 everywhere.
SHIFT = math.exp(2.0 * math.e)


def bracket_star(t):
    """Regularized bracket (exp(2e) + t^2)^(1/2).

    Accepts scalars or numpy arrays; strictly increasing in |t| and
    bounded below by e^e = bracket_star(0).
    """
    t = np.asarray(t, dtype=float)
    out = np.sqrt(SHIFT + t * t)
    return float(out) if out.ndim == 0 else out


def w_star(t, order: int = 0):
    """Slowly varying profile log(b)*loglog(b) and its derivatives.

    order 0: w(t); w(0) = e and w is increasing with range [e, inf).
    order 1: w'(t) = t/b^2 * (1 + loglog b).
    order 2: w''(t) = (1 + loglog b)/b^2
                      + t^2/b^4 * (1/log b - 2 - 2 loglog b).

    Both derivative forms come from differentiating order 0 directly;
    they are cross-checked against finite differences in the tests.
    """
    t = np.asarray(t, dtype=float)
    b2 = SHIFT + t * t
    logb = 0.5 * np.log(b2)
    llb = np.log(logb)
    if order == 0:
        out = logb * llb
    elif order == 1:
        out = t / b2 * (1.0 + llb)
    elif order == 2:
        out = (1.0 + llb) / b2 + (t * t) / (b2 * b2) * (1.0 / logb - 2.0 - 2.0 * llb)
    else:
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    return float(out) if out.ndim == 0 else out


def aux_p_q(t):
    """Auxiliary ratios p(t) = t*w'(t)/w(t) and q(t) = t/w(t).

    p stays strictly below 1 (its sup is the critical constant p0) and
    q is strictly increasing.  t must be positive.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        raise ValueError("aux_p_q requires t > 0")
    w0 = w_star(t_arr)
    p = t_arr * w_star(t_arr, 1) / w0
    q = t_arr / w0
    if np.ndim(t) == 0:
        return float(p), float(q)
    return p, q


@dataclass(frozen=True)
class WeightAnalysis:
    """Critical constants of the slowly varying profile.

    t0: unique root of w'' (w' increases before it, decreases after).
    p0: sup of p(t) over t > 0.
    s_admissible: 1 - p0, the largest subtraction factor for which the
        subadditivity sweep stays nonnegative.
    deriv_sup: max of w', attained at t0.
    """

    t0: float
    p0: float
    s_admissible: float
    deriv_sup: float


@functools.lru_cache(maxsize=1)
def analyze_weight() -> WeightAnalysis:
    """Locate t0 (sign change of w'') and p0 (max of p) numerically.

    t0 is bracketed on [1, 100]; if w'' does not change sign there the
    closed forms have regressed and we raise.  p0 is found by scanning
    a log-spaced grid on (0, 1e6] and polishing the best bracket with
    bounded scalar minimization.
    """
    lo, hi = 1.0, 100.0
    if w_star(lo, 2) <= 0 or w_star(hi, 2) >= 0:
        raise RuntimeError("second derivative does not change sign on [1, 100]")
    t0 = brentq(lambda t: w_star(t, 2), lo, hi, xtol=1e-8)

    grid = np.logspace(-3, 6, 2000)
    pvals = grid * w_star(grid, 1) / w_star(grid)
    i = int(np.argmax(pvals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    res = minimize_scalar(
        lambda t: -t * w_star(t, 1) / w_star(t),
        bounds=(a, b),
        method="bounded",
        options={"xatol": 1e-10},
    )
    p0 = float(-res.fun)
    return WeightAnalysis(
        t0=float(t0),
        p0=p0,
        s_admissible=1.0 - p0,
        deriv_sup=float(w_star(t0, 1)),
    )


_VARIANTS = ("polynomial", "gevrey", "loglog", "exponential")


@dataclass(frozen=True)
class WeightSpec:
    """Tagged weight family evaluated on the frequency lattice.

    variant: polynomial | gevrey | loglog | exponential.
    s: order parameter (polynomial: any real; gevrey: s > 1 needed by
       the algebra estimates, s > 0 accepted for evaluation).
    lam: rate of the exponential variant, >= 0.
    """

    variant: str
    s: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        v = self.variant.lower()
        if v not in _VARIANTS:
            raise ValueError(f"unknown weight variant {self.variant!r}")
        object.__setattr__(self, "variant", v)
        if v == "gevrey" and self.s <= 0:
            raise ValueError("gevrey weight requires s > 0")
        if v == "exponential" and self.lam < 0:
            raise ValueError("exponential weight requires lam >= 0")

    @staticmethod
    def polynomial(s: float) -> "WeightSpec":
        return WeightSpec("polynomial", s=s)

    @staticmethod
    def gevrey(s: float) -> "WeightSpec":
        return WeightSpec("gevrey", s=s)

    @staticmethod
    def loglog() -> "WeightSpec":
        return WeightSpec("loglog")

    @staticmethod
    def exponential(lam: float) -> "WeightSpec":
        return WeightSpec("exponential", lam=lam)

    def params(self) -> dict:
        d: dict[str, Any] = {"variant": self.variant}
        if self.variant in ("polynomial", "gevrey"):
            d["s"] = self.s
        if self.variant == "exponential":
            d["lam"] = self.lam
        return d


def _radius(k) -> np.ndarray:
    """Euclidean length of lattice points; k is (..., n) or scalar/1D."""
    k = np.asarray(k, dtype=float)
    if k.ndim == 0:
        return np.abs(k)
    return np.sqrt(np.sum(k * k, axis=-1))


def log_weight_eval(spec: WeightSpec, k):
    """Natural log of the weight; radial in |k|.  Overflow-safe."""
    r = _radius(k)
    if spec.variant == "polynomial":
        out = 0.5 * spec.s * np.log1p(r * r)
    elif spec.variant == "gevrey":
        out = r ** (1.0 / spec.s)
    elif spec.variant == "loglog":
        out = w_star(r)
    else:  # exponential
        out = spec.lam * r * math.log(2.0)
    out = np.asarray(out, dtype=float)
    return float(out) if out.ndim == 0 else out


def weight_eval(spec: WeightSpec, k):
    """Evaluate the weight at lattice point(s) k.

    Polynomial: (1+|k|^2)^(s/2); Gevrey: exp(|k|^(1/s));
    LogLog: exp(w(|k|)); Exponential: 2^(lam*|k|).
    """
    out = np.exp(log_weight_eval(spec, k))
    return float(out) if np.ndim(out) == 0 else out


@dataclass
class VerificationReport:
    """Outcome of an inequality sweep.

    min_margin is the smallest (RHS - LHS) seen; the check passes when
    min_margin >= -tolerance.  worst_point records where the minimum
    occurred.
    """

    kind: str
    params: dict
    domain_description: str
    points_checked: int
    min_margin: float
    worst_point: tuple
    passed: bool
    tolerance: float
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "params": self.params,
            "domain": self.domain_description,
            "points_checked": self.points_checked,
            "min_margin": self.min_margin,
            "worst_point": list(self.worst_point),
            "passed": bool(self.passed),
            "tolerance": self.tolerance,
        }
        if self.extra:
            d["extra"] = self.extra
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


LOG_TOL = 1e-12  # absolute tolerance for "margin >= 0" in the log domain


def _sweep_gevrey(s: float, radius: int, n: int):
    """Min margin of the triangle-type exponent bound on a lattice box.

    Margin(k,l) = |l|^(1/s) + |l-k|^(1/s)
                  - delta*min(|l-k|,|l|)^(1/s) - |k|^(1/s),
    delta = 2 - 2^(1/s).  Exponents depend only on squared radii, so a
    lookup table over all attainable integer squared radii makes the
    full |k|,|l| <= radius sweep cheap even in 2D.
    """
    delta = 2.0 - 2.0 ** (1.0 / s)
    inv = 1.0 / s
    max_sq = 4 * n * radius * radius  # |l-k|^2 can reach n*(2*radius)^2
    table = np.arange(max_sq + 1, dtype=float) ** (0.5 * inv)

    if n == 1:
        k = np.arange(-radius, radius + 1)
        l = k.copy()
        K2 = (k * k)[:, None]
        L2 = (l * l)[None, :]
        D2 = (k[:, None] - l[None, :]) ** 2
        margin = (
            table[L2] + table[D2] - delta * table[np.minimum(D2, L2)] - table[K2]
        )
        idx = np.unravel_index(np.argmin(margin), margin.shape)
        worst = (int(k[idx[0]]), int(l[idx[1]]))
        return float(margin[idx]), worst, margin.size

    # n == 2: iterate over k cells in chunks, vectorize over all l.
    side = np.arange(-radius, radius + 1)
    lx, ly = np.meshgrid(side, side, indexing="ij")
    lx = lx.ravel()
    ly = ly.ravel()
    L2 = lx * lx + ly * ly
    tL = table[L2]
    n_l = lx.size
    best = (math.inf, (0, 0, 0, 0))
    count = 0
    chunk = 128
    cells = [(int(a), int(b)) for a in side for b in side]
    for start in range(0, len(cells), chunk):
        block = cells[start : start + chunk]
        kx = np.array([c[0] for c in block])[:, None]
        ky = np.array([c[1] for c in block])[:, None]
        K2 = kx * kx + ky * ky
        D2 = (kx - lx[None, :]) ** 2 + (ky - ly[None, :]) ** 2
        margin = tL[None, :] + table[D2] - delta * table[np.minimum(D2, L2[None, :])] - table[K2]
        count += margin.size
        i, j = np.unravel_index(np.argmin(margin), margin.shape)
        m = float(margin[i, j])
        if m < best[0]:
            best = (m, (int(kx[i, 0]), int(ky[i, 0]), int(lx[j]), int(ly[j])))
    return best[0], best[1], count


def _sweep_loglog(s: float, grid_max: float, step: float, n_random: int, seed: int,
                  random_max: float):
    """Min margin of w(x) <= w(y) + w(x-y) - s*min(w(y), w(x-y)).

    The rectangular grid is uniform with the given step, so w(|x-y|)
    is a lookup into the same table as w(x), w(y) via index distance.
    A seeded uniform cloud in [0, random_max]^2 probes the far field.
    """
    m = int(round(grid_max / step))
    ts = np.arange(m + 1) * step
    W = w_star(ts)

    best_margin = math.inf
    worst = (0.0, 0.0)
    count = 0
    chunk = 256
    for start in range(0, m + 1, chunk):
        stop = min(start + chunk, m + 1)
        rows = np.arange(start, stop)
        wy = W[rows][:, None]
        idx_diff = np.abs(rows[:, None] - np.arange(m + 1)[None, :])
        wxy = W[idx_diff]
        margin = wy + wxy - s * np.minimum(wy, wxy) - W[None, :]
        count += margin.size
        i, j = np.unravel_index(np.argmin(margin), margin.shape)
        val = float(margin[i, j])
        if val < best_margin:
            best_margin = val
            worst = (float(ts[j]), float(ts[rows[i]]))  # (x, y)

    if n_random:
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0.0, random_max, size=n_random)
        ys = rng.uniform(0.0, random_max, size=n_random)
        wy = w_star(ys)
        wxy = w_star(np.abs(xs - ys))
        margin = wy + wxy - s * np.minimum(wy, wxy) - w_star(xs)
        count += margin.size
        i = int(np.argmin(margin))
        if float(margin[i]) < best_margin:
            best_margin = float(margin[i])
            worst = (float(xs[i]), float(ys[i]))

    return best_margin, worst, count


def _sweep_elementary(eps: float, xi_max: float, n_points: int):
    """Min margin of w(|xi|^(1+eps)) <= (1+eps)*log(b(xi))*(eps + loglog(b(xi)))."""
    xs = np.linspace(0.0, xi_max, n_points)
    logb = np.log(bracket_star(xs))
    rhs = (1.0 + eps) * logb * (eps + np.log(logb))
    lhs = w_star(xs ** (1.0 + eps))
    margin = rhs - lhs
    i = int(np.argmin(margin))
    return float(margin[i]), (float(xs[i]),), xs.size


def verify_weight_inequality(kind: str, params: dict | None = None,
                             domain: dict | None = None) -> VerificationReport:
    """Sweep one of the three weight inequalities and report margins.

    kind = "gevrey": exponent triangle bound with subtraction factor
        delta = 2 - 2^(1/s) over an integer box.  params: {"s": >1}.
        domain: {"radius": int, "n": 1|2}.
    kind = "loglog": subadditivity of w up to -s*min(...), params
        {"s": in (0, 1-p0]}, domain {"grid_max", "step", "n_random",
        "seed", "random_max"}.
    kind = "elementary": composition bound for |xi|^(1+eps), params
        {"eps": in (0,1)}, domain {"xi_max", "n_points"}.

    All margins are computed on exponents (log domain); pass means
    min_margin >= -1e-12.
    """
    params = dict(params or {})
    domain = dict(domain or {})

    if kind == "gevrey":
        s = float(params.get("s", 2.0))
        if s <= 1.0:
            raise ValueError("gevrey inequality requires s > 1 (delta > 0)")
        n = int(domain.get("n", 1))
        if n not in (1, 2):
            raise ValueError("n must be 1 or 2")
        radius = int(domain.get("radius", 200 if n == 1 else 40))
        margin, worst, count = _sweep_gevrey(s, radius, n)
        desc = f"integer box |k|_inf,|l|_inf <= {radius}, n={n}"
        params = {"s": s, "delta": 2.0 - 2.0 ** (1.0 / s)}
    elif kind == "loglog":
        s = float(params.get("s", analyze_weight().s_admissible))
        if not 0.0 < s <= 1.0:
            raise ValueError("loglog inequality requires 0 < s <= 1")
        grid_max = float(domain.get("grid_max", 2000.0))
        step = float(domain.get("step", 0.5))
        n_random = int(domain.get("n_random", 100_000))
        seed = int(domain.get("seed", 20260814))
        random_max = float(domain.get("random_max", 1e6))
        margin, worst, count = _sweep_loglog(s, grid_max, step, n_random, seed,
                                             random_max)
        desc = (f"grid [0,{grid_max:g}]^2 step {step:g} "
                f"+ {n_random} random points in [0,{random_max:g}]^2 (seed {seed})")
        params = {"s": s}
    elif kind == "elementary":
        eps = float(params.get("eps", 0.5))
        if not 0.0 < eps < 1.0:
            raise ValueError("elementary inequality requires 0 < eps < 1")
        xi_max = float(domain.get("xi_max", 1e4))
        n_points = int(domain.get("n_points", 200_001))
        margin, worst, count = _sweep_elementary(eps, xi_max, n_points)
        desc = f"xi in [0,{xi_max:g}], {n_points} uniform points"
        params = {"eps": eps}
    else:
        raise ValueError(f"unknown inequality kind {kind!r}")

    return VerificationReport(
        kind=kind,
        params=params,
        domain_description=desc,
        points_checked=count,
        min_margin=margin,
        worst_point=worst,
        passed=margin >= -LOG_TOL,
        tolerance=LOG_TOL,
    )
