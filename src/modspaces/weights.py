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
import itertools
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "SHIFT",
    "bracket_star",
    "w_star",
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


@dataclass(frozen=True)
class WeightAnalysis:
    """Critical constants of the slowly varying profile.

    t0: unique root of w'' (w' increases before it, decreases after).
    p0: sup of p(t) = t w'(t) / w(t) over t > 0 (p stays below 1).
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
    # imported here: scipy.optimize is slow to import and nothing else uses it
    from scipy.optimize import brentq, minimize_scalar

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
    s: order parameter (polynomial: any finite real; gevrey: s > 1
       needed by the algebra estimates, s > 0 accepted for evaluation).
    lam: rate of the exponential variant, finite and >= 0.
    """

    variant: str
    s: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        v = self.variant.lower()
        if v not in _VARIANTS:
            raise ValueError(f"unknown weight variant {self.variant!r}")
        object.__setattr__(self, "variant", v)
        if not (math.isfinite(self.s) and math.isfinite(self.lam)):
            raise ValueError(f"weight parameters must be finite, got s = {self.s}, lam = {self.lam}")
        if v == "gevrey" and not self.s > 0:
            raise ValueError("gevrey weight requires s > 0")
        if v == "exponential" and not self.lam >= 0:
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


LOG_TOL = 1e-12  # absolute tolerance for "margin >= 0" in the log domain


def _sweep_gevrey(s: float, radius: int, n: int):
    """Min margin of the triangle-type exponent bound on a lattice box.

    Margin(k,l) = |l|^(1/s) + |l-k|^(1/s)
                  - delta*min(|l-k|,|l|)^(1/s) - |k|^(1/s),
    delta = 2 - 2^(1/s).  Exponents depend only on squared radii, so
    they are lookups into a table over every attainable integer squared
    radius.  The margin depends on |k|^2, |l|^2 and |k-l|^2 only, and
    the box is invariant under the 2^n n! signed permutations of the
    axes applied to k and l together.  So k runs over the cone
    radius >= k_1 >= ... >= k_n >= 0 and l over the whole box; chunks
    of k cells are vectorized over all l.  The exponents of |k-l| over
    the box are the window at radius - k of the table over every
    difference, and since table is increasing,
    table[min(D2, L2)] = min(table[D2], table[L2]).
    """
    # imported here: partition imports this module
    from .partition import _outer, _points

    delta = 2.0 - 2.0 ** (1.0 / s)
    # |l-k|^2 can reach n*(2*radius)^2
    table = np.arange(4 * n * radius * radius + 1, dtype=float) ** (0.5 * (1.0 / s))
    side = np.arange(-radius, radius + 1)
    l = _points(side, n)
    tL = table[_outer(np.add, [side * side] * n).ravel()]
    diff = np.arange(-2 * radius, 2 * radius + 1)
    windows = np.lib.stride_tricks.sliding_window_view(
        table[_outer(np.add, [diff * diff] * n)], (side.size,) * n)
    cone = _points(np.arange(radius + 1), n)
    cone = cone[np.all(cone[:, :-1] >= cone[:, 1:], axis=1)]
    best = math.inf
    ties = []  # (k, l) rows of the cells at the running minimum
    chunk = 16
    for start in range(0, len(cone), chunk):
        k = cone[start : start + chunk]
        tD = windows[tuple((radius - k).T)].reshape(len(k), -1)
        margin = tL + tD - delta * np.minimum(tD, tL) - table[np.sum(k * k, axis=1)][:, None]
        m = float(np.min(margin))
        if m > best:
            continue
        if m < best:
            best, ties = m, []
        i, j = np.nonzero(margin == m)
        ties.append(np.concatenate([k[i], l[j]], axis=1))
    return best, _first_image(np.concatenate(ties), n), side.size ** (2 * n)


def _first_image(ties: np.ndarray, n: int) -> tuple:
    """Lexicographically smallest image of the tied (k, l) rows under the box's symmetries.

    Every full-box minimizer is the image of a cone minimizer under one
    of the 2^n n! signed axis permutations applied to k and l together,
    and C order over the box is lexicographic order on (k, l).  So this
    is the first minimizer the full sweep would meet.
    """
    images = []
    for perm in itertools.permutations(range(n)):
        cols = list(perm) + [n + a for a in perm]
        for signs in itertools.product((1, -1), repeat=n):
            images.append(ties[:, cols] * np.array(signs + signs))
    return min(map(tuple, np.concatenate(images).tolist()))


# the loglog sweep's far-field cloud and the elementary bound's exponent and range
_LOGLOG_SEED, _LOGLOG_RANDOM_MAX = 20260814, 1e6
_ELEMENTARY_EPS, _ELEMENTARY_XI_MAX = 0.5, 1e4


def _sweep_loglog(s: float, grid_max: float, step: float, n_random: int):
    """Min margin of w(x) <= w(y) + w(x-y) - s*min(w(y), w(x-y)).

    The rectangular grid is uniform with the given step, so w(|x-y|)
    is a lookup into the same table W as w(x), w(y) via index distance.
    Row y of W[|y - x|] is the window V[m-y : 2m-y+1] of the mirrored
    table V = (W[m], ..., W[1], W[0], W[1], ..., W[m]), so the row
    blocks are slices of V's sliding windows in reverse order: views
    that copy nothing.  A seeded uniform cloud in [0, 1e6]^2 probes the
    far field.
    """
    m = int(round(grid_max / step))
    ts = np.arange(m + 1) * step
    W = w_star(ts)
    rows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([W[:0:-1], W]), m + 1)[::-1]

    best_margin = math.inf
    worst = (0.0, 0.0)
    count = 0
    chunk = 16
    for start in range(0, m + 1, chunk):
        stop = min(start + chunk, m + 1)
        wy = W[start:stop, None]
        wxy = rows[start:stop]
        margin = wy + wxy - s * np.minimum(wy, wxy) - W[None, :]
        count += margin.size
        i, j = np.unravel_index(np.argmin(margin), margin.shape)
        val = float(margin[i, j])
        if val < best_margin:
            best_margin = val
            worst = (float(ts[j]), float(ts[start + i]))  # (x, y)

    if n_random:
        rng = np.random.default_rng(_LOGLOG_SEED)
        xs = rng.uniform(0.0, _LOGLOG_RANDOM_MAX, size=n_random)
        ys = rng.uniform(0.0, _LOGLOG_RANDOM_MAX, size=n_random)
        wy = w_star(ys)
        wxy = w_star(np.abs(xs - ys))
        margin = wy + wxy - s * np.minimum(wy, wxy) - w_star(xs)
        count += margin.size
        i = int(np.argmin(margin))
        if float(margin[i]) < best_margin:
            best_margin = float(margin[i])
            worst = (float(xs[i]), float(ys[i]))

    return best_margin, worst, count


def _sweep_elementary(n_points: int):
    """Min margin of w(|xi|^(1+eps)) <= (1+eps)*log(b(xi))*(eps + loglog(b(xi))), eps = 1/2."""
    eps = _ELEMENTARY_EPS
    xs = np.linspace(0.0, _ELEMENTARY_XI_MAX, n_points)
    logb = np.log(bracket_star(xs))
    rhs = (1.0 + eps) * logb * (eps + np.log(logb))
    lhs = w_star(xs ** (1.0 + eps))
    margin = rhs - lhs
    i = int(np.argmin(margin))
    return float(margin[i]), (float(xs[i]),), xs.size


# each kind's params keys, required and optional, and its domain keys
_SWEEP_KEYS = {
    "gevrey": (("s",), (), ("n", "radius")),
    "loglog": ((), ("s",), ("grid_max", "step", "n_random")),
    "elementary": ((), (), ("n_points",)),
}


def _check_sweep_keys(kind: str, params: dict, domain: dict) -> None:
    """Raise ValueError naming the first missing or unknown params or domain key."""
    required, optional, domain_keys = _SWEEP_KEYS[kind]
    for what, given, needed, allowed in (
            ("params", params, required, required + optional),
            ("domain", domain, domain_keys, domain_keys)):
        missing = [k for k in needed if k not in given]
        if missing:
            raise ValueError(f"{kind} sweep needs {what} key {missing[0]!r}")
        unknown = sorted(set(given) - set(allowed))
        if unknown:
            raise ValueError(f"{kind} sweep takes no {what} key {unknown[0]!r}; "
                             f"its {what} keys: {', '.join(allowed) or 'none'}")


def verify_weight_inequality(kind: str, params: dict,
                             domain: dict) -> VerificationReport:
    """Sweep one of the three weight inequalities and report margins.

    Each kind takes exactly these keys; a missing or unknown one is a
    ValueError naming it.

    kind = "gevrey": exponent triangle bound with subtraction factor
        delta = 2 - 2^(1/s) over an integer box.  params {"s": > 1},
        domain {"n": 1|2, "radius": int}.
    kind = "loglog": subadditivity of w up to -s*min(...).  params {} or
        {"s": in (0, 1]}, s defaulting to s_admissible = 1 - p0; domain
        {"grid_max", "step", "n_random"}.  The grid [0, grid_max]^2 is
        swept with the given step, plus n_random points of a uniform
        cloud in [0, 1e6]^2 with seed 20260814.
    kind = "elementary": composition bound for |xi|^(1+eps), eps = 1/2,
        on xi in [0, 1e4].  params {}, domain {"n_points"}.

    All margins are computed on exponents (log domain); pass means
    min_margin >= -1e-12.
    """
    if kind not in _SWEEP_KEYS:
        raise ValueError(f"unknown inequality kind {kind!r}")
    _check_sweep_keys(kind, params, domain)

    if kind == "gevrey":
        s = float(params["s"])
        if s <= 1.0:
            raise ValueError("gevrey inequality requires s > 1 (delta > 0)")
        n = int(domain["n"])
        if n not in (1, 2):
            raise ValueError("n must be 1 or 2")
        radius = int(domain["radius"])
        margin, worst, count = _sweep_gevrey(s, radius, n)
        desc = f"integer box |k|_inf,|l|_inf <= {radius}, n={n}"
        params = {"s": s, "delta": 2.0 - 2.0 ** (1.0 / s)}
    elif kind == "loglog":
        s = float(params.get("s", analyze_weight().s_admissible))
        if not 0.0 < s <= 1.0:
            raise ValueError("loglog inequality requires 0 < s <= 1")
        grid_max = float(domain["grid_max"])
        step = float(domain["step"])
        n_random = int(domain["n_random"])
        margin, worst, count = _sweep_loglog(s, grid_max, step, n_random)
        desc = (f"grid [0,{grid_max:g}]^2 step {step:g} + {n_random} random points "
                f"in [0,{_LOGLOG_RANDOM_MAX:g}]^2 (seed {_LOGLOG_SEED})")
        params = {"s": s}
    else:  # elementary
        n_points = int(domain["n_points"])
        margin, worst, count = _sweep_elementary(n_points)
        desc = f"xi in [0,{_ELEMENTARY_XI_MAX:g}], {n_points} uniform points"
        params = {"eps": _ELEMENTARY_EPS}

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
