"""Smooth frequency-uniform partition of unity on the unit lattice.

A single even 1D profile rho1 (flat on [-1/2,1/2], supported on [-1,1])
is tensorized over coordinates and normalized by the sum over integer
translates:

    sigma_k(xi) = rho(xi - k) / sum_j rho(xi - j).

Because rho is separable the normalizing sum factorizes per axis, so
each sigma_k is a product of n one-dimensional quotients and only the
<= 3 neighbors with |xi_i - j_i| < 1 can contribute.  The profile glue
is the standard exp(-1/t) smooth step, which vanishes to all orders at
the patch boundaries; in particular rho1(m) = 0 for every nonzero
integer m, so sigma_k restricted to integer frequencies is exactly the
Kronecker delta.  That exactness is what the lattice norm mode in
`modspace` is built on.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .weights import VerificationReport

__all__ = [
    "WindowFunction",
    "build_window",
    "sigma_eval",
    "sigma_partial",
    "verify_partition",
]


def _e(t, order: int = 0):
    """exp(-1/t) for t > 0, zero otherwise (smooth on all of R), or its derivative.

    On t > 0, order 1 is e(t)/t^2 and order 2 is e(t)(1/t^4 - 2/t^3).
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    e = np.exp(-1.0 / tp)
    out[pos] = e if order == 0 else e / (tp * tp) if order == 1 else e * (1.0 / tp**4 - 2.0 / tp**3)
    return out


def _quotient_rule(u: list, D: list):
    """Derivative of order len(u) - 1 (0, 1 or 2) of the quotient u/D.

    u and D list the numerator's and the denominator's values and
    derivatives up to that order, each factor evaluated once by the caller.
    """
    if len(u) == 1:
        return u[0] / D[0]
    first = u[1] * D[0] - u[0] * D[1]
    if len(u) == 2:
        return first / (D[0] * D[0])
    return (u[2] * D[0] - u[0] * D[2]) / (D[0] * D[0]) - 2.0 * D[1] * first / (D[0] ** 3)


def _h(t, order: int = 0):
    """Smooth step e(t)/(e(t)+e(1-t)): 0 for t<=0, 1 for t>=1.

    Derivatives (orders 1 and 2) come from the quotient rule with
    u = e(t), D = e(t) + e(1-t); they vanish identically outside (0,1).
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    if order == 0:
        out[t >= 1.0] = 1.0
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    u, D = [], []
    for j in range(order + 1):
        a, b = _e(ti, j), _e(1.0 - ti, j)
        u.append(a)
        # d^j/dt^j e(1 - t) = (-1)^j e^(j)(1 - t)
        D.append(a - b if j == 1 else a + b)
    out[inside] = _quotient_rule(u, D)
    return out


def rho1(xi, order: int = 0):
    """Even 1D window profile and derivatives.

    rho1 = 1 on |xi| <= 1/2, h(2(1-|xi|)) on 1/2 <= |xi| <= 1, 0 beyond.
    Chain rule on the transition: d/dxi -> -2*sgn(xi)*h', d2/dxi2 -> 4*h''.
    """
    xi = np.asarray(xi, dtype=float)
    r = np.abs(xi)
    out = np.zeros(r.shape, dtype=float)
    trans = (r > 0.5) & (r < 1.0)
    if order == 0:
        out[r <= 0.5] = 1.0
        out[trans] = _h(2.0 * (1.0 - r[trans]))
    elif order == 1:
        sg = np.sign(xi[trans])
        out[trans] = -2.0 * sg * _h(2.0 * (1.0 - r[trans]), 1)
    elif order == 2:
        out[trans] = 4.0 * _h(2.0 * (1.0 - r[trans]), 2)
    else:
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    return float(out) if out.ndim == 0 else out


def _lattice_sum(x, order: int = 0):
    """S(x) = sum_j rho1(x - j) and derivatives; only round(x)+{-1,0,1} contribute."""
    x = np.asarray(x, dtype=float)
    r = np.rint(x)
    total = np.zeros(x.shape, dtype=float)
    for off in (-1.0, 0.0, 1.0):
        total = total + rho1(x - (r + off), order)
    return total


@dataclass(frozen=True)
class WindowFunction:
    """Tensorized smooth window; immutable, dimension n in {1, 2}."""

    n: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("dimension must be 1 or 2")


def build_window(n: int) -> WindowFunction:
    """Construct the smooth tensor window for dimension n in {1, 2}."""
    return WindowFunction(n)


def _as_points(xi, n: int) -> np.ndarray:
    """Normalize xi to shape (..., n)."""
    xi = np.asarray(xi, dtype=float)
    if n == 1 and (xi.ndim == 0 or xi.shape[-1] != 1):
        xi = xi[..., None]
    if xi.shape[-1] != n:
        raise ValueError(f"points must have last axis {n}, got shape {xi.shape}")
    return xi


def _as_index(k, n: int) -> tuple:
    if np.ndim(k) == 0:
        k = (k,)
    k = tuple(int(v) for v in np.asarray(k).ravel())
    if len(k) != n:
        raise ValueError(f"lattice index must have length {n}, got {k}")
    return k


def _sigma_axis(x, k, order: int = 0):
    """One axis factor rho1(x-k)/S(x) and its first two derivatives.

    A column of cells k gives one row per cell, sharing one S(x).
    """
    x = np.asarray(x, dtype=float)
    orders = range(order + 1)
    return _quotient_rule([rho1(x - k, j) for j in orders], [_lattice_sum(x, j) for j in orders])


def _outer(op, axes):
    """Tensor product of 1-d axis arrays under the ufunc op (axis i is dimension i).

    One axis comes back as it is, so 1-d and 2-d grids are built alike.
    """
    return functools.reduce(op.outer, axes)


def _points(side, n: int) -> np.ndarray:
    """The points of the tensor grid side^n as (M, n) rows in C order."""
    side = np.asarray(side)
    grid = np.empty((side.size,) * n + (n,), dtype=side.dtype)
    for i in range(n):
        # coordinate i varies along axis i and broadcasts over the others
        grid[..., i] = side.reshape((-1,) + (1,) * (n - 1 - i))
    return grid.reshape(-1, n)


def sigma_eval(w: WindowFunction, k, xi):
    """Partition member sigma_k(xi); vectorized over points.

    xi: array of shape (..., n) (bare scalars/1D arrays accepted when
    n == 1).  k: integer lattice point.  Values lie in [0, 1], vanish
    outside the open cube |xi_i - k_i| < 1, and sum to one over k.
    """
    return sigma_partial(w, k, xi, (0,) * w.n)


def sigma_partial(w: WindowFunction, k, xi, alpha):
    """Partial derivative D^alpha sigma_k(xi), |alpha| <= 2 per axis.

    alpha is a multi-index of length n; separability turns the partial
    into a product of per-axis derivative factors.
    """
    k = _as_index(k, w.n)
    alpha = _as_index(alpha, w.n)
    if any(a < 0 or a > 2 for a in alpha):
        raise ValueError("each alpha_i must be 0, 1 or 2")
    xi = _as_points(xi, w.n)
    out = np.ones(xi.shape[:-1], dtype=float)
    for i in range(w.n):
        out = out * _sigma_axis(xi[..., i], k[i], alpha[i])
    return float(out) if out.ndim == 0 else out


def verify_partition(w: WindowFunction, grid=None) -> VerificationReport:
    """Grid verification of the five partition properties.

    Checks (deviations, each against its own threshold):
      sum_to_one      |sum_k sigma_k(xi) - 1| <= 1e-10
      range           sigma in [0, 1] exactly (tolerance 0)
      support         sigma_k(xi) = 0 outside the open unit cube at k
      lower_bound     sigma_k >= 3^{-n} on the inner half cube
      lattice_delta   sigma_k(m) = [m == k] at integers, to 1e-14
      translation     sigma_k(xi+k) = sigma_0(xi) to 1e-14
      deriv_translate analytic D^alpha sigma_k(xi+k) from sigma_partial
                      matches the k=0 value to 1e-8 for |alpha| <= 2

    The grid is the tensor grid of one axis, so the grid checks cost
    one evaluation of the axis factor, a row per cell, on the axis (not
    9^n evaluations of sigma_k on all m^n points): each sigma_k is the
    outer product of its axis factors and its inf-distance mask the
    outer maximum of the axis distances, the same floats the per-point
    route gives.

    The report's min_margin is the worst (threshold - deviation); the
    per-check numbers live in report.extra.
    """
    n = w.n
    if grid is None:
        m = 10_000 if n == 1 else 101
        axis = np.linspace(-3.2, 3.2, m)
    else:
        axis = np.asarray(grid, dtype=float)
        m = axis.size

    pts = _points(axis, n)

    # per-axis factors and distances, row c + 4 for cell c; since
    # 1 * x = x, their outer products are the floats sigma_eval forms
    cells_1d = np.arange(-4, 5)
    cells = list(itertools.product(cells_1d.tolist(), repeat=n))
    factor = _sigma_axis(axis, cells_1d[:, None])
    dist = np.abs(axis - cells_1d[:, None])

    def tensor(op, per_axis, k):
        return _outer(op, [per_axis[c + 4] for c in k]).ravel()

    checks: dict[str, dict] = {}

    sig = {k: tensor(np.multiply, factor, k) for k in cells}

    total = np.zeros(pts.shape[:-1])
    for k in cells:
        total += sig[k]
    dev = np.abs(total - 1.0)
    i = int(np.argmax(dev))
    checks["sum_to_one"] = {
        "deviation": float(dev[i]),
        "threshold": 1e-10,
        "worst_point": [float(v) for v in pts[i]],
    }

    range_dev = 0.0
    range_worst = [0.0] * n
    supp_dev = 0.0
    supp_worst = [0.0] * n
    lower_margin = math.inf
    lower_worst = [0.0] * n
    for k in cells:
        v = sig[k]
        bad = max(float(np.max(-v)), float(np.max(v - 1.0)), 0.0)
        if bad > range_dev:
            range_dev = bad
            range_worst = [float(x) for x in pts[int(np.argmax(np.maximum(-v, v - 1.0)))]]
        dinf = tensor(np.maximum, dist, k)
        outside = dinf >= 1.0
        if np.any(outside):
            leak = float(np.max(np.abs(v[outside])))
            if leak > supp_dev:
                supp_dev = leak
                j = int(np.argmax(np.abs(v * outside)))
                supp_worst = [float(x) for x in pts[j]]
        inner = dinf <= 0.5
        if np.any(inner):
            mval = float(np.min(v[inner]) - 3.0 ** (-n))
            if mval < lower_margin:
                lower_margin = mval
                j_in = np.where(inner)[0]
                lower_worst = [float(x) for x in pts[j_in[int(np.argmin(v[inner]))]]]

    checks["range"] = {"deviation": range_dev, "threshold": 0.0, "worst_point": range_worst}
    checks["support"] = {"deviation": supp_dev, "threshold": 0.0, "worst_point": supp_worst}
    checks["lower_bound"] = {
        "deviation": max(0.0, -lower_margin),
        "threshold": 0.0,
        "worst_point": lower_worst,
        "margin": lower_margin,
    }

    # the integer points form a tensor grid too
    ints_1d = np.arange(-3, 4, dtype=float)
    at_ints = _sigma_axis(ints_1d, cells_1d[:, None])
    kronecker = (ints_1d == cells_1d[:, None]).astype(float)
    delta_dev = 0.0
    for k in cells:
        v = tensor(np.multiply, at_ints, k)
        expect = tensor(np.multiply, kronecker, k)
        delta_dev = max(delta_dev, float(np.max(np.abs(v - expect))))
    checks["lattice_delta"] = {"deviation": delta_dev, "threshold": 1e-14}

    rng = np.random.default_rng(900)
    probe = rng.uniform(-1.0, 1.0, size=(200, n))
    base = sigma_eval(w, (0,) * n, probe)
    trans_dev = 0.0
    for k in [(3,) * n, (-2,) * n, (1,) * n]:
        shifted = sigma_eval(w, k, probe + np.asarray(k, dtype=float))
        trans_dev = max(trans_dev, float(np.max(np.abs(shifted - base))))
    checks["translation"] = {"deviation": trans_dev, "threshold": 1e-14}

    # every multi-index of order 1 or 2 (the deviation is a max, so order is free)
    alphas = [a for a in itertools.product(range(3), repeat=n) if 1 <= sum(a) <= 2]
    probe_d = rng.uniform(-0.95, 0.95, size=(40, n))
    deriv_dev = 0.0
    for alpha in alphas:
        base = sigma_partial(w, (0,) * n, probe_d, alpha)
        for k in [(2,) * n, (-3,) * n]:
            moved = sigma_partial(w, k, probe_d + np.asarray(k, dtype=float), alpha)
            deriv_dev = max(deriv_dev, float(np.max(np.abs(moved - base))))
    checks["deriv_translate"] = {"deviation": deriv_dev, "threshold": 1e-8}

    margins = []
    for name, c in checks.items():
        margins.append((c["threshold"] - c["deviation"], name))
    worst_margin, worst_name = min(margins, key=lambda t: t[0])
    wp = checks[worst_name].get("worst_point", [0.0] * n)

    return VerificationReport(
        kind="partition",
        params={"n": n},
        domain_description=f"uniform grid of {m} points per axis on [-3.2, 3.2], 9^n cells",
        points_checked=int(pts.shape[0]),
        min_margin=float(worst_margin),
        worst_point=tuple(wp),
        passed=all(c["deviation"] <= c["threshold"] for c in checks.values()),
        tolerance=0.0,
        extra={"checks": checks, "worst_check": worst_name},
    )
