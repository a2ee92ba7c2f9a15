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


def _e_derivative(e, t, order: int):
    """Derivative of order 0, 1 or 2 of exp(-1/t) at t > 0, given e = exp(-1/t).

    Order 1 is e/t^2 and order 2 is e(1/t^4 - 2/t^3).
    """
    if order == 0:
        return e
    if order == 1:
        return e / (t * t)
    return e * (1.0 / t**4 - 2.0 / t**3)


def _profile(xi, order: int) -> list:
    """[rho1(xi, j) for j = 0, ..., order] from one evaluation of the smooth step.

    On the transition 1/2 < |xi| < 1, rho1 is h(t) at t = 2(1 - |xi|),
    h(t) = e(t)/(e(t) + e(1-t)) with e(t) = exp(-1/t); both exponentials
    are taken once per point and every order's h^(j) comes from the
    quotient rule over u = e(t), D = e(t) + e(1-t) (d/dt e(1-t) =
    -e'(1-t)).  The chain rule gives d/dxi -> -2 sgn(xi) h' and
    d2/dxi2 -> 4 h''.  Outside the transition every derivative is 0.
    """
    xi = np.asarray(xi, dtype=float)
    r = np.abs(xi)
    trans = (r > 0.5) & (r < 1.0)
    t = 2.0 * (1.0 - r[trans])
    s = 1.0 - t
    e_t, e_s = np.exp(-1.0 / t), np.exp(-1.0 / s)
    u, D, out = [], [], []
    for j in range(order + 1):
        a, b = _e_derivative(e_t, t, j), _e_derivative(e_s, s, j)
        u.append(a)
        D.append(a - b if j == 1 else a + b)
        h = _quotient_rule(u, D)
        if j == 0:
            v = np.array(r <= 0.5, dtype=float)
            v[trans] = h
        else:
            v = np.zeros(r.shape)
            v[trans] = -2.0 * np.sign(xi[trans]) * h if j == 1 else 4.0 * h
        out.append(v)
    return out


def rho1(xi, order: int = 0):
    """Even 1D window profile and derivatives.

    rho1 = 1 on |xi| <= 1/2, h(2(1-|xi|)) on 1/2 <= |xi| <= 1, 0 beyond.
    Chain rule on the transition: d/dxi -> -2*sgn(xi)*h', d2/dxi2 -> 4*h''.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    out = _profile(xi, order)[order]
    return float(out) if out.ndim == 0 else out


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


def _as_index(k, n: int, name: str) -> tuple:
    """k as a tuple of n Python ints; only ints and numpy integers (not bools) are accepted."""
    entries = np.asarray(k, dtype=object).ravel().tolist()
    for v in entries:
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise ValueError(f"{name} must be an integer or a sequence of integers, "
                             f"got {k!r}")
    if len(entries) != n:
        raise ValueError(f"{name} must have length {n}, got {k!r}")
    return tuple(int(v) for v in entries)


# the lattice neighbours round(x) + off whose profiles can meet x
_NEIGHBOURS = np.array([-1.0, 0.0, 1.0])


def _sigma_axis(x, k, order: int = 0):
    """One axis factor rho1(x-k)/S(x), or its derivative of order 1 or 2.

    S(x) = sum_j rho1(x - j) meets only the neighbours j = round(x) + {-1,
    0, 1}: they go through one stacked profile evaluation and are added
    as 0 + s_-1 + s_0 + s_1.  Each profile evaluation takes one exp pair
    per transition point for all orders (_profile).  k broadcasts
    against x: a column of cells gives one row per cell, sharing one
    S(x); an array like x gives each point its own cell.
    """
    x = np.asarray(x, dtype=float)
    near = x - (np.rint(x) + _NEIGHBOURS.reshape((3,) + (1,) * x.ndim))
    S = [0.0 + s[0] + s[1] + s[2] for s in _profile(near, order)]
    return _quotient_rule(_profile(x - k, order), S)


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
    k = _as_index(k, w.n, "k")
    alpha = _as_index(alpha, w.n, "alpha")
    if any(a < 0 or a > 2 for a in alpha):
        raise ValueError("each alpha_i must be 0, 1 or 2")
    xi = _as_points(xi, w.n)
    out = np.ones(xi.shape[:-1], dtype=float)
    for i in range(w.n):
        out = out * _sigma_axis(xi[..., i], k[i], alpha[i])
    return float(out) if out.ndim == 0 else out


def _as_grid(grid) -> np.ndarray:
    """The grid axis as a float array; a ValueError naming grid unless 1-d, nonempty and finite."""
    try:
        axis = np.asarray(grid, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"grid must be a 1-d array of finite numbers: {exc}") from None
    if axis.ndim != 1:
        raise ValueError(f"grid must be a 1-d axis, got shape {axis.shape}")
    if axis.size == 0:
        raise ValueError("grid must hold at least one point")
    bad = np.flatnonzero(~np.isfinite(axis))
    if bad.size:
        raise ValueError(f"grid must be finite; entry {bad[0]} is {axis[bad[0]]}")
    return axis


def _corner_extremes(lo, hi, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Min and max of sigma_k over a product set, per cell, from per-axis extremes.

    lo[c] and hi[c] are the least and greatest axis factor of cell c over
    the set's points on one axis.  sigma_k on the grid is the rounded
    product fl(a b) of its axis factors, and rounding is monotone in
    each factor, so its min and max over A x B sit at the four corner
    products: exactly, not as a bound.  Both come back as (9,)^n arrays.
    """
    corners = [_outer(np.multiply, ends) for ends in itertools.product((lo, hi), repeat=n)]
    return np.minimum.reduce(corners), np.maximum.reduce(corners)


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

    grid is one axis (default: 10 000 points in 1-d, 101 in 2-d, uniform
    on [-3.2, 3.2]) and the checked points are its tensor grid; it must
    be 1-d, nonempty and finite, else a ValueError names it.  The axis
    factors of the 9 cells per axis are evaluated once, a row per cell,
    and sigma_k on the grid is their outer product, the floats sigma_eval
    gives.  sum_to_one adds the 9^n products in cell order.  range,
    support and lower_bound read each cell's min and max over the grid,
    its max |sigma_k| off the support and its min on the inner cube from
    the per-axis extremes of its factors (_corner_extremes: exact, since
    rounding is monotone); a full sigma_k is formed only for the cell
    holding a check's worst value, to place its worst point.
    lattice_delta, translation and deriv_translate make one _sigma_axis
    call per axis and derivative order on all their shifted points and
    multiply the factors as sigma_partial does.

    The report's min_margin is the worst (threshold - deviation); the
    per-check numbers live in report.extra.
    """
    n = w.n
    if grid is None:
        m = 10_000 if n == 1 else 101
        axis = np.linspace(-3.2, 3.2, m)
        domain = f"uniform grid of {m} points per axis on [-3.2, 3.2]"
    else:
        axis = _as_grid(grid)
        m = axis.size
        domain = (f"grid of {m} points per axis on "
                  f"[{float(np.min(axis))!r}, {float(np.max(axis))!r}]")

    def point(i):
        """The grid point of flat (C-order) index i."""
        return [float(axis[j]) for j in np.unravel_index(i, (m,) * n)]

    # per-axis factors and distances, row c + 4 for cell c; since
    # 1 * x = x, their outer products are the floats sigma_eval forms
    cells_1d = np.arange(-4, 5)
    factor = _sigma_axis(axis, cells_1d[:, None])
    dist = np.abs(axis - cells_1d[:, None])

    def cell_rows(per_axis, cell):
        """The rows of per_axis for flat cell index cell (C order over (9,)^n)."""
        return [per_axis[j] for j in np.unravel_index(cell, (cells_1d.size,) * n)]

    def sigma(cell):
        return _outer(np.multiply, cell_rows(factor, cell)).ravel()

    def dinf(cell):
        return _outer(np.maximum, cell_rows(dist, cell)).ravel()

    checks: dict[str, dict] = {}

    total = np.zeros((m,) * n)
    term = np.empty((m,) * n)
    for rows in itertools.product(factor, repeat=n):
        total += rows[0] if n == 1 else np.multiply.outer(*rows, out=term)
    dev = np.abs(total - 1.0).ravel()
    i = int(np.argmax(dev))
    checks["sum_to_one"] = {
        "deviation": float(dev[i]),
        "threshold": 1e-10,
        "worst_point": point(i),
    }

    # a check's worst cell is the first, in cell order, holding its worst value
    lo, hi = _corner_extremes(np.min(factor, axis=1), np.max(factor, axis=1), n)
    bad = np.maximum(-lo, hi - 1.0).ravel()
    cell = int(np.argmax(bad))
    range_dev, range_worst = 0.0, [0.0] * n
    if bad[cell] > 0.0:
        v = sigma(cell)
        range_dev = float(bad[cell])
        range_worst = point(int(np.argmax(np.maximum(-v, v - 1.0))))

    # off the support is (outside_1 x all) u (all x outside_2); |fl(ab)| = fl(|a| |b|)
    size = np.abs(factor)
    size_out = np.max(size, axis=1, initial=0.0, where=dist >= 1.0)
    size = np.max(size, axis=1)
    leak = np.maximum.reduce([
        _outer(np.multiply, [size_out if j == i else size for j in range(n)])
        for i in range(n)]).ravel()
    cell = int(np.argmax(leak))
    supp_dev, supp_worst = 0.0, [0.0] * n
    if leak[cell] > 0.0:
        v = sigma(cell)
        supp_dev = float(leak[cell])
        supp_worst = point(int(np.argmax(np.abs(v * (dinf(cell) >= 1.0)))))

    # the inner cube is inner_1 x inner_2; a cell with no inner point is skipped
    inner_1d = dist <= 0.5
    has_inner = np.any(inner_1d, axis=1)
    lo_in, _ = _corner_extremes(
        *(np.where(has_inner, ext(factor, axis=1, initial=fill, where=inner_1d), 0.0)
          for ext, fill in ((np.min, math.inf), (np.max, -math.inf))), n)
    margin = np.where(_outer(np.logical_and, [has_inner] * n),
                      lo_in - 3.0 ** (-n), math.inf).ravel()
    cell = int(np.argmin(margin))
    lower_margin, lower_worst = math.inf, [0.0] * n
    if margin[cell] < math.inf:
        v = sigma(cell)
        inner = dinf(cell) <= 0.5
        lower_margin = float(margin[cell])
        lower_worst = point(int(np.flatnonzero(inner)[np.argmin(v[inner])]))

    checks["range"] = {"deviation": range_dev, "threshold": 0.0, "worst_point": range_worst}
    checks["support"] = {"deviation": supp_dev, "threshold": 0.0, "worst_point": supp_worst}
    checks["lower_bound"] = {
        "deviation": max(0.0, -lower_margin),
        "threshold": 0.0,
        "worst_point": lower_worst,
        "margin": lower_margin,
    }

    # the integer points form a tensor grid too: every cell at once
    ints_1d = np.arange(-3, 4, dtype=float)
    at_ints = _sigma_axis(ints_1d, cells_1d[:, None])
    kronecker = (ints_1d == cells_1d[:, None]).astype(float)
    delta = _outer(np.multiply, [at_ints] * n) - _outer(np.multiply, [kronecker] * n)
    checks["lattice_delta"] = {"deviation": float(np.max(np.abs(delta))), "threshold": 1e-14}

    def shifted_partials(probe, shifts, alphas):
        """D^alpha sigma_k(probe + k), k = (s,)*n, a row per shift s, for each alpha.

        Row 0 is the unshifted k = 0.  Each axis makes one _sigma_axis
        call per order, and the factors multiply as in sigma_partial.
        """
        col = np.asarray(shifts)[:, None]
        per_axis = [{j: _sigma_axis(probe[:, i] + col, col, j) for j in {a[i] for a in alphas}}
                    for i in range(n)]
        out = []
        for alpha in alphas:
            v = np.ones((col.size, len(probe)))
            for i, j in enumerate(alpha):
                v = v * per_axis[i][j]
            out.append(v)
        return out

    rng = np.random.default_rng(900)
    probe = rng.uniform(-1.0, 1.0, size=(200, n))
    (v,) = shifted_partials(probe, [0, 3, -2, 1], [(0,) * n])
    checks["translation"] = {"deviation": float(np.max(np.abs(v[1:] - v[0]))),
                             "threshold": 1e-14}

    # every multi-index of order 1 or 2 (the deviation is a max, so order is free)
    alphas = [a for a in itertools.product(range(3), repeat=n) if 1 <= sum(a) <= 2]
    probe_d = rng.uniform(-0.95, 0.95, size=(40, n))
    deriv_dev = max(float(np.max(np.abs(d[1:] - d[0])))
                    for d in shifted_partials(probe_d, [0, 2, -3], alphas))
    checks["deriv_translate"] = {"deviation": deriv_dev, "threshold": 1e-8}

    margins = []
    for name, c in checks.items():
        margins.append((c["threshold"] - c["deviation"], name))
    worst_margin, worst_name = min(margins, key=lambda t: t[0])
    wp = checks[worst_name].get("worst_point", [0.0] * n)

    return VerificationReport(
        kind="partition",
        params={"n": n},
        domain_description=f"{domain}, 9^n cells",
        points_checked=m**n,
        min_margin=float(worst_margin),
        worst_point=tuple(wp),
        passed=all(c["deviation"] <= c["threshold"] for c in checks.values()),
        tolerance=0.0,
        extra={"checks": checks, "worst_check": worst_name},
    )
