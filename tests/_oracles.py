"""Independent high-precision oracles for the test suite.

Everything here recomputes package quantities through a route the
package itself does not use: mpmath arbitrary-precision arithmetic
with numerical differentiation and root polishing, scipy special
functions and solvers, closed forms, or the loops the package ran
before it took a shortcut with the same arithmetic.  Tests compare
package output against these values rather than against other package
output.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np

from modspaces.modspace import (
    NormParams,
    SampledFunction,
    _check_mode,
    _lp,
    _normalization,
    from_spectrum,
    mod_norm,
    mod_norm_record,
    multiply,
    refine,
)
from modspaces.partition import (
    WindowFunction,
    _quotient_rule,
    _sigma_axis,
    sigma_eval,
    sigma_partial,
)
from modspaces.specialfn import (
    SQRT_2PI,
    _ML1_NODES,
    _ML1_WEIGHTS,
    _de_nodes,
    _log_weight,
    _up_depth,
    gevrey_bump,
)
from modspaces.superpose import _B_GRID, _OVERSAMPLE, _log_bound_shape
from modspaces.weights import VerificationReport, WeightAnalysis, w_star

mp.mp.dps = 30

_E2E = mp.exp(2 * mp.e)


def w_profile(t):
    """log(b) * loglog(b) with b = sqrt(exp(2e) + t^2), in mpmath."""
    b = mp.sqrt(_E2E + mp.mpf(t) ** 2)
    return mp.log(b) * mp.log(mp.log(b))


def w_derivative(t, order: int):
    """Derivatives of the profile by mpmath numerical differentiation."""
    return mp.diff(w_profile, mp.mpf(t), order)


def p_aux(t):
    """t * w'(t) / w(t), the ratio whose sup is the critical constant."""
    t = mp.mpf(t)
    return t * mp.diff(w_profile, t, 1) / w_profile(t)


def t0_oracle() -> mp.mpf:
    """Root of w'' polished by mpmath from a coarse start."""
    return mp.findroot(lambda t: mp.diff(w_profile, t, 2), mp.mpf("16.4"))


def p0_oracle() -> tuple:
    """(argmax, max) of p_aux: coarse log-grid scan plus stationary polish."""
    best_t, best_p = None, mp.mpf(-1)
    t = mp.mpf(1)
    while t < 1e6:
        v = p_aux(t)
        if v > best_p:
            best_t, best_p = t, v
        t *= mp.mpf("1.25")
    tstar = mp.findroot(lambda t: mp.diff(p_aux, t, 1), best_t)
    return tstar, p_aux(tstar)


def analyze_weight_scipy() -> WeightAnalysis:
    """Critical constants by scipy's brentq, a log-grid scan and bounded minimization.

    The package bisects sign changes to adjacent floats instead; this
    is the route it used before, kept as the dual route.
    """
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


def weight_mp(spec, k) -> mp.mpf:
    """Gevrey exp(k^(1/s)) or slowly varying exp(w(k)) at k >= 0, in mpmath."""
    k = mp.mpf(k)
    if spec.variant == "gevrey":
        return mp.exp(k ** (1 / mp.mpf(spec.s)))
    if spec.variant == "loglog":
        return mp.exp(w_profile(k))
    raise ValueError(f"no mpmath weight for variant {spec.variant!r}")


def band_ratio_mp(R, spec, width: int = 3) -> mp.mpf:
    """Subalgebra band ratio ||f^2|| / ||f||^2 summed pair by pair in mpmath.

    f has unit coefficients on the integer modes of (R, R + width], so
    ||f|| = sum_k w(k) and f^2 contributes (2 pi)^(-1/2) w(k + l) for
    every ordered pair (k, l) of band modes.
    """
    band = range(math.floor(R) + 1, math.floor(R + width) + 1)
    norm_f = mp.fsum(weight_mp(spec, k) for k in band)
    norm_f2 = mp.fsum(weight_mp(spec, k + l) for k in band for l in band)
    return norm_f2 / mp.sqrt(2 * mp.pi) / norm_f ** 2


def tail_integral(alpha, t):
    """Upper incomplete gamma by mpmath."""
    return mp.gammainc(mp.mpf(alpha), a=mp.mpf(t), b=mp.inf)


def gaussian_l2_norm(a) -> mp.mpf:
    """||exp(-a x^2)||_{L^2(R)} = (pi / (2a))^(1/4)."""
    return (mp.pi / (2 * mp.mpf(a))) ** mp.mpf("0.25")


def gaussian_transform(a, xi) -> mp.mpf:
    """(2 pi)^(-1/2) integral of exp(-a x^2) e^{-i x xi}: real Gaussian."""
    a, xi = mp.mpf(a), mp.mpf(xi)
    return mp.exp(-xi * xi / (4 * a)) / mp.sqrt(2 * a)


def up_transform(xi, factors: int = 200) -> mp.mpc:
    """(2 pi)^(-1/2) e^{-i xi} prod_{j=1..factors} sinc(2^{-j} xi), in mpmath.

    Past j ~ log2|xi| + 27 each factor is 1 to within 1e-16 relative, so
    200 factors reach the infinite product for every |xi| <= 1e30.
    """
    xi = mp.mpf(xi)
    prod = mp.mpf(1)
    for j in range(1, factors + 1):
        prod *= mp.sinc(xi / mp.mpf(2) ** j)
    return prod * mp.expj(-xi) / mp.sqrt(2 * mp.pi)


def bump_transform(mu, xi, dps: int = 30) -> mp.mpc:
    """(2 pi)^(-1/2) int_0^1 exp(-(1-t)^mu - t^mu) e^{-i t xi} dt."""
    mu, xi = mp.mpf(mu), mp.mpf(xi)

    def f(t):
        return mp.exp(-((1 - t) ** mu) - t ** mu - 1j * t * xi)

    with mp.workdps(dps):
        val = mp.quad(f, [0, mp.mpf("0.5"), 1])
    return val / mp.sqrt(2 * mp.pi)


# ----------------------------------------------------------------------
# former production routes, kept as dual routes
# ----------------------------------------------------------------------

# the per-cell block route: one block operator and one Riemann-sum L^p
# norm per lattice cell, the dual route of the lattice closed form and
# of the batched continuum block norms

def axis_sigma_rows(f: SampledFunction, ks: np.ndarray) -> np.ndarray:
    """Dense K x N matrix of the axis factors sigma_k(xi_m) on f's frequency axis.

    Every cell is evaluated on the whole axis, not on its band.
    """
    return _sigma_axis(f.xi_axis(), np.asarray(ks)[:, None])


def box_k(f: SampledFunction, k, mode: str = "lattice") -> SampledFunction:
    """Block operator: multiply the spectrum by sigma_k and invert.

    lattice mode (L = pi): sigma_k at integer frequencies is the
    Kronecker delta, so the block is an exact coefficient selection.
    continuum mode: sigma_k sampled at xi_m = pi*m/L.
    """
    _check_mode(f, mode)
    ks = (int(k),) if np.ndim(k) == 0 else tuple(int(v) for v in k)
    if len(ks) != f.n:
        raise ValueError(f"lattice index must have length {f.n}")
    F = f.spectrum
    if mode == "lattice":
        m = f.index_axis()
        keep = (m == ks[0]) if f.n == 1 else np.outer(m == ks[0], m == ks[1])
        G = np.where(keep, F, 0.0)
    elif f.n == 1:
        G = F * axis_sigma_rows(f, np.array(ks))[0]
    else:
        fac0, fac1 = axis_sigma_rows(f, np.array(ks))
        G = F * fac0[:, None] * fac1[None, :]
    return from_spectrum(f.n, f.L, f.N, G)


def ifft_block_norms(f: SampledFunction, k_max: int, p) -> tuple[np.ndarray, np.ndarray]:
    """Cells |k|_inf <= k_max with a nonzero block, and their L^p norms by batched inverse FFTs.

    The route the package took before it synthesized each block from
    the modes of its band: an N-point (1-d) or N x N (2-d) inverse FFT
    of sigma_k * F per cell, in chunks of cells.  The package scattered
    each 1-d chunk's own axis rows; at test sizes the dense K x N
    matrix serves both dimensions, with the same rows bit for bit.  A
    cell is kept when its rows' support meets a nonzero coefficient,
    counted in integers over the dense rows.
    """
    F = f.spectrum
    phase, scale = _normalization(f.n, f.L, f.N)
    rows = axis_sigma_rows(f, np.arange(-k_max, k_max + 1))
    supp = (rows != 0).astype(np.int64)
    hits = supp @ (F != 0).astype(np.int64)
    if f.n == 2:
        hits = hits @ supp.T
    cells = np.argwhere(hits > 0) - k_max

    out = np.zeros(len(cells))
    chunk = 64 if f.n == 1 else 16
    for start in range(0, len(cells), chunk):
        block = cells[start : start + chunk] + k_max
        if f.n == 1:
            G = F[None, :] * rows[block[:, 0]]
            vals = np.fft.ifft(G * phase[None, :] / scale, axis=1)
        else:
            fac = rows[block[:, 0]][:, :, None] * rows[block[:, 1]][:, None, :]
            G = F[None, :, :] * fac
            vals = np.fft.ifft2(G * phase[None, :, :] / scale, axes=(1, 2))
        out[start : start + len(block)] = _lp(np.abs(vals).reshape(len(block), -1), p,
                                              f.cell_volume, axis=1)
    return cells, out


def lp_norm(f: SampledFunction, p) -> float:
    """Riemann-sum L^p norm on [-L, L)^n; p = inf gives the max."""
    a = np.abs(f.values)
    if p == math.inf:
        return float(np.max(a))
    p = float(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    return float((f.cell_volume * np.sum(a**p)) ** (1.0 / p))


def algebra_ratios_per_norm(pairs, params: NormParams, scale: int) -> list:
    """Product-norm ratios of the pairs at one refinement scale, one mod_norm per norm.

    The route check_algebra_ratio took before it shared the weight-free
    work across weights: both factors and the product refined, multiplied
    and normed from scratch for this one weight.
    """
    pf = NormParams(2.0 * params.p, params.q, params.weight, params.mode, params.k_max)
    out = []
    for f, g in pairs:
        ff, gg = refine(f, scale), refine(g, scale)
        denom = mod_norm(ff, pf) * mod_norm(gg, pf)
        num = mod_norm(multiply(ff, gg), params)
        out.append(num / denom if denom > 0 else math.inf)
    return out


def sweep_gevrey_full_box(s: float, radius: int, n: int):
    """(min_margin, worst_point, points_checked) of the exponent sweep over the full n-d box.

    The table of the sweep goes through gevrey_box_gather.
    """
    delta = 2.0 - 2.0 ** (1.0 / s)
    table = np.arange(4 * n * radius * radius + 1, dtype=float) ** (0.5 * (1.0 / s))
    return gevrey_box_gather(table, delta, radius, n)


def gevrey_box_gather(table: np.ndarray, delta: float, radius: int, n: int):
    """(min_margin, (k, l), cells) of the exponent margin over every cell of the box, by index gather.

    Every k cell of |k|_inf <= radius in C order, in chunks of 128,
    each vectorized over all l: table[|l|^2] + table[|k-l|^2]
    - delta * min(both) - table[|k|^2].  The first C-order minimizer
    wins.  table may be any table over the squared radii up to
    n*(2*radius)^2, monotone or not.
    """
    cells = np.array(list(itertools.product(range(-radius, radius + 1), repeat=n)))
    L2 = np.sum(cells * cells, axis=1)
    tL = table[L2]
    best = (math.inf, ())
    count = 0
    chunk = 128
    for start in range(0, len(cells), chunk):
        k = cells[start : start + chunk]
        K2 = np.sum(k * k, axis=1)[:, None]
        tD = table[sum((k[:, a, None] - cells[None, :, a]) ** 2 for a in range(n))]
        margin = tL[None, :] + tD - delta * np.minimum(tD, tL[None, :]) - table[K2]
        count += margin.size
        i, j = np.unravel_index(np.argmin(margin), margin.shape)
        m = float(margin[i, j])
        if m < best[0]:
            best = (m, tuple(int(v) for v in k[i]) + tuple(int(v) for v in cells[j]))
    return best[0], best[1], count


def loglog_grid_gather(W: np.ndarray, s: float):
    """(min_margin, (i, j)) of the loglog margin over every cell of a grid table, by index gather.

    Each block of 256 rows builds its |i - j| index matrix and gathers
    W through it; the first row-major minimizer wins.  W may be any
    table, monotone or not.
    """
    m = len(W) - 1
    best_margin = math.inf
    at = None
    chunk = 256
    for start in range(0, m + 1, chunk):
        stop = min(start + chunk, m + 1)
        rows = np.arange(start, stop)
        wy = W[rows][:, None]
        idx_diff = np.abs(rows[:, None] - np.arange(m + 1)[None, :])
        wxy = W[idx_diff]
        margin = wy + wxy - s * np.minimum(wy, wxy) - W[None, :]
        i, j = np.unravel_index(np.argmin(margin), margin.shape)
        val = float(margin[i, j])
        if val < best_margin:
            best_margin = val
            at = (int(rows[i]), int(j))
    return best_margin, at


def sweep_loglog_gather(s: float, grid_max: float, step: float, n_random: int,
                        seed: int, random_max: float):
    """(min_margin, worst_point, points_checked) of the loglog sweep by index gather.

    Every grid cell is evaluated (loglog_grid_gather), then the cloud;
    the cloud's point wins only when it is strictly below the grid's.
    """
    m = int(round(grid_max / step))
    ts = np.arange(m + 1) * step
    best_margin, (i, j) = loglog_grid_gather(w_star(ts), s)
    worst = (float(ts[j]), float(ts[i]))
    count = (m + 1) ** 2

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


def _e_chain(t, order: int = 0):
    """exp(-1/t) for t > 0, zero otherwise, or its derivative, one order per call."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    e = np.exp(-1.0 / tp)
    out[pos] = e if order == 0 else e / (tp * tp) if order == 1 else e * (1.0 / tp**4 - 2.0 / tp**3)
    return out


def _h_chain(t, order: int = 0):
    """Smooth step e(t)/(e(t)+e(1-t)) or its derivative, each e^(j) taken afresh."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    if order == 0:
        out[t >= 1.0] = 1.0
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    u, D = [], []
    for j in range(order + 1):
        a, b = _e_chain(ti, j), _e_chain(1.0 - ti, j)
        u.append(a)
        D.append(a - b if j == 1 else a + b)
    out[inside] = _quotient_rule(u, D)
    return out


def rho1_chain(xi, order: int = 0):
    """The window profile one order per call: the route before the one-pass kernel."""
    xi = np.asarray(xi, dtype=float)
    r = np.abs(xi)
    out = np.zeros(r.shape, dtype=float)
    trans = (r > 0.5) & (r < 1.0)
    if order == 0:
        out[r <= 0.5] = 1.0
        out[trans] = _h_chain(2.0 * (1.0 - r[trans]))
    elif order == 1:
        sg = np.sign(xi[trans])
        out[trans] = -2.0 * sg * _h_chain(2.0 * (1.0 - r[trans]), 1)
    else:
        out[trans] = 4.0 * _h_chain(2.0 * (1.0 - r[trans]), 2)
    return out


def lattice_sum_chain(x, order: int = 0):
    """S(x) = sum_j rho1(x - j) over round(x) + {-1, 0, 1}, one neighbour per call."""
    x = np.asarray(x, dtype=float)
    r = np.rint(x)
    total = np.zeros(x.shape, dtype=float)
    for off in (-1.0, 0.0, 1.0):
        total = total + rho1_chain(x - (r + off), order)
    return total


def sigma_axis_chain(x, k, order: int = 0):
    """rho1(x-k)/S(x) and its derivatives through the per-order chain _e -> _h -> rho1 -> S."""
    x = np.asarray(x, dtype=float)
    orders = range(order + 1)
    return _quotient_rule([rho1_chain(x - k, j) for j in orders],
                          [lattice_sum_chain(x, j) for j in orders])


def verify_partition_per_cell(w: WindowFunction, grid=None) -> VerificationReport:
    """verify_partition with sigma_eval on every point of the grid for every cell.

    The route the package took before it evaluated each axis factor
    once: 9^n calls of sigma_eval on all m^n points, and the support
    and inner-cube masks from the inf-distance of every point to k.
    """
    n = w.n
    if grid is None:
        m = 10_000 if n == 1 else 101
        axis = np.linspace(-3.2, 3.2, m)
        domain = f"uniform grid of {m} points per axis on [-3.2, 3.2]"
    else:
        axis = np.asarray(grid, dtype=float)
        m = axis.size
        domain = f"grid of {m} points per axis on [{float(np.min(axis))!r}, {float(np.max(axis))!r}]"

    if n == 1:
        pts = axis[:, None]
    else:
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)

    cells_1d = range(-4, 5)
    if n == 1:
        cells = [(c,) for c in cells_1d]
    else:
        cells = [(a, b) for a in cells_1d for b in cells_1d]

    checks: dict[str, dict] = {}

    sig = {k: sigma_eval(w, k, pts) for k in cells}

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
        karr = np.asarray(k, dtype=float)
        outside = np.max(np.abs(pts - karr), axis=-1) >= 1.0
        if np.any(outside):
            leak = float(np.max(np.abs(v[outside])))
            if leak > supp_dev:
                supp_dev = leak
                j = int(np.argmax(np.abs(v * outside)))
                supp_worst = [float(x) for x in pts[j]]
        inner = np.max(np.abs(pts - karr), axis=-1) <= 0.5
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

    ints_1d = np.arange(-3, 4, dtype=float)
    if n == 1:
        ints = ints_1d[:, None]
    else:
        ga, gb = np.meshgrid(ints_1d, ints_1d, indexing="ij")
        ints = np.stack([ga.ravel(), gb.ravel()], axis=-1)
    delta_dev = 0.0
    for k in cells:
        v = sigma_eval(w, k, ints)
        expect = np.all(ints == np.asarray(k, dtype=float), axis=-1).astype(float)
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

    if n == 1:
        alphas = [(1,), (2,)]
    else:
        alphas = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
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
        domain_description=f"{domain}, 9^n cells",
        points_checked=int(pts.shape[0]),
        min_margin=float(worst_margin),
        worst_point=tuple(wp),
        passed=all(c["deviation"] <= c["threshold"] for c in checks.values()),
        tolerance=0.0,
        extra={"checks": checks, "worst_check": worst_name},
    )


def band_ratio_on_grid(R: float, spec, N: int, width: int = 3) -> float:
    """Subalgebra band ratio by squaring the band function on an N-point grid.

    The route the package took before it summed the closed form: unit
    coefficients on the integer modes of (R, R + width], the product
    formed from samples, and both lattice M^{2,1} norms recomputed from
    FFT spectra.  FFT round-off times the weight sets its floor, about
    5e-8 relative for the Gevrey s = 1.5 ladder at N = 256.
    """
    lo, hi = math.floor(R) + 1, math.floor(R + width)
    if 2 * hi >= N // 2:
        raise ValueError("product band exceeds the grid's frequency range")
    params = NormParams(p=2.0, q=1.0, weight=spec, mode="lattice")
    coeffs = np.zeros(N, dtype=np.complex128)
    coeffs[np.arange(lo, hi + 1)] = 1.0
    f = from_spectrum(1, math.pi, N, coeffs)
    return mod_norm(multiply(f, f), params) / mod_norm(f, params) ** 2


def measure_L1_per_octave(regime: str, density, lam: float, params: dict | None = None) -> dict:
    """measure_L1 with two density and one weight evaluation per panel.

    The octave ladder is walked panel by panel, as the package did
    before it evaluated the whole ladder in one pass.
    """
    params = dict(params or {})

    def octave_log_integral(a: float, b: float) -> float:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = mid + half * _ML1_NODES
        lw = _log_weight(regime, lam, params, x)
        l1 = lw + density.log_abs(x)
        l2 = lw + density.log_abs(-x)
        m = max(float(np.max(l1)), float(np.max(l2)))
        if m == -math.inf:
            return -math.inf
        ssum = float(np.sum(_ML1_WEIGHTS * (np.exp(l1 - m) + np.exp(l2 - m))))
        if ssum <= 0.0:
            return -math.inf
        return m + math.log(half * ssum)

    log_total = -math.inf
    octs = []
    small = 0
    converged = False
    a, b = 0.0, 1.0
    for i in range(64):
        if i == 0:
            lo_edge = 2.0 ** -24
            lo = np.logaddexp(-math.inf, octave_log_integral(0.0, lo_edge))
            while lo_edge < 1.0:
                hi_edge = 2.0 * lo_edge
                lo = np.logaddexp(lo, octave_log_integral(lo_edge, hi_edge))
                lo_edge = hi_edge
            lo = float(lo)
        else:
            lo = octave_log_integral(a, b)
        octs.append(lo)
        log_total = np.logaddexp(log_total, lo)
        if lo < log_total - 41.5:
            small += 1
            if small >= 3:
                converged = True
                break
        else:
            small = 0
        a, b = b, 2.0 * b

    return {
        "value": float(math.exp(log_total)) if log_total < 700 else math.inf,
        "log_value": float(log_total),
        "converged": converged,
        "octaves": octs,
    }


def bump_transform_direct(mu: float, xi) -> np.ndarray:
    """gevrey_bump_ft summed at every xi, negative ones included, without conjugation.

    Its terms are the complex products f(t) * exp(-1j t xi), the form
    gevrey_bump_ft had before it built them from np.cos and np.sin.
    """
    ts, wts = _de_nodes()
    fv = gevrey_bump(mu, ts) * wts
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    return np.sum(fv[None, :] * np.exp(-1j * np.outer(x, ts)), axis=1) / SQRT_2PI


def up_fourier_log_abs_every_level(xi):
    """up_fourier_log_abs with every sinc level evaluated at every xi, signed.

    The form it had before it evaluated each distinct |xi| once and cut
    each level at |xi| 2^-j < 2^-30.
    """
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    total = np.full(xi_arr.shape, -math.log(SQRT_2PI))
    for j in range(1, _up_depth(xi_arr) + 1):
        y = xi_arr * 2.0 ** (-j)
        with np.errstate(divide="ignore"):
            total += np.log(np.abs(np.sinc(y / math.pi)))
    return float(total[0]) if np.ndim(xi) == 0 else total


def stft_shift_inner_per_dimension(f, window, p) -> np.ndarray:
    """The STFT shift loop with a separate branch per dimension.

    The loop stft_norm ran before one n-dimensional roll and transform
    served both dimensions; same chunks, same accumulation order.
    """
    phase, scale = _normalization(f.n, f.L, f.N)
    vol = f.cell_volume
    wv = np.conj(window.values)

    n_shift = f.N if f.n == 1 else f.N * f.N
    acc = np.zeros((f.N,) if f.n == 1 else (f.N, f.N))
    pfin = p != math.inf

    chunk = 256 if f.n == 1 else 32
    shifts = list(range(n_shift))
    for start in range(0, n_shift, chunk):
        block = shifts[start : start + chunk]
        if f.n == 1:
            rolled = np.stack([np.roll(wv, j) for j in block])
            G = f.values[None, :] * rolled
            V = scale * phase[None, :] * np.fft.fft(G, axis=1)
        else:
            rolled = np.stack([
                np.roll(wv, (j // f.N, j % f.N), axis=(0, 1)) for j in block
            ])
            G = f.values[None, :, :] * rolled
            V = scale * phase[None, :, :] * np.fft.fft2(G, axes=(1, 2))
        A = np.abs(V)
        if pfin:
            acc += np.sum(A ** float(p), axis=0)
        else:
            acc = np.maximum(acc, np.max(A, axis=0))

    if pfin:
        return (vol * acc) ** (1.0 / float(p))
    return acc


def random_bandlimited_per_mode(n: int, L: float, N: int, B: float, real: bool,
                                seed: int) -> SampledFunction:
    """synthesize("random_bandlimited") with a Python loop over the modes.

    The generator synthesize ran before one tensor-product mode grid
    served both dimensions: modes collected per dimension (math.hypot in
    2-d), sorted as tuples, drawn into a dict and mirrored one at a time.
    """
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((N,) if n == 1 else (N, N), dtype=np.complex128)
    m_band = int(math.floor(B * L / math.pi))
    modes: list[tuple] = []
    if n == 1:
        for m in range(-m_band, m_band + 1):
            if (math.pi * abs(m) / L) <= B + 1e-12:
                modes.append((m,))
    else:
        for m1 in range(-m_band, m_band + 1):
            for m2 in range(-m_band, m_band + 1):
                if math.pi * math.hypot(m1, m2) / L <= B + 1e-12:
                    modes.append((m1, m2))
    modes.sort()
    draws = rng.standard_normal((len(modes), 2))
    assign = {m: complex(d[0], d[1]) for m, d in zip(modes, draws)}
    if real:
        for m in modes:
            neg = tuple(-v for v in m)
            if m == neg:
                assign[m] = complex(assign[m].real, 0.0)
            elif m > neg:
                assign[m] = assign[neg].conjugate()
    for m, cval in assign.items():
        coeffs[tuple(v % N for v in m)] = cval
    return from_spectrum(n, L, N, coeffs)


def refine_per_dimension(f: SampledFunction, factor: int) -> SampledFunction:
    """refine with a separate branch per dimension: the padding it ran before
    one loop over the 2^n corners of the spectrum served both dimensions."""
    N2 = f.N * factor
    F = f.spectrum
    half = f.N // 2
    if f.n == 1:
        out = np.zeros(N2, dtype=np.complex128)
        out[:half] = F[:half]
        out[N2 - half :] = F[f.N - half :]
    else:
        out = np.zeros((N2, N2), dtype=np.complex128)
        sl = [slice(0, half), slice(N2 - half, N2)]
        src = [slice(0, half), slice(f.N - half, f.N)]
        for a in range(2):
            for b in range(2):
                out[sl[a], sl[b]] = F[src[a], src[b]]
    return from_spectrum(f.n, f.L, N2, out)


def fit_growth_envelope_per_b(norms, lhs_values, regime: str,
                              regime_params: dict) -> dict:
    """fit_growth_envelope one b at a time, as a list of per-b fits.

    The route the package took before it evaluated the whole b grid as
    one array: a dict per b, then the least worst-case slack and the
    smallest b tied with it, in two passes over the list.
    """
    vs = np.asarray(norms, dtype=float)
    lhss = np.asarray(lhs_values, dtype=float)
    if vs.shape != lhss.shape or vs.size == 0:
        raise ValueError("norms and lhs_values must be equal-length, nonempty")
    if np.any(vs <= 0.0):
        raise ValueError("envelope fit needs positive norm values")
    log_lhs = np.log(np.maximum(lhss, 1e-300))
    fits = []
    for b in _B_GRID:
        log_shape = _log_bound_shape(regime, vs, b, regime_params)
        log_c = float(np.max(log_lhs - log_shape)) + 1e-13
        log_bound = log_c + log_shape
        bound = np.where(log_bound < 700.0, np.exp(log_bound), math.inf)
        residuals = bound - lhss
        fits.append({
            "b": float(b),
            "c": float(math.exp(log_c)),
            "bounds": bound,
            "residuals": residuals,
            "max_residual": float(np.max(residuals)),
        })
    least = min(fit["max_residual"] for fit in fits)
    best = min((fit for fit in fits
                if fit["max_residual"] <= least + 1e-12 * abs(least)),
               key=lambda fit: fit["b"])
    best["min_residual"] = float(np.min(best["residuals"]))
    return best


def exp_minus_one_norm_per_row(u: SampledFunction, params: NormParams, *, record: bool = False):
    """exp_minus_one_norm on one function through refine and mod_norm_record.

    The route the package took before the lambda-scan ran as stacks.
    """
    if not (1.0 < params.p < math.inf):
        raise ValueError(f"exp_minus_one_norm requires 1 < p < inf, got p = {params.p}")
    scale = max(1.0, float(np.max(np.abs(u.values.real))))
    worst = float(np.max(np.abs(u.values.imag)))
    if worst > 1e-10 * scale:
        raise ValueError(f"exp_minus_one_norm requires real-valued input "
                         f"(max |imag| = {worst:.3g})")
    fine = refine(u.copy_with(u.values.real.astype(np.complex128)), _OVERSAMPLE)
    composed = fine.copy_with(np.exp(1j * fine.values.real) - 1.0)
    rec = mod_norm_record(composed, params)
    if rec["truncation_tail"] > 1e-6:
        raise ValueError(
            "spectral tail {:.3g} of e^(iu)-1 exceeds 1e-6 of the total; "
            "refine the grid".format(rec["truncation_tail"]))
    return rec if record else rec["value"]


def bound_scan_per_row(u: SampledFunction, params: NormParams, lambdas) -> list:
    """bound_scan with one mod_norm and one exp_minus_one_norm_per_row per lambda."""
    rows = []
    for lam in map(float, lambdas):
        scaled = u.copy_with(lam * u.values)
        rows.append({
            "lambda": lam,
            "norm_u": mod_norm(scaled, params),
            "lhs": exp_minus_one_norm_per_row(scaled, params),
        })
    return rows
