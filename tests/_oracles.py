"""Independent high-precision oracles for the test suite.

Everything here recomputes package quantities through a route the
package itself does not use: mpmath arbitrary-precision arithmetic
with numerical differentiation and root polishing, scipy special
functions, closed forms, or the loops the package ran before it took
a shortcut with the same arithmetic.  Tests compare package output
against these values rather than against other package output.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from modspaces.modspace import (
    NormParams,
    _normalization,
    from_spectrum,
    mod_norm,
    multiply,
)
from modspaces.specialfn import (
    SQRT_2PI,
    _ML1_NODES,
    _ML1_WEIGHTS,
    _de_nodes,
    _log_weight,
    gevrey_bump,
)

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

def sweep_gevrey_2d_full_box(s: float, radius: int):
    """(min_margin, worst_point, points_checked) over the full 2-d box.

    Every k cell of |k|_inf <= radius in C order, in chunks of 128,
    each vectorized over all l; the first C-order minimizer wins.
    """
    delta = 2.0 - 2.0 ** (1.0 / s)
    table = np.arange(8 * radius * radius + 1, dtype=float) ** (0.5 * (1.0 / s))
    side = np.arange(-radius, radius + 1)
    lx, ly = np.meshgrid(side, side, indexing="ij")
    lx = lx.ravel()
    ly = ly.ravel()
    L2 = lx * lx + ly * ly
    tL = table[L2]
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
    before it evaluated the whole ladder in one pass, and the zero-mean
    moment is recomputed from 128 separate value calls.
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

    edges = np.arange(-256.0, 256.0 + 2.0, 4.0)
    moment = 0.0 + 0j
    for lo_e, hi_e in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo_e + hi_e), 0.5 * (hi_e - lo_e)
        moment += half * np.sum(_ML1_WEIGHTS * density.value(mid + half * _ML1_NODES))

    return {
        "value": float(math.exp(log_total)) if log_total < 700 else math.inf,
        "log_value": float(log_total),
        "converged": converged,
        "diverged": not converged,
        "moment": complex(moment),
        "octaves": octs,
    }


def bump_transform_direct(mu: float, xi) -> np.ndarray:
    """gevrey_bump_ft summed at every xi, negative ones included, without conjugation."""
    ts, wts = _de_nodes()
    fv = gevrey_bump(mu, ts) * wts
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    return np.sum(fv[None, :] * np.exp(-1j * np.outer(x, ts)), axis=1) / SQRT_2PI


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
