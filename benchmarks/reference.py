"""Reference values for the benchmark's correctness checks, in plain numpy.

Each function restates a documented formula of modspaces without calling
the program: weights are evaluated from their closed forms, spectra come
from direct (matrix) discrete Fourier transforms, and sums run over
explicit index arithmetic.  The checks compare the program's outputs
against these.

Conventions (from the modspaces docstrings): a function on [-L, L)^n has
N samples per axis; its spectrum in FFT storage order is
F[m] = (2L/N)^n (2pi)^(-n/2) (-1)^(m_1+...+m_n) DFT(f)[m], and the index m
sits at physical frequency xi_m = pi m / L.
"""

from __future__ import annotations

import math

import numpy as np

LOGLOG_SHIFT = math.exp(2.0 * math.e)


def parse_weight(text: str) -> tuple[str, float]:
    """'polynomial:s=2' -> ('polynomial', 2.0); 'loglog' -> ('loglog', 0.0)."""
    variant, _, tail = text.partition(":")
    s = 0.0
    if tail:
        key, _, val = tail.partition("=")
        if key != "s":
            raise ValueError(f"unsupported weight parameter {tail!r}")
        s = float(val)
    if variant not in ("polynomial", "gevrey", "loglog"):
        raise ValueError(f"unsupported weight {text!r}")
    return variant, s


def weight(variant: str, s: float, r) -> np.ndarray:
    """Weight at Euclidean radius r, from the README's closed forms."""
    r = np.abs(np.asarray(r, dtype=float))
    if variant == "polynomial":
        return (1.0 + r * r) ** (0.5 * s)
    if variant == "gevrey":
        return np.exp(r ** (1.0 / s))
    if variant == "loglog":
        logb = 0.5 * np.log(LOGLOG_SHIFT + r * r)
        return np.exp(logb * np.log(logb))
    raise ValueError(f"unknown weight variant {variant!r}")


def fft_order_indices(N: int) -> np.ndarray:
    """Integer spectral indices in FFT storage order: 0..N/2-1, -N/2..-1."""
    return np.concatenate([np.arange(N // 2), np.arange(-(N // 2), 0)])


def _radius_grid(N: int, n: int, step: float) -> np.ndarray:
    m = fft_order_indices(N) * step
    if n == 1:
        return np.abs(m)
    return np.hypot(m[:, None], m[None, :])


def _lq(terms: np.ndarray, q: float, cell: float = 1.0) -> float:
    if q == math.inf:
        return float(np.max(terms))
    return float((cell * np.sum(terms ** q)) ** (1.0 / q))


def direct_dft(values: np.ndarray) -> np.ndarray:
    """Unnormalized DFT by matrix products, independent of any FFT."""
    N = values.shape[0]
    j = np.arange(N)
    E = np.exp(-2j * math.pi * np.outer(j, j) / N)
    if values.ndim == 1:
        return E @ values
    return E @ values @ E.T


def spectrum_scale(n: int, L: float, N: int) -> float:
    return (2.0 * L / N) ** n * (2.0 * math.pi) ** (-0.5 * n)


def lattice_norm(F: np.ndarray, n: int, L: float, p: float, q: float,
                 variant: str, s: float, k_max: int) -> float:
    """Lattice-mode modulation norm from spectral coefficients F (L = pi).

    box_k f is the single exponential F_k e^{ik.x} (2pi)^(-n/2), so
    ||box_k f||_p = |F_k| (2pi)^(n/2) (2L)^(n/p - n); the norm is the
    weighted l^q sum of those over |k|_inf <= k_max.
    """
    N = F.shape[0]
    m = fft_order_indices(N)
    inside = np.abs(m) <= k_max
    if n == 2:
        inside = inside[:, None] & inside[None, :]
    inv_p = 0.0 if p == math.inf else 1.0 / p
    factor = (2.0 * math.pi) ** (0.5 * n) * (2.0 * L) ** (n * inv_p - n)
    terms = weight(variant, s, _radius_grid(N, n, 1.0)) * np.abs(F) * factor
    return _lq(terms[inside], q)


def continuum_p2_norm(values: np.ndarray, L: float, q: float, variant: str,
                      s: float, sigma_rows) -> float:
    """Continuum-mode norm with p = 2 by discrete Parseval.

    ||box_k f||_2^2 = (pi/L)^n sum_m sigma_k(xi_m)^2 |F_m|^2, and sigma_k
    is a product of axis factors, so every block at once is R2 |F|^2
    (1-d) or R2 |F|^2 R2^T (2-d), where R2[k, m] = sigma_axis(xi_m - k)^2.
    sigma_rows(ks, xi) returns the axis-factor rows of the window.
    """
    n, N = values.ndim, values.shape[0]
    F2 = np.abs(direct_dft(values) * spectrum_scale(n, L, N)) ** 2
    k_max = int(math.floor(math.pi * (N // 2) / L))
    ks = np.arange(-k_max, k_max + 1)
    R2 = sigma_rows(ks, math.pi * fft_order_indices(N) / L) ** 2
    blocks = R2 @ F2 if n == 1 else R2 @ F2 @ R2.T
    blocks = np.sqrt((math.pi / L) ** n * blocks)
    kr = np.abs(ks).astype(float)
    w = weight(variant, s, kr if n == 1 else np.hypot(kr[:, None], kr[None, :]))
    return _lq(w * blocks, q)


def stft_p2_norm(values: np.ndarray, window: np.ndarray, L: float, q: float,
                 variant: str, s: float) -> float:
    """Short-time-transform norm with p = 2 by the correlation identity.

    For V(x_j, xi_m) = c (-1)^m DFT_s[f(s) conj(w(s - x_j))](m), summing
    |V|^2 over every shift j gives c^2 N^(-n) sum_l |a_l|^2 |b_(l-m)|^2
    with a = DFT(f), b = DFT(w), indices modulo N.  The correlation is
    summed directly over all index pairs, with no FFT.
    """
    n, N = values.ndim, values.shape[0]
    a2 = (np.abs(direct_dft(values)) ** 2).ravel()
    b2 = np.abs(direct_dft(window)) ** 2
    pos = np.arange(N)
    diff = (pos[None, :] - pos[:, None]) % N  # [m, l] -> l - m
    if n == 1:
        corr = b2[diff] @ a2
    else:
        D0 = diff[:, None, :, None]
        D1 = diff[None, :, None, :]
        corr = (b2[D0, D1].reshape(N * N, N * N) @ a2).reshape(N, N)
    c = spectrum_scale(n, L, N)
    inner = np.sqrt((2.0 * L / N) ** n * c * c * corr / N ** n)
    w = weight(variant, s, _radius_grid(N, n, math.pi / L))
    return _lq(w * inner, q, cell=(math.pi / L) ** n)


def band_ladder_ratio(R: float, s: float, width: int = 3) -> float:
    """Gevrey subalgebra band ratio ||f^2|| / ||f||^2, lattice p = 2, q = 1.

    f has unit coefficients on the integer modes of (R, R + width], so
    ||f|| = sum_k w(k), and f^2 has coefficient (2pi)^(-1/2) c(m) at m,
    where c(m) counts the ordered pairs of band modes summing to m.
    """
    lo, hi = int(math.floor(R)) + 1, int(math.floor(R + width))
    band = np.arange(lo, hi + 1)
    sums = (band[:, None] + band[None, :]).ravel()
    m, counts = np.unique(sums, return_counts=True)
    norm_f = float(np.sum(weight("gevrey", s, band)))
    norm_f2 = float(np.sum(weight("gevrey", s, m) * counts)) / math.sqrt(2.0 * math.pi)
    return norm_f2 / norm_f ** 2
