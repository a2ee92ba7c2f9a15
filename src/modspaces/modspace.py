"""Sampled functions on periodic grids and modulation-space norms.

Discretization: a function lives on the uniform grid of [-L, L)^n,
n in {1, 2}, with N samples per axis (N a power of two).  Its discrete
spectrum carries integer indices m with physical frequency
xi_m = pi*m/L and the forward normalization

    F[m] = (2L/N)^n * (2pi)^(-n/2) * sum_j f(x_j) e^{-i xi_m . x_j},

a Riemann sum for the integral transform with the (2pi)^(-n/2)
convention.  For L = pi the frequencies are exactly the integers and
the smooth partition of `partition` restricted to them is a Kronecker
delta; that "lattice" mode computes decomposition norms with no
window-sampling error.  "continuum" mode samples sigma_k on the xi_m
grid for arbitrary L and genuinely exercises the window.

Norms:
  * lp_norm           Riemann-sum L^p on the grid, p in [1, inf]
  * mod_norm          weighted l^q over k of L^p norms of the block
                      operators box_k = inverse FFT of sigma_k * F
  * stft_norm         short-time transform norm: inner L^p in the
                      window shift, outer weighted l^q in frequency

Lattice mode is evaluated in closed form: box_k f is the single
exponential F_k e^{i k.x} (2pi)^(-n/2), so ||box_k f||_p =
|F_k| (2pi)^(n/2) (2L)^(n/p - n) and the norm is one weighted l^q sum
over the coefficients.  The per-cell route box_k + lp_norm stays
public; the tests use it as the independent dual route of the lattice
closed form.

Continuum mode at p = 2 uses discrete Parseval, ||box_k f||_2^2 =
(pi/L)^n sum_m sigma_k(xi_m)^2 |F_m|^2, for all cells at once; other p
invert sigma_k * F per cell with batched inverse FFTs, which the tests
also run at p = 2 as the dual route.  Either way, cells whose
sigma_k * F is exactly zero are dropped, as in lattice mode.  The STFT
norm at p = 2 uses the correlation identity: the sum over shifts of
|V(x, xi_m)|^2 is a direct circular sum of |F|^2 against the window's
|spectrum|^2; other p run one transform per shift, the dual route.

Both norms accept p = inf / q = inf (suprema).  Truncation of the k
sum is explicit: spectral mass outside |xi|_inf <= k_max - 1 beyond
1e-9 (relative) raises a TruncationWarning.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .partition import _sigma_axis
from .weights import VerificationReport, WeightSpec, weight_eval

__all__ = [
    "TruncationWarning",
    "SampledFunction",
    "NormParams",
    "synthesize",
    "from_spectrum",
    "box_k",
    "lp_norm",
    "mod_norm",
    "mod_norm_record",
    "stft_norm",
    "multiply",
    "refine",
    "check_algebra_ratio",
    "estimate_gevrey_constant",
    "save_function",
    "load_function",
]


class TruncationWarning(UserWarning):
    """Spectral mass beyond the truncation radius is not negligible."""


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass
class SampledFunction:
    """Complex samples on the uniform grid of [-L, L)^n.

    values has shape (N,) for n=1 and (N, N) for n=2 (axis 0 is the
    first coordinate).  The spectrum is cached after first use; the
    instance is treated as immutable.
    """

    n: int
    L: float
    N: int
    values: np.ndarray
    _spectrum: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if not _is_pow2(self.N):
            raise ValueError("N must be a power of two >= 2")
        vals = np.asarray(self.values, dtype=np.complex128)
        expect = (self.N,) if self.n == 1 else (self.N, self.N)
        if vals.shape != expect:
            raise ValueError(f"values shape {vals.shape} != {expect}")
        object.__setattr__(self, "values", vals)

    # --- grid / frequency helpers -----------------------------------
    def grid_axis(self) -> np.ndarray:
        """Sample positions along one axis: -L + j*2L/N."""
        return -self.L + (2.0 * self.L / self.N) * np.arange(self.N)

    def index_axis(self) -> np.ndarray:
        """Integer spectral indices in FFT storage order."""
        return np.fft.fftfreq(self.N, d=1.0 / self.N).astype(np.int64)

    def xi_axis(self) -> np.ndarray:
        """Physical frequencies xi_m = pi*m/L in FFT storage order."""
        return math.pi * self.index_axis() / self.L

    @property
    def spacing(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.n

    # --- spectrum ----------------------------------------------------
    @property
    def spectrum(self) -> np.ndarray:
        """Normalized spectral coefficients in FFT storage order."""
        if self._spectrum is None:
            phase, scale = _normalization(self.n, self.L, self.N)
            raw = np.fft.fftn(self.values)
            object.__setattr__(self, "_spectrum", scale * phase * raw)
        return self._spectrum

    def copy_with(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(self.n, self.L, self.N, values)


def _normalization(n: int, L: float, N: int) -> tuple[np.ndarray, float]:
    """(phase, scale) of the forward transform F = scale * phase * fftn(values).

    phase is (-1)^(m_1+...+m_n) in FFT storage order (the e^{i xi_m L}
    shift to the grid origin -L); scale is (2L/N)^n * (2pi)^(-n/2).
    """
    m = np.fft.fftfreq(N, d=1.0 / N).astype(np.int64)
    phase = np.where(m % 2 == 0, 1.0, -1.0)
    if n == 2:
        phase = phase[:, None] * phase[None, :]
    return phase, (2.0 * L / N) ** n * (2.0 * math.pi) ** (-0.5 * n)


def from_spectrum(n: int, L: float, N: int, coeffs: np.ndarray) -> SampledFunction:
    """Build a SampledFunction whose spectrum equals coeffs (FFT order)."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    phase, scale = _normalization(n, L, N)
    values = np.fft.ifftn(coeffs * phase / scale)
    f = SampledFunction(n, L, N, values)
    object.__setattr__(f, "_spectrum", coeffs.copy())
    return f


def default_k_max(f: SampledFunction) -> int:
    """Truncation radius covering every representable frequency."""
    return int(math.floor(math.pi * (f.N // 2) / f.L))


# ---------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------

def synthesize(kind: str, *, n: int = 1, L: float = math.pi, N: int = 256,
               seed: int | None = None, **params) -> SampledFunction:
    """Test-corpus generators.

    kind = "mode": params k (integer lattice point), c (amplitude,
        default 1); returns c*e^{i k.x}.  k must land on the xi grid
        (k*L/pi integral), which always holds for L = pi.
    kind = "gaussian": params a > 0 (default 1); returns e^{-a|x|^2}.
    kind = "random_bandlimited": params B (band radius, physical
        frequency units), real (default True); spectrum supported in
        |xi|_2 <= B with seeded complex Gaussian coefficients,
        Hermitian-symmetrized when real.  B beyond Nyquist rejected.
    """
    if kind == "mode":
        k = params.get("k", 0)
        c = complex(params.get("c", 1.0))
        ks = (int(k),) if np.ndim(k) == 0 else tuple(int(v) for v in k)
        if len(ks) != n:
            raise ValueError(f"mode index must have length {n}")
        for ki in ks:
            ratio = ki * L / math.pi
            if abs(ratio - round(ratio)) > 1e-12:
                raise ValueError(f"mode {ki} is not on the frequency grid for L={L}")
            if abs(ratio) >= N // 2:
                raise ValueError(f"mode {ki} is beyond the Nyquist index for N={N}")
        axis = -L + (2.0 * L / N) * np.arange(N)
        if n == 1:
            vals = c * np.exp(1j * ks[0] * axis)
        else:
            vals = c * np.exp(1j * (ks[0] * axis[:, None] + ks[1] * axis[None, :]))
        return SampledFunction(n, L, N, vals)

    if kind == "gaussian":
        a = float(params.get("a", 1.0))
        if a <= 0:
            raise ValueError("gaussian rate must be positive")
        axis = -L + (2.0 * L / N) * np.arange(N)
        if n == 1:
            vals = np.exp(-a * axis * axis)
        else:
            r2 = axis[:, None] ** 2 + axis[None, :] ** 2
            vals = np.exp(-a * r2)
        return SampledFunction(n, L, N, vals.astype(np.complex128))

    if kind == "random_bandlimited":
        B = float(params.get("B", 8.0))
        real = bool(params.get("real", True))
        nyq = math.pi * (N // 2 - 1) / L
        if B > nyq:
            raise ValueError(f"band {B} exceeds the Nyquist range {nyq:.6g}")
        if seed is None:
            raise ValueError("random_bandlimited requires a seed")
        rng = np.random.default_rng(seed)
        idx = np.fft.fftfreq(N, d=1.0 / N).astype(np.int64)
        shape = (N,) if n == 1 else (N, N)
        coeffs = np.zeros(shape, dtype=np.complex128)
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
            pos = tuple(v % N for v in m)
            coeffs[pos] = cval
        return from_spectrum(n, L, N, coeffs)

    raise ValueError(f"unknown synthesis kind {kind!r}")


# ---------------------------------------------------------------------
# block operators and norms
# ---------------------------------------------------------------------

def _axis_sigma_band(f: SampledFunction,
                     ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries (row, col, value) of the axis-factor matrix sigma_k(xi_m).

    Row i (cell ks[i]) vanishes outside the band |xi_m - k| < 1, at most
    ceil(2L/pi) + 1 grid points, so only that band (and one point of
    margin on each side) is evaluated, in one vectorized call; col is
    the storage index of xi_m.
    """
    xi = f.xi_axis()
    per_unit = f.L / math.pi
    offsets = np.arange(math.ceil(2.0 * per_unit) + 4)
    m = np.floor((ks - 1) * per_unit).astype(np.int64)[:, None] - 1 + offsets
    on_grid = (m >= -(f.N // 2)) & (m < f.N // 2)
    row = np.broadcast_to(np.arange(ks.size)[:, None], m.shape)[on_grid]
    col = m[on_grid] % f.N
    val = _sigma_axis(xi[col], ks[row])
    nz = val != 0
    return row[nz], col[nz], val[nz]


def _axis_sigma_rows(f: SampledFunction, ks: np.ndarray) -> np.ndarray:
    """Dense K x N matrix of the axis factors sigma_k(xi_m) on f's frequency axis."""
    row, col, val = _axis_sigma_band(f, ks)
    rows = np.zeros((ks.size, f.N))
    rows[row, col] = val
    return rows


def _check_mode(f: SampledFunction, mode: str):
    if mode not in ("lattice", "continuum"):
        raise ValueError(f"mode must be lattice or continuum, got {mode!r}")
    if mode == "lattice" and abs(f.L - math.pi) > 1e-12:
        raise ValueError("lattice mode requires L = pi (integer frequency grid)")


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
        G = F * _axis_sigma_rows(f, np.array(ks))[0]
    else:
        fac0, fac1 = _axis_sigma_rows(f, np.array(ks))
        G = F * fac0[:, None] * fac1[None, :]
    return from_spectrum(f.n, f.L, f.N, G)


def lp_norm(f: SampledFunction, p) -> float:
    """Riemann-sum L^p norm on [-L, L)^n; p = inf gives the max."""
    a = np.abs(f.values)
    if p == math.inf:
        return float(np.max(a))
    p = float(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    return float((f.cell_volume * np.sum(a**p)) ** (1.0 / p))


@dataclass
class NormParams:
    """Which modulation norm to compute.

    p, q in [1, inf] (math.inf allowed); weight: WeightSpec; mode:
    lattice | continuum; k_max: truncation radius (defaults to the
    full representable range of the grid).
    """

    p: float
    q: float
    weight: WeightSpec
    mode: str = "lattice"
    k_max: int | None = None

    def resolved_k_max(self, f: SampledFunction) -> int:
        km = self.k_max if self.k_max is not None else default_k_max(f)
        limit = math.pi * (f.N // 2) / f.L + 1e-9
        if km > limit:
            raise ValueError(f"k_max {km} exceeds the Nyquist frequency {limit:.6g}")
        return int(km)

    def to_dict(self) -> dict:
        return {
            "p": _num_token(self.p),
            "q": _num_token(self.q),
            "weight": self.weight.params(),
            "mode": self.mode,
            "k_max": self.k_max,
        }


def _num_token(v):
    return "inf" if v == math.inf else v


def _tail_fraction(f: SampledFunction, k_max: int) -> float:
    """Relative spectral L2 mass outside |xi|_inf <= k_max - 1."""
    F = f.spectrum
    xi = f.xi_axis()
    inside_axis = np.abs(xi) <= (k_max - 1) + 1e-12
    if f.n == 1:
        inside = inside_axis
    else:
        inside = inside_axis[:, None] & inside_axis[None, :]
    total = float(np.sum(np.abs(F) ** 2))
    if total == 0.0:
        return 0.0
    out = float(np.sum(np.abs(F[~inside]) ** 2))
    return out / total


def _k_cells(n: int, lo: int, hi: int) -> np.ndarray:
    """Lattice points of the box [lo, hi]^n as (M, n) rows in sorted order."""
    side = np.arange(lo, hi + 1)
    if n == 1:
        return side[:, None]
    a, b = np.meshgrid(side, side, indexing="ij")
    return np.stack([a.ravel(), b.ravel()], axis=-1)


def _lattice_block_norms(f: SampledFunction, k_max: int, p) -> tuple[np.ndarray, np.ndarray]:
    """Cells |k|_inf <= k_max with a nonzero coefficient, and their block L^p norms.

    At L = pi, box_k f is the single exponential F_k e^{i k.x} (2pi)^(-n/2),
    so ||box_k f||_p = |F_k| (2pi)^(n/2) (2L)^(n/p - n).  Indices run
    over the grid's storage range [-N/2, N/2 - 1]; exactly-zero
    coefficients are dropped, so a zero block never meets its weight.
    """
    cells = _k_cells(f.n, -k_max, min(k_max, f.N // 2 - 1))
    coeffs = f.spectrum[tuple((cells % f.N).T)]
    keep = coeffs != 0
    inv_p = 0.0 if p == math.inf else 1.0 / float(p)
    factor = (2.0 * math.pi) ** (0.5 * f.n) * (2.0 * f.L) ** (f.n * inv_p - f.n)
    return cells[keep], factor * np.abs(coeffs[keep])


def _cell_sums(f: SampledFunction, k_max: int, a: np.ndarray, power: int) -> np.ndarray:
    """sum_m sigma_k(xi_m)^power a[m] for every cell |k|_inf <= k_max, shape (K,) or (K, K).

    sigma_k is a product of axis factors, so this is R a (1-d, summed
    over the band entries of R) or R a R^T (2-d), with R[k, m] the
    axis factor to the given power; power 0 counts the support only.
    """
    ks = np.arange(-k_max, k_max + 1)
    row, col, val = _axis_sigma_band(f, ks)
    if f.n == 1:
        return np.bincount(row, weights=val**power * a[col], minlength=ks.size)
    rows = np.zeros((ks.size, f.N))
    rows[row, col] = val**power
    return rows @ a @ rows.T


def _continuum_cells(f: SampledFunction, k_max: int) -> np.ndarray:
    """Cells |k|_inf <= k_max whose sigma_k * F is not identically zero, in sorted order.

    An exactly-zero block is dropped, as in lattice mode, so it never
    meets its (possibly infinite) weight.
    """
    hits = _cell_sums(f, k_max, (f.spectrum != 0).astype(float), 0)
    return np.argwhere(hits > 0) - k_max


def _continuum_block_norms(f: SampledFunction, k_max: int, p) -> tuple[np.ndarray, np.ndarray]:
    """Cells |k|_inf <= k_max with a nonzero block, and the L^p norms of box_k f.

    p = 2 by discrete Parseval: ||box_k f||_2^2 = (pi/L)^n sum_m
    sigma_k(xi_m)^2 |F_m|^2, for every cell at once R^2 |F|^2 (1-d) or
    R^2 |F|^2 R^2^T (2-d), R the axis rows.  Other p invert sigma_k * F
    per cell (_ifft_block_norms), the dual route at p = 2.
    """
    if p != 2:
        return _ifft_block_norms(f, k_max, p)
    cells = _continuum_cells(f, k_max)
    sq = _cell_sums(f, k_max, np.abs(f.spectrum) ** 2, 2)[tuple((cells + k_max).T)]
    return cells, np.sqrt((math.pi / f.L) ** f.n * sq)


def _ifft_block_norms(f: SampledFunction, k_max: int, p) -> tuple[np.ndarray, np.ndarray]:
    """Cells |k|_inf <= k_max with a nonzero block, and their L^p norms by batched inverse FFTs."""
    F = f.spectrum
    phase, scale = _normalization(f.n, f.L, f.N)
    vol = f.cell_volume
    rows = _axis_sigma_rows(f, np.arange(-k_max, k_max + 1))
    cells = _continuum_cells(f, k_max)

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
        a = np.abs(vals).reshape(len(block), -1)
        if p == math.inf:
            out[start : start + len(block)] = np.max(a, axis=1)
        else:
            out[start : start + len(block)] = (vol * np.sum(a ** float(p), axis=1)) ** (1.0 / float(p))
    return cells, out


def mod_norm(f: SampledFunction, params: NormParams) -> float:
    """Decomposition-form modulation norm of f."""
    return mod_norm_record(f, params)["value"]


def mod_norm_record(f: SampledFunction, params: NormParams) -> dict:
    """Decomposition norm with its JSON-ready provenance record.

    Aggregates weight(k) * ||box_k f||_p over |k|_inf <= k_max in
    sorted index order (deterministic reduction), skipping blocks that
    are exactly zero; q = inf uses the supremum.  Lattice blocks come
    from the closed form; continuum blocks from discrete Parseval at
    p = 2 and from inverting sigma_k * F otherwise.  Emits
    TruncationWarning when the relative spectral mass outside
    |xi|_inf <= k_max-1 exceeds 1e-9.
    """
    _check_mode(f, params.mode)
    if params.q < 1:
        raise ValueError("q must be >= 1")
    k_max = params.resolved_k_max(f)
    tail = _tail_fraction(f, k_max)
    warns: list[str] = []
    if tail > 1e-9:
        msg = (f"spectral tail mass {tail:.3e} beyond |xi| <= {k_max - 1} "
               f"exceeds 1e-9; the k sum is truncated")
        warns.append(msg)
        warnings.warn(msg, TruncationWarning, stacklevel=2)

    block_norms = _lattice_block_norms if params.mode == "lattice" else _continuum_block_norms
    cells, block = block_norms(f, k_max, params.p)
    value = 0.0
    if block.size:
        terms = weight_eval(params.weight, cells) * block
        if params.q == math.inf:
            value = float(np.max(terms))
        else:
            q = float(params.q)
            value = float(np.sum(terms**q) ** (1.0 / q))
    return {"params": params.to_dict(), "value": value,
            "truncation_tail": tail, "warnings": warns}


def stft_norm(f: SampledFunction, p, q, weight: WeightSpec,
              window: SampledFunction) -> float:
    """Short-time-transform modulation norm.

    V(x_j, xi_m) is the spectrum of s -> f(s) * conj(window(s - x_j)),
    the shift running over the sample grid (circular).  Inner L^p in
    the shift, outer weighted l^q with cell pi/L per frequency axis.
    p = 2 uses the correlation identity (_stft_parseval_inner); other p
    run the shift loop (_stft_shift_inner), the dual route at p = 2.
    Cost guard: N > 4096 (n=1) or N > 128 (n=2) rejected.
    """
    if f.n == 1 and f.N > 4096:
        raise ValueError("stft_norm cost guard: N > 4096 in 1D")
    if f.n == 2 and f.N > 128:
        raise ValueError("stft_norm cost guard: N > 128 in 2D")
    if (window.n, window.L, window.N) != (f.n, f.L, f.N):
        raise ValueError("window grid does not match the function grid")

    inner = _stft_parseval_inner(f, window) if p == 2 else _stft_shift_inner(f, window, p)

    idx = f.index_axis()
    if f.n == 1:
        kpts = idx[:, None] * (math.pi / f.L)
        wts = weight_eval(weight, kpts.reshape(-1, 1)).reshape(f.N)
    else:
        gx, gy = np.meshgrid(idx, idx, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1) * (math.pi / f.L)
        wts = weight_eval(weight, pts).reshape(f.N, f.N)

    terms = wts * inner
    if q == math.inf:
        return float(np.max(terms))
    qf = float(q)
    cell = (math.pi / f.L) ** f.n
    return float((cell * np.sum(terms**qf)) ** (1.0 / qf))


def _stft_parseval_inner(f: SampledFunction, window: SampledFunction) -> np.ndarray:
    """Inner L^2 norms over the shift, per frequency, by the correlation identity.

    (2L/N)^n sum_j |V(x_j, xi_m)|^2 = (pi/L)^n sum_l |F_l|^2 |W_(m-l)|^2,
    W the normalized spectrum of conj(window), indices mod N.  The
    nonnegative terms are summed directly (an FFT convolution would
    leave absolute round-off that the weight then amplifies): by
    np.convolve in 1-d, and in 2-d by matrix products over circulant
    rows of W gathered 32 x N^2 at a time.
    """
    P = np.abs(f.spectrum) ** 2
    Q = np.abs(window.copy_with(np.conj(window.values)).spectrum) ** 2
    if f.n == 1:
        # np.convolve sums directly; on the doubled P its valid part is circular.
        S = np.convolve(np.concatenate([P, P])[1:], Q, mode="valid")
    else:
        pos = np.arange(f.N)
        S = np.zeros(P.shape)
        circ = (pos[:, None] - pos[None, :]) % f.N
        for start in range(0, f.N, 32):
            # X[d, m2, l1] = sum_l2 Q[d, m2 - l2] P[l1, l2]; row d of Q
            # meets row l1 of P at frequency row m1 = l1 + d.
            X = Q[start : start + 32][:, circ] @ P.T
            for d in range(start, start + len(X)):
                S += np.roll(X[d - start].T, d, axis=0)
    return np.sqrt((math.pi / f.L) ** f.n * S)


def _stft_shift_inner(f: SampledFunction, window: SampledFunction, p) -> np.ndarray:
    """Inner L^p norms over the shift, per frequency, one transform per shift."""
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
            A = np.abs(V)
            if pfin:
                acc += np.sum(A ** float(p), axis=0)
            else:
                acc = np.maximum(acc, np.max(A, axis=0))
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


# ---------------------------------------------------------------------
# algebra operations
# ---------------------------------------------------------------------

def multiply(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Pointwise product on a shared grid."""
    if (f.n, f.L, f.N) != (g.n, g.L, g.N):
        raise ValueError("grid mismatch in multiply")
    return SampledFunction(f.n, f.L, f.N, f.values * g.values)


def refine(f: SampledFunction, factor: int = 2) -> SampledFunction:
    """Band-limited upsampling: same L, N -> factor*N, spectrum padded."""
    if factor < 1 or factor & (factor - 1):
        raise ValueError("factor must be a power of two")
    if factor == 1:
        return f
    N2 = f.N * factor
    F = f.spectrum
    if f.n == 1:
        out = np.zeros(N2, dtype=np.complex128)
        half = f.N // 2
        out[:half] = F[:half]
        out[N2 - half :] = F[f.N - half :]
    else:
        out = np.zeros((N2, N2), dtype=np.complex128)
        half = f.N // 2
        sl = [slice(0, half), slice(N2 - half, N2)]
        src = [slice(0, half), slice(f.N - half, f.N)]
        for a in range(2):
            for b in range(2):
                out[sl[a], sl[b]] = F[src[a], src[b]]
    return from_spectrum(f.n, f.L, N2, out)


def check_algebra_ratio(corpus: Iterable[tuple], params: NormParams,
                        p1: float | None = None, p2: float | None = None,
                        refine_check: bool = True) -> VerificationReport:
    """Product-norm ratios over a corpus of (f, g) pairs.

    ratio(f, g) = ||f g|| / (||f||_{p1} * ||g||_{p2}) with all norms in
    the same (q, weight, mode); 1/p = 1/p1 + 1/p2 defaults to
    p1 = p2 = 2p.  Passes when all ratios are finite and the max ratio
    moves by < 5% under grid refinement N -> 2N.
    """
    if p1 is None or p2 is None:
        if params.p == math.inf:
            p1 = p2 = math.inf
        else:
            p1 = p2 = 2.0 * params.p

    def ratio(fg_pairs, scale=1):
        out = []
        for f, g in fg_pairs:
            ff, gg = (refine(f, scale), refine(g, scale)) if scale > 1 else (f, g)
            prod = multiply(ff, gg)
            pf = NormParams(p1, params.q, params.weight, params.mode, params.k_max)
            pg = NormParams(p2, params.q, params.weight, params.mode, params.k_max)
            denom = mod_norm(ff, pf) * mod_norm(gg, pg)
            num = mod_norm(prod, params)
            out.append(num / denom if denom > 0 else math.inf)
        return out

    pairs = list(corpus)
    ratios = ratio(pairs)
    max_ratio = max(ratios)
    worst = int(np.argmax(ratios))
    finite = all(math.isfinite(r) for r in ratios)

    rel_change = 0.0
    max_refined = max_ratio
    if refine_check:
        refined = ratio(pairs, scale=2)
        max_refined = max(refined)
        if max_ratio > 0:
            rel_change = abs(max_refined - max_ratio) / max_ratio

    passed = finite and rel_change < 0.05
    return VerificationReport(
        kind="algebra_ratio",
        params=params.to_dict(),
        domain_description=f"{len(pairs)} fixture pairs, refinement x2: {refine_check}",
        points_checked=len(pairs),
        min_margin=0.05 - rel_change if finite else -math.inf,
        worst_point=(worst,),
        passed=passed,
        tolerance=0.0,
        extra={"max_ratio": max_ratio, "max_ratio_refined": max_refined,
               "rel_change": rel_change, "ratios": ratios},
    )


def estimate_gevrey_constant(f: SampledFunction, s: float,
                             alpha_max: int = 12) -> float:
    """Smallest C with sup|D^a f| <= C^(|a|+1) * (a!)^(s*n) for |a| <= alpha_max.

    Derivatives are spectral: F[D^a f](xi) = (i xi)^a F f(xi).  Returns
    0 for the zero function.  alpha_max > 20 rejected (the factorial
    powers overflow double precision soon after).
    """
    if alpha_max > 20:
        raise ValueError("alpha_max > 20 rejected (overflow guard)")
    F = f.spectrum
    if not np.any(F):
        return 0.0
    phase, scale = _normalization(f.n, f.L, f.N)
    xi = f.xi_axis()
    best = 0.0
    if f.n == 1:
        alphas = [(a,) for a in range(alpha_max + 1)]
    else:
        alphas = [(a, b) for a in range(alpha_max + 1)
                  for b in range(alpha_max + 1 - a)]
    for alpha in alphas:
        if f.n == 1:
            mult = (1j * xi) ** alpha[0]
            G = F * mult
        else:
            G = F * (1j * xi[:, None]) ** alpha[0] * (1j * xi[None, :]) ** alpha[1]
        vals = np.fft.ifftn(G * phase / scale)
        sup = float(np.max(np.abs(vals)))
        if sup == 0.0:
            continue
        fact = 1.0
        for a in alpha:
            fact *= math.factorial(a)
        denom = fact ** (s * f.n)
        order = sum(alpha)
        c_alpha = (sup / denom) ** (1.0 / (order + 1))
        best = max(best, c_alpha)
    return best


# ---------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------

def save_function(f: SampledFunction, path, kind: str | None = None,
                  seed: int | None = None) -> None:
    """Write the JSON-header + CSV-rows function file.

    Line 1: JSON object {n, L, N, kind, seed}.  Following lines:
    "index,re,im" with repr-exact floats (bit-exact round trip).
    """
    with open(path, "w", newline="") as fh:
        header = {"n": f.n, "L": f.L, "N": f.N, "kind": kind, "seed": seed}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        wr = csv.writer(fh)
        flat = f.values.ravel()
        for i, z in enumerate(flat):
            wr.writerow([i, repr(float(z.real)), repr(float(z.imag))])


def load_function(path) -> tuple[SampledFunction, dict]:
    """Read the function file; returns (function, header)."""
    with open(path, "r", newline="") as fh:
        header = json.loads(fh.readline())
        n, L, N = int(header["n"]), float(header["L"]), int(header["N"])
        size = N if n == 1 else N * N
        flat = np.zeros(size, dtype=np.complex128)
        seen = 0
        for row in csv.reader(fh):
            if not row:
                continue
            i = int(row[0])
            flat[i] = complex(float(row[1]), float(row[2]))
            seen += 1
        if seen != size:
            raise ValueError(f"expected {size} samples, file has {seen}")
    shape = (N,) if n == 1 else (N, N)
    return SampledFunction(n, L, N, flat.reshape(shape)), header
