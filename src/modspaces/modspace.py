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
  * mod_norm          weighted l^q over k of Riemann-sum L^p norms of
                      the blocks box_k f = inverse FFT of sigma_k * F
  * stft_norm         short-time transform norm: inner L^p in the
                      window shift, outer weighted l^q in frequency

Lattice mode is evaluated in closed form: box_k f is the single
exponential F_k e^{i k.x} (2pi)^(-n/2), so ||box_k f||_p =
|F_k| (2pi)^(n/2) (2L)^(n/p - n) and the norm is one weighted l^q sum
over the coefficients.  The per-cell route (box_k, then the L^p norm
of its samples) lives in tests/_oracles.py, the independent dual route
of the lattice closed form and of the continuum block norms.

Continuum mode at p = 2 uses discrete Parseval, ||box_k f||_2^2 =
(pi/L)^n sum_m sigma_k(xi_m)^2 |F_m|^2, for all cells at once; other p
synthesize each block from the few modes of its band, one small matrix
product per chunk of cells, which the tests also run at p = 2 as the
dual route.  Either way, cells whose sigma_k * F is exactly zero are
dropped, as in lattice mode, and the sigma band is evaluated once per
norm (_continuum_cells), shared by the cell list and both routes.  The
STFT norm at p = 2 uses the correlation identity: the sum over shifts
of |V(x, xi_m)|^2 is a direct circular sum of |F|^2 against the
window's |spectrum|^2; other p run one transform per shift, the dual
route.

Grids are tensor products: 1-d and 2-d arrays are built by one path
(partition._outer, partition._points) with no branch on n.  Only cost
choices still fork by dimension: _cell_sums, _band_block_norms,
_stft_parseval_inner, and stft_norm's cost guard and shift chunks.

Both norms accept p = inf / q = inf (suprema).  Truncation of the k
sum is explicit: spectral mass outside |xi|_inf <= k_max - 1 beyond
1e-9 (relative) raises a TruncationWarning.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .partition import _outer, _points, _sigma_axis
from .weights import VerificationReport, WeightSpec, weight_eval

__all__ = [
    "TruncationWarning",
    "SampledFunction",
    "NormParams",
    "synthesize",
    "from_spectrum",
    "mod_norm",
    "mod_norm_record",
    "stft_norm",
    "multiply",
    "refine",
    "check_algebra_ratio",
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
        if not (0.0 < self.L < math.inf):
            raise ValueError("half-period L must be positive and finite")
        if not _is_pow2(self.N):
            raise ValueError("N must be a power of two >= 2")
        vals = np.asarray(self.values, dtype=np.complex128)
        expect = (self.N,) * self.n
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
    phase = _outer(np.multiply, [np.where(m % 2 == 0, 1.0, -1.0)] * n)
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
        Hermitian-symmetrized when real.  B = 0 gives the constant mode
        alone; a negative B, or one beyond Nyquist, is rejected.
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
        vals = c * np.exp(_outer(np.add, [1j * ki * axis for ki in ks]))
        return SampledFunction(n, L, N, vals)

    if kind == "gaussian":
        a = float(params.get("a", 1.0))
        if a <= 0:
            raise ValueError("gaussian rate must be positive")
        axis = -L + (2.0 * L / N) * np.arange(N)
        vals = _outer(np.multiply, [np.exp(-a * axis * axis)] * n)
        return SampledFunction(n, L, N, vals.astype(np.complex128))

    if kind == "random_bandlimited":
        B = float(params.get("B", 8.0))
        real = bool(params.get("real", True))
        if not B >= 0:
            raise ValueError(f"band {B} must be nonnegative")
        nyq = math.pi * (N // 2 - 1) / L
        if B > nyq:
            raise ValueError(f"band {B} exceeds the Nyquist range {nyq:.6g}")
        if seed is None:
            raise ValueError("random_bandlimited requires a seed")
        rng = np.random.default_rng(seed)
        m_band = int(math.floor(B * L / math.pi))
        modes = _points(np.arange(-m_band, m_band + 1), n)
        # sqrt of the exact integer |m|^2 is math.hypot's float bit for bit
        modes = modes[math.pi * np.sqrt(np.sum(modes * modes, axis=1)) / L <= B + 1e-12]
        draws = rng.standard_normal((len(modes), 2)).view(np.complex128)[:, 0]
        if real:
            # the modes are sorted and closed under m -> -m, so row i's
            # mirror is row M-1-i and the middle row is m = 0
            h = len(modes) // 2
            draws[h + 1 :] = draws[:h][::-1].conj()
            draws[h : h + 1] = draws[h : h + 1].real
        coeffs = np.zeros((N,) * n, dtype=np.complex128)
        coeffs[tuple((modes % N).T)] = draws
        return from_spectrum(n, L, N, coeffs)

    raise ValueError(f"unknown synthesis kind {kind!r}")


# ---------------------------------------------------------------------
# block operators and norms
# ---------------------------------------------------------------------

def _axis_sigma_band(f: SampledFunction, ks: np.ndarray) -> tuple[np.ndarray, ...]:
    """Nonzero entries of the axis-factor matrix sigma_k(xi_m): (lo, row, t, value).

    Row i (cell ks[i]) vanishes outside the band |xi_m - k| < 1, at most
    ceil(2L/pi) + 1 grid points, so only that band (and one point of
    margin on each side) is evaluated, in one vectorized call.  An entry
    sits at the signed index m = lo[row] + t in [-N/2, N/2), which also
    indexes FFT storage order, so a band never wraps around the Nyquist
    edge.
    """
    xi = f.xi_axis()
    per_unit = f.L / math.pi
    lo = np.floor((ks - 1) * per_unit).astype(np.int64) - 1
    m = lo[:, None] + np.arange(math.ceil(2.0 * per_unit) + 4)
    row, t = np.nonzero((m >= -(f.N // 2)) & (m < f.N // 2))
    val = _sigma_axis(xi[m[row, t]], ks[row])
    nz = val != 0
    return lo, row[nz], t[nz], val[nz]


def _band_rows(band: tuple[np.ndarray, ...], N: int) -> np.ndarray:
    """Dense K x N matrix of the axis factors given by their band entries."""
    lo, row, t, val = band
    out = np.zeros((lo.size, N))
    out[row, lo[row] + t] = val
    return out


def _lp(x: np.ndarray, p, cell: float = 1.0, axis=None):
    """(cell * sum x^p)^(1/p) of nonnegative x along axis, or the max at p = inf.

    The one weighted l^p / L^p aggregation: the l^q sums of mod_norm and
    stft_norm and the Riemann-sum block norms all go through it.
    """
    if p == math.inf:
        return np.max(x, axis=axis)
    p = float(p)
    return (cell * np.sum(x**p, axis=axis)) ** (1.0 / p)


def _check_mode(f: SampledFunction, mode: str):
    if mode not in ("lattice", "continuum"):
        raise ValueError(f"mode must be lattice or continuum, got {mode!r}")
    if mode == "lattice" and abs(f.L - math.pi) > 1e-12:
        raise ValueError("lattice mode requires L = pi (integer frequency grid)")


def _check_exponents(p, q) -> None:
    """Reject p or q outside [1, inf] (NaN included), for both norms."""
    if not (1 <= p <= math.inf and 1 <= q <= math.inf):
        raise ValueError(f"p and q must lie in [1, inf], got p = {p}, q = {q}")


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

    def __post_init__(self):
        _check_exponents(self.p, self.q)

    def resolved_k_max(self, f: SampledFunction) -> int:
        km = self.k_max if self.k_max is not None else default_k_max(f)
        if km < 0:
            raise ValueError(f"k_max must be >= 0, got {km}")
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
    inside = _outer(np.logical_and, [np.abs(xi) <= (k_max - 1) + 1e-12] * f.n)
    total = float(np.sum(np.abs(F) ** 2))
    if total == 0.0:
        return 0.0
    out = float(np.sum(np.abs(F[~inside]) ** 2))
    return out / total


def _lattice_block_norms(f: SampledFunction, k_max: int, p) -> tuple[np.ndarray, np.ndarray]:
    """Cells |k|_inf <= k_max with a nonzero coefficient, and their block L^p norms.

    At L = pi, box_k f is the single exponential F_k e^{i k.x} (2pi)^(-n/2),
    so ||box_k f||_p = |F_k| (2pi)^(n/2) (2L)^(n/p - n).  Indices run
    over the grid's storage range [-N/2, N/2 - 1]; exactly-zero
    coefficients are dropped, so a zero block never meets its weight.
    """
    cells, factor = _lattice_grid(f.n, f.L, f.N, k_max, p)
    coeffs = f.spectrum[tuple((cells % f.N).T)]
    keep = coeffs != 0
    return cells[keep], factor * np.abs(coeffs[keep])


def _lattice_grid(n: int, L: float, N: int, k_max: int, p) -> tuple[np.ndarray, float]:
    """The lattice cells |k|_inf <= k_max of the grid, and the factor ||box_k f||_p / |F_k|."""
    cells = _points(np.arange(-k_max, min(k_max, N // 2 - 1) + 1), n)
    inv_p = 0.0 if p == math.inf else 1.0 / float(p)
    return cells, (2.0 * math.pi) ** (0.5 * n) * (2.0 * L) ** (n * inv_p - n)


def _cell_sums(band: tuple[np.ndarray, ...], a: np.ndarray, power: int) -> np.ndarray:
    """sum_m sigma_k(xi_m)^power a[m] for every cell of the band, shape (K,) or (K, K).

    sigma_k is a product of axis factors, so this is R a (1-d, summed
    over the band entries of R) or R a R^T (2-d), with R[k, m] the
    axis factor to the given power; power 0 counts the support only.
    """
    lo, row, t, val = band
    if a.ndim == 1:
        return np.bincount(row, weights=val**power * a[lo[row] + t], minlength=lo.size)
    rows = _band_rows((lo, row, t, val**power), a.shape[0])
    return rows @ a @ rows.T


def _continuum_cells(f: SampledFunction, k_max: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The sigma band of |k|_inf <= k_max, once per norm, and the cells whose sigma_k * F is nonzero.

    Cells come in sorted order; an exactly-zero block is dropped, as in
    lattice mode, so it never meets its (possibly infinite) weight.
    """
    band = _axis_sigma_band(f, np.arange(-k_max, k_max + 1))
    hits = _cell_sums(band, (f.spectrum != 0).astype(float), 0)
    return band, np.argwhere(hits > 0) - k_max


def _continuum_block_norms(f: SampledFunction, k_max: int, p) -> tuple[np.ndarray, np.ndarray]:
    """Cells |k|_inf <= k_max with a nonzero block, and the L^p norms of box_k f.

    p = 2 by discrete Parseval: ||box_k f||_2^2 = (pi/L)^n sum_m
    sigma_k(xi_m)^2 |F_m|^2, for every cell at once R^2 |F|^2 (1-d) or
    R^2 |F|^2 R^2^T (2-d), R the axis rows.  Other p synthesize each
    block from its band (_band_block_norms), the dual route at p = 2.
    """
    if p != 2:
        return _band_block_norms(f, k_max, p)
    band, cells = _continuum_cells(f, k_max)
    sq = _cell_sums(band, np.abs(f.spectrum) ** 2, 2)[tuple((cells + k_max).T)]
    return cells, np.sqrt((math.pi / f.L) ** f.n * sq)


def _band_block_norms(f: SampledFunction, k_max: int, p) -> tuple[np.ndarray, np.ndarray]:
    """Cells |k|_inf <= k_max with a nonzero block, and their L^p norms by band synthesis.

    Along each axis sigma_k * F lives on the b signed indices lo_k + t,
    t < b, so |ifft(sigma_k F phase / scale)[j]| = |sum_t C_k[t] E[t, j]|
    with C_k those band entries and E[t, j] = e^{2 pi i tj/N} / N; the
    common factor e^{2 pi i lo_k j/N} has modulus 1.  The block samples
    are |C E| in 1-d (C the cells x b rows) and |E^T C_k E| in 2-d (C_k
    the b x b core), one small product per chunk of cells.
    """
    phase, scale = _normalization(f.n, f.L, f.N)
    H = f.spectrum * phase / scale
    (lo, row, t, val), cells = _continuum_cells(f, k_max)
    A = np.zeros((lo.size, t.max(initial=0) + 1))
    A[row, t] = val
    tb = np.arange(A.shape[1])
    E = np.exp((2j * math.pi / f.N) * (np.outer(tb, np.arange(f.N)) % f.N)) / f.N

    out = np.zeros(len(cells))
    chunk = 64 if f.n == 1 else 16
    for start in range(0, len(cells), chunk):
        block = cells[start : start + chunk] + k_max
        # each axis's band indices; those beyond the grid meet a zero of A
        m = [(lo[block[:, i]][:, None] + tb) % f.N for i in range(f.n)]
        if f.n == 1:
            vals = (A[block[:, 0]] * H[m[0]]) @ E
        else:
            C = (A[block[:, 0]][:, :, None] * A[block[:, 1]][:, None, :]
                 * H[m[0][:, :, None], m[1][:, None, :]])
            vals = E.T @ C @ E
        out[start : start + len(block)] = _lp(np.abs(vals).reshape(len(block), -1), p,
                                              f.cell_volume, axis=1)
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
    p = 2 and from band synthesis of sigma_k * F otherwise.  Emits
    TruncationWarning when the relative spectral mass outside
    |xi|_inf <= k_max-1 exceeds 1e-9.
    """
    cells, block, tail, warns = _blocks(f, params)
    return {"params": params.to_dict(), "value": _weighted_lq(cells, block, params),
            "truncation_tail": tail, "warnings": warns}


def _blocks(f: SampledFunction, params: NormParams) -> tuple:
    """(cells, block L^p norms, truncation tail, warnings): the weight-free part of a norm.

    Depends on params' p, mode and k_max only, not on the weight or q.
    The TruncationWarning is attributed two frames up, as it was when
    mod_norm_record raised it itself.
    """
    _check_mode(f, params.mode)
    k_max = params.resolved_k_max(f)
    tail = _tail_fraction(f, k_max)
    warns: list[str] = []
    if tail > 1e-9:
        msg = _truncation_message(tail, k_max)
        warns.append(msg)
        warnings.warn(msg, TruncationWarning, stacklevel=3)

    block_norms = _lattice_block_norms if params.mode == "lattice" else _continuum_block_norms
    cells, block = block_norms(f, k_max, params.p)
    return cells, block, tail, warns


def _truncation_message(tail: float, k_max: int) -> str:
    return (f"spectral tail mass {tail:.3e} beyond |xi| <= {k_max - 1} "
            f"exceeds 1e-9; the k sum is truncated")


def _weighted_lq(cells: np.ndarray, block: np.ndarray, params: NormParams) -> float:
    """Weighted l^q sum of the block norms under params' weight and q; 0 for no blocks."""
    if not block.size:
        return 0.0
    return float(_lp(weight_eval(params.weight, cells) * block, params.q))


def stft_norm(f: SampledFunction, p, q, weight: WeightSpec,
              window: SampledFunction) -> float:
    """Short-time-transform modulation norm.

    V(x_j, xi_m) is the spectrum of s -> f(s) * conj(window(s - x_j)),
    the shift running over the sample grid (circular).  Inner L^p in
    the shift, outer weighted l^q with cell pi/L per frequency axis.
    p = 2 uses the correlation identity (_stft_parseval_inner); other p
    run the shift loop (_stft_shift_inner), the dual route at p = 2.
    Cost guard: N > 4096 (n=1) or N > 128 (n=2) rejected; so are p and
    q outside [1, inf].
    """
    _check_exponents(p, q)
    if f.n == 1 and f.N > 4096:
        raise ValueError("stft_norm cost guard: N > 4096 in 1D")
    if f.n == 2 and f.N > 128:
        raise ValueError("stft_norm cost guard: N > 128 in 2D")
    if (window.n, window.L, window.N) != (f.n, f.L, f.N):
        raise ValueError("window grid does not match the function grid")

    inner = _stft_parseval_inner(f, window) if p == 2 else _stft_shift_inner(f, window, p)

    pts = _points(f.index_axis(), f.n) * (math.pi / f.L)
    terms = weight_eval(weight, pts).reshape(inner.shape) * inner
    return float(_lp(terms, q, (math.pi / f.L) ** f.n))


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
    wv = np.conj(window.values)
    acc = np.zeros(wv.shape)
    pfin = p != math.inf

    chunk = 256 if f.n == 1 else 32
    for start in range(0, wv.size, chunk):
        rolled = np.stack([
            np.roll(wv, np.unravel_index(j, wv.shape), axis=tuple(range(f.n)))
            for j in range(start, min(start + chunk, wv.size))
        ])
        A = np.abs(scale * phase * np.fft.fftn(f.values * rolled,
                                                axes=tuple(range(1, f.n + 1))))
        if pfin:
            acc += np.sum(A ** float(p), axis=0)
        else:
            acc = np.maximum(acc, np.max(A, axis=0))

    if pfin:
        return (f.cell_volume * acc) ** (1.0 / float(p))
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
    return from_spectrum(f.n, f.L, N2, _padded(f.spectrum, f.n, N2))


def _padded(F: np.ndarray, n: int, N2: int) -> np.ndarray:
    """Spectra F, whose last n axes are the grid, zero-padded to N2 per grid axis.

    Each axis's nonnegative and negative frequencies go to the two ends;
    leading axes, if any, index a stack of spectra.
    """
    out = np.zeros(F.shape[:-n] + (N2,) * n, dtype=np.complex128)
    half = F.shape[-1] // 2
    lead = (slice(None),) * (F.ndim - n)
    for corner in itertools.product((slice(0, half), slice(-half, None)), repeat=n):
        out[lead + corner] = F[lead + corner]
    return out


def check_algebra_ratio(corpus: Iterable[tuple],
                        params: Sequence[NormParams]) -> list[VerificationReport]:
    """Product-norm ratios over a corpus of (f, g) pairs, one report per entry of params.

    ratio(f, g) = ||f g|| / (||f||_{2p} * ||g||_{2p}) with all norms in
    the same (q, weight, mode), so 1/p = 1/2p + 1/2p (both factors at
    inf when p = inf).  A report passes when all its ratios are finite
    and its max ratio moves by < 5% under grid refinement N -> 2N;
    rel_change is inf when either max is not finite.  extra holds the
    ratios at both scales.

    The pairs on one grid run as one stack per refinement scale
    (_stacked_ratios; several when a stack would pass _STACK_ELEMENTS
    samples): one ifftn refines every factor, one fftn gives every
    product's spectrum, and each weight is evaluated once.  The
    entries of params may differ in weight only, so everything but the
    weighted l^q sums is shared by them.  The ratios equal, bit for bit,
    those of one mod_norm per norm.  Raises ValueError for an empty
    corpus, an empty params, entries that differ in p, q, mode or
    k_max, or a pair whose f and g grids differ.
    """
    params = list(params)
    if not params:
        raise ValueError("check_algebra_ratio needs at least one NormParams")
    first = params[0]
    for other in params[1:]:
        for key in ("p", "q", "mode", "k_max"):
            if getattr(other, key) != getattr(first, key):
                raise ValueError(f"check_algebra_ratio params may differ in weight only; "
                                 f"{key} is {getattr(first, key)!r} and {getattr(other, key)!r}")
    pairs = list(corpus)
    if not pairs:
        raise ValueError("check_algebra_ratio needs at least one (f, g) pair")
    grids: dict[tuple, list[int]] = {}  # grid -> indices of its pairs
    for j, (f, g) in enumerate(pairs):
        if (f.n, f.L, f.N) != (g.n, g.L, g.N):
            raise ValueError("grid mismatch in multiply")
        grids.setdefault((f.n, f.L, f.N), []).append(j)
    pf = NormParams(2.0 * first.p, first.q, first.weight, first.mode, first.k_max)

    def ratios(scale):
        out = np.empty((len(params), len(pairs)))  # out[i, j]: pair j under params[i]
        for (n, _, N), idx in grids.items():
            step = max(1, _STACK_ELEMENTS // (N * scale) ** n)
            for part in (idx[i : i + step] for i in range(0, len(idx), step)):
                out[:, part] = _stacked_ratios([pairs[j] for j in part], scale, pf, params)
        return out.tolist()

    reports = []
    for par, coarse, fine in zip(params, ratios(1), ratios(2)):
        max_ratio, max_refined = max(coarse), max(fine)
        finite = all(math.isfinite(r) for r in coarse)
        if not (math.isfinite(max_ratio) and math.isfinite(max_refined)):
            rel_change = math.inf
        else:
            rel_change = abs(max_refined - max_ratio) / max_ratio if max_ratio > 0 else 0.0
        reports.append(VerificationReport(
            kind="algebra_ratio",
            params=par.to_dict(),
            domain_description=f"{len(pairs)} fixture pairs, refinement x2: True",
            points_checked=len(pairs),
            min_margin=0.05 - rel_change if finite else -math.inf,
            worst_point=(int(np.argmax(coarse)),),
            passed=finite and rel_change < 0.05,
            tolerance=0.0,
            extra={"max_ratio": max_ratio, "max_ratio_refined": max_refined,
                   "rel_change": rel_change, "ratios": coarse, "ratios_refined": fine},
        ))
    return reports


# samples per stack row times rows: a stack of complex128 rows stays near
# 16 MB, so a corpus of large 2-d grids runs in several stacks
_STACK_ELEMENTS = 2**20


def _stacked_ratios(pairs: list, scale: int, pf: NormParams,
                    params: list[NormParams]) -> np.ndarray:
    """The ratios of pairs on one grid at one refinement scale, shape (len(params), len(pairs)).

    Row j of each stack is the array that refine, multiply and
    SampledFunction.spectrum give pair j, by the same elementwise steps,
    and numpy.fft transforms each row of a stack as it would transform
    the row alone.  The weights are evaluated once on the cells that
    some row keeps; each norm is then _row_lq of one row.
    """
    f0 = pairs[0][0]
    n, L, N = f0.n, f0.L, f0.N * scale
    axes = tuple(range(-n, 0))
    phase, norm = _normalization(n, L, N)
    spectra = np.array([[f.spectrum for f, _ in pairs], [g.spectrum for _, g in pairs]])
    if scale == 1:
        values = np.array([[f.values for f, _ in pairs], [g.values for _, g in pairs]])
    else:  # refine: from_spectrum of the padded spectra
        spectra = _padded(spectra, n, N)
        values = np.fft.ifftn(spectra * phase / norm, axes=axes)
    product = values[0] * values[1]
    stacks = [(spectra[0], values[0], pf), (spectra[1], values[1], pf),
              (norm * phase * np.fft.fftn(product, axes=axes), product, params[0])]
    k_maxes, rows = zip(*(_row_blocks(*stack, L) for stack in stacks))
    k_max = k_maxes[0]  # the same for all three stacks: one grid, one k_max

    used = np.zeros((2 * k_max + 1) ** n, dtype=bool)
    for index, _ in itertools.chain(*rows):
        used[index] = True
    cells = _points(np.arange(-k_max, k_max + 1), n)[used]
    table = np.zeros((len(params), used.size))
    for row, par in zip(table, params):
        row[used] = weight_eval(par.weight, cells)

    nf, ng, nfg = (np.array([_row_lq(np.take(table, index, axis=1) * block, params[0].q)
                             for index, block in norm_rows]).T
                   for norm_rows in rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = nf * ng
        return np.where(denom > 0, nfg / denom, math.inf)


def _row_blocks(spectra: np.ndarray, values: np.ndarray, params: NormParams,
                L: float) -> tuple[int, list]:
    """(k_max, per row of a stack: the box index of its nonzero cells and their block norms).

    The rows' spectra and values sit on one grid of half-period L; the
    box index counts the cells of |k|_inf <= k_max in C order.  Lattice
    rows are read from the stack, with _blocks' checks, tails and
    warnings; continuum rows go through _blocks one by one.
    """
    n, N = values.ndim - 1, values.shape[-1]

    def row(j):
        return SampledFunction(n, L, N, values[j], spectra[j])

    f0 = row(0)
    _check_mode(f0, params.mode)
    k_max = params.resolved_k_max(f0)
    powers = (2 * k_max + 1) ** np.arange(n - 1, -1, -1)
    if params.mode == "continuum":
        blocks = (_blocks(row(j), params)[:2] for j in range(len(values)))
        return k_max, [((cells + k_max) @ powers, block) for cells, block in blocks]
    # _tail_fraction of each row; every sum runs along a C-contiguous row
    inside = _outer(np.logical_and, [np.abs(f0.xi_axis()) <= (k_max - 1) + 1e-12] * n)
    mass = (np.abs(spectra) ** 2).reshape(len(spectra), -1)
    outside = np.sum(np.compress(~inside.ravel(), mass, axis=1), axis=1)
    for total, out in zip(np.sum(mass, axis=1).tolist(), outside.tolist()):
        tail = 0.0 if total == 0.0 else out / total
        if tail > 1e-9:
            warnings.warn(_truncation_message(tail, k_max), TruncationWarning, stacklevel=5)
    cells, factor = _lattice_grid(n, L, N, k_max, params.p)
    coeffs = spectra[(slice(None),) + tuple((cells % N).T)]
    index = (cells + k_max) @ powers
    return k_max, [(index[keep], block[keep])
                   for keep, block in zip(coeffs != 0, factor * np.abs(coeffs))]


def _row_lq(x: np.ndarray, q) -> list[float]:
    """_lp over each row of the C-contiguous x, as Python floats; 0.0 for rows of no entries.

    Each row is summed as _lp sums one array, and the final power is a
    Python-float ** like _lp's numpy-scalar one.  A row sum over a
    non-contiguous view, or a whole-array ** 0.5 (which numpy turns
    into sqrt), would move the last bit.
    """
    if not x.shape[1]:
        return [0.0] * len(x)
    if q == math.inf:
        return np.max(x, axis=1).tolist()
    q = float(q)
    return [s ** (1.0 / q) for s in np.sum(x**q, axis=1).tolist()]


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
    """Read the function file; returns (function, header).

    Raises ValueError for a header that is not JSON or nested too
    deeply to parse, for a header without n = 1 or 2, an integer N and
    a number L (booleans, strings and numbers beyond the float range
    are none of these), for a sample row that does not parse as
    "index,re,im" (naming its line), for a sample index that is out of
    range or repeated, and for a sample value that is not finite.
    """
    with open(path, "r", newline="") as fh:
        try:
            header = json.loads(fh.readline())
        except RecursionError:
            raise ValueError("function header is nested too deeply") from None
        try:
            n, L, N = int(header["n"]), float(header["L"]), int(header["N"])
            typed = ((n, N) == (header["n"], header["N"]) and n in (1, 2)
                     and isinstance(header["L"], (int, float))
                     and not any(isinstance(header[k], bool) for k in "nLN"))
        except (KeyError, TypeError, ValueError, OverflowError):
            typed = False
        if not typed:
            raise ValueError("function header needs n = 1 or 2, an integer N and a number L")
        index, values = [], []
        rows = csv.reader(fh)
        try:
            for row in rows:
                if not row:
                    continue
                i, real, imag = row
                index.append(int(i))
                values.append(complex(float(real), float(imag)))
        except (csv.Error, ValueError) as exc:
            # line_num counts the body lines read; line 1 is the header
            raise ValueError(f"line {rows.line_num + 1}: {exc}; "
                             "a sample row is index,re,im") from None
    size = N**n
    try:
        idx = np.array(index, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"a sample index is outside [0, {size})") from None
    outside = (idx < 0) | (idx >= size)
    if outside.any():
        raise ValueError(f"sample index {idx[outside][0]} outside [0, {size})")
    if idx.size != size:
        raise ValueError(f"expected {size} samples, file has {idx.size}")
    present = np.zeros(size, dtype=bool)
    present[idx] = True
    if not present.all():
        raise ValueError("a sample index appears twice")
    flat = np.empty(size, dtype=np.complex128)
    flat[idx] = values
    if not np.isfinite(flat).all():
        raise ValueError("sample values must be finite")
    return SampledFunction(n, L, N, flat.reshape((N,) * n)), header
