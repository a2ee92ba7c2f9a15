"""Superposition-operator machinery on sampled functions.

Everything here studies the map u -> f(u) for real-valued u: the
orthant/cube phase-space splitting that powers the product estimates,
the brute-force product-expansion identity, norms of e^{iu} - 1, fitted
one-sided growth envelopes for those norms, composition with the
registered profile functions, and the pointwise exponential-difference
identity behind local Lipschitz continuity.

Oscillatory compositions are not band-limited, so every composition is
evaluated on a fixed 4x oversampled grid and the spectral tail
beyond the retained band is measured: a tail above 1e-6 of the total
mass is a hard error, and smaller-but-noticeable tails surface as
TruncationWarning through the norm layer.

All norm-based checks keep the exponent restriction 1 < p < inf.  The
sharp orthant cutoffs are exact on the discrete spectrum, so nothing
here needs boundedness of singular multipliers; the restriction is kept
so the checks run under the same hypotheses as the estimates they
probe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .modspace import (
    NormParams,
    SampledFunction,
    from_spectrum,
    mod_norm,
    mod_norm_record,
    refine,
)
from .partition import _outer
from .specialfn import Density, gevrey_bump, up_eval
from .weights import WeightSpec, _regime_param, w_star, weight_eval

__all__ = [
    "PhaseSplit",
    "phase_split",
    "product_identity_check",
    "exp_minus_one_norm",
    "fit_growth_envelope",
    "bound_scan",
    "compose",
    "lipschitz_check",
    "subalgebra_band_ratio",
    "subalgebra_ladder",
]

_REAL_TOL = 1e-10

# e^{iu} - 1 and every composition f(u) are evaluated on a grid this
# many times finer than u's; growth envelope fits scan this b grid.
_OVERSAMPLE = 4
_B_GRID = np.geomspace(1e-3, 10.0, 80)


def _require_real(u: SampledFunction, who: str) -> np.ndarray:
    """Return the real samples of u, rejecting genuinely complex input."""
    scale = max(1.0, float(np.max(np.abs(u.values.real))) if u.values.size else 1.0)
    worst = float(np.max(np.abs(u.values.imag))) if u.values.size else 0.0
    if worst > _REAL_TOL * scale:
        raise ValueError(f"{who} requires real-valued input "
                         f"(max |imag| = {worst:.3g})")
    return u.values.real


def _require_inner_exponent(params: NormParams, who: str) -> None:
    if not (1.0 < params.p < math.inf):
        raise ValueError(f"{who} requires 1 < p < inf, got p = {params.p}")


# ---------------------------------------------------------------------------
# the orthant/cube phase split
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSplit:
    """Spectral decomposition of u into a low cube and signed orthants.

    u0 carries the frequencies with every |xi_j| <= R; parts[eps], for
    eps in {0,1}^n, carries the frequencies outside that cube whose
    j-th coordinate has sign (-1)^(eps_j).  Coordinates that are
    exactly zero count as positive, so every frequency lands in exactly
    one piece and the pieces sum back to u at FFT accuracy.
    """

    u0: SampledFunction
    parts: dict
    R: float

    def pieces(self) -> list:
        return [self.u0] + [self.parts[eps] for eps in sorted(self.parts)]

    def reconstruct(self) -> SampledFunction:
        total = np.zeros_like(self.u0.values)
        for piece in self.pieces():
            total = total + piece.values
        return self.u0.copy_with(total)

    def residual(self, u: SampledFunction) -> float:
        return float(np.max(np.abs(self.reconstruct().values - u.values)))


def phase_split(u: SampledFunction, R: float) -> PhaseSplit:
    """Split u spectrally into the cube |xi|_inf <= R plus 2^n orthant tails."""
    if R < 2.0:
        raise ValueError("the split radius must be at least 2")
    _require_real(u, "phase_split")
    F = u.spectrum
    xi = u.xi_axis()

    cube = _outer(np.logical_and, [np.abs(xi) <= R + 1e-12] * u.n)
    u0 = from_spectrum(u.n, u.L, u.N, np.where(cube, F, 0.0))

    # Per axis: eps_j = 0 claims xi_j >= 0 and eps_j = 1 claims
    # xi_j < 0, so zero frequencies go to the positive side and the 2^n
    # orthant masks partition the complement of the cube exactly.
    pos_axis = xi >= 0.0
    parts = {}
    for eps in itertools.product((0, 1), repeat=u.n):
        orthant = _outer(np.logical_and, [pos_axis if e == 0 else ~pos_axis for e in eps])
        mask = orthant & ~cube
        parts[eps] = from_spectrum(u.n, u.L, u.N, np.where(mask, F, 0.0))
    return PhaseSplit(u0=u0, parts=parts, R=float(R))


# ---------------------------------------------------------------------------
# Product expansion identity
# ---------------------------------------------------------------------------

def product_identity_check(a) -> float:
    """|prod(a) - 1  minus  sum over nonempty index subsets of prod (a_j - 1)|.

    The right side is assembled by explicit subset enumeration (2^N
    terms), which is the independent route; N is capped at 20 to keep
    that enumeration exact and fast.
    """
    a = [complex(z) for z in a]
    N = len(a)
    if N == 0:
        raise ValueError("need at least one factor")
    if N > 20:
        raise ValueError("subset enumeration is capped at N = 20")
    lhs = complex(np.prod(a)) - 1.0

    # subset_prods[m] = product of (a_j - 1) over the bits set in m;
    # built by doubling so each of the 2^N subsets is formed explicitly.
    subset_prods = np.ones(1, dtype=np.complex128)
    for z in a:
        subset_prods = np.concatenate([subset_prods, subset_prods * (z - 1.0)])
    rhs = complex(np.sum(subset_prods[1:]))  # drop the empty subset
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Norms of e^{iu} - 1 and the fitted growth envelopes
# ---------------------------------------------------------------------------

def exp_minus_one_norm(u: SampledFunction, params: NormParams, *,
                       record: bool = False):
    """Modulation norm of e^{iu} - 1 for real u.

    The composition is evaluated on a 4x finer grid (the exponential
    widens the spectral band), then measured with the requested norm.
    Spectral mass beyond the retained band above 1e-6 of the total is a
    hard error: the grid is too coarse for the answer to mean anything.
    Smaller leakage is reported through the usual TruncationWarning.
    """
    _require_inner_exponent(params, "exp_minus_one_norm")
    vals = _require_real(u, "exp_minus_one_norm")
    fine = refine(u.copy_with(vals.astype(np.complex128)), _OVERSAMPLE)
    composed = fine.copy_with(np.exp(1j * fine.values.real) - 1.0)
    rec = mod_norm_record(composed, params)
    if rec["truncation_tail"] > 1e-6:
        raise ValueError(
            "spectral tail {:.3g} of e^(iu)-1 exceeds 1e-6 of the total; "
            "refine the grid".format(rec["truncation_tail"]))
    return rec if record else rec["value"]


def _log_bound_shape(regime: str, v: np.ndarray, b,
                     regime_params: dict) -> np.ndarray:
    """log of the growth envelope shape (with c = 1) at norm values v.

    b broadcasts against v, so a column of b values gives one row each.
    """
    v = np.asarray(v, dtype=float)
    if regime == "gevrey":
        s = float(_regime_param(regime_params, regime, "s"))
        big = np.maximum(v, 1.0)
        return np.log(v) + b * big ** (1.0 / s) * np.log(big)
    if regime == "loglog":
        theta = float(_regime_param(regime_params, regime, "theta"))
        N = float(_regime_param(regime_params, regime, "N"))
        return np.log(v) + theta * w_star(b * v ** (1.0 + 1.0 / N))
    raise ValueError(f"unknown regime {regime!r}")


def fit_growth_envelope(norms, lhs_values, regime: str,
                        regime_params: dict) -> dict:
    """One-sided Chebyshev fit of c * shape(v; b) >= lhs over all points.

    For each b on a fixed grid (80 geometric points on [1e-3, 10]),
    c*(b) is the smallest constant making the bound hold everywhere;
    the (b, c*) minimizing the worst-case slack wins.  The slack is
    often flat in b to round-off, so every b within 1e-12 (relative)
    of the minimum counts as tied and the smallest tied b, the mildest
    envelope, is taken.  The whole grid is one (80, points) array, one
    row per b, so the first tied row is the smallest tied b.  Points
    from several functions may be pooled, which is how a single
    constant pair is certified across a whole corpus.  c carries one
    part in 1e13 of headroom so the inequality holds in linear
    arithmetic as well, not just for the fitted logarithms.  A ValueError
    is raised when exp(log_c) over- or underflows, since such a c could
    not reproduce the bounds fitted in the log domain.
    """
    vs = np.asarray(norms, dtype=float)
    lhss = np.asarray(lhs_values, dtype=float)
    if vs.shape != lhss.shape or vs.size == 0:
        raise ValueError("norms and lhs_values must be equal-length, nonempty")
    for name, x in (("norms", vs), ("lhs_values", lhss)):
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            raise ValueError(f"envelope fit needs finite {name}; "
                             f"entry {bad[0]} is {x[bad[0]]}")
    if np.any(vs <= 0.0):
        raise ValueError("envelope fit needs positive norm values")
    log_lhs = np.log(np.maximum(lhss, 1e-300))
    log_shape = _log_bound_shape(regime, vs, _B_GRID[:, None], regime_params)
    log_c = np.max(log_lhs - log_shape, axis=1) + 1e-13
    log_bound = log_c[:, None] + log_shape
    bounds = np.where(log_bound < 700.0, np.exp(log_bound), math.inf)
    residuals = bounds - lhss
    max_residual = np.max(residuals, axis=1)
    least = float(np.min(max_residual))
    i = int(np.argmax(max_residual <= least + 1e-12 * abs(least)))
    log_ci = float(log_c[i])
    try:
        c = math.exp(log_ci)
    except OverflowError:
        c = math.inf
    if not 0.0 < c < math.inf:
        raise ValueError(f"envelope constant exp(log_c) is not a positive finite float: "
                         f"log_c = {log_ci!r} at b = {float(_B_GRID[i])!r}")
    return {
        "b": float(_B_GRID[i]),
        "c": c,
        "bounds": bounds[i],
        "residuals": residuals[i],
        "max_residual": float(max_residual[i]),
        "min_residual": float(np.min(residuals[i])),
    }


def bound_scan(u: SampledFunction, params: NormParams, lambdas) -> list:
    """Scan lambda -> (||lambda u||, ||e^{i lambda u} - 1||).

    Returns one row {lambda, norm_u, lhs} per lambda: the scaled norm
    v = ||lambda u|| and the left side L = ||e^{i lambda u} - 1|| of
    the growth bound.  Fitting an envelope c * shape(v; b) >= L to the
    rows, pooled over any number of scans, is fit_growth_envelope's job.
    """
    rows = []
    for lam in map(float, lambdas):
        scaled = u.copy_with(lam * u.values)
        rows.append({
            "lambda": lam,
            "norm_u": mod_norm(scaled, params),
            "lhs": exp_minus_one_norm(scaled, params),
        })
    return rows


# ---------------------------------------------------------------------------
# Composition u -> f(u)
# ---------------------------------------------------------------------------

_GL64_NODES, _GL64_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _density_profile(density: Density, t: np.ndarray) -> np.ndarray:
    """f(t) = (2 pi)^(-1/2) int (e^{i xi t} - 1) g(xi) d xi by quadrature.

    The range is cut where the density's certified envelope drops below
    1e-20 and panel widths are sized to the fastest oscillation
    e^{i xi t} present, so 64-node panels stay in their comfortable
    regime.  The subtracted constant makes f(0) = 0 exactly regardless
    of quadrature error in the density itself.
    """
    t = np.asarray(t, dtype=float)
    t_max = float(np.max(np.abs(t))) if t.size else 0.0

    X = 8.0
    while float(density.envelope(np.array([X]))[0]) > -46.0:
        X *= 2.0
        if X > 1e7:
            raise ValueError("density envelope decays too slowly to truncate")
    # e^{i xi t} g(xi) oscillates no faster than |t| + 2 cycles per
    # 2 pi of xi for the registered densities; keep panels under two
    # periods of that.
    width = min(4.0, 4.0 * math.pi / (t_max + 2.0))
    edges = np.linspace(0.0, X, int(math.ceil(X / width)) + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halves[:, None] * _GL64_NODES[None, :]).ravel()
    wts = (halves[:, None] * _GL64_WEIGHTS[None, :]).ravel()

    gpos = density.value(nodes) * wts
    gneg = density.value(-nodes) * wts

    flat = t.ravel()
    out = np.empty(flat.shape, dtype=np.complex128)
    chunk = max(1, int(2e6 // max(nodes.size, 1)))
    for i in range(0, flat.size, chunk):
        tt = flat[i:i + chunk]
        osc = np.exp(1j * np.outer(tt, nodes))
        out[i:i + chunk] = osc @ gpos + np.conj(osc) @ gneg
    zero_level = complex(np.sum(gpos) + np.sum(gneg))
    out = (out - zero_level) / math.sqrt(2.0 * math.pi)
    return out.reshape(t.shape)


def compose(f_name, u: SampledFunction, *,
            mu: float = -1.0) -> SampledFunction:
    """Evaluate f(u(x)) on a 4x oversampled grid.

    f_name may be one of the closed-form profile names — "up" (the
    iterated-convolution bump on [0, 2]) or "gevrey_bump" (the compact
    bump of order mu on (0, 1)) — or a Density instance, in which case
    f(t) = (2 pi)^(-1/2) int (e^{i xi t} - 1) g(xi) d xi is evaluated
    by quadrature over the density's effective support.  Either way
    f(0) = 0, so composition preserves decay at infinity.
    """
    vals = _require_real(u, "compose")
    fine = refine(u.copy_with(vals.astype(np.complex128)), _OVERSAMPLE)
    t = fine.values.real
    if isinstance(f_name, Density):
        out = _density_profile(f_name, t)
    elif f_name == "up":
        out = up_eval(t).astype(np.complex128)
    elif f_name == "gevrey_bump":
        out = gevrey_bump(mu, t).astype(np.complex128)
    else:
        raise ValueError(f"unknown profile {f_name!r}; pass a Density or "
                         "one of 'up', 'gevrey_bump'")
    return fine.copy_with(out)


# ---------------------------------------------------------------------------
# Exponential-difference identity and local Lipschitz ratio
# ---------------------------------------------------------------------------

def lipschitz_check(u: SampledFunction, v: SampledFunction,
                    params: NormParams) -> dict:
    """Check the pointwise exponential-difference identity and the ratio.

    The identity e^{iu} - e^{iv} =
    (e^{iv} - 1)(e^{i(u-v)} - 1) + (e^{i(u-v)} - 1) is verified sample
    by sample (it is exact algebra, so the residual is rounding noise);
    the returned ratio is ||e^{iu} - e^{iv}|| / ||u - v|| in the
    requested modulation norm.  For u = v the ratio is undefined and
    comes back None with the identity residual alone.
    """
    if (u.n, u.L, u.N) != (v.n, v.L, v.N):
        raise ValueError("lipschitz_check needs a shared grid")
    _require_inner_exponent(params, "lipschitz_check")
    uu = _require_real(u, "lipschitz_check")
    vv = _require_real(v, "lipschitz_check")

    eu, ev = np.exp(1j * uu), np.exp(1j * vv)
    ed = np.exp(1j * (uu - vv)) - 1.0
    identity_residual = float(np.max(np.abs((eu - ev) - ((ev - 1.0) * ed + ed))))

    if np.array_equal(uu, vv):
        return {"identity_residual": identity_residual, "ratio": None}

    diff = u.copy_with((uu - vv).astype(np.complex128))
    fine = refine(diff, _OVERSAMPLE)
    base_v = refine(v.copy_with(vv.astype(np.complex128)), _OVERSAMPLE)
    num_fun = fine.copy_with(
        np.exp(1j * (base_v.values.real + fine.values.real))
        - np.exp(1j * base_v.values.real))
    numerator = mod_norm(num_fun, params)
    denominator = mod_norm(fine, params)
    return {
        "identity_residual": identity_residual,
        "ratio": numerator / denominator,
        "numerator": numerator,
        "denominator": denominator,
    }


# ---------------------------------------------------------------------------
# Subalgebra decay ladders
# ---------------------------------------------------------------------------

def subalgebra_band_ratio(R: float, weight: WeightSpec) -> float:
    """||f^2|| / ||f||^2 for f spectrally supported in (R, R + 3].

    Norms are lattice M^{2,1} norms at L = pi with the given weight.

    f has unit coefficients on the integer modes of the band (one
    signed orthant, so the band sits inside a single sign class once
    R >= 2), hence ||f|| = sum_k w(k).  f^2 lives in (2R, 2R + 6]
    with coefficient (2 pi)^(-1/2) c(m) at m, where c(m) counts the
    ordered pairs of band modes summing to m, hence
    ||f^2|| = (2 pi)^(-1/2) sum_m w(m) c(m); the ratio is evaluated in
    that closed form, so it measures the weight's submultiplicative
    slack without FFT round-off.  The coefficients are deterministic so
    the ladder isolates the weight's decay: random phases would add
    convolution-cancellation noise of a few percent, swamping the slow
    regimes.
    """
    lo = int(math.floor(R)) + 1
    hi = int(math.floor(R + 3))
    band = np.arange(lo, hi + 1)
    unit = np.ones(band.size)
    pairs = np.convolve(unit, unit)  # c(m) for m = 2 lo, ..., 2 hi
    norm_f = float(np.sum(weight_eval(weight, band[:, None])))
    norm_f2 = float(np.sum(
        weight_eval(weight, np.arange(2 * lo, 2 * hi + 1)[:, None]) * pairs))
    return norm_f2 / math.sqrt(2.0 * math.pi) / norm_f ** 2


def subalgebra_ladder(weight: WeightSpec, R_values) -> dict:
    """Band ratios along an increasing ladder of split radii."""
    Rs = [float(R) for R in R_values]
    ratios = [subalgebra_band_ratio(R, weight) for R in Rs]
    return {"R": Rs, "ratio": ratios, "weight": weight.params()}
