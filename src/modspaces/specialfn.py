"""Concrete smooth exemplar functions and their spectral certificates.

Two families drive all superposition examples:

  * the compactly supported bump phi_mu(t) = exp(-(1-t)^mu) * exp(-t^mu)
    on (0,1) (mu < 0), whose transform decays like exp(-eps*|xi|^(1/s))
    with s = 1 - 1/mu;
  * the scaling-equation function "up": the infinite convolution of
    the box indicator with 2^j-compressed copies of itself, supported
    on [0, 2], with transform
        (2 pi)^(-1/2) e^{-i xi} prod_{j>=1} sinc(2^{-j} xi),
    which decays faster than any polynomial but subexponentially.

On top of them: one-sided decay fits (majorants at the sampled
points only), the weighted density integrals feeding the
superposition bounds (log-domain, with a Cauchy convergence flag),
and the decay-quotient diagnostics.
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .weights import _finite, _regime_param, w_star

__all__ = [
    "gevrey_bump",
    "gevrey_bump_ft",
    "gevrey_bump_decay",
    "up_fourier",
    "up_fourier_log_abs",
    "up_decay_bound",
    "up_grid",
    "up_eval",
    "up_derivative_residual",
    "Density",
    "density_by_name",
    "measure_L1",
    "density_condition_quotient",
    "loglog_condition_quotient",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------
# smooth compactly supported bump
# ---------------------------------------------------------------------

def gevrey_bump(mu: float, t) -> float | np.ndarray:
    """phi_mu(t) = exp(-(1-t)^mu - t^mu) on (0,1), zero elsewhere; mu < 0.

    Since mu < 0 both exponents blow up at the endpoints, so the bump
    and all its derivatives vanish there; phi_mu(1/2) = exp(-2^(1-mu)).
    """
    if not -math.inf < mu < 0:
        raise ValueError(f"mu must be negative and finite, got {mu}")
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    # near the endpoints t**mu overflows; exp(-inf) = 0 is the right limit
    with np.errstate(over="ignore"):
        out[inside] = np.exp(-((1.0 - ti) ** mu) - ti**mu)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=1)
def _de_nodes():
    """Double-exponential nodes/weights for int_0^1 with flat endpoints.

    t(u) = (1 + tanh((pi/2) sinh u))/2, dt/du = (pi/4) cosh u / cosh^2(...),
    on the step h = 0.004 over |u| <= 4.
    """
    h, U = 0.004, 4.0
    us = np.arange(-U, U + h / 2, h)
    arg = 0.5 * math.pi * np.sinh(us)
    ts = 0.5 * (1.0 + np.tanh(arg))
    wts = h * 0.25 * math.pi * np.cosh(us) / np.cosh(arg) ** 2
    keep = (ts > 0.0) & (ts < 1.0) & (wts > 0.0)
    return ts[keep], wts[keep]


def gevrey_bump_ft(mu: float, xi) -> complex | np.ndarray:
    """(2 pi)^(-1/2) int_0^1 phi_mu(t) e^{-i t xi} dt.

    Double-exponential quadrature; absolute accuracy ~1e-13, so values
    are reliable for |result| down to about 1e-13 (|xi| <~ 300 for
    mu = -1).  phi_mu is real, so F(-xi) = conj F(xi): each distinct
    |xi| is summed once and negative xi take the conjugate, which is
    bit-identical to summing at -xi.  Near both ends of [0, 1] the
    bump underflows to exactly 0 (at 1132 of the 1587 nodes for
    mu = -2), so the phases are computed only on the span of live
    nodes and written into a zeroed row of full width; summing the
    whole row keeps the pairwise-summation order, and so the sum.
    Each term f(t) e^{-i t xi} is written as f cos(t xi) and
    0.0 - f sin(t xi), the parts of the complex product
    f * exp(-1j t xi) bit for bit (the 0.0 - keeps its +0.0 at xi = 0),
    without the complex exponential.
    """
    ts, wts = _de_nodes()
    fv = gevrey_bump(mu, ts) * wts
    live = np.flatnonzero(fv)
    span = slice(live[0], live[-1] + 1) if live.size else slice(0, 0)
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    mags, where = np.unique(np.abs(xi_arr), return_inverse=True)
    vals = np.empty(mags.shape, dtype=complex)
    chunk = 256
    terms = np.zeros((min(chunk, mags.size), ts.size), dtype=complex)
    for i in range(0, mags.size, chunk):
        x = mags[i : i + chunk]
        phase = np.outer(x, ts[span])
        live_terms = terms[: x.size, span]
        live_terms.real = fv[span] * np.cos(phase)
        live_terms.imag = 0.0 - fv[span] * np.sin(phase)
        vals[i : i + chunk] = np.sum(terms[: x.size], axis=1)
    vals /= SQRT_2PI
    out = vals[where.reshape(xi_arr.shape)]
    neg = xi_arr < 0.0
    out[neg] = np.conj(out[neg])
    return complex(out[0]) if np.ndim(xi) == 0 else out


def gevrey_bump_decay(mu: float, xi_list) -> dict:
    """Fit diagnostic |F phi_mu(xi)| ~ c exp(-eps |xi|^(1/s)) on the samples.

    s = 1 - 1/mu is the theoretical order.  eps is the least-squares
    slope of -log|F| against |xi|^(1/s); c is then lifted so the fit
    lies above |F phi_mu| *at every sampled point*.  It is not an upper
    bound beyond them: for mu = -1 fitted on xi in [5, 200] it falls
    below |F phi_mu| past xi = 400.
    Samples below the 1e-12 quadrature floor are dropped; raises when
    fewer than 8 usable points remain or the fitted eps is not positive.
    """
    xi = np.asarray(sorted(set(abs(float(x)) for x in xi_list)), dtype=float)
    xi = xi[xi > 0]
    # gevrey_bump_ft rejects mu outside (-inf, 0) before 1/mu is formed
    vals = np.abs(gevrey_bump_ft(mu, xi))
    s = 1.0 - 1.0 / mu
    # drop samples below the quadrature floor; they carry no signal
    usable = vals >= 1e-12
    if np.count_nonzero(usable) < 8:
        raise ValueError("quadrature floor reached; restrict xi_list")
    xi, vals = xi[usable], vals[usable]
    x = xi ** (1.0 / s)
    y = -np.log(vals)
    # least squares for y = eps*x + d
    A = np.stack([x, np.ones_like(x)], axis=1)
    (eps, d), *_ = np.linalg.lstsq(A, y, rcond=None)
    if eps <= 0:
        raise ValueError("no positive decay rate fits the samples")
    # lift c so the bound holds at all samples
    c = float(np.max(vals * np.exp(eps * x)))
    resid = c * np.exp(-eps * x) - vals
    return {
        "s": s,
        "eps": float(eps),
        "c": c,
        "min_residual": float(np.min(resid)),
        "xi_max": float(np.max(xi)),
    }


# ---------------------------------------------------------------------
# the up function
# ---------------------------------------------------------------------

def _up_depth(xi: np.ndarray) -> int:
    """Sinc factors J kept at xi: J >= 60 and |xi| 2^{-J} <= 1e-8 for every entry."""
    amax = float(np.max(np.abs(xi))) if xi.size else 0.0
    if amax > 0:
        return max(60, int(math.ceil(math.log2(max(amax, 1e-300) / 1e-8))))
    return 60


def up_fourier(xi):
    """Transform of up: (2 pi)^(-1/2) e^{-i xi} prod_{j=1..J} sinc(2^{-j} xi).

    J grows with |xi| so that |xi| 2^{-J} <= 1e-8 (J >= 60); each
    omitted factor differs from 1 by at most (|xi| 2^{-j})^2/6, so the
    truncated product is within relative error
    sum_{j>J} (|xi| 2^{-j})^2 / 6 <= (|xi| 2^{-J})^2 / 4.5 <= 2.3e-17
    of the infinite one.
    """
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    prod = np.ones(xi_arr.shape, dtype=float)
    for j in range(1, _up_depth(xi_arr) + 1):
        y = xi_arr * 2.0 ** (-j)
        prod *= np.sinc(y / math.pi)  # numpy sinc(x) = sin(pi x)/(pi x)
    out = prod * np.exp(-1j * xi_arr) / SQRT_2PI
    return complex(out[0]) if np.ndim(xi) == 0 else out


def up_fourier_log_abs(xi) -> np.ndarray:
    """log |F up(xi)|, stable far beyond the double underflow range.

    The sum of the logs of up_fourier's J sinc factors.  |F up| is even,
    so each distinct |xi| is evaluated once, in sorted order.  Level j
    runs only on the suffix with |xi| 2^-j >= 2^-30: below that cut
    np.sinc gives exactly 1.0, whose log adds exactly 0.0, so the sum
    is the one over every level and every xi, bit for bit.
    """
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    mags, where = np.unique(np.abs(xi_arr), return_inverse=True)  # NaN sorts last
    total = np.full(mags.shape, -math.log(SQRT_2PI))
    for j in range(1, _up_depth(xi_arr) + 1):
        cut = np.searchsorted(mags, 2.0 ** (j - 30))
        y = mags[cut:] * 2.0 ** (-j)
        with np.errstate(divide="ignore"):
            total[cut:] += np.log(np.abs(np.sinc(y / math.pi)))
    out = total[where.reshape(xi_arr.shape)]
    return float(out[0]) if np.ndim(xi) == 0 else out


def up_decay_bound(xi) -> float | np.ndarray:
    """Pointwise decay majorant (2 pi)^(-1/2) |xi|^(1 - log2|xi|/2), |xi| > 1."""
    xi_arr = np.abs(np.atleast_1d(np.asarray(xi, dtype=float)))
    out = np.exp((1.0 - 0.5 * np.log2(xi_arr)) * np.log(xi_arr)) / SQRT_2PI
    return float(out[0]) if np.ndim(xi) == 0 else out


_UP_LEVELS = 20         # convolution depth (levels beyond 13 are sub-grid)
_UP_LOG2_H = 14         # grid 2^-14


@functools.lru_cache(maxsize=1)
def up_grid() -> np.ndarray:
    """Samples of up on x_i = i * 2^-14, i = 0 .. 2^15 (support [0, 2]).

    Iterated discrete convolution of the unit-mass box densities
    2^j * indicator([0, 2^-j)), j = 0 .. 20.  Boxes narrower than the
    grid (j >= 14) reduce to single point masses, i.e. no-ops.  Using
    left-endpoint sampling each discrete factor carries mean
    2^{-j-1} - h/2; together with the omitted j > 20 tail the discrete
    profile is the true one shifted by -8h, which the index mapping
    below undoes.  The result integrates to 1 exactly by construction.
    """
    h = 2.0 ** (-_UP_LOG2_H)
    arr = np.ones(2**_UP_LOG2_H, dtype=float)  # j = 0: density 1 on [0,1)
    for j in range(1, _UP_LEVELS + 1):
        width = 2 ** (_UP_LOG2_H - j)
        if width >= 1:
            factor = np.full(width, float(2**j))
        else:
            factor = np.array([float(2**_UP_LOG2_H)])
        arr = np.convolve(arr, factor) * h
    n_out = 2**(_UP_LOG2_H + 1) + 1
    out = np.zeros(n_out)
    start = 8  # the -8h mean shift of the discrete factors
    stop = min(start + arr.size, n_out)
    out[start:stop] = arr[: stop - start]
    return out


@functools.lru_cache(maxsize=1)
def _up_fourier_quad():
    """Gauss-Legendre nodes/weights/values for inverting the up transform."""
    nodes, weights = np.polynomial.legendre.leggauss(48)
    xs = []
    ws = []
    for a in range(0, 2000, 20):
        b = a + 20
        mid, half = 0.5 * (a + b), 10.0
        xs.append(mid + half * nodes)
        ws.append(half * weights)
    xs = np.concatenate(xs)
    ws = np.concatenate(ws)
    prod = np.ones_like(xs)
    for j in range(1, 61):
        prod *= np.sinc(xs * 2.0 ** (-j) / math.pi)
    return xs, ws, prod


def up_eval(x, method: str = "convolution"):
    """up(x): zero outside [0, 2], positive inside, integral one.

    method "convolution": linear interpolation on the cached 2^-14
    grid built by iterated box convolution.
    method "fourier": quadrature inversion
        up(x) = (1/pi) int_0^inf [prod_j sinc(2^-j xi)] cos(xi (x-1)) dxi
    (the product is even and real; the e^{-i xi} phase centers x at 1).
    The two agree to about 1e-7 sup-norm; both are clamped to 0 outside
    the support.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if method == "convolution":
        grid = up_grid()
        h = 2.0 ** (-_UP_LOG2_H)
        pos = x_arr / h
        idx = np.clip(np.floor(pos).astype(np.int64), 0, grid.size - 2)
        frac = pos - idx
        out = (1.0 - frac) * grid[idx] + frac * grid[idx + 1]
        out[(x_arr < 0.0) | (x_arr > 2.0)] = 0.0
    elif method == "fourier":
        xs, ws, prod = _up_fourier_quad()
        out = np.empty(x_arr.shape)
        chunk = 64
        fw = ws * prod
        for i in range(0, x_arr.size, chunk):
            blk = x_arr[i : i + chunk]
            out[i : i + chunk] = fw @ np.cos(np.outer(xs, blk - 1.0)) / math.pi
        out[(x_arr < 0.0) | (x_arr > 2.0)] = 0.0
    else:
        raise ValueError(f"unknown method {method!r}")
    return float(out[0]) if np.ndim(x) == 0 else out


def up_derivative_residual() -> float:
    """Sup residual of the rescaling identity for the derivative of up.

    For the even representative v(x) = up(x + 1) (support [-1, 1]) the
    identity reads v'(x) = 2 v(2x+1) - 2 v(2x-1); in the [0, 2]
    normalization used here that is up'(y) = 2 up(2y) - 2 up(2y-2).
    up' is computed by spectral differentiation of the periodized
    samples on [-1, 3); every rescaled argument lands exactly on the
    sample grid, so no interpolation enters the residual.
    """
    grid = up_grid()              # x = i*h on [0, 2]
    h = 2.0 ** (-_UP_LOG2_H)
    N = 2 ** (_UP_LOG2_H + 2)     # [-1, 3) at spacing h
    per = np.zeros(N)
    base = 2**_UP_LOG2_H          # index of x = 0
    per[base : base + grid.size - 1] = grid[:-1]
    ks = np.fft.fftfreq(N, d=h) * 2.0 * math.pi
    dper = np.fft.ifft(1j * ks * np.fft.fft(per)).real

    # residual on x = i*h for x in [-0.25, 2.25] (covers support + margin)
    i0 = base - 2**_UP_LOG2_H // 4
    i1 = base + 2 ** (_UP_LOG2_H + 1) + 2**_UP_LOG2_H // 4
    idx = np.arange(i0, i1 + 1)
    x = (idx - base) * h

    def up_on_grid(y):
        # y is guaranteed to be j*h for integer j
        j = np.rint(y / h).astype(np.int64)
        out = np.zeros(y.shape)
        ok = (j >= 0) & (j < grid.size)
        out[ok] = grid[j[ok]]
        return out

    rhs = 2.0 * up_on_grid(2.0 * x) - 2.0 * up_on_grid(2.0 * x - 2.0)
    lhs = dper[idx % N]
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------
# densities and the weighted integrals
# ---------------------------------------------------------------------

@dataclass
class Density:
    """A named spectral density g with stable log-magnitude access.

    log_abs_envelope, when present, is a smooth decay envelope of log|g|
    (no oscillation zeros); the decay-quotient diagnostics use it so
    that isolated near-zeros of g do not corrupt the trend.  It is not
    certified for every density: gevrey_bump's is a fit that lies above
    |g| only at its samples, and for mu = -1 it falls below |g| past
    xi ~ 400 (ROADMAP.md, "Certified far-field bounds for the densities").
    """

    name: str
    value: callable           # xi array -> complex array
    log_abs: callable          # xi array -> float array (stable for large xi)
    log_abs_envelope: callable | None = None

    def __call__(self, xi):
        return self.value(xi)

    def envelope(self, xi):
        fn = self.log_abs_envelope or self.log_abs
        return fn(xi)

    @functools.cached_property
    def ladder_log_abs(self) -> tuple[np.ndarray, np.ndarray]:
        """log|g| at the nodes x of measure_L1's octave ladder and at -x.

        It does not depend on the weight or on lam, so every measure_L1
        call on this density shares one evaluation.  The registered
        transforms (gevrey_bump_ft, up_fourier_log_abs) evaluate each
        distinct |xi| of that one call once, so -x costs nothing more.
        """
        x = _gauss_panels(_ML1_EDGES)[1].ravel()
        both = self.log_abs(np.concatenate([x, -x])).reshape(2, -1)
        both.flags.writeable = False  # shared by every call
        return both[0], both[1]


def density_by_name(name: str, **params) -> Density:
    """Registered densities: gevrey_bump(mu), up, rational_decay(k), gaussian(a).

    gevrey_bump uses direct quadrature up to |xi| = 200 and its fitted
    decay envelope beyond (the quadrature floor sits near 1e-13).  That
    envelope is gevrey_bump_decay's fit, not a certified bound: for
    mu = -1 it falls below |g| past xi ~ 400 (ROADMAP.md, "Certified
    far-field bounds for the densities").  up uses the exact factor
    product; the other two are closed forms.
    """
    if name == "gevrey_bump":
        mu = float(params.get("mu", -1.0))
        fit = gevrey_bump_decay(mu, np.linspace(5.0, 200.0, 40))
        s, eps, c = fit["s"], fit["eps"], fit["c"]

        def val(xi):
            xi = np.atleast_1d(np.asarray(xi, dtype=float))
            return gevrey_bump_ft(mu, xi)

        def envelope(xi):
            xi = np.atleast_1d(np.asarray(xi, dtype=float))
            return math.log(c) - eps * np.abs(xi) ** (1.0 / s)

        def lab(xi):
            xi = np.atleast_1d(np.asarray(xi, dtype=float))
            out = np.empty(xi.shape)
            near = np.abs(xi) <= 200.0
            if np.any(near):
                with np.errstate(divide="ignore"):
                    out[near] = np.log(np.abs(gevrey_bump_ft(mu, xi[near])))
            far = ~near
            if np.any(far):
                out[far] = envelope(xi[far])
            return out

        return Density(f"gevrey_bump(mu={mu})", val, lab, envelope)

    if name == "up":
        def val(xi):
            return up_fourier(xi)

        def up_envelope(xi):
            xi = np.abs(np.atleast_1d(np.asarray(xi, dtype=float)))
            xi = np.maximum(xi, 2.0)  # majorant is meaningful past the first dyad
            return (1.0 - 0.5 * np.log2(xi)) * np.log(xi) - math.log(SQRT_2PI)

        return Density("up", val, lambda xi: up_fourier_log_abs(xi), up_envelope)

    if name == "rational_decay":
        k = float(params.get("k", 2.0))

        def val(xi):
            xi = np.atleast_1d(np.asarray(xi, dtype=float))
            return (1.0 + xi * xi) ** (-k) * np.sin(xi) + 0j

        def lab(xi):
            xi = np.atleast_1d(np.asarray(xi, dtype=float))
            with np.errstate(divide="ignore"):
                return -k * np.log1p(xi * xi) + np.log(np.abs(np.sin(xi)))

        return Density(f"rational_decay(k={k})", val, lab,
                       lambda xi: -k * np.log1p(np.atleast_1d(np.asarray(xi, dtype=float)) ** 2))

    if name == "gaussian":
        a = float(params.get("a", 1.0))

        def val(xi):
            xi = np.atleast_1d(np.asarray(xi, dtype=float))
            return np.exp(-a * xi * xi) + 0j

        return Density(f"gaussian(a={a})", val,
                       lambda xi: -a * np.atleast_1d(np.asarray(xi, dtype=float)) ** 2)

    raise ValueError(f"unknown density {name!r}")


def _log_weight(regime: str, lam: float, params: dict, xi: np.ndarray) -> np.ndarray:
    """Log of the superposition weight applied to |xi|; +inf where it overflows."""
    r = np.abs(xi)
    if regime == "gevrey":
        s = _number_param(params, regime, "s")
        if s == 0.0:
            raise ValueError("gevrey regime parameter 's' must be nonzero, got 0")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = lam * r ** (1.0 / s) * np.log(r)
        out[r == 0.0] = 0.0
        return out
    if regime == "loglog":
        theta = _number_param(params, regime, "theta")
        eps = _number_param(params, regime, "eps")
        with np.errstate(over="ignore"):
            return theta * w_star(lam * r ** (1.0 + eps))
    raise ValueError(f"unknown regime {regime!r}")


def _number_param(params: dict, regime: str, key: str) -> float:
    """params[key] as a float; a ValueError naming the key unless it is a finite number."""
    v = _regime_param(params, regime, key)
    if not _finite(v):
        raise ValueError(f"{regime} regime parameter {key!r} must be a finite number, "
                         f"got {reprlib.repr(v)}")
    return float(v)


_ML1_NODES, _ML1_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _gauss_panels(edges: np.ndarray):
    """Half-widths of the panels between consecutive edges, and their nodes (one row each)."""
    halves = 0.5 * (edges[1:] - edges[:-1])
    return halves, (0.5 * (edges[:-1] + edges[1:]))[:, None] + halves[:, None] * _ML1_NODES

# Panel edges of the octave ladder on one half-line: [0, 2^-24], the 24
# dyadic panels of [0, 1] (weights like exp(lam*sqrt(xi)*log xi) have a
# root-type kink at 0 that one panel resolves poorly), then the octaves
# [2^i, 2^(i+1)] out to 2^63.  Octave 0 is the first 25 panels.
_ML1_EDGES = np.array([0.0] + [2.0**e for e in range(-24, 64)])
_ML1_DYADIC = 25


def measure_L1(regime: str, density: Density, lam: float,
               params: dict) -> dict:
    """Weighted density integral int w(xi) |g(xi)| dxi over the line.

    regime "gevrey" (params {"s": > 1}): w = exp(lam |xi|^(1/s) log|xi|).
    regime "loglog" (params {"theta", "eps"}): w = exp(theta * wstar(lam |xi|^(1+eps))).

    Integration runs in the log domain over geometric octaves [2^i, 2^{i+1}]
    (plus [0,1]) on both half-lines, out to 2^63.  Convergence means the
    Cauchy criterion holds: three consecutive octaves each contribute
    below 1e-18 of the running total.  A ladder exhausted without that
    (the integrand still rising, or falling too slowly, at 2^63) is not
    converged.  An integrand may rise over dozens of octaves
    before its decay takes over; only the endpoint behavior decides.
    The weight is evaluated once per call on the nodes of the whole
    ladder, and log|g| once per density (Density.ladder_log_abs).  Every
    panel's maximum and 32-node weighted sum come from one (88 x 32)
    array pass, each row summed as one panel alone; the octaves are
    then accumulated in order.

    Returns {value, log_value, converged, octaves}.  value may overflow
    to inf while log_value stays finite; finiteness claims should test
    converged, not the float.  A weight that overflows a double on the
    ladder gives value = log_value = inf, converged false and no
    octaves.  lam must be a finite number > 0, and s, theta and eps
    finite numbers (s nonzero); bools and strings are rejected.
    """
    if not (_finite(lam) and lam > 0):
        raise ValueError(f"lam must be a finite number > 0, got {reprlib.repr(lam)}")

    halves, x = _gauss_panels(_ML1_EDGES)
    x = x.ravel()
    # both half-lines: |g(x)| + |g(-x)| share the weight (radial)
    lw = _log_weight(regime, lam, params, x)
    if not np.all(lw < math.inf):  # overflowed (a NaN is 0 * inf at theta = 0)
        return {"value": math.inf, "log_value": math.inf, "converged": False, "octaves": []}
    la, lb = density.ladder_log_abs
    l1 = (lw + la).reshape(halves.size, -1)
    l2 = (lw + lb).reshape(halves.size, -1)
    m = np.maximum(np.max(l1, axis=1), np.max(l2, axis=1))[:, None]
    with np.errstate(invalid="ignore"):  # rows with m = -inf are dropped below
        ssum = np.sum(_ML1_WEIGHTS * (np.exp(l1 - m) + np.exp(l2 - m)), axis=1)
    panels = [-math.inf if mi == -math.inf or si <= 0.0 else mi + math.log(h * si)
              for mi, si, h in zip(m[:, 0].tolist(), ssum.tolist(), halves.tolist())]

    log_total = -math.inf
    octs: list[float] = []
    small = 0
    converged = False
    for i in range(64):
        if i == 0:
            lo = -math.inf
            for j in range(_ML1_DYADIC):
                lo = np.logaddexp(lo, panels[j])
            lo = float(lo)
        else:
            lo = panels[_ML1_DYADIC - 1 + i]
        octs.append(lo)
        log_total = np.logaddexp(log_total, lo)
        if lo < log_total - 41.5:  # e^-41.5 ~ 1e-18 relative
            small += 1
            if small >= 3:
                converged = True
                break
        else:
            small = 0

    return {
        "value": float(math.exp(log_total)) if log_total < 700 else math.inf,
        "log_value": float(log_total),
        "converged": converged,
        "octaves": octs,
    }


def density_condition_quotient(density: Density, s_prime: float,
                               xi_list) -> list[float]:
    """Quotients |xi|^(1/s') log|xi| / |log envelope(xi)| at the given xi.

    The admissibility condition asks this to tend to zero; the tests
    sample it on a decade ladder and require monotone decrease.  The
    denominator uses the density's decay envelope rather than raw |g|:
    pointwise samples of an oscillating transform can land arbitrarily
    close to a zero and corrupt the trend, while the envelope captures
    the decay rate the condition actually concerns.  For gevrey_bump
    that envelope is a fit, not a certified majorant (see Density).
    """
    out = []
    for xi in xi_list:
        la = float(density.envelope(np.array([float(xi)]))[0])
        out.append((abs(xi) ** (1.0 / s_prime)) * math.log(abs(xi)) / abs(la))
    return out


def loglog_condition_quotient(density: Density, xi_list) -> list[float]:
    """Quotients wstar(|xi|) / |log envelope(xi)| (slowly varying regime).

    Uses the decay envelope (a fit for gevrey_bump) for the same reason as
    density_condition_quotient: the quotient measures a decay rate, and
    raw samples near an oscillation zero of g would misstate it.
    """
    out = []
    for xi in xi_list:
        la = float(density.envelope(np.array([float(xi)]))[0])
        out.append(float(w_star(abs(xi))) / abs(la))
    return out
