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
import reprlib
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
    "LoglogCloud",
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


def _bisect(f, lo: float, hi: float) -> float:
    """Sign change of f on [lo, hi], halved until the bracket is two adjacent floats.

    Raises RuntimeError when f(lo) and f(hi) have the same sign.
    """
    positive = f(lo) > 0
    if positive == (f(hi) > 0):
        raise RuntimeError(f"no sign change on [{lo:g}, {hi:g}]")
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if (f(mid) > 0) == positive else (lo, mid)
    return mid


@functools.lru_cache(maxsize=1)
def analyze_weight() -> WeightAnalysis:
    """Locate t0 (root of w'') and p0 (max of p) by bisection to adjacent floats.

    t0 is the sign change of w'' on [1, 100].  The argmax of
    p(t) = t w'(t) / w(t) is the sign change on [1e-3, 1e6] of
    w^2 p'(t) = (w' + t w'') w - t w'^2, and p0 is p there.  A bracket
    without a sign change means the closed forms have regressed, and
    _bisect raises RuntimeError.
    """
    t0 = _bisect(lambda t: w_star(t, 2), 1.0, 100.0)
    t = _bisect(lambda t: (w_star(t, 1) + t * w_star(t, 2)) * w_star(t)
                - t * w_star(t, 1) ** 2, 1e-3, 1e6)
    p0 = t * w_star(t, 1) / w_star(t)
    return WeightAnalysis(t0=t0, p0=p0, s_admissible=1.0 - p0, deriv_sup=w_star(t0, 1))


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

# The most elements one table or buffer of a sweep may hold: 2^26
# float64 values are 512 MiB.  A domain that needs more is a ValueError
# naming its key, raised before anything is allocated.
_MAX_ELEMENTS = 1 << 26

# rows of k cells (exponent sweep) or of grid rows (loglog sweep) per chunk
_CHUNK = 16
# l cells per axis of the tiles the exponent sweep keeps or drops
_TILE = 4


def _check_elements(kind: str, key: str, value, elements: float) -> None:
    """Raise ValueError naming key when an array of the sweep would exceed _MAX_ELEMENTS."""
    if not elements <= _MAX_ELEMENTS:
        raise ValueError(f"{kind} sweep: {key} {reprlib.repr(value)} needs an array of "
                         f"{elements:.3g} elements, over the cap of {_MAX_ELEMENTS}")


def _sweep_gevrey(s: float, radius: int, n: int):
    """Min margin of the triangle-type exponent bound on a lattice box.

    Margin(k,l) = |l|^(1/s) + |l-k|^(1/s)
                  - delta*min(|l-k|,|l|)^(1/s) - |k|^(1/s),
    delta = 2 - 2^(1/s).  Exponents depend only on squared radii, so
    they are lookups into a table over the squared radii up to
    n*(2*radius)^2, the largest |k-l|^2.  Only sums of n squares are
    looked up, so only those are raised to the power 1/(2s); every other
    entry repeats the last sum below it, which keeps the table
    nondecreasing.  Since it is, table[min(D2, L2)] =
    min(table[D2], table[L2]).  _gevrey_box sweeps the box on that table.
    """
    # imported here: partition imports this module
    from .partition import _outer

    # the largest arrays: the table, the |k-l|^2 box and the chunk buffers
    size = 4 * n * radius * radius + 1
    _check_elements("gevrey", "radius", radius, max(
        size, (4 * radius + 1) ** n, _CHUNK * (2 * radius + 1) ** n))
    occurs = np.zeros(size, dtype=bool)
    occurs[_outer(np.add, [np.arange(2 * radius + 1) ** 2] * n)] = True
    sums = np.flatnonzero(occurs)  # starts with 0
    table = np.repeat(sums.astype(float) ** (0.5 * (1.0 / s)), np.diff(sums, append=size))
    margin, worst, _ = _gevrey_box(table, 2.0 - 2.0 ** (1.0 / s), radius, n)
    return margin, worst, (2 * radius + 1) ** (2 * n)


def _gevrey_box(table: np.ndarray, delta: float, radius: int, n: int):
    """First C-order minimum of the exponent margin over the box, and the cells evaluated.

    Cell (k, l) of the box |k|_inf, |l|_inf <= radius has the margin
    f(A, D, K) = D + A - delta*min(D, A) - K with A = table[|l|^2],
    D = table[|k-l|^2] and K = table[|k|^2]; table covers every squared
    radius up to n*(2*radius)^2.  Returns (margin, (k, l), cells
    evaluated), margin and cell those of the loop over every cell in C
    order.

    The margin depends on |k|^2, |l|^2 and |k-l|^2 only, and the box is
    invariant under the 2^n n! signed permutations of the axes applied
    to k and l together.  So k runs over the cone
    radius >= k_1 >= ... >= k_n >= 0, in chunks of 16, and l over the
    box; _first_image maps the tied cells back.  D over the box is the
    window at radius - k of the table over every difference.

    Each chunk evaluates the bounding sub-box of the tiles of l (4 per
    axis) it keeps.  For table[0] = 0, table nondecreasing and
    0 <= delta <= 1, it drops a tile when one of these holds:

      * Bound.  Each cell (k, 0) computes to exactly 0.0, since A = 0
        and D = K, so the minimum is <= 0.  f is nondecreasing in A and
        D and nonincreasing in K, so every cell of the tile has a margin
        >= lb = f(table[min |l|^2], table[min |k-l|^2], table[max |k|^2]),
        minima over the tile and the chunk's bounding box [kmin, kmax],
        each a sum over the axes of a squared distance between
        intervals.  Every value in a margin or in lb has magnitude <=
        U = 2*table[-1], so each lies within 2 ulp(U) of its exact value
        (four roundings of <= ulp(U)/2).  A tile with lb > 8 ulp(U) thus
        holds only computed margins >= lb - 4 ulp(U) > 0, and drops
        neither the minimum nor a tie with it.
      * Mirror.  (k, l) and (k, k-l) have the same bits, since IEEE +
        and min commute.  The tile is dropped when every cell lies
        strictly on the far side, 2 k.l > |k|^2 (a sum over the axes of
        minima at the corners of the tile and the bounding box), and
        every mirror lies in the box.  Each mirror lies strictly on the
        near side, so its tile is kept unless the bound drops it.  The
        in-box mirrors of the tied cells join them before _first_image.

    For any other table or delta every cell is evaluated.
    """
    # imported here: partition imports this module
    from .partition import _outer, _points

    chunk, tile = _CHUNK, _TILE
    side = np.arange(-radius, radius + 1)
    tL = table[_outer(np.add, [side * side] * n)]
    diff = np.arange(-2 * radius, 2 * radius + 1)
    windows = np.lib.stride_tricks.sliding_window_view(
        table[_outer(np.add, [diff * diff] * n)], tL.shape)
    cone = _points(np.arange(radius + 1), n)
    cone = cone[np.all(cone[:, :-1] >= cone[:, 1:], axis=1)]
    K2 = np.sum(cone * cone, axis=1)
    tK = table[K2]
    # each chunk's bounding box of k
    starts = np.arange(0, len(cone), chunk)
    kmin, kmax = np.minimum.reduceat(cone, starts), np.maximum.reduceat(cone, starts)
    # the first and last l of each tile on one axis
    lo = side[::tile]
    hi = np.minimum(lo + tile - 1, radius)

    def tiles(op, axes):
        """(chunks,) + (tiles,) * n array from one (chunks, tiles) array per axis under op."""
        return functools.reduce(op, [x.reshape((len(x),) + (1,) * a + (-1,) + (1,) * (n - 1 - a))
                                     for a, x in enumerate(axes)])

    # f(A, D, K) at min |l|^2 and min |k-l|^2 over each (chunk, tile), and max |k|^2
    A = table[tiles(np.add, [np.where(lo * hi <= 0, 0, np.minimum(lo * lo, hi * hi))[None]] * n)]
    D = table[tiles(np.add, [np.maximum(0, np.maximum(lo - b[:, None], a[:, None] - hi)) ** 2
                             for a, b in zip(kmin.T, kmax.T)])]
    K = table[np.maximum.reduceat(K2, starts)].reshape((-1,) + (1,) * n)
    lb = D + A - delta * np.minimum(D, A) - K
    # min of 2 k.l - |k|^2 = sum over the axes of k_a (2 l_a - k_a), at the corners
    far = tiles(np.add, [np.min([c[:, None] * (2 * e - c[:, None]) for c in (a, b) for e in (lo, hi)],
                                axis=0) for a, b in zip(kmin.T, kmax.T)]) > 0
    # k - l >= -radius holds in the cone; k - l <= radius for every k needs l >= kmax - radius
    mirrored = tiles(np.logical_and, [lo >= b[:, None] - radius for b in kmax.T])
    prunes = bool(table[0] == 0 and np.all(table[1:] >= table[:-1]) and 0.0 <= delta <= 1.0)
    slack = 8.0 * math.ulp(2.0 * float(table[-1]))
    keep = ~(((lb > slack) | (far & mirrored)) & prunes)
    # each chunk's bounding sub-box of its kept tiles, as slices of side
    spans = []
    for axis in range(n):
        hit = np.any(keep, axis=tuple(a + 1 for a in range(n) if a != axis))
        stop = tile * (hit.shape[1] - np.argmax(hit[:, ::-1], axis=1))
        spans.append([slice(tile * a, min(b, side.size)) for a, b in zip(np.argmax(hit, axis=1), stop)])
    boxes = list(zip(*spans))
    # one margin buffer and one for delta * min, reused by every chunk
    out = np.empty(chunk * tL.size)
    low = np.empty_like(out)

    def margin(c):
        k, box = cone[starts[c] : starts[c] + chunk], boxes[c]
        tLb = tL[box]
        tD = out[: len(k) * tLb.size].reshape((len(k),) + tLb.shape)
        for block, corner in zip(tD, radius - k):
            block[...] = windows[tuple(corner)][box]
        sub = low[: tD.size].reshape(tD.shape)
        np.minimum(tD, tLb, out=sub)
        sub *= delta
        tD += tLb  # IEEE + commutes: the bits of tL + tD
        tD -= sub
        tD -= tK[starts[c] : starts[c] + chunk].reshape((-1,) + (1,) * n)
        return k, box, tD

    best, at_best, evaluated = math.inf, [], 0  # chunks at the running minimum
    for c in range(len(starts)):
        tD = margin(c)[2]
        evaluated += tD.size
        m = float(np.min(tD))
        if m < best:
            best, at_best = m, [c]
        elif m == best:
            at_best.append(c)
    ties = []  # (k, l) rows of the cells at the minimum
    for c in at_best:
        k, box, tD = margin(c)
        i, *j = np.nonzero(tD == best)
        l = np.stack(j, axis=1) + [b.start - radius for b in box]
        ties.append(np.concatenate([k[i], l], axis=1))
    ties = np.concatenate(ties)
    mirror = ties[:, :n] - ties[:, n:]
    inside = np.all(np.abs(mirror) <= radius, axis=1)
    ties = np.concatenate([ties, np.concatenate([ties[inside, :n], mirror[inside]], axis=1)])
    return best, _first_image(ties, n), evaluated


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


class LoglogCloud:
    """The loglog sweep's seeded far-field cloud, drawn and evaluated on first use.

    n_random points (x, y) uniform in [0, 1e6]^2 with seed 20260814, and
    w at y, |x - y| and x.  Loglog sweeps over one n_random can share one
    cloud (verify_weight_inequality's cloud argument); it holds its
    arrays as long as its caller holds it, and no longer.
    """

    def __init__(self, n_random: int):
        self.n_random = n_random
        self._values = None

    def values(self) -> tuple:
        """(xs, ys, w(ys), w(|xs - ys|), w(xs))."""
        if self._values is None:
            rng = np.random.default_rng(_LOGLOG_SEED)
            xs = rng.uniform(0.0, _LOGLOG_RANDOM_MAX, size=self.n_random)
            ys = rng.uniform(0.0, _LOGLOG_RANDOM_MAX, size=self.n_random)
            self._values = xs, ys, w_star(ys), w_star(np.abs(xs - ys)), w_star(xs)
        return self._values


def _loglog_cloud(s: float, n_random: int, cloud: LoglogCloud | None = None):
    """Min margin of the loglog inequality over the seeded cloud of n_random
    points (cloud, or a new one), and its (x, y); (inf, None) for an empty cloud."""
    if not n_random:
        return math.inf, None
    xs, ys, wy, wxy, wx = (LoglogCloud(n_random) if cloud is None else cloud).values()
    margin = wy + wxy - s * np.minimum(wy, wxy) - wx
    i = int(np.argmin(margin))
    return float(margin[i]), (float(xs[i]), float(ys[i]))


def _loglog_grid(W: np.ndarray, s: float, bar: float):
    """First row-major minimum of the loglog margin over a grid table, and the cells evaluated.

    Cell (i, j), row y = i and column x = j, has the margin
    W[i] + W[|i-j|] - s*min(W[i], W[|i-j|]) - W[j], 0 < s <= 1.  Returns
    (margin, (i, j), cells evaluated).  Margin and cell are the full
    sweep's whenever its minimum is <= bar; otherwise margin is > bar
    (inf when no cell was evaluated).  Row i of W[|i-j|] is a window of
    the mirrored table (W[m], ..., W[1], W[0], W[1], ..., W[m]).

    Rows go in chunks [a, b).  A chunk is skipped, or evaluated from
    column 2a on, when lower bounds on the cells left out clear
    min(best so far, bar) + slack.  For W nonnegative and nondecreasing:

      * j >= i: (i, j) and (j-i, j) have the same bits, since IEEE + and
        min commute.  For j < 2i the partner lies in an earlier row, where
        it was evaluated first or covered by a bound; so row i needs only
        the cells j >= 2i.
      * j < i: W[i] >= W[j], so the margin is >= (1-s)*W[i-j] >= (1-s)*W[0].
      * j >= 2i, i in [a, b): min is W[i] and W[j-i] >= W[max(j-b+1, 0)],
        so the margin is >= (1-s)*W[a] - max_{j >= 2a} (W[j] - W[max(j-b+1, 0)]).

    Rounding: every value in a margin or a bound has magnitude <= T =
    2*W[m], so a computed margin or bound lies within 2 ulp(T) of its
    exact value (four roundings of <= ulp(T)/2 each), and adding the
    slack rounds by <= ulp(T).  With slack = 8 ulp(T), a cleared bound
    keeps every computed margin it covers above min(best so far, bar):
    by these error bounds when that minimum lies in [-T, T], because
    every margin is >= -T/2 - 2 ulp(T) when it lies below, and because
    no bound (<= T/2) clears it when it lies above.  So neither the
    running minimum nor a tie with it is ever skipped.  For any other W
    every bound is -inf and whole rows are evaluated.
    """
    m = len(W) - 1
    rows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([W[:0:-1], W]), m + 1)[::-1]
    prunes = bool(W[0] >= 0 and np.all(W[1:] >= W[:-1]))
    below_diagonal = (1.0 - s) * W[0] if prunes else -math.inf
    slack = 8.0 * math.ulp(2.0 * float(W[-1]))

    best, at, evaluated = math.inf, None, 0
    chunk = _CHUNK
    # margin and s * min buffers, reused by every chunk
    total = np.empty(chunk * (m + 1))
    low = np.empty_like(total)
    for a in range(0, m + 1, chunk):
        b = min(a + chunk, m + 1)
        threshold = min(best, bar) + slack
        first = 0
        if below_diagonal > threshold:
            if 2 * a > m:
                continue
            # max over j >= 2a of W[j] - W[max(j - lag, 0)]: for j < lag
            # the term at j = lag <= m is no smaller
            lag = b - 1
            lo = max(2 * a, lag)
            rise = np.max(np.subtract(W[lo:], W[lo - lag : m + 1 - lag], out=low[: m + 1 - lo]))
            if (1.0 - s) * W[a] - rise > threshold:
                continue
            first = 2 * a
        shape = (b - a, m + 1 - first)
        size = shape[0] * shape[1]
        wy = W[a:b, None]
        wxy = rows[a:b, first:]
        # the bits of wy + wxy - s * np.minimum(wy, wxy) - W, in place
        margin = np.add(wy, wxy, out=total[:size].reshape(shape))
        sub = np.minimum(wy, wxy, out=low[:size].reshape(shape))
        sub *= s
        margin -= sub
        margin -= W[first:]
        evaluated += size
        i, j = np.unravel_index(np.argmin(margin), shape)
        val = float(margin[i, j])
        if val < best:
            best, at = val, (a + int(i), first + int(j))
    return best, at, evaluated


def _sweep_loglog(s: float, grid_max: float, step: float, n_random: int,
                  cloud: LoglogCloud | None = None):
    """Min margin of w(x) <= w(y) + w(x-y) - s*min(w(y), w(x-y)).

    The rectangular grid is uniform with the given step, so w(|x-y|)
    is a lookup into the same table W as w(x), w(y) via index distance.
    A seeded uniform cloud in [0, 1e6]^2 probes the far field.  It is
    evaluated first, so its minimum prunes the grid (_loglog_grid); the
    cloud's point wins only when it is strictly below the grid's.
    """
    _check_elements("loglog", "n_random", n_random, n_random)
    # the largest arrays are the chunk buffers of _loglog_grid
    _check_elements("loglog", "grid_max", grid_max, _CHUNK * (grid_max / step + 1))
    m = int(round(grid_max / step))
    ts = np.arange(m + 1) * step
    cloud_margin, cloud_point = _loglog_cloud(s, n_random, cloud)
    margin, cell, _ = _loglog_grid(w_star(ts), s, cloud_margin)
    count = (m + 1) ** 2 + n_random
    if cloud_margin < margin:
        return cloud_margin, cloud_point, count
    i, j = cell
    return margin, (float(ts[j]), float(ts[i])), count


def _sweep_elementary(n_points: int):
    """Min margin of w(|xi|^(1+eps)) <= (1+eps)*log(b(xi))*(eps + loglog(b(xi))), eps = 1/2."""
    _check_elements("elementary", "n_points", n_points, n_points)
    eps = _ELEMENTARY_EPS
    xs = np.linspace(0.0, _ELEMENTARY_XI_MAX, n_points)
    logb = np.log(bracket_star(xs))
    rhs = (1.0 + eps) * logb * (eps + np.log(logb))
    lhs = w_star(xs ** (1.0 + eps))
    margin = rhs - lhs
    i = int(np.argmin(margin))
    return float(margin[i]), (float(xs[i]),), xs.size


def _finite(v) -> bool:
    """Whether v is a number whose float is finite; an int beyond the float range is not."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _int_in(lo: int, hi: float = math.inf):
    """A test for an int in [lo, hi] whose float is finite."""
    return lambda v: type(v) is int and _finite(v) and lo <= v <= hi


# each kind's params keys, required and optional, and its domain keys
_SWEEP_KEYS = {
    "gevrey": (("s",), (), ("n", "radius")),
    "loglog": ((), ("s",), ("grid_max", "step", "n_random")),
    "elementary": ((), (), ("n_points",)),
}

# each domain key's rule: (what it takes, test)
_DOMAIN_RULES = {
    "n": ("1 or 2", _int_in(1, 2)),
    "radius": ("an integer >= 0", _int_in(0)),
    "grid_max": ("a finite number >= 0", lambda v: _finite(v) and v >= 0),
    "step": ("a finite number > 0", lambda v: _finite(v) and v > 0),
    "n_random": ("an integer >= 0", _int_in(0)),
    "n_points": ("an integer > 0", _int_in(1)),
}


def _check_sweep_keys(kind: str, params: dict, domain: dict) -> None:
    """Raise ValueError naming the first missing or unknown params or domain
    key, or the first domain value its rule rejects."""
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
    for key in domain_keys:
        what, ok = _DOMAIN_RULES[key]
        if not ok(domain[key]):
            raise ValueError(f"{kind} sweep: {key} must be {what}, "
                             f"got {reprlib.repr(domain[key])}")


def _regime_param(params: dict, regime: str, key: str):
    """params[key]; a ValueError naming the key when params lacks it."""
    if key not in params:
        raise ValueError(f"{regime} regime needs parameter {key!r}")
    return params[key]


def verify_weight_inequality(kind: str, params: dict, domain: dict,
                             cloud: LoglogCloud | None = None) -> VerificationReport:
    """Sweep one of the three weight inequalities and report margins.

    Each kind takes exactly these keys; a missing or unknown one is a
    ValueError naming it, and so is a domain value outside its range
    (integers are ints, not bools or floats), an s that is no finite
    number (a bool or a string is none), and a domain that would need
    an array of more than 2^26 elements.

    kind = "gevrey": exponent triangle bound with subtraction factor
        delta = 2 - 2^(1/s) over an integer box.  params {"s": > 1},
        domain {"n": 1|2, "radius": int >= 0}.
    kind = "loglog": subadditivity of w up to -s*min(...).  params {} or
        {"s": in (0, 1]}, s defaulting to s_admissible = 1 - p0; domain
        {"grid_max": finite >= 0, "step": finite > 0, "n_random": int
        >= 0}.  The grid [0, grid_max]^2 is swept with the given step,
        plus n_random points of a uniform cloud in [0, 1e6]^2 with seed
        20260814.  cloud: a LoglogCloud of n_random points, so that
        sweeps of one domain draw and evaluate the cloud once.
    kind = "elementary": composition bound for |xi|^(1+eps), eps = 1/2,
        on xi in [0, 1e4].  params {}, domain {"n_points": int > 0}.

    All margins are computed on exponents (log domain); pass means
    min_margin >= -1e-12.
    """
    if kind not in _SWEEP_KEYS:
        raise ValueError(f"unknown inequality kind {kind!r}")
    _check_sweep_keys(kind, params, domain)
    if cloud is not None and (kind != "loglog" or cloud.n_random != domain["n_random"]):
        raise ValueError(f"a cloud of {reprlib.repr(cloud.n_random)} points serves only the "
                         f"loglog sweep with n_random {reprlib.repr(cloud.n_random)}")

    if kind == "gevrey":
        s = params["s"]
        if not (_finite(s) and s > 1.0):
            raise ValueError("gevrey inequality requires a finite number s > 1 (delta > 0), "
                             f"got s = {reprlib.repr(s)}")
        s = float(s)
        n, radius = domain["n"], domain["radius"]
        margin, worst, count = _sweep_gevrey(s, radius, n)
        desc = f"integer box |k|_inf,|l|_inf <= {radius}, n={n}"
        params = {"s": s, "delta": 2.0 - 2.0 ** (1.0 / s)}
    elif kind == "loglog":
        s = params.get("s", analyze_weight().s_admissible)
        if not (_finite(s) and 0.0 < s <= 1.0):
            raise ValueError("loglog inequality requires a finite number 0 < s <= 1, "
                             f"got s = {reprlib.repr(s)}")
        s = float(s)
        grid_max, step = float(domain["grid_max"]), float(domain["step"])
        n_random = domain["n_random"]
        margin, worst, count = _sweep_loglog(s, grid_max, step, n_random, cloud)
        desc = (f"grid [0,{grid_max:g}]^2 step {step:g} + {n_random} random points "
                f"in [0,{_LOGLOG_RANDOM_MAX:g}]^2 (seed {_LOGLOG_SEED})")
        params = {"s": s}
    else:  # elementary
        n_points = domain["n_points"]
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
