"""One-dimensional Gaussian-kernel density estimation over scalar samples.

Supports plain line-topology estimates and a wrapped variant for angular
data on [0, 360), where each kernel is summed over its periodic images so
no probability mass leaks across the 0/360 cut.  Interval probabilities are
computed in closed form from per-kernel Gaussian CDF differences, so they
are exact to erf precision with no quadrature error.  In float64, scipy's
``ndtr(z)`` is exactly 1.0 for z >= 8.2923610758136 and exactly 0.0 for
z <= -37.677120720495; the band integrals evaluate it only for kernels whose
standardised edge distance lies inside the window (-37.69, 8.31) and write
the exact constant for the rest, so skipping them changes no bit.

Bandwidth selection offers Silverman's rule of thumb, a plug-in selector
driven by a fixed-point equation on the DCT of the binned data (robust to
non-Gaussian shapes), and k-fold cross-validated grid search over held-out
log-likelihood.  The fixed point is solved by Brent's method, a step-for-step
port of scipy's C solver.
"""

from __future__ import annotations

import bisect
import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from scipy.fft import dct
from scipy.special import kolmogorov, ndtr

from .kinematics import _wrap_owned, wrap_degrees
from .sampling import TooFewSamples

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Block size cap (elements) of the float32 cross-validation blocks: 62 test
# rows against analyze's 1600 training samples, 397 kB per block.
_CHUNK_BUDGET = 100_000
# Row-group cap (elements) of the float64 squared distances that fill a
# float32 block: 10 rows of 1600, 128 kB.
_DIST_CHUNK = 16_384
# Block size (elements) of evaluate's buffers, small enough to stay in cache.
_EVAL_BLOCK = 32_768
# float64 exp(x) is exactly 0.0 for x below about -745.13; exp is slow to
# produce those zeros, so the kernels skip arguments under this bound.
_EXP_ZERO_BELOW = -746.0
# The ndtr saturation window of the module docstring, a little wider than
# the thresholds found by bisection with scipy 1.17.1; ``tests/test_density.py``
# pins ndtr at both bounds and beyond.
_NDTR_ZERO_AT = -37.69
_NDTR_ONE_AT = 8.31
# Kernels per ndtr chunk in the band integrals: the chunk's index, gather and
# result arrays stay near 400 KB whatever the sample count.
_NDTR_CHUNK = 16_384


class ZeroDispersion(ValueError):
    """Raised when the samples carry no spread to estimate a bandwidth from."""


class FixedPointFailure(RuntimeError):
    """Raised when the plug-in bandwidth fixed point cannot be bracketed.

    Callers should fall back to Silverman's rule (``select_bandwidth``
    does this automatically, with a warning).
    """


class Topology(Enum):
    LINE = "line"
    CIRCLE360 = "circle360"


@dataclass(frozen=True)
class DensityEstimate:
    """A fitted kernel density: retained samples, bandwidth, topology."""

    samples: np.ndarray
    bandwidth: float
    topology: Topology


def _as_samples(samples: Iterable[float], minimum: int) -> np.ndarray:
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size < minimum:
        raise TooFewSamples(f"need at least {minimum} samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return arr


def _circular_recenter(arr: np.ndarray) -> np.ndarray:
    """Angular samples rotated so their circular mean sits at 180 deg; the
    rotation leaves kernel geometry (and hence the bandwidth) unchanged.

    ``wrap_degrees(arr - mean + 180.0)`` bit for bit, in two n-buffers: one
    trig buffer serves both means, each still the pairwise sum of one
    contiguous array, and the recentring and the wrap run in the radians
    buffer, op for op.
    """
    rad = np.radians(arr)
    trig = np.sin(rad)
    mean_sin = float(np.mean(trig))
    mean_cos = float(np.mean(np.cos(rad, out=trig)))
    del trig
    mean = math.degrees(math.atan2(mean_sin, mean_cos))
    recentred = np.subtract(arr, mean, out=rad)
    recentred += 180.0
    return _wrap_owned(recentred)


def _line_view(arr: np.ndarray, topology: Topology | str) -> np.ndarray:
    """The samples a bandwidth selector reads on the line: line samples as
    they are, angles wrapped into [0, 360) and recentred on their circular
    mean, so that a cluster across the 0/360 cut is seen as one mode."""
    if Topology(topology) is Topology.LINE:
        return arr
    return _circular_recenter(wrap_degrees(arr))


def _image_shifts(estimate: DensityEstimate) -> np.ndarray:
    # One image on the line.  On the circle, enough periodic images that the
    # neglected tails are < 1e-12 even for very wide kernels.
    if estimate.topology is Topology.LINE:
        return np.zeros(1)
    periods = max(1, int(math.ceil(8.0 * estimate.bandwidth / 360.0)))
    return 360.0 * np.arange(-periods, periods + 1, dtype=float)


def fit(
    samples: Iterable[float],
    bandwidth: float,
    topology: Topology | str = Topology.LINE,
) -> DensityEstimate:
    """Fit a Gaussian-kernel density with the given bandwidth.

    Circle-topology samples are wrapped into [0, 360) on entry, which
    makes a -0.0 +0.0.  Line samples are copied unless they arrive as a
    read-only float64 array (an ``EncounterBuffers`` column, say), which
    the estimate keeps as it is.

    Raises:
        TooFewSamples: fewer than two samples.
        ValueError: a bandwidth that is not positive and finite, or a
            ``topology`` that ``Topology`` rejects.
    """
    arr = _as_samples(samples, 2)
    if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    topology = Topology(topology)
    if topology is Topology.CIRCLE360:
        arr = wrap_degrees(arr)
    elif arr.flags.writeable:
        arr = arr.copy()
    arr.setflags(write=False)
    return DensityEstimate(arr, float(bandwidth), topology)


# A point so far out that z * z overflows gets an arg of -inf and a 0.0 term.
@np.errstate(over="ignore")
def evaluate(estimate: DensityEstimate, x: float | np.ndarray) -> float | np.ndarray:
    """Density value(s) at ``x``; the circle variant sums periodic images.

    Kernel terms whose exponent lies below -746 are exactly 0.0 in float64,
    so they are written as zeros instead of computed; every row is still
    summed over all samples in the same order, which makes the skip exact
    (bit-identical to evaluating every term).  A periodic image whose every
    term is such a zero for a block of points adds 0.0 to each row, so it is
    skipped whole.  A finite point on the circle is wrapped as ``fit`` wraps
    the samples; an infinite point, or one on the line whose squared
    distance overflows, has density 0.0.

    Raises:
        ValueError: a NaN point.
    """
    points = np.atleast_1d(np.asarray(x, dtype=float))
    if np.isnan(points).any():
        raise ValueError("evaluation points must not be NaN")
    if estimate.topology is Topology.CIRCLE360:
        with np.errstate(invalid="ignore"):  # inf % 360 is NaN; an infinite point stays
            points = np.where(np.isinf(points), points, wrap_degrees(points))
    data = estimate.samples
    h = estimate.bandwidth
    shifts = _image_shifts(estimate).tolist()

    out = np.zeros(points.shape[0])
    x_min = float(data.min())
    x_max = float(data.max())
    rows = max(1, _EVAL_BLOCK // max(1, data.size))
    for start in range(0, points.shape[0], rows):
        block = points[start : start + rows]
        p_min = float(block.min())
        p_max = float(block.max())
        diff = block[:, None] - data[None, :]
        z = np.empty_like(diff)
        arg = np.empty_like(diff)
        acc = np.zeros(diff.shape[0])
        for shift in shifts:
            if _image_is_zero(p_min, p_max, x_min, x_max, shift, h):
                continue  # adding its all-zero row sums leaves acc unchanged
            # arg = -0.5 * z * z with z = (diff + shift) / h, op for op.
            np.add(diff, shift, out=z)
            z /= h
            np.multiply(z, -0.5, out=arg)
            arg *= z
            # z now holds the kernel terms; the skipped ones stay 0.0.
            z.fill(0.0)
            np.exp(arg, out=z, where=arg > _EXP_ZERO_BELOW)
            acc += z.sum(axis=1)
        out[start : start + diff.shape[0]] = acc / (data.size * h * _SQRT_2PI)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out


def _image_is_zero(
    p_min: float, p_max: float, x_min: float, x_max: float, shift: float, h: float
) -> bool:
    # Whether exp(-0.5 z z) with z = (p - x + shift) / h is 0.0 for every
    # point p and sample x of a block.  Each rounding step is monotone, so
    # every z lies in [z_lo, z_hi] and the exponent is largest at the z
    # nearest 0; computed op for op like evaluate's, it bounds them all.
    # Python floats, so an overflow here is inf without a numpy warning.
    z_lo = (p_min - x_max + shift) / h
    z_hi = (p_max - x_min + shift) / h
    if z_lo <= 0.0 <= z_hi:
        return False
    z = z_lo if z_lo > 0.0 else z_hi
    return z * -0.5 * z <= _EXP_ZERO_BELOW


def _edge_cdf(
    edge: float,
    data: np.ndarray,
    x_min: float,
    x_max: float,
    shift: float,
    h: float,
    out: np.ndarray,
    z: np.ndarray,
) -> float | np.ndarray:
    # ndtr((edge - data + shift) / h) per kernel, written into ``out``, with
    # ``z`` as scratch for the standardised distances.  z falls as the sample
    # grows (each rounding step is monotone), so the extremes bound every z:
    # when all kernels are saturated the CDF is the scalar 1.0 or 0.0.
    if (edge - x_max + shift) / h >= _NDTR_ONE_AT:
        return 1.0
    if (edge - x_min + shift) / h <= _NDTR_ZERO_AT:
        return 0.0
    np.subtract(edge, data, out=z)
    z += shift
    z /= h
    np.greater_equal(z, _NDTR_ONE_AT, out=out)
    # ndtr is elementwise, so chunks of the live kernels keep every bit; they
    # bound the index, gather and result arrays.  Index arrays beat boolean
    # indexing here, and ndtr(..., where=) is no option: with scipy 1.17.1 it
    # corrupts the heap on long masks.
    for start in range(0, z.size, _NDTR_CHUNK):
        z_part = z[start : start + _NDTR_CHUNK]
        live = np.flatnonzero((z_part > _NDTR_ZERO_AT) & (z_part < _NDTR_ONE_AT))
        if live.size:
            out[start : start + _NDTR_CHUNK][live] = ndtr(z_part[live])
    return out


def band_masses(estimate: DensityEstimate, edges: Sequence[float]) -> list[float]:
    """Unclipped probability mass between each pair of consecutive ascending
    ``edges`` (none for fewer than two), in closed form per kernel.  Each
    edge's CDF is computed once per periodic image for both bands it bounds.

    Only kernels inside the ndtr window (-37.69, 8.31) of an edge are
    evaluated; the others get the exact 1.0 or 0.0 that ndtr returns there,
    and when every kernel is saturated the CDF is that scalar.  Each band is
    still the mean over all samples in sample order, so the masses are
    bit-identical to evaluating ndtr on every kernel.  Infinite edges are
    valid on the line; on the circle every edge lies in [0, 360], as one
    beyond it would count periodic images' mass.

    The work runs in three n-buffers held for the call: each edge's CDF
    goes into one of two that take turns as a band's lower and upper edge,
    and one scratch takes the standardised distances and then each band's
    difference, whose mean reads that one contiguous array, so its pairwise
    sum is that of ``np.mean(upper - lower)``.

    Raises:
        ValueError: a NaN edge, edges that descend, or an edge on the
            circle outside [0, 360] (an infinite one included).
    """
    edges = [float(edge) for edge in edges]
    if estimate.topology is Topology.CIRCLE360:
        for edge in edges:
            if edge < 0.0 or edge > 360.0:  # false for NaN, named below
                raise ValueError(f"a band edge on the circle must lie in [0, 360], got {edge}")
    if any(math.isnan(edge) for edge in edges) or any(
        b < a for a, b in zip(edges, edges[1:])
    ):
        raise ValueError(f"band edges must be ascending and not NaN, got {edges}")
    if len(edges) < 2:
        return []
    data = estimate.samples
    h = estimate.bandwidth
    x_min = float(data.min())
    x_max = float(data.max())
    scratch = np.empty(data.size)
    cdfs = [np.empty(data.size), np.empty(data.size)]
    masses = [0.0] * (len(edges) - 1)
    for shift in _image_shifts(estimate):
        lower = _edge_cdf(edges[0], data, x_min, x_max, shift, h, cdfs[0], scratch)
        for band, edge in enumerate(edges[1:]):
            out = cdfs[1] if lower is cdfs[0] else cdfs[0]
            upper = _edge_cdf(edge, data, x_min, x_max, shift, h, out, scratch)
            if isinstance(upper, float) and isinstance(lower, float):
                diff = upper - lower
            else:
                diff = np.subtract(upper, lower, out=scratch)
            masses[band] += float(np.mean(diff))
            lower = upper
    return masses


def integrate(estimate: DensityEstimate, lo: float, hi: float) -> float:
    """Probability mass on [lo, hi], in closed form per kernel.

    On the circle, ``lo > hi`` denotes the arc that crosses 0/360 (for
    example (355, 5) is the 10-degree arc around north).  Bounds follow
    ``band_masses``' edge rules: not NaN, and on the circle in [0, 360].

    Raises:
        ValueError: line topology with lo > hi, or a bound ``band_masses``
            rejects: NaN, or on the circle outside [0, 360].
    """
    if lo > hi:
        if estimate.topology is Topology.LINE:
            raise ValueError(f"lo must be <= hi on the line, got ({lo}, {hi})")
        head, _, tail = band_masses(estimate, (0.0, hi, lo, 360.0))
        mass = tail + head
    else:
        (mass,) = band_masses(estimate, (lo, hi))
    return float(np.clip(mass, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Bandwidth selectors.
# ---------------------------------------------------------------------------


def bandwidth_silverman(
    samples: Iterable[float], topology: Topology | str = Topology.LINE
) -> float:
    """Silverman's rule of thumb, robust form: 0.9 min(sd, IQR/1.34) n^(-1/5).

    Angular samples are recentred on their circular mean first, as for
    ``bandwidth_isj``, so a cluster at the 0/360 cut keeps its own spread.

    Raises:
        ZeroDispersion: the samples have no spread.
        FloatingPointError: the bandwidth is not finite, as when samples
            about 1e154 apart overflow the variance and the IQR is 0.
    """
    arr = _line_view(_as_samples(samples, 2), topology)
    return _silverman(arr, np.sort(arr))


def _silverman(arr: np.ndarray, ordered: np.ndarray) -> float:
    # Silverman's rule on arr; ``ordered`` is arr sorted and gives the
    # quartiles.  The standard deviation's pairwise sum depends on the
    # order, so it reads arr.
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        sd = float(np.std(arr, ddof=1))
    iqr = _sorted_quantile(ordered, 0.75) - _sorted_quantile(ordered, 0.25)
    scale = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    if scale <= 0.0:
        raise ZeroDispersion("samples have no dispersion")
    bandwidth = 0.9 * scale * arr.size ** (-0.2)
    if not math.isfinite(bandwidth):
        raise FloatingPointError(f"Silverman bandwidth is not finite: {bandwidth}")
    return bandwidth


def _sorted_quantile(ordered: np.ndarray, q: float) -> float:
    # np.percentile(ordered, 100 * q) for q in {0.25, 0.75}, read from the
    # sorted values op for op as numpy's linear method computes it: the
    # virtual index (n - 1) * q, the order statistics a and b on either side
    # of it, and numpy's _lerp, which forms b - (b - a) * (1 - gamma) from
    # gamma = 0.5 on and a + (b - a) * gamma below it.  For n >= 2 the index
    # lies below n - 1, so b exists.  Python floats round as float64 does
    # and an overflow gives inf or NaN without a warning, as under errstate.
    # A zero result may differ from np.percentile's in sign only: numpy
    # partitions its own copy, which can swap a -0.0 and a +0.0.  Silverman's
    # rule reads the quartiles' difference only where it is > 0.
    index = (ordered.size - 1) * q
    below = math.floor(index)
    gamma = index - below
    a, b = float(ordered[below]), float(ordered[below + 1])
    diff = b - a
    return b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma


# The ISJ grid has 2**14 bins, so its DCT has 2**14 - 1 terms past the mean.
# Their index powers do not depend on the data and are built once per
# process: i^2, the exp exponents -i^2 pi^2 per unit t, and i^(2s) for the
# ladder stages s = 2..7.
_ISJ_BINS = 2**14
_I_SQ = np.arange(1, _ISJ_BINS, dtype=float) ** 2
_DECAY = -_I_SQ * math.pi**2
_I_POW = {s: _I_SQ**s for s in range(2, 8)}
for _table in (_I_SQ, _DECAY, *_I_POW.values()):
    _table.setflags(write=False)
del _table

# np.add.reduce sums float64 pairwise: a block of m > 128 terms is split at
# m//2 - (m//2) % 8 and a block of at most 128 is summed with eight
# accumulators.  The sum of the 2**14 - 1 stage terms is thus built from
# nested blocks that start at term 0 and end at these lengths.  When every
# term from index n_live on is +0.0, each block to the right of the first
# length L >= n_live adds +0.0, so summing terms[:L] gives the full-length
# sum bit for bit.  ``tests/test_density.py`` pins the list to NumPy's split.
_PAIRWISE_PREFIXES = (120, 248, 504, 1016, 2040, 4088, 8184, 16383)


class _StageTables(NamedTuple):
    """Per-call constants of the ISJ stage sums over the DCT terms."""

    weights: dict[int, np.ndarray]  # s -> i^(2s) a_i^2, for s = 2..7
    terms: np.ndarray  # scratch buffer for one stage sum


def _stage_tables(a_sq: np.ndarray) -> _StageTables:
    return _StageTables({s: _I_POW[s] * a_sq for s in _I_POW}, np.empty(_I_SQ.size))


def _derivative_norm(s: int, t: float, tables: _StageTables) -> float:
    # 2 pi^(2s) sum_i i^(2s) a_i^2 exp(-i^2 pi^2 t).  The exp factors fall
    # with i, and every term with i^2 pi^2 t above -_EXP_ZERO_BELOW is
    # exactly 0.0, so only the n_live terms before that cut are computed.
    # The rest of the first pairwise prefix that holds them is zeroed and
    # only that prefix is summed, which is bit-identical to summing every
    # term (see _PAIRWISE_PREFIXES).
    weights, terms = tables
    n_live = _I_SQ.size
    if t > 0.0 and math.isfinite(t):
        # i^2 <= cut exactly when i <= isqrt(floor(cut)), as i^2 is an
        # integer below 2**53; a cut past the last term keeps them all.
        cut = -_EXP_ZERO_BELOW / (math.pi**2 * t)
        n_live = math.isqrt(int(min(cut, n_live * n_live)))
    stop = _PAIRWISE_PREFIXES[bisect.bisect_left(_PAIRWISE_PREFIXES, n_live)]
    live = terms[:n_live]
    np.multiply(_DECAY[:n_live], t, out=live)
    np.exp(live, out=live)
    live *= weights[s][:n_live]
    terms[n_live:stop] = 0.0
    return 2.0 * math.pi ** (2 * s) * float(np.add.reduce(terms[:stop]))


def _ladder_stage(s: int) -> tuple[int, float, float]:
    # Stage s of the plug-in ladder: s, the numerator constant 2 * const * k0
    # of its bandwidth and that bandwidth's exponent.
    odd_prod = float(np.prod(np.arange(1, 2 * s, 2, dtype=float)))
    k0 = odd_prod / math.sqrt(2.0 * math.pi)
    const = (1.0 + 0.5 ** (s + 0.5)) / 3.0
    return s, 2.0 * const * k0, 2.0 / (3.0 + 2.0 * s)


# Plug-in functional ladder with ell = 7 stages: the first sum is at stage 7
# and each later stage s = 6..2 estimates the squared norm of the next
# density derivative from the DCT coefficients.
_LADDER_TOP = 7
_LADDER = tuple(_ladder_stage(s) for s in range(_LADDER_TOP - 1, 1, -1))


def _fixed_point(t: float, n_points: int, tables: _StageTables) -> float:
    f = _derivative_norm(_LADDER_TOP, t, tables)
    for s, numerator, exponent in _LADDER:
        if not (f > 0.0 and math.isfinite(f)):
            raise FixedPointFailure("derivative-norm estimate collapsed")
        stage_t = (numerator / (n_points * f)) ** exponent
        f = _derivative_norm(s, stage_t, tables)
    if not (f > 0.0 and math.isfinite(f)):
        raise FixedPointFailure("derivative-norm estimate collapsed")
    return t - (2.0 * n_points * math.sqrt(math.pi) * f) ** (-0.4)


# scipy's brentq defaults.  Importing scipy's optimize subpackage for this
# one solver would cost about 22 MB of resident memory and 0.2 s per process.
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brentq(
    f: Callable[..., float], a: float, b: float, args: tuple, xtol: float
) -> float | None:
    """Root of ``f`` in [a, b] by Brent's method (Brent 1973, ch. 4), or
    None where f(a) and f(b) have one sign.

    scipy's C solver (``Zeros/brentq.c``) transcribed step for step in
    Python floats, so it evaluates ``f`` at the same points and returns the
    same bits as scipy's ``brentq(f, a, b, args, xtol)``.  Where C divides
    by zero it gets +-inf or NaN, which fails the step test; here the
    ZeroDivisionError leaves the step at inf, which fails it too.  scipy
    raises ValueError on a NaN f value; ``_fixed_point`` raises
    FixedPointFailure instead of returning one, so there is no NaN check.

    Raises:
        RuntimeError: no convergence in 100 iterations, as scipy raises it.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre, *args)
    fcur = f(xcur, *args)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        return None
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # fails the step test, as C's inf and NaN do
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        # C's MIN(x, y) is (x < y ? x : y), which min() is not on NaN.
        limit = 3.0 * abs(sbis) - delta
        if abs(spre) < limit:
            limit = abs(spre)
        if 2.0 * abs(stry) < limit:  # a good short step
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur, *args)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def bandwidth_isj(samples: Iterable[float], topology: Topology | str = Topology.LINE) -> float:
    """Plug-in bandwidth from the DCT fixed point (Improved Sheather-Jones).

    The samples are binned on a 2^14 grid padded by three pilot bandwidths,
    the binned frequencies are cosine-transformed, and the squared relative
    bandwidth solves t = xi * gamma^[7](t) by Brent's method, as scipy's C
    solver computes it, on [0, 0.01] doubled up to [0, 0.64] until it
    holds a positive root.
    Angular samples are recentred on their circular mean first so a cluster
    at the 0/360 cut is seen as unimodal.  The index powers i^(2s) are
    built once per process and multiplied by a_i^2 once per call.  Each
    stage sum computes only the DCT terms whose exp factor is not exactly
    0.0 and sums them over the shortest prefix of NumPy's pairwise blocks
    that holds them, zero-padded; both steps are exact, so the bandwidth
    is bit-identical to the one from the full-length sums.

    The samples are sorted once.  The pilot's quartiles (order statistics,
    read as ``np.percentile`` computes them), the distinct count and the
    bin counts are read from that copy.  Bin i holds the values in
    [edge[i], edge[i+1]), the last bin closed, which is where
    ``np.histogram``'s +-1 index correction puts them on the same
    ``linspace`` edges.  The pilot's standard deviation reads the unsorted
    samples: its pairwise sum depends on their order.

    Raises:
        TooFewSamples: fewer than 50 samples (the selector is data-hungry).
        ZeroDispersion: all samples identical.
        FixedPointFailure: no root bracketed, or a sample range too narrow
            for the 2**14-bin grid at its magnitude; fall back to Silverman.
    """
    arr = _line_view(_as_samples(samples, 50), topology)
    ordered = np.sort(arr)
    pilot = _silverman(arr, ordered)
    n_points = arr.size
    n_unique = _distinct_count(ordered)
    # Each array is released once read, so the Brent solve below holds
    # only the stage tables.
    del arr

    n_bins = _ISJ_BINS
    lo = float(ordered[0]) - 3.0 * pilot
    hi = float(ordered[-1]) + 3.0 * pilot
    span = hi - lo
    # A spread narrow against its magnitude leaves fewer representable
    # values than grid edges; the plug-in rule has no grid to run on.
    edges = np.linspace(lo, hi, n_bins + 1)
    if not np.all(edges[1:] > edges[:-1]):
        raise FixedPointFailure(f"range {span!r} too narrow for {n_bins} bins at {hi!r}")
    rel_freq = _bin_counts(ordered, edges) / n_points
    del ordered, edges

    # a_i^2 = (c_i / 2)^2 in the DCT's own buffer: the same two operations,
    # in place.
    a_sq = dct(rel_freq, type=2)[1:]
    del rel_freq
    a_sq /= 2.0
    np.square(a_sq, out=a_sq)
    tables = _stage_tables(a_sq)
    del a_sq

    t_star = None
    bracket_hi = 0.01
    while bracket_hi <= 1.0:
        candidate = _brentq(_fixed_point, 0.0, bracket_hi, (n_unique, tables), 1e-12)
        if candidate is not None and candidate > 0.0:
            t_star = candidate
            break
        bracket_hi *= 2.0
    if t_star is None:
        raise FixedPointFailure("no positive root bracketed on (0, 1]")
    return math.sqrt(t_star) * span


def _distinct_count(ordered: np.ndarray) -> int:
    # Sorted values differ from their predecessor exactly where a new value
    # starts; -0.0 and +0.0 count as one value, as in np.unique.
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def _bin_counts(ordered: np.ndarray, edges: np.ndarray) -> np.ndarray:
    # Counts of the sorted values in [edge[i], edge[i+1]), the last bin
    # closed on the right; every value lies in [edge[0], edge[-1]].
    starts = np.searchsorted(ordered, edges, "left")
    starts[-1] = ordered.size
    return np.diff(starts)


def bandwidth_grid_cv(
    samples: Iterable[float],
    lo: float,
    hi: float,
    step: float,
    folds: int = 5,
    topology: Topology | str = Topology.LINE,
) -> float:
    """Grid-search bandwidth maximising k-fold held-out log-likelihood.

    Exact (no binning): cost grows with len(grid) * n^2 / folds, so keep the
    sample count moderate.  Ties break toward the smaller bandwidth, and the
    fold assignment is a fixed permutation from seed 0.  Angular samples
    are recentred on their circular mean first, as for ``bandwidth_isj``.

    Each float32 exponent is clamped at -87 before the exp, so no kernel
    term is subnormal (exp(-87) = 1.65e-38 is normal); subnormal results
    made each exp call several times slower.  Every row is shifted by its
    own minimum distance, so it holds a unit term and its float64 sum is at
    least 1; each clamped term adds at most 1.65e-38 (3e-35 over the 1600
    training samples of analyze's capped buffers), far below half an ulp of
    1 (1.1e-16), so the row sums and scores are those of the unclamped exp.

    The scores do not depend on the block size of the distance matrices
    (see ``_grid_cv_scores``).

    Raises:
        ValueError: a non-finite lo, hi or step, a non-positive lo or step,
            a lo so small that the float32 exponent -0.5/lo**2 overflows,
            fewer than 2 folds, or no candidate in [lo, hi].
        FloatingPointError: a score is not finite, as when two samples lie
            more than about 1.3e154 apart and their squared distance
            overflows.
    """
    for name, value in (("lower bound", lo), ("upper bound", hi), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"grid {name} must be finite, got {value}")
    if not lo > 0.0:
        raise ValueError(f"grid lower bound must be > 0, got {lo}")
    # Below lo ~ 3.8e-20 the exponent overflows to -inf; each row's unit
    # term becomes 0 * -inf = NaN, and so does every score.
    with np.errstate(over="ignore", divide="ignore"):
        if not np.isfinite(np.float32(np.float64(-0.5) / (lo * lo))):
            raise ValueError(f"grid lower bound {lo} too small for a float32 kernel exponent")
    if not step > 0.0:
        raise ValueError(f"grid step must be > 0, got {step}")
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    grid = np.arange(lo, hi + 0.5 * step, step)
    if grid.size == 0:
        raise ValueError(f"no candidates in [{lo}, {hi}] with step {step}")
    arr = _line_view(_as_samples(samples, folds), topology)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        scores = _grid_cv_scores(arr, grid, folds)
    if not np.isfinite(scores).all():
        raise FloatingPointError(
            f"grid cross-validation scores are not finite "
            f"({np.count_nonzero(~np.isfinite(scores))} of {scores.size})"
        )
    return float(grid[int(np.argmax(scores))])


def _grid_cv_scores(arr: np.ndarray, grid: np.ndarray, folds: int) -> np.ndarray:
    """Mean held-out log-likelihood of each grid bandwidth over the folds.

    The test rows of a fold go through in float32 blocks of at most
    _CHUNK_BUDGET distances (at least one row).  A block's squared
    distances are formed in float64 row groups of at most _DIST_CHUNK
    elements (at least one row), shifted by each row's minimum and rounded
    into the block as ``astype`` rounds.  The buffers are allocated once
    per call, sized for the largest fold, and every fold and block takes
    views of them: the float32 block and its kernel terms, the float64 row
    group, the row minima, the (grid.size, test.size) log-likelihood rows
    and the fold mask.  At analyze's capped size (2000 samples, 30
    candidates, 5 folds) the call peaks at about 1.2 MB.  Each row's terms
    take the same operations whatever the block and group, and each grid
    row is summed once per fold, so neither a row's sum nor the fold sum
    depends on either size.
    """
    order = np.random.default_rng(0).permutation(arr.size)
    fold_chunks = np.array_split(order, folds)
    scores = np.zeros(grid.size)
    log_norms = np.log(grid * _SQRT_2PI)
    # array_split puts the larger folds first: fold 0 has the most test
    # rows and the last fold leaves the most training samples.
    max_test = fold_chunks[0].size
    max_train = arr.size - fold_chunks[-1].size
    rows = min(max_test, max(1, _CHUNK_BUDGET // max_train))
    group = min(rows, max(1, _DIST_CHUNK // max_train))
    block_buf = np.empty(rows * max_train, dtype=np.float32)
    z_buf = np.empty_like(block_buf)
    dist_buf = np.empty(group * max_train)
    row_min_buf = np.empty(rows)
    ll_buf = np.empty(grid.size * max_test)
    mask = np.empty(arr.size, dtype=bool)
    for test_idx in fold_chunks:
        mask.fill(True)
        mask[test_idx] = False
        train = arr[mask]
        test = arr[test_idx]
        ll = ll_buf[: grid.size * test.size].reshape(grid.size, test.size)
        for start in range(0, test.size, rows):
            stop = min(start + rows, test.size)
            n_rows = stop - start
            shifted = block_buf[: n_rows * train.size].reshape(n_rows, train.size)
            z = z_buf[: shifted.size].reshape(shifted.shape)
            row_min = row_min_buf[:n_rows]
            for r0 in range(0, n_rows, group):
                r1 = min(r0 + group, n_rows)
                d_sq = dist_buf[: (r1 - r0) * train.size].reshape(r1 - r0, train.size)
                np.subtract(test[start + r0:start + r1, None], train[None, :], out=d_sq)
                np.square(d_sq, out=d_sq)
                # Shift by the per-row minimum distance: the exponent stays
                # in (-inf, 0] with at least one unit term per row, so the
                # plain log-sum is as stable as logsumexp at a fraction of
                # the cost and single precision suffices for the kernel sums.
                np.min(d_sq, axis=1, out=row_min[r0:r1])
                d_sq -= row_min[r0:r1, None]
                np.copyto(shifted[r0:r1], d_sq)
            for gi, h in enumerate(grid):
                inv = -0.5 / (h * h)
                with np.errstate(over="ignore"):  # -inf is clamped next
                    np.multiply(shifted, np.float32(inv), out=z)
                # No subnormal exp results; the docstring shows the sums keep.
                np.maximum(z, np.float32(-87.0), out=z)
                np.exp(z, out=z)
                ll[gi, start:stop] = np.log(z.sum(axis=1, dtype=np.float64)) + row_min * inv
        scores += ll.sum(axis=1) / test.size - math.log(train.size) - log_norms
    return scores / folds


def select_bandwidth(
    samples: Iterable[float],
    topology: Topology | str = Topology.LINE,
) -> float:
    """The plug-in (ISJ) bandwidth, or Silverman's rule where it is unavailable.

    This is the one fallback rule: too few samples for the plug-in selector
    or an unbracketed fixed point both fall back, with a RuntimeWarning.
    """
    try:
        return bandwidth_isj(samples, topology)
    except (FixedPointFailure, TooFewSamples) as exc:
        warnings.warn(
            f"plug-in bandwidth unavailable ({exc}); "
            "falling back to Silverman's rule",
            RuntimeWarning,
            stacklevel=2,
        )
        return bandwidth_silverman(samples, topology)


# ---------------------------------------------------------------------------
# Normality diagnostic.
# ---------------------------------------------------------------------------


def ks_normality(samples: Iterable[float]) -> tuple[float, float]:
    """One-sample KS statistic against a moment-matched normal.

    Returns (statistic, p_value) with the p-value from the asymptotic
    Kolmogorov distribution.  Because the reference normal reuses the
    sample's own moments, the p-value is conservative, which is fine for
    the reject-at-tiny-p use this diagnostic serves.

    Raises:
        ZeroDispersion: the samples have no spread.
        FloatingPointError: the standard deviation is not finite, as when
            samples about 1e154 apart overflow the variance.
    """
    arr = _as_samples(samples, 8)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        sd = float(np.std(arr, ddof=1))
    if sd <= 0.0:
        raise ZeroDispersion("samples have no dispersion")
    if not math.isfinite(sd):
        raise FloatingPointError(f"standard deviation is not finite: {sd}")
    z = np.sort((arr - float(np.mean(arr))) / sd)
    cdf = ndtr(z)
    n = arr.size
    steps = np.arange(1, n + 1) / n
    d_plus = float(np.max(steps - cdf))
    d_minus = float(np.max(cdf - (steps - 1.0 / n)))
    statistic = max(d_plus, d_minus)
    p_value = float(kolmogorov(math.sqrt(n) * statistic))
    return statistic, p_value

