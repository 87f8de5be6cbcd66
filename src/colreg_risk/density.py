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
log-likelihood.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.fft import dct
from scipy.optimize import brentq
from scipy.special import kolmogorov, ndtr

from .kinematics import wrap_degrees
from .sampling import TooFewSamples

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Chunk size cap (elements) for the dense cross-validation matrices.
_CHUNK_BUDGET = 4_000_000
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
    topology: Topology = Topology.LINE,
) -> DensityEstimate:
    """Fit a Gaussian-kernel density with the given bandwidth.

    Circle-topology samples are wrapped into [0, 360) on entry.

    Raises:
        TooFewSamples: fewer than two samples.
        ValueError: a bandwidth that is not positive and finite.
    """
    arr = _as_samples(samples, 2)
    if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    if topology is Topology.CIRCLE360:
        arr = wrap_degrees(arr)
    arr = arr.copy()
    arr.setflags(write=False)
    return DensityEstimate(arr, float(bandwidth), topology)


def evaluate(estimate: DensityEstimate, x: float | np.ndarray) -> float | np.ndarray:
    """Density value(s) at ``x``; the circle variant sums periodic images.

    Kernel terms whose exponent lies below -746 are exactly 0.0 in float64,
    so they are written as zeros instead of computed; every row is still
    summed over all samples in the same order, which makes the skip exact
    (bit-identical to evaluating every term).  Infinite points have
    density 0.0.

    Raises:
        ValueError: a NaN point.
    """
    points = np.atleast_1d(np.asarray(x, dtype=float))
    if np.isnan(points).any():
        raise ValueError("evaluation points must not be NaN")
    data = estimate.samples
    h = estimate.bandwidth
    shifts = _image_shifts(estimate)

    out = np.zeros(points.shape[0])
    rows = max(1, _EVAL_BLOCK // max(1, data.size))
    for start in range(0, points.shape[0], rows):
        diff = points[start : start + rows, None] - data[None, :]
        z = np.empty_like(diff)
        arg = np.empty_like(diff)
        acc = np.zeros(diff.shape[0])
        for shift in shifts:
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


def _edge_cdf(
    edge: float, data: np.ndarray, x_min: float, x_max: float, shift: float, h: float
) -> float | np.ndarray:
    # ndtr((edge - data + shift) / h) per kernel.  z falls as the sample
    # grows (each rounding step is monotone), so the extremes bound every z:
    # when all kernels are saturated the CDF is the scalar 1.0 or 0.0.
    if (edge - x_max + shift) / h >= _NDTR_ONE_AT:
        return 1.0
    if (edge - x_min + shift) / h <= _NDTR_ZERO_AT:
        return 0.0
    z = edge - data
    z += shift
    z /= h
    # Index arrays beat boolean indexing here, and ndtr(..., where=) is no
    # option: with scipy 1.17.1 it corrupts the heap on long masks.
    live = np.flatnonzero((z > _NDTR_ZERO_AT) & (z < _NDTR_ONE_AT))
    cdf = (z >= _NDTR_ONE_AT).astype(float)
    cdf[live] = ndtr(z[live])
    return cdf


def band_masses(estimate: DensityEstimate, edges: Sequence[float]) -> list[float]:
    """Unclipped probability mass between each pair of consecutive ascending
    ``edges``, in closed form per kernel.  Each edge's CDF is computed once per
    periodic image and bounds the band below and the band above it.

    Only kernels inside the ndtr window (-37.69, 8.31) of an edge are
    evaluated; the others get the exact 1.0 or 0.0 that ndtr returns there,
    and when every kernel is saturated the CDF is that scalar.  Each band is
    still the mean over all samples in sample order, so the masses are
    bit-identical to evaluating ndtr on every kernel.  Infinite edges are
    valid.

    Raises:
        ValueError: a NaN edge, or edges that descend.
    """
    edges = [float(edge) for edge in edges]
    if any(math.isnan(edge) for edge in edges) or any(
        b < a for a, b in zip(edges, edges[1:])
    ):
        raise ValueError(f"band edges must be ascending and not NaN, got {edges}")
    data = estimate.samples
    h = estimate.bandwidth
    x_min = float(data.min())
    x_max = float(data.max())
    masses = [0.0] * (len(edges) - 1)
    for shift in _image_shifts(estimate):
        lower = _edge_cdf(edges[0], data, x_min, x_max, shift, h)
        for band, edge in enumerate(edges[1:]):
            upper = _edge_cdf(edge, data, x_min, x_max, shift, h)
            masses[band] += float(np.mean(upper - lower))
            lower = upper
    return masses


def integrate(estimate: DensityEstimate, lo: float, hi: float) -> float:
    """Probability mass on [lo, hi], in closed form per kernel.

    On the circle, ``lo > hi`` denotes the arc that crosses 0/360 (for
    example (355, 5) is the 10-degree arc around north).

    Raises:
        ValueError: line topology with lo > hi, or a NaN bound.
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


def bandwidth_silverman(samples: Iterable[float]) -> float:
    """Silverman's rule of thumb, robust form: 0.9 min(sd, IQR/1.34) n^(-1/5).

    Raises:
        ZeroDispersion: the samples have no spread.
        FloatingPointError: the bandwidth is not finite, as when samples
            about 1e154 apart overflow the variance and the IQR is 0.
    """
    arr = _as_samples(samples, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        sd = float(np.std(arr, ddof=1))
        q75, q25 = np.percentile(arr, [75.0, 25.0])
        iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    if scale <= 0.0:
        raise ZeroDispersion("samples have no dispersion")
    bandwidth = 0.9 * scale * arr.size ** (-0.2)
    if not math.isfinite(bandwidth):
        raise FloatingPointError(f"Silverman bandwidth is not finite: {bandwidth}")
    return bandwidth


class _StageTables(NamedTuple):
    """Per-call constants of the ISJ stage sums over the DCT terms."""

    i_sq: np.ndarray  # i^2, ascending
    decay: np.ndarray  # -i^2 pi^2
    weights: dict[int, np.ndarray]  # s -> i^(2s) a_i^2, for s = 2..7
    terms: np.ndarray  # scratch buffer for one stage sum


def _stage_tables(i_sq: np.ndarray, a_sq: np.ndarray) -> _StageTables:
    return _StageTables(
        i_sq,
        -i_sq * math.pi**2,
        {s: i_sq**s * a_sq for s in range(2, 8)},
        np.empty(i_sq.size),
    )


def _derivative_norm(s: int, t: float, tables: _StageTables) -> float:
    # 2 pi^(2s) sum_i i^(2s) a_i^2 exp(-i^2 pi^2 t).  The exp factors fall
    # with i (i_sq ascends), and every term with i^2 pi^2 t above
    # -_EXP_ZERO_BELOW is exactly 0.0, so only the prefix before that cut
    # is computed.  It is written into a full-length buffer whose tail is
    # zeroed, which keeps np.sum's pairwise order and makes the result
    # bit-identical to summing every term.
    i_sq, decay, weights, terms = tables
    n_live = i_sq.size
    if t > 0.0 and math.isfinite(t):
        cut = -_EXP_ZERO_BELOW / (math.pi**2 * t)
        n_live = int(np.searchsorted(i_sq, cut, side="right"))
    live = terms[:n_live]
    np.multiply(decay[:n_live], t, out=live)
    np.exp(live, out=live)
    live *= weights[s][:n_live]
    terms[n_live:] = 0.0
    return 2.0 * math.pi ** (2 * s) * float(np.sum(terms))


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


def _circular_recenter(arr: np.ndarray) -> np.ndarray:
    # Rotate angular samples so their circular mean sits at 180 deg; the
    # rotation leaves kernel geometry (and hence the bandwidth) unchanged.
    rad = np.radians(arr)
    mean = math.degrees(math.atan2(float(np.mean(np.sin(rad))), float(np.mean(np.cos(rad)))))
    shifted = (arr - mean + 180.0) % 360.0
    return shifted


def bandwidth_isj(samples: Iterable[float], topology: Topology = Topology.LINE) -> float:
    """Plug-in bandwidth from the DCT fixed point (Improved Sheather-Jones).

    The samples are binned on a 2^14 grid padded by three pilot bandwidths,
    the binned frequencies are cosine-transformed, and the squared relative
    bandwidth solves t = xi * gamma^[7](t) by bracketed root finding.
    Angular samples are recentred on their circular mean first so a cluster
    at the 0/360 cut is seen as unimodal.  Each stage sum skips the DCT
    terms whose exp factor is exactly 0.0, and the powers i^(2s) a_i^2 are
    computed once per call; both are exact, so the bandwidth is
    bit-identical to the one from the full sums.

    Raises:
        TooFewSamples: fewer than 50 samples (the selector is data-hungry).
        ZeroDispersion: all samples identical.
        FixedPointFailure: no root bracketed, or a sample range too narrow
            for the 2**14-bin grid at its magnitude; fall back to Silverman.
    """
    arr = _as_samples(samples, 50)
    if topology is Topology.CIRCLE360:
        arr = _circular_recenter(arr % 360.0)
    pilot = bandwidth_silverman(arr)

    n_bins = 2**14
    lo = float(arr.min()) - 3.0 * pilot
    hi = float(arr.max()) + 3.0 * pilot
    span = hi - lo
    # A spread narrow against its magnitude leaves fewer representable
    # values than grid edges; the plug-in rule has no grid to run on.
    edges = np.linspace(lo, hi, n_bins + 1)
    if not np.all(edges[1:] > edges[:-1]):
        raise FixedPointFailure(f"range {span!r} too narrow for {n_bins} bins at {hi!r}")
    counts, _ = np.histogram(arr, bins=n_bins, range=(lo, hi))
    rel_freq = counts / arr.size

    coeffs = dct(rel_freq, type=2)
    a_sq = (coeffs[1:] / 2.0) ** 2
    tables = _stage_tables(np.arange(1, n_bins, dtype=float) ** 2, a_sq)
    n_unique = int(np.unique(arr).size)

    t_star = None
    bracket_hi = 0.01
    while bracket_hi <= 1.0:
        try:
            candidate = brentq(
                _fixed_point, 0.0, bracket_hi, args=(n_unique, tables), xtol=1e-12
            )
        except ValueError:
            bracket_hi *= 2.0
            continue
        if candidate > 0.0:
            t_star = candidate
            break
        bracket_hi *= 2.0
    if t_star is None:
        raise FixedPointFailure("no positive root bracketed on (0, 1]")
    return math.sqrt(t_star) * span


def bandwidth_grid_cv(
    samples: Iterable[float],
    lo: float,
    hi: float,
    step: float,
    folds: int = 5,
) -> float:
    """Grid-search bandwidth maximising k-fold held-out log-likelihood.

    Exact (no binning): cost grows with len(grid) * n^2 / folds, so keep the
    sample count moderate.  Ties break toward the smaller bandwidth, and the
    fold assignment is a fixed permutation from seed 0.

    Each float32 exponent is clamped at -87 before the exp, so no kernel
    term is subnormal (exp(-87) = 1.65e-38 is normal); subnormal results
    made each exp call several times slower.  Every row is shifted by its
    own minimum distance, so it holds a unit term and its float64 sum is at
    least 1; each clamped term adds at most 1.65e-38 (3e-35 over the 1600
    training samples of analyze's capped buffers), far below half an ulp of
    1 (1.1e-16), so the row sums and scores are those of the unclamped exp.

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
    arr = _as_samples(samples, folds)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        scores = _grid_cv_scores(arr, grid, folds)
    if not np.isfinite(scores).all():
        raise FloatingPointError(
            f"grid cross-validation scores are not finite "
            f"({np.count_nonzero(~np.isfinite(scores))} of {scores.size})"
        )
    return float(grid[int(np.argmax(scores))])


def _grid_cv_scores(arr: np.ndarray, grid: np.ndarray, folds: int) -> np.ndarray:
    """Mean held-out log-likelihood of each grid bandwidth over the folds."""
    order = np.random.default_rng(0).permutation(arr.size)
    fold_chunks = np.array_split(order, folds)
    scores = np.zeros(grid.size)
    log_norms = np.log(grid * _SQRT_2PI)
    for test_idx in fold_chunks:
        mask = np.ones(arr.size, dtype=bool)
        mask[test_idx] = False
        train = arr[mask]
        test = arr[test_idx]
        fold_scores = np.zeros(grid.size)
        chunk = max(1, _CHUNK_BUDGET // max(1, train.size))
        for start in range(0, test.size, chunk):
            d_sq = (test[start : start + chunk, None] - train[None, :]) ** 2
            # Shift by the per-row minimum distance: the exponent stays in
            # (-inf, 0] with at least one unit term per row, so the plain
            # log-sum is as stable as logsumexp at a fraction of the cost
            # and single precision suffices for the kernel sums.
            row_min = d_sq.min(axis=1, keepdims=True)
            d_sq -= row_min
            row_min = row_min[:, 0]
            shifted = d_sq.astype(np.float32)
            z = np.empty_like(shifted)
            for gi, h in enumerate(grid):
                inv = -0.5 / (h * h)
                with np.errstate(over="ignore"):  # -inf is clamped next
                    np.multiply(shifted, np.float32(inv), out=z)
                # No subnormal exp results; the docstring shows the sums keep.
                np.maximum(z, np.float32(-87.0), out=z)
                np.exp(z, out=z)
                ll = np.log(z.sum(axis=1, dtype=np.float64)) + row_min * inv
                fold_scores[gi] += float(np.sum(ll))
        scores += fold_scores / test.size - math.log(train.size) - log_norms
    return scores / folds


def select_bandwidth(
    samples: Iterable[float],
    topology: Topology = Topology.LINE,
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
        return bandwidth_silverman(samples)


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

