"""One-dimensional Gaussian-kernel density estimation over scalar samples.

Supports plain line-topology estimates and a wrapped variant for angular
data on [0, 360), where each kernel is summed over its periodic images so
no probability mass leaks across the 0/360 cut.  Interval probabilities are
computed in closed form from per-kernel Gaussian CDF differences, so they
are exact to erf precision with no quadrature error.

Bandwidth selection offers Silverman's rule of thumb, a plug-in selector
driven by a fixed-point equation on the DCT of the binned data (robust to
non-Gaussian shapes), and k-fold cross-validated grid search over held-out
log-likelihood.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable

import numpy as np
from scipy.fft import dct
from scipy.optimize import brentq
from scipy.special import kolmogorov, ndtr

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Chunk size cap (elements) for the dense cross-validation matrices.
_CHUNK_BUDGET = 4_000_000
# Block size (elements) of evaluate's buffers, small enough to stay in cache.
_EVAL_BLOCK = 32_768
# float64 exp(x) is exactly 0.0 for x below about -745.13; exp is slow to
# produce those zeros, so the kernels skip arguments under this bound.
_EXP_ZERO_BELOW = -746.0


class TooFewSamples(ValueError):
    """Raised when an operation needs more samples than were provided."""


class NonpositiveBandwidth(ValueError):
    """Raised when a bandwidth is not strictly positive."""


class ZeroDispersion(ValueError):
    """Raised when the samples carry no spread to estimate a bandwidth from."""


class FixedPointFailure(RuntimeError):
    """Raised when the plug-in bandwidth fixed point cannot be bracketed.

    Callers should fall back to Silverman's rule (``select_bandwidth``
    does this automatically, with a warning).
    """


class EmptyGrid(ValueError):
    """Raised when a bandwidth search grid contains no candidates."""


class Topology(Enum):
    LINE = "line"
    CIRCLE360 = "circle360"


@dataclass(frozen=True)
class DensityEstimate:
    """A fitted kernel density: retained samples, bandwidth, topology."""

    samples: np.ndarray
    bandwidth: float
    topology: Topology


@dataclass(frozen=True)
class BandwidthReport:
    """Bandwidths from the available selectors plus the one chosen."""

    h_silverman: float
    h_isj: float
    selected: float
    h_grid: float | None = None


def _as_samples(samples: Iterable[float], minimum: int) -> np.ndarray:
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size < minimum:
        raise TooFewSamples(f"need at least {minimum} samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return arr


def _image_shifts(bandwidth: float) -> np.ndarray:
    # Enough periodic images that the neglected tails are < 1e-12 even for
    # very wide kernels.
    periods = max(1, int(math.ceil(8.0 * bandwidth / 360.0)))
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
        NonpositiveBandwidth: bandwidth <= 0.
    """
    arr = _as_samples(samples, 2)
    if not bandwidth > 0.0:
        raise NonpositiveBandwidth(f"bandwidth must be > 0, got {bandwidth}")
    if topology is Topology.CIRCLE360:
        arr = arr % 360.0
        arr = np.where(arr >= 360.0, 0.0, arr)
    arr = arr.copy()
    arr.setflags(write=False)
    return DensityEstimate(arr, float(bandwidth), topology)


def evaluate(estimate: DensityEstimate, x: float | np.ndarray) -> float | np.ndarray:
    """Density value(s) at ``x``; the circle variant sums periodic images.

    Kernel terms whose exponent lies below -746 are exactly 0.0 in float64,
    so they are written as zeros instead of computed; every row is still
    summed over all samples in the same order, which makes the skip exact
    (bit-identical to evaluating every term).
    """
    points = np.atleast_1d(np.asarray(x, dtype=float))
    data = estimate.samples
    h = estimate.bandwidth
    if estimate.topology is Topology.CIRCLE360:
        shifts = _image_shifts(h)
    else:
        shifts = np.zeros(1)

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


def _segment_mass(data: np.ndarray, h: float, lo: float, hi: float, shifts: np.ndarray) -> float:
    total = 0.0
    for shift in shifts:
        total += float(np.mean(ndtr((hi - data + shift) / h) - ndtr((lo - data + shift) / h)))
    return total


def integrate(estimate: DensityEstimate, lo: float, hi: float) -> float:
    """Probability mass on [lo, hi], in closed form per kernel.

    On the circle, ``lo > hi`` denotes the arc that crosses 0/360 (for
    example (355, 5) is the 10-degree arc around north).

    Raises:
        ValueError: line topology with lo > hi.
    """
    data = estimate.samples
    h = estimate.bandwidth
    if estimate.topology is Topology.LINE:
        if lo > hi:
            raise ValueError(f"lo must be <= hi on the line, got ({lo}, {hi})")
        return float(np.clip(_segment_mass(data, h, lo, hi, np.zeros(1)), 0.0, 1.0))

    shifts = _image_shifts(h)
    if lo <= hi:
        mass = _segment_mass(data, h, lo, hi, shifts)
    else:
        mass = _segment_mass(data, h, lo, 360.0, shifts) + _segment_mass(
            data, h, 0.0, hi, shifts
        )
    return float(np.clip(mass, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Bandwidth selectors.
# ---------------------------------------------------------------------------


def bandwidth_silverman(samples: Iterable[float]) -> float:
    """Silverman's rule of thumb, robust form: 0.9 min(sd, IQR/1.34) n^(-1/5)."""
    arr = _as_samples(samples, 2)
    sd = float(np.std(arr, ddof=1))
    q75, q25 = np.percentile(arr, [75.0, 25.0])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    if scale <= 0.0:
        raise ZeroDispersion("samples have no dispersion")
    return 0.9 * scale * arr.size ** (-0.2)


def _derivative_norm(s: int, t: float, i_sq: np.ndarray, a_sq: np.ndarray) -> float:
    # 2 pi^(2s) sum_i i^(2s) a_i^2 exp(-i^2 pi^2 t).  The exp factors fall
    # with i (i_sq ascends), and every term with i^2 pi^2 t above
    # -_EXP_ZERO_BELOW is exactly 0.0, so only the prefix before that cut
    # is computed.  It is written into a zero-filled full-length array,
    # which keeps np.sum's pairwise order and makes the result bit-identical
    # to summing every term.
    n_live = i_sq.size
    if t > 0.0 and math.isfinite(t):
        cut = -_EXP_ZERO_BELOW / (math.pi**2 * t)
        n_live = int(np.searchsorted(i_sq, cut, side="right"))
    live = i_sq[:n_live]
    terms = np.zeros(i_sq.size)
    terms[:n_live] = live**s * a_sq[:n_live] * np.exp(-live * math.pi**2 * t)
    return 2.0 * math.pi ** (2 * s) * float(np.sum(terms))


def _fixed_point(t: float, n_points: int, i_sq: np.ndarray, a_sq: np.ndarray) -> float:
    # Plug-in functional ladder with ell = 7 stages; each stage estimates the
    # squared norm of the next density derivative from the DCT coefficients.
    ell = 7
    f = _derivative_norm(ell, t, i_sq, a_sq)
    for s in range(ell - 1, 1, -1):
        if not (f > 0.0 and math.isfinite(f)):
            raise FixedPointFailure("derivative-norm estimate collapsed")
        odd_prod = float(np.prod(np.arange(1, 2 * s, 2, dtype=float)))
        k0 = odd_prod / math.sqrt(2.0 * math.pi)
        const = (1.0 + 0.5 ** (s + 0.5)) / 3.0
        stage_t = (2.0 * const * k0 / (n_points * f)) ** (2.0 / (3.0 + 2.0 * s))
        f = _derivative_norm(s, stage_t, i_sq, a_sq)
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
    terms whose exp factor is exactly 0.0; the truncation is exact, so the
    bandwidth is bit-identical to the one from the full sums.

    Raises:
        TooFewSamples: fewer than 50 samples (the selector is data-hungry).
        ZeroDispersion: all samples identical.
        FixedPointFailure: no root bracketed; fall back to Silverman.
    """
    arr = _as_samples(samples, 50)
    if topology is Topology.CIRCLE360:
        arr = _circular_recenter(arr % 360.0)
    pilot = bandwidth_silverman(arr)

    n_bins = 2**14
    lo = float(arr.min()) - 3.0 * pilot
    hi = float(arr.max()) + 3.0 * pilot
    span = hi - lo
    counts, _ = np.histogram(arr, bins=n_bins, range=(lo, hi))
    rel_freq = counts / arr.size

    coeffs = dct(rel_freq, type=2)
    a_sq = (coeffs[1:] / 2.0) ** 2
    i_sq = np.arange(1, n_bins, dtype=float) ** 2
    n_unique = int(np.unique(arr).size)

    t_star = None
    bracket_hi = 0.01
    while bracket_hi <= 1.0:
        try:
            candidate = brentq(
                _fixed_point, 0.0, bracket_hi, args=(n_unique, i_sq, a_sq), xtol=1e-12
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
    fold_seed: int = 0,
) -> float:
    """Grid-search bandwidth maximising k-fold held-out log-likelihood.

    Exact (no binning): cost grows with len(grid) * n^2 / folds, so keep the
    sample count moderate.  Ties break toward the smaller bandwidth, and the
    fold assignment is deterministic given ``fold_seed``.
    """
    if not lo > 0.0:
        raise ValueError(f"grid lower bound must be > 0, got {lo}")
    if not step > 0.0:
        raise ValueError(f"grid step must be > 0, got {step}")
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    grid = np.arange(lo, hi + 0.5 * step, step)
    if grid.size == 0:
        raise EmptyGrid(f"no candidates in [{lo}, {hi}] with step {step}")
    arr = _as_samples(samples, folds)

    order = np.random.default_rng(fold_seed).permutation(arr.size)
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
            for gi, h in enumerate(grid):
                inv = -0.5 / (h * h)
                z = shifted * np.float32(inv)
                np.exp(z, out=z)
                ll = np.log(z.sum(axis=1, dtype=np.float64)) + row_min * inv
                fold_scores[gi] += float(np.sum(ll))
        scores += fold_scores / test.size - math.log(train.size) - log_norms
    best = int(np.argmax(scores / folds))
    return float(grid[best])


def select_bandwidth(
    samples: Iterable[float],
    method: str = "isj",
    topology: Topology = Topology.LINE,
) -> float:
    """Resolve a selector name, falling back from the plug-in rule on failure."""
    if method == "silverman":
        return bandwidth_silverman(samples)
    if method == "isj":
        try:
            return bandwidth_isj(samples, topology)
        except FixedPointFailure:
            warnings.warn(
                "plug-in bandwidth fixed point did not converge; "
                "falling back to Silverman's rule",
                RuntimeWarning,
                stacklevel=2,
            )
            return bandwidth_silverman(samples)
    raise ValueError(f"unknown bandwidth method {method!r}")


def bandwidth_report(
    samples: Iterable[float],
    selector: str = "isj",
    topology: Topology = Topology.LINE,
    grid: tuple[float, float, float] | None = None,
    folds: int = 5,
) -> BandwidthReport:
    """Run the selectors side by side; the grid search is optional (slow)."""
    h_silverman = bandwidth_silverman(samples)
    try:
        h_isj = bandwidth_isj(samples, topology)
    except FixedPointFailure:
        h_isj = h_silverman
    h_grid = None
    if grid is not None:
        h_grid = bandwidth_grid_cv(samples, *grid, folds=folds)
    if selector == "silverman":
        selected = h_silverman
    elif selector == "isj":
        selected = h_isj
    elif selector == "grid":
        if h_grid is None:
            raise ValueError("grid selector requested but no grid given")
        selected = h_grid
    else:
        raise ValueError(f"unknown selector {selector!r}")
    return BandwidthReport(h_silverman, h_isj, selected, h_grid)


# ---------------------------------------------------------------------------
# Normality diagnostic.
# ---------------------------------------------------------------------------


def ks_normality(samples: Iterable[float]) -> tuple[float, float]:
    """One-sample KS statistic against a moment-matched normal.

    Returns (statistic, p_value) with the p-value from the asymptotic
    Kolmogorov distribution.  Because the reference normal reuses the
    sample's own moments, the p-value is conservative, which is fine for
    the reject-at-tiny-p use this diagnostic serves.
    """
    arr = _as_samples(samples, 8)
    sd = float(np.std(arr, ddof=1))
    if sd <= 0.0:
        raise ZeroDispersion("samples have no dispersion")
    z = np.sort((arr - float(np.mean(arr))) / sd)
    cdf = ndtr(z)
    n = arr.size
    steps = np.arange(1, n + 1) / n
    d_plus = float(np.max(steps - cdf))
    d_minus = float(np.max(cdf - (steps - 1.0 / n)))
    statistic = max(d_plus, d_minus)
    p_value = float(kolmogorov(math.sqrt(n) * statistic))
    return statistic, p_value


def write_density_curve(
    estimate: DensityEstimate,
    lo: float,
    hi: float,
    num: int,
    target: str | Path | IO[str],
) -> None:
    """Dump a sampled density curve as CSV columns (x, f_hat)."""
    xs = np.linspace(lo, hi, num)
    ys = evaluate(estimate, xs)

    def _emit(handle: IO[str]) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x", "f_hat"])
        for x, y in zip(xs, ys):
            writer.writerow([repr(float(x)), repr(float(y))])

    if hasattr(target, "write"):
        _emit(target)  # type: ignore[arg-type]
    else:
        with open(target, "w", encoding="utf-8", newline="") as handle:
            _emit(handle)
