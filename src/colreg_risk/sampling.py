"""Perturbed vessel-state sampling from a diagonal Gaussian error model.

Each state component (north, east, course, speed) is perturbed by an
independent zero-mean Gaussian.  Sampled courses are wrapped back into
[0, 360).  ``draw_pair``, which the estimators call, keeps the raw speed
draws, so a speed may come out negative; ``clamp_speed=True`` truncates
speeds at zero instead, which the automaton path asks for because a
``VesselState`` rejects a negative speed.

Reproducibility contract: a batch is generated by a single vectorised pass
from one ``numpy`` PCG64 stream keyed on the caller's seed, so identical
(mean, uncertainty, n, seed) inputs produce bit-identical batches no matter
how the surrounding code is threaded.  Paired batches derive one substream
per vessel from the pair seed.  An exactly known vessel (every sigma zero)
reads nothing from its stream; each column is its mean, broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .kinematics import VesselState, _wrap_owned


class TooFewSamples(ValueError):
    """Raised when an operation needs more samples than were provided."""


class Spread(Enum):
    """How diagonal dispersion entries are interpreted."""

    STD_DEV = "stddev"
    VARIANCE = "variance"


@dataclass(frozen=True)
class StateUncertainty:
    """Per-component standard deviations of the tracker error.

    Units: meters, meters, degrees, meters/second.  -0.0 is stored as +0.0.
    """

    sigma_north: float
    sigma_east: float
    sigma_course: float
    sigma_speed: float

    def __post_init__(self) -> None:
        for name in ("sigma_north", "sigma_east", "sigma_course", "sigma_speed"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")
            object.__setattr__(self, name, abs(value))  # numpy rejects a -0.0 scale


def make_uncertainty(
    diag: Sequence[float],
    alpha: float,
    interpretation: Spread | str = Spread.STD_DEV,
) -> StateUncertainty:
    """Scale a 4-entry dispersion diagonal by ``alpha``.

    With ``Spread.STD_DEV`` (or its value ``"stddev"``) the entries are
    standard deviations and scale linearly (sigma = alpha * d); with
    ``Spread.VARIANCE`` they are variances (sigma = sqrt(alpha * d)).
    """
    entries = [float(v) for v in diag]
    if len(entries) != 4:
        raise ValueError(f"diag must have 4 entries, got {len(entries)}")
    if not (math.isfinite(alpha) and all(math.isfinite(v) for v in entries)):
        raise ValueError("dispersion entries and alpha must be finite")
    if alpha < 0.0 or any(v < 0.0 for v in entries):
        raise ValueError("dispersion entries and alpha must be >= 0")
    if Spread(interpretation) is Spread.STD_DEV:
        sigmas = [alpha * v for v in entries]
    else:
        sigmas = [float(np.sqrt(alpha * v)) for v in entries]
    return StateUncertainty(*sigmas)


@dataclass(frozen=True)
class StateSample:
    """Column-oriented batch of perturbed vessel states."""

    north: np.ndarray
    east: np.ndarray
    course: np.ndarray
    speed: np.ndarray

    def __len__(self) -> int:
        return self.north.shape[0]

    def as_states(self) -> list[VesselState]:
        """Every row as a ``VesselState``, in row order."""
        columns = (self.north, self.east, self.course, self.speed)
        return list(map(VesselState, *(column.tolist() for column in columns)))


@dataclass(frozen=True)
class SampleBatch:
    """Paired perturbed states for one vessel pair."""

    states_j: StateSample
    states_k: StateSample


def _is_minus_zero(value: float) -> bool:
    return value == 0.0 and math.copysign(1.0, value) < 0.0


def draw(
    mean: VesselState,
    unc: StateUncertainty,
    n: int,
    stream_seed: int,
    clamp_speed: bool = True,
) -> StateSample:
    """Draw ``n`` independent perturbed copies of ``mean``.

    Component draw order is fixed (north, east, course, speed) so a given
    stream seed always yields the same batch.  With ``clamp_speed`` the
    speed column is truncated at zero to stay in the state domain; the
    Monte-Carlo estimators switch it off and push the raw Gaussian draws
    through the geometry instead (a negative speed reverses the velocity
    vector), which is what the error model actually says.

    An exactly known vessel, all four sigmas +0.0, reads nothing from its
    stream: each column is a read-only stride-0 view of its mean
    component.  A drawn value ``loc + 0.0 * z`` is ``loc`` bit for bit
    unless ``loc`` is -0.0, so a mean with a -0.0 component is still drawn.

    Raises:
        TooFewSamples: n < 1.
        ValueError: n too large for a numpy array, raised before allocating.
    """
    if n < 1:
        raise TooFewSamples(f"sample count must be >= 1, got {n}")
    components = (mean.north, mean.east, mean.course, mean.speed)
    sigmas = (unc.sigma_north, unc.sigma_east, unc.sigma_course, unc.sigma_speed)
    if not any(sigmas) and not any(map(_is_minus_zero, components)):
        return StateSample(*(np.broadcast_to(np.float64(v), (n,)) for v in components))
    rng = np.random.default_rng(stream_seed)
    north = rng.normal(mean.north, unc.sigma_north, n)
    east = rng.normal(mean.east, unc.sigma_east, n)
    # mean.course + z is z + mean.course bit for bit, so the draw is shifted
    # and wrapped in its own buffer.
    course = rng.normal(0.0, unc.sigma_course, n)
    course += mean.course
    # An overflowed course draw wraps to NaN unwarned; the geometry rejects it.
    with np.errstate(invalid="ignore"):
        course = _wrap_owned(course)
    speed = rng.normal(mean.speed, unc.sigma_speed, n)
    if clamp_speed:
        speed = np.maximum(speed, 0.0)
    for arr in (north, east, course, speed):
        arr.setflags(write=False)
    return StateSample(north, east, course, speed)


def pair_stream_seeds(seed: int, count: int = 2) -> list[int]:
    """Derive ``count`` independent stream seeds from one 64-bit seed."""
    words = np.random.SeedSequence(seed).generate_state(count, np.uint64)
    return [int(w) for w in words]


def draw_pair(
    mean_j: VesselState,
    unc_j: StateUncertainty,
    mean_k: VesselState,
    unc_k: StateUncertainty,
    n: int,
    seed: int,
    clamp_speed: bool = False,
) -> SampleBatch:
    """Draw paired batches for two vessels from substreams of ``seed``.

    Defaults to unclamped speeds: this is the estimator-facing entry point
    and the estimators propagate the raw Gaussian error model.
    """
    seed_j, seed_k = pair_stream_seeds(seed, 2)
    return SampleBatch(
        states_j=draw(mean_j, unc_j, n, seed_j, clamp_speed=clamp_speed),
        states_k=draw(mean_k, unc_k, n, seed_k, clamp_speed=clamp_speed),
    )
