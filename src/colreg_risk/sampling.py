"""Perturbed vessel-state sampling from a diagonal Gaussian error model.

Each state component (north, east, course, speed) is perturbed by an
independent zero-mean Gaussian.  Sampled courses are wrapped back into
[0, 360); sampled speeds are clamped at zero, which only matters when the
speed dispersion is a sizeable fraction of the mean speed.

Reproducibility contract: a batch is generated by a single vectorised pass
from one ``numpy`` PCG64 stream keyed on the caller's seed, so identical
(mean, uncertainty, n, seed) inputs produce bit-identical batches no matter
how the surrounding code is threaded.  Paired batches derive one substream
per vessel from the pair seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .kinematics import VesselState, wrap_degrees


class TooFewSamples(ValueError):
    """Raised when an operation needs more samples than were provided."""


class Spread(Enum):
    """How diagonal dispersion entries are interpreted."""

    STD_DEV = "stddev"
    VARIANCE = "variance"


@dataclass(frozen=True)
class StateUncertainty:
    """Per-component standard deviations of the tracker error.

    Units: meters, meters, degrees, meters/second.
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


def make_uncertainty(
    diag: Sequence[float],
    alpha: float,
    interpretation: Spread = Spread.STD_DEV,
) -> StateUncertainty:
    """Scale a 4-entry dispersion diagonal by ``alpha``.

    With ``Spread.STD_DEV`` the entries are standard deviations and scale
    linearly (sigma = alpha * d); with ``Spread.VARIANCE`` they are
    variances (sigma = sqrt(alpha * d)).
    """
    entries = [float(v) for v in diag]
    if len(entries) != 4:
        raise ValueError(f"diag must have 4 entries, got {len(entries)}")
    if not (math.isfinite(alpha) and all(math.isfinite(v) for v in entries)):
        raise ValueError("dispersion entries and alpha must be finite")
    if alpha < 0.0 or any(v < 0.0 for v in entries):
        raise ValueError("dispersion entries and alpha must be >= 0")
    if interpretation is Spread.STD_DEV:
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

    def state(self, i: int) -> VesselState:
        return VesselState(
            float(self.north[i]), float(self.east[i]),
            float(self.course[i]), float(self.speed[i]),
        )

    def as_states(self) -> list[VesselState]:
        return [self.state(i) for i in range(len(self))]


@dataclass(frozen=True)
class SampleBatch:
    """Paired perturbed states for one vessel pair."""

    states_j: StateSample
    states_k: StateSample


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

    Raises:
        TooFewSamples: n < 1.
    """
    if n < 1:
        raise TooFewSamples(f"sample count must be >= 1, got {n}")
    rng = np.random.default_rng(stream_seed)
    north = rng.normal(mean.north, unc.sigma_north, n)
    east = rng.normal(mean.east, unc.sigma_east, n)
    course = wrap_degrees(mean.course + rng.normal(0.0, unc.sigma_course, n))
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
