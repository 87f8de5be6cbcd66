"""Deterministic encounter geometry for constant-velocity vessel pairs.

Positions live in a local North-East tangent plane (meters), courses are
degrees clockwise from North in [0, 360), speeds are meters/second over
ground.  Velocity components are ordered (north, east) so that a course of
0 deg moves due north: v = (U * cos(psi), U * sin(psi)).

All functions are pure; scalar entry points operate on ``VesselState`` and
the ``*_arrays`` kernels run the same math vectorised over numpy columns
for the Monte-Carlo layers.  ``wrap_degrees`` and ``reciprocal_course``
take floats and numpy arrays alike.  The encounter decisions built on this
geometry (bearing regions, the situation table) live in ``colregs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative-speed-squared floor below which TCPA is undefined, (m/s)^2.
REL_SPEED_SQ_EPS = 1e-9
# Position tolerance below which a bearing is undefined, meters.
POSITION_EPS = 1e-9


class CoincidentPositions(ValueError):
    """Raised when a bearing is requested between coincident positions."""


@dataclass(frozen=True)
class VesselState:
    """Kinematic state of a single vessel.

    Attributes:
        north: N coordinate in the local tangent plane, meters.
        east: E coordinate, meters.
        course: course over ground, degrees in [0, 360).
        speed: speed over ground, m/s, finite and non-negative.
    """

    north: float
    east: float
    course: float
    speed: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.north) and math.isfinite(self.east)):
            raise ValueError(f"position must be finite, got ({self.north}, {self.east})")
        if not (0.0 <= self.course < 360.0):
            raise ValueError(f"course must lie in [0, 360), got {self.course}")
        if not (math.isfinite(self.speed) and self.speed >= 0.0):
            raise ValueError(f"speed must be finite and non-negative, got {self.speed}")


@dataclass(frozen=True)
class CpaResult:
    """Closest-point-of-approach quantities for one vessel pair.

    Attributes:
        tcpa: time to CPA, seconds; negative means the CPA lies in the past.
        dcpa: separation at CPA, meters, always >= 0.
    """

    tcpa: float
    dcpa: float


def wrap_degrees(angle: float | np.ndarray) -> float | np.ndarray:
    """Wrap an angle (degrees) into [0, 360).

    Guards the float edge case where ``x % 360`` rounds up to exactly 360
    for tiny negative inputs.
    """
    wrapped = angle % 360.0
    if isinstance(wrapped, np.ndarray):
        return np.where(wrapped >= 360.0, 0.0, wrapped)
    return 0.0 if wrapped >= 360.0 else wrapped


def cpa(j: VesselState, k: VesselState) -> CpaResult:
    """Closest point of approach of two constant-velocity vessels.

    TCPA solves the minimum of the separation norm and is left unclamped;
    a negative value indicates the vessels are already past their CPA.
    The arithmetic and conventions are ``cpa_arrays``': a degenerate pair
    (|dv|^2 <= REL_SPEED_SQ_EPS, matched velocities) has no closest
    approach, so TCPA is +inf and DCPA the current separation.

    Raises:
        FloatingPointError: if |dv|^2 overflows, which would collapse TCPA
            to zero and DCPA to the current separation, or if TCPA is NaN or
            DCPA not finite, the rows ``estimator.encounter_buffers`` rejects.
    """
    rad_j = math.radians(j.course)
    rad_k = math.radians(k.course)
    dvn = j.speed * math.cos(rad_j) - k.speed * math.cos(rad_k)
    dve = j.speed * math.sin(rad_j) - k.speed * math.sin(rad_k)
    rel_sq = dvn * dvn + dve * dve
    if math.isinf(rel_sq):
        raise FloatingPointError("relative speed squared overflows")
    dpn = j.north - k.north
    dpe = j.east - k.east
    if rel_sq <= REL_SPEED_SQ_EPS:
        tcpa, dcpa = math.inf, math.hypot(dpn, dpe)
    else:
        tcpa = -(dpn * dvn + dpe * dve) / rel_sq
        dcpa = math.hypot(dpn + dvn * tcpa, dpe + dve * tcpa)
    if math.isnan(tcpa) or not math.isfinite(dcpa):
        raise FloatingPointError(f"CPA geometry overflows: tcpa={tcpa}, dcpa={dcpa}")
    return CpaResult(tcpa, dcpa)


def relative_bearing(origin: VesselState, target: VesselState) -> float:
    """Bearing to ``target`` measured clockwise from ``origin``'s course.

    Returns degrees in [0, 360).  Uses four-quadrant atan2 on the
    (east, north) offsets.

    Raises:
        CoincidentPositions: if the two positions agree within POSITION_EPS.
    """
    dn = target.north - origin.north
    de = target.east - origin.east
    if abs(dn) <= POSITION_EPS and abs(de) <= POSITION_EPS:
        raise CoincidentPositions("bearing undefined for coincident positions")
    absolute = math.degrees(math.atan2(de, dn))
    return wrap_degrees(absolute - origin.course)


def reciprocal_course(
    psi_j: float | np.ndarray, psi_k: float | np.ndarray
) -> float | np.ndarray:
    """Signed course-opposition measure in [-180, 180), for floats or arrays.

    Zero means exactly reciprocal courses; identical courses map to -180.
    """
    return (psi_j - psi_k) % 360.0 - 180.0


# ---------------------------------------------------------------------------
# Array kernels.  Column-vector variants of the scalar operations above, used
# by the sampling-based estimators.  Degenerate pairs follow ``cpa``: DCPA is
# the current separation and TCPA +inf; the mask flags them.
# ---------------------------------------------------------------------------


def velocity_arrays(course_deg: np.ndarray, speed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v_north, v_east) component arrays for course/speed columns."""
    rad = np.radians(course_deg)
    return speed * np.cos(rad), speed * np.sin(rad)


@np.errstate(over="ignore", invalid="ignore")
def cpa_arrays(
    north_j: np.ndarray,
    east_j: np.ndarray,
    course_j: np.ndarray,
    speed_j: np.ndarray,
    north_k: np.ndarray,
    east_k: np.ndarray,
    course_k: np.ndarray,
    speed_k: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised CPA: returns (tcpa, dcpa, degenerate_mask).

    Where the mask is set, tcpa is +inf and dcpa is the current separation.
    Where |dv|^2 overflows, tcpa and dcpa are NaN, as ``cpa`` raises there.
    Overflow shows only as non-finite output, never as a numpy warning.
    """
    vjn, vje = velocity_arrays(course_j, speed_j)
    vkn, vke = velocity_arrays(course_k, speed_k)
    dvn = vjn - vkn
    dve = vje - vke
    rel_sq = dvn * dvn + dve * dve
    rel_sq[np.isinf(rel_sq)] = np.nan
    degenerate = rel_sq <= REL_SPEED_SQ_EPS

    dpn = north_j - north_k
    dpe = east_j - east_k
    safe_rel = np.where(degenerate, 1.0, rel_sq)
    tcpa = -(dpn * dvn + dpe * dve) / safe_rel
    sep_n = dpn + dvn * tcpa
    sep_e = dpe + dve * tcpa
    dcpa = np.hypot(sep_n, sep_e)

    tcpa = np.where(degenerate, np.inf, tcpa)
    dcpa = np.where(degenerate, np.hypot(dpn, dpe), dcpa)
    return tcpa, dcpa, degenerate


@np.errstate(over="ignore", invalid="ignore")
def bearing_arrays(
    north_j: np.ndarray,
    east_j: np.ndarray,
    course_j: np.ndarray,
    north_k: np.ndarray,
    east_k: np.ndarray,
) -> np.ndarray:
    """Vectorised relative bearing from vessel j to vessel k, [0, 360).

    Offsets that overflow give infinite atan2 arguments, never a warning.
    """
    absolute = np.degrees(np.arctan2(east_k - east_j, north_k - north_j))
    return wrap_degrees(absolute - course_j)

