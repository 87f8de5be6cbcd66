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


class DegenerateRelativeMotion(ValueError):
    """Raised when two vessels share a velocity vector: no approach exists.

    Callers should treat DCPA as the current separation and TCPA as
    undefined (no future closest approach).
    """


class CoincidentPositions(ValueError):
    """Raised when a bearing is requested between coincident positions."""


@dataclass(frozen=True)
class VesselState:
    """Kinematic state of a single vessel.

    Attributes:
        north: N coordinate in the local tangent plane, meters.
        east: E coordinate, meters.
        course: course over ground, degrees in [0, 360).
        speed: speed over ground, m/s, non-negative.
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
        if not (self.speed >= 0.0):
            raise ValueError(f"speed must be non-negative, got {self.speed}")


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

    Raises:
        DegenerateRelativeMotion: if |dv|^2 <= REL_SPEED_SQ_EPS, i.e. the
            velocity vectors coincide and no unique CPA time exists.
        FloatingPointError: if |dv|^2 overflows, which would collapse TCPA
            to zero and DCPA to the current separation.
    """
    rad_j = math.radians(j.course)
    rad_k = math.radians(k.course)
    vjn, vje = j.speed * math.cos(rad_j), j.speed * math.sin(rad_j)
    vkn, vke = k.speed * math.cos(rad_k), k.speed * math.sin(rad_k)
    dvn = vjn - vkn
    dve = vje - vke
    rel_sq = dvn * dvn + dve * dve
    if math.isinf(rel_sq):
        raise FloatingPointError("relative speed squared overflows")
    if rel_sq <= REL_SPEED_SQ_EPS:
        raise DegenerateRelativeMotion(
            f"relative speed squared {rel_sq:.3e} <= {REL_SPEED_SQ_EPS:.0e}"
        )
    dpn = j.north - k.north
    dpe = j.east - k.east
    tcpa = -(dpn * dvn + dpe * dve) / rel_sq
    # The gap of the two positions at TCPA.  It rounds differently from
    # cpa_arrays' dp + dv * tcpa, so the two agree only to rounding.
    dcpa = math.hypot(
        (j.north + vjn * tcpa) - (k.north + vkn * tcpa),
        (j.east + vje * tcpa) - (k.east + vke * tcpa),
    )
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
# by the sampling-based estimators.  Degenerate pairs are flagged instead of
# raised: their DCPA falls back to the current separation and TCPA to +inf.
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


def bearing_arrays(
    north_j: np.ndarray,
    east_j: np.ndarray,
    course_j: np.ndarray,
    north_k: np.ndarray,
    east_k: np.ndarray,
) -> np.ndarray:
    """Vectorised relative bearing from vessel j to vessel k, [0, 360)."""
    absolute = np.degrees(np.arctan2(east_k - east_j, north_k - north_j))
    return wrap_degrees(absolute - course_j)

