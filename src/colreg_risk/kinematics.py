"""Deterministic encounter geometry for constant-velocity vessel pairs.

Positions live in a local North-East tangent plane (meters), courses are
degrees clockwise from North in [0, 360), speeds are meters/second over
ground.  Velocity components are ordered (north, east) so that a course of
0 deg moves due north: v = (U * cos(psi), U * sin(psi)).

All functions are pure; scalar entry points operate on ``VesselState`` and
the ``*_arrays`` kernels run the same math vectorised over numpy columns
for the Monte-Carlo layers.  ``wrap_degrees`` and ``reciprocal_course``
take floats and numpy arrays alike, and ``wrap_degrees`` is the package's
one angle remainder, so every angle is read in [0, 360), never as 360.0.
The encounter decisions built on this geometry (bearing regions, the
situation table) live in ``colregs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative-speed-squared floor below which TCPA is undefined, (m/s)^2.
REL_SPEED_SQ_EPS = 1e-9
# Position tolerance below which a bearing is undefined, meters.
POSITION_EPS = 1e-9
# Elements per block of wrap_degrees' shift steps.
_WRAP_BLOCK = 8192


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
    """Wrap an angle (degrees) into [0, 360): ``angle % 360.0`` bit for bit,
    for floats and arrays, except that a remainder that rounds up to 360,
    as for tiny negative inputs, is read as 0.0.

    numpy and Python take a float remainder in two steps: r = fmod(x, 360),
    which is exact, then fl(r + 360) where r < 0, and +0.0 where r is zero.
    On a non-empty float64 array of one or more dimensions whose values all
    lie in [-720, 720) additions alone give the same bits, several times
    faster than numpy's fmod loop:

    * x in [360, 720) becomes x - 360 and x in [-720, -360) becomes x + 360,
      both exact by Sterbenz's lemma, so each is fmod's r.
    * a value still negative becomes fl(r + 360), the sum numpy forms.  At
      x = -360 and -720 that sum is +0.0, numpy's answer to fmod's -0.0.
      Only this sum can reach 360.
    * every other element is x + 0.0: x itself, and +0.0 for -0.0.

    Any other input, NaN and infinities included, takes ``%`` itself.

    The shifts run over blocks of ``_WRAP_BLOCK`` elements, so each
    ``mask * 360.0`` array is block-sized instead of n-sized; the blocks
    change no bit, as every step is elementwise.
    """
    wrapped = _shift_wrap(angle, None)
    if wrapped is not None:
        return wrapped
    wrapped = angle % 360.0
    if isinstance(wrapped, np.ndarray):
        wrapped[wrapped >= 360.0] = 0.0  # a new array; np.where would allocate another
        return wrapped
    return 0.0 if wrapped >= 360.0 else wrapped


def _wrap_owned(angle: np.ndarray) -> np.ndarray:
    # wrap_degrees of an array the caller owns and gives up: the shift path
    # wraps it in place, the remainder path returns a new array.
    wrapped = _shift_wrap(angle, angle)
    return wrap_degrees(angle) if wrapped is None else wrapped


def _shift_wrap(angle: float | np.ndarray, out: np.ndarray | None) -> np.ndarray | None:
    # wrap_degrees' shift path into ``out`` (None for a new array, or
    # ``angle`` itself), or None where the remainder must run.  Each shift
    # mask reads the running result, which agrees with the input on it:
    # step one changes -0.0 alone, and step two moves only values >= 360,
    # into [0, 360), off the step-three mask.
    # A 0-d array's sums are numpy scalars, which the fix-up cannot index.
    if not (type(angle) is np.ndarray and angle.dtype == np.float64 and angle.ndim
            and angle.size):
        return None
    lo, hi = float(angle.min()), float(angle.max())
    if not (lo >= -720.0 and hi < 720.0):
        return None
    wrapped = np.add(angle, 0.0, out=out)
    if hi < 360.0 and lo >= 0.0:
        return wrapped
    # Blocks along the first axis (views for any strides) keep each mask and
    # product small enough to stay in cache and off fresh pages.
    rows = max(1, _WRAP_BLOCK * wrapped.shape[0] // wrapped.size)
    for start in range(0, wrapped.shape[0], rows):
        part = wrapped[start : start + rows]
        if hi >= 360.0:
            part -= (part >= 360.0) * 360.0
        if lo < -360.0:
            part += (part < -360.0) * 360.0
        if lo < 0.0:
            part += (part < 0.0) * 360.0
            part[part >= 360.0] = 0.0
    return wrapped


def cpa(j: VesselState, k: VesselState) -> CpaResult:
    """Closest point of approach of two constant-velocity vessels.

    TCPA solves the minimum of the separation norm and is left unclamped;
    a negative value indicates the vessels are already past their CPA.
    The formula and conventions are ``cpa_arrays``': a degenerate pair
    (|dv|^2 <= REL_SPEED_SQ_EPS, matched velocities) has no closest
    approach, so TCPA is +inf and DCPA the current separation.  ``math``'s
    hypot rounds differently from numpy's, so a DCPA can differ by an ulp.

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

    Returns degrees in [0, 360).  Uses ``math``'s four-quadrant atan2 on
    the (east, north) offsets, which can round differently from the numpy
    one in ``bearing_arrays``.

    Raises:
        CoincidentPositions: if the two positions agree within POSITION_EPS.
    """
    dn = target.north - origin.north
    de = target.east - origin.east
    if abs(dn) <= POSITION_EPS and abs(de) <= POSITION_EPS:
        raise CoincidentPositions("bearing undefined for coincident positions")
    absolute = math.degrees(math.atan2(de, dn))
    return wrap_degrees(absolute - origin.course)


def place_target(
    own: VesselState, bearing: float, range_m: float, course: float, speed: float
) -> VesselState:
    """A vessel ``range_m`` meters from ``own`` at ``bearing`` degrees
    clockwise from own's course, with the given course and speed.

    Raises:
        ValueError: a ``bearing`` that is not finite, a ``range_m`` not
            positive and finite, or a bad ``VesselState``.
    """
    if not math.isfinite(bearing):
        raise ValueError(f"bearing must be finite, got {bearing}")
    if not (math.isfinite(range_m) and range_m > 0.0):
        raise ValueError(f"range_m must be positive and finite, got {range_m}")
    theta = math.radians(own.course + bearing)
    return VesselState(
        own.north + range_m * math.cos(theta), own.east + range_m * math.sin(theta), course, speed
    )


def reciprocal_course(
    psi_j: float | np.ndarray, psi_k: float | np.ndarray
) -> float | np.ndarray:
    """Signed course-opposition measure in [-180, 180), for floats or arrays.

    Zero means exactly reciprocal courses; identical courses map to -180.
    """
    delta = psi_j - psi_k
    # An array delta is a new array: it is wrapped and shifted in place.
    delta = _wrap_owned(delta) if isinstance(delta, np.ndarray) else wrap_degrees(delta)
    delta -= 180.0
    return delta


# ---------------------------------------------------------------------------
# Array kernels.  Column-vector variants of the scalar operations above, used
# by the sampling-based estimators.  Degenerate pairs follow ``cpa``: DCPA is
# the current separation and TCPA +inf; the mask flags them.
# ---------------------------------------------------------------------------


def velocity_arrays(course_deg: np.ndarray, speed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v_north, v_east) component arrays for course/speed columns.

    When both columns are stride-0 views, as an exactly known vessel's are,
    the trig runs once and each component is a stride-0 view of its one
    result: numpy's radians, cos and sin give an element the same bits in a
    length-1 array as in a long one, so that is the per-sample result.
    Otherwise the east component is formed in the radians buffer, and each
    product is ``speed * trig`` bit for bit, as IEEE multiplication commutes.
    """
    if course_deg.strides == speed.strides == (0,) and course_deg.shape == speed.shape:
        # A slice of a stride-0 view keeps stride 0; the copies do not.
        vn, ve = velocity_arrays(course_deg[:1].copy(), speed[:1].copy())
        return np.broadcast_to(vn, course_deg.shape), np.broadcast_to(ve, course_deg.shape)
    rad = np.radians(course_deg)
    v_north = np.cos(rad)
    v_north *= speed
    v_east = np.sin(rad, out=rad)
    v_east *= speed
    return v_north, v_east


def _difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a - b, written into whichever operand is writable: velocity_arrays'
    # full columns are new arrays, its stride-0 views read-only.
    out = a if a.flags.writeable else b if b.flags.writeable else None
    return np.subtract(a, b, out=out)


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

    Every n-sized step writes into a buffer the kernel already holds: the
    velocity differences overwrite the velocities, TCPA, the CPA separations
    and DCPA are formed in place, and the position offsets are recomputed
    where they are read instead of held, so at most five n-columns are live.
    Each element still takes the operations of the plain expressions
    ``-(dpn*dvn + dpe*dve) / rel_sq`` and ``hypot(dpn + dvn*tcpa, dpe +
    dve*tcpa)`` in their order (an in-place ``x += y`` is ``y + x``, which
    IEEE addition gives the same bits), so every output bit is theirs.
    """
    vjn, vje = velocity_arrays(course_j, speed_j)
    vkn, vke = velocity_arrays(course_k, speed_k)
    dvn = _difference(vjn, vkn)
    dve = _difference(vje, vke)
    del vjn, vje, vkn, vke
    rel_sq = dvn * dvn
    scratch = dve * dve
    rel_sq += scratch
    rel_sq[np.isinf(rel_sq)] = np.nan
    degenerate = rel_sq <= REL_SPEED_SQ_EPS
    # With no degenerate pair each fill below would copy its input unchanged.
    any_degenerate = degenerate.any()
    if any_degenerate:
        rel_sq[degenerate] = 1.0  # a safe divisor; these rows are filled below

    tcpa = np.subtract(north_j, north_k, out=scratch)
    tcpa *= dvn
    dp_e = np.subtract(east_j, east_k)
    dp_e *= dve
    tcpa += dp_e
    np.negative(tcpa, out=tcpa)
    tcpa /= rel_sq
    # The offsets again, into the spent divisor and product buffers.
    dp_n = np.subtract(north_j, north_k, out=rel_sq)
    dp_e = np.subtract(east_j, east_k, out=dp_e)
    sep_n = np.multiply(dvn, tcpa, out=dvn)
    sep_n += dp_n
    sep_e = np.multiply(dve, tcpa, out=dve)
    sep_e += dp_e
    dcpa = np.hypot(sep_n, sep_e, out=sep_n)

    if any_degenerate:
        tcpa[degenerate] = np.inf
        np.copyto(dcpa, np.hypot(dp_n, dp_e, out=dp_n), where=degenerate)
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
    ``arctan2``, ``degrees``, the course subtraction and the wrap all run in
    the east-offset buffer, op for op as ``wrap_degrees(degrees(arctan2(
    east_k - east_j, north_k - north_j)) - course_j)``, so at most two
    n-columns are live and every bit is that expression's.
    """
    bearing = np.subtract(east_k, east_j)
    np.arctan2(bearing, np.subtract(north_k, north_j), out=bearing)
    np.degrees(bearing, out=bearing)
    bearing -= course_j
    return _wrap_owned(bearing)
