"""Deterministic COLREGs classification for a power-driven vessel pair.

An encounter is classified in two stages: each vessel maps the relative
bearing of the other into one of four regions (head-on / starboard /
overtaking / port), both views being head-on when the courses are near
reciprocal, and the ordered region pair maps into an applicable rule plus
the acting vessel's give-way or stand-on obligation.

Region band boundaries (degrees, ``BAND_EDGES``): head-on covers [0, 5] and
(355, 360); starboard (5, 112.5]; overtaking (112.5, 247.5]; port
(247.5, 355].  The course test, |dpsi| <= ``HEAD_ON_COURSE_DEG`` for one
course-opposition measure of the pair, overrides every band, so the
mapping is total.

This module owns each of these decisions once.  The scalar path
(``classify_pair``) and the array path (``situation_codes``) stay separate,
since only the scalar path is fast for one pair, but read the same edges,
course test and table, as do the KDE band masses (``band_regions``).  Both
counting pipelines count outcomes by one situation event code (``event_code``).
The risk test is ``ComfortZone.at_risk`` alone, DCPA <= d_act whatever the
TCPA, so a pair past its CPA is at risk if that CPA fell inside d_act: a
scalar caller asks ``zone.at_risk(dcpa)`` of ``classify_pair``'s DCPA, as
the automaton's risk word, the DES count and the KDE band mass do.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import NamedTuple

import numpy as np

from .kinematics import VesselState, cpa, reciprocal_course, relative_bearing


class Region(IntEnum):
    """Bearing region of one vessel as seen from the other."""

    HEAD_ON = 0
    STARBOARD = 1
    OVERTAKING = 2
    PORT = 3


# Upper band edges (deg).  A bearing b lies in band bisect_left(BAND_EDGES, b)
# of _BAND_REGIONS, so each edge belongs to the band below it and the
# head-on band wraps through north.
BAND_EDGES: tuple[float, ...] = (5.0, 112.5, 247.5, 355.0)
_BAND_REGIONS = (Region.HEAD_ON, Region.STARBOARD, Region.OVERTAKING, Region.PORT, Region.HEAD_ON)
_BAND_REGION_CODES = np.array(_BAND_REGIONS, dtype=np.uint8)
# All band edges over [0, 360], for band integrals of a bearing density.
BEARING_BANDS: tuple[float, ...] = (0.0, *BAND_EDGES, 360.0)
# Courses within this many degrees of reciprocal make every bearing head-on.
HEAD_ON_COURSE_DEG = 5.0


def course_head_on(dpsi: float | np.ndarray) -> bool | np.ndarray:
    """Head-on course test on the course-opposition measure, float or array."""
    return abs(dpsi) <= HEAD_ON_COURSE_DEG


class Rule(Enum):
    """Applicable COLREGs rule; R0 means none of rules 13-15 applies."""

    R0 = 0
    R13 = 13
    R14 = 14
    R15 = 15


class Obligation(IntEnum):
    STAND_ON = 0
    GIVE_WAY = 1


class SituationOutcome(NamedTuple):
    """(rule, obligation) classification for the acting vessel."""

    rule: Rule
    obligation: Obligation


@dataclass(frozen=True)
class ComfortZone:
    """Risk thresholds: action radius d_act (m) and awareness horizon t_aware (s).

    The zone owns the risk test and the window test; both take a float or
    an array and use operators only, so a float costs no numpy call.
    """

    d_act: float
    t_aware: float

    def __post_init__(self) -> None:
        # t_aware may be infinite (an unbounded window); d_act may not, since
        # an infinite action radius would put every sample at risk.
        if not (self.d_act > 0.0 and math.isfinite(self.d_act)):
            raise ValueError(f"d_act must be positive and finite, got {self.d_act}")
        if not self.t_aware > 0.0:
            raise ValueError(f"t_aware must be positive, got {self.t_aware}")

    def at_risk(self, dcpa: float | np.ndarray) -> bool | np.ndarray:
        """DCPA inside the action radius."""
        return dcpa <= self.d_act

    def in_window(self, tcpa: float | np.ndarray) -> bool | np.ndarray:
        """CPA inside the awareness window 0 <= TCPA <= t_aware."""
        return (tcpa >= 0.0) & (tcpa <= self.t_aware)


# Rows: acting vessel's region.  Columns: target vessel's region, both in
# Region order (HEAD_ON, STARBOARD, OVERTAKING, PORT).  The three diagonal
# same-region crossings cannot arise from a persistent approach and carry no
# rule; they are conservatively assigned a give-way obligation.
_SITUATION_TABLE: tuple[tuple[SituationOutcome, ...], ...] = (
    (
        SituationOutcome(Rule.R14, Obligation.GIVE_WAY),
        SituationOutcome(Rule.R15, Obligation.STAND_ON),
        SituationOutcome(Rule.R13, Obligation.GIVE_WAY),
        SituationOutcome(Rule.R15, Obligation.GIVE_WAY),
    ),
    (
        SituationOutcome(Rule.R15, Obligation.GIVE_WAY),
        SituationOutcome(Rule.R0, Obligation.GIVE_WAY),
        SituationOutcome(Rule.R13, Obligation.GIVE_WAY),
        SituationOutcome(Rule.R15, Obligation.GIVE_WAY),
    ),
    (
        SituationOutcome(Rule.R13, Obligation.STAND_ON),
        SituationOutcome(Rule.R13, Obligation.STAND_ON),
        SituationOutcome(Rule.R0, Obligation.GIVE_WAY),
        SituationOutcome(Rule.R13, Obligation.STAND_ON),
    ),
    (
        SituationOutcome(Rule.R15, Obligation.STAND_ON),
        SituationOutcome(Rule.R15, Obligation.STAND_ON),
        SituationOutcome(Rule.R13, Obligation.GIVE_WAY),
        SituationOutcome(Rule.R0, Obligation.GIVE_WAY),
    ),
)

RULE_VALUES: tuple[Rule, ...] = (Rule.R0, Rule.R13, Rule.R14, Rule.R15)
# Situation events are counted as one vector: slot RULE_VALUES index x 2 +
# obligation.  The R0 and R14 stand-on slots are always empty.
N_EVENTS = 2 * len(RULE_VALUES)


def event_code(outcome: SituationOutcome) -> int:
    """Slot of an outcome in a situation event-count vector."""
    return 2 * RULE_VALUES.index(outcome.rule) + int(outcome.obligation)


# Event code of each (own, other) region cell, for the vectorised path.
_EVENT_CODE = np.array([[event_code(cell) for cell in row] for row in _SITUATION_TABLE])
_RULE_INDEX, _OBLIGATION = np.divmod(_EVENT_CODE, 2)


def situation_masses(joint: np.ndarray) -> tuple[np.ndarray, float]:
    """P(rule) in RULE_VALUES order and the give-way mass of a 4x4 region-pair
    joint, each summed over the cells in row-major order and clamped at 1.0,
    which a sum of masses totalling one can pass by rounding."""
    cells = joint.ravel()
    p_rule = np.bincount(_RULE_INDEX.ravel(), weights=cells, minlength=len(RULE_VALUES))
    give_way = np.bincount(_OBLIGATION.ravel(), weights=cells, minlength=2)
    return np.minimum(p_rule, 1.0, out=p_rule), min(float(give_way[Obligation.GIVE_WAY]), 1.0)


def event_counts(joint_counts: np.ndarray) -> np.ndarray:
    """Situation event-count vector of a 4x4 (own, other) region count table."""
    counts = np.zeros(N_EVENTS, dtype=np.int64)
    np.add.at(counts, _EVENT_CODE, joint_counts)
    return counts


def bearing_region(beta: float) -> Region:
    """Region of a relative bearing (deg) by its band alone, as
    ``bearing_regions``; ``classify_pair`` applies the course test.

    Raises:
        ValueError: a bearing outside [0, 360) or non-finite (in no band).
    """
    if not 0.0 <= beta < 360.0:
        raise ValueError(f"bearing must be finite and in [0, 360), got {beta}")
    return _BAND_REGIONS[bisect_left(BAND_EDGES, beta)]


def mutual_situation(own_region: Region, other_region: Region) -> SituationOutcome:
    """(rule, obligation) for the acting vessel given both region views."""
    return _SITUATION_TABLE[own_region][other_region]


def give_way_pairs() -> frozenset[tuple[Region, Region]]:
    """All (own, other) region pairs whose outcome obliges the acting vessel
    to give way.  Derived from the situation table, never transcribed."""
    return frozenset(
        (Region(a), Region(t))
        for a in Region
        for t in Region
        if _SITUATION_TABLE[a][t].obligation is Obligation.GIVE_WAY
    )


def classify_pair(j: VesselState, k: VesselState) -> tuple[float, float, SituationOutcome]:
    """(dcpa, tcpa, outcome) of one deterministic pair, j acting.

    Each view is its bearing's band region; courses that pass the one
    ``course_head_on`` test make both head-on, as in ``situation_codes``.
    The CPA is ``cpa``'s, so a degenerate pair (matched velocities) has
    DCPA the current separation and TCPA +inf.  The pair is at risk when
    ``zone.at_risk(dcpa)``.

    Raises:
        CoincidentPositions: propagated from the bearing computation.
        FloatingPointError: propagated from ``cpa`` when |dv|^2 overflows.
    """
    result = cpa(j, k)
    own = bearing_region(relative_bearing(j, k))
    other = bearing_region(relative_bearing(k, j))
    if course_head_on(reciprocal_course(j.course, k.course)):
        own = other = Region.HEAD_ON
    return result.dcpa, result.tcpa, mutual_situation(own, other)


# ---------------------------------------------------------------------------
# Vectorised classification kernels.
# ---------------------------------------------------------------------------


def bearing_regions(beta: np.ndarray) -> np.ndarray:
    """Region index of each bearing by its band alone, without the course test."""
    if not np.all((beta >= 0.0) & (beta < 360.0)):
        raise ValueError("bearings must be finite and in [0, 360)")
    return _BAND_REGION_CODES[np.searchsorted(BAND_EDGES, beta, side="left")]


def band_regions(values: np.ndarray) -> np.ndarray:
    """Sum per-band values (one per ``BEARING_BANDS`` band) into the four
    regions, in Region order; the head-on region sums its two bands."""
    return np.bincount(_BAND_REGION_CODES, weights=values, minlength=len(Region))


def situation_codes(
    beta_own: np.ndarray, beta_other: np.ndarray, dpsi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised (own_region, other_region) columns from the two bearing
    columns and the course-opposition column ``reciprocal_course(course_own,
    course_other)``; |dpsi| is symmetric between the two viewpoints.

    Raises:
        ValueError: a bearing outside [0, 360) or non-finite, as
            ``bearing_regions``, or a non-finite course delta.
    """
    bands = bearing_regions(beta_own), bearing_regions(beta_other)
    if not np.all(np.isfinite(dpsi)):
        raise ValueError("course deltas must be finite")
    head_on = course_head_on(dpsi)
    return tuple(np.where(head_on, int(Region.HEAD_ON), b) for b in bands)
