"""Shared encounter setups used across the test modules.

Three reference encounters: a starboard crossing that misses the comfort
zone, a head-on/port-crossing boundary case, and an overtaking/starboard
boundary case.  Positions derive from bearing/range placements evaluated in
the true-north frame.

The oracles below (bearing, region, situation table) are transcribed
independently of the library, with literal band edges, so the agreement
tests cannot pass by sharing the library's own definitions.
"""

import math

from colreg_risk import ComfortZone, Obligation, Region, Rule, VesselState

DIAG = (10.0, 10.0, 2.0, 2.0)
ZONE = ComfortZone(d_act=150.0, t_aware=600.0)
N_FULL = 100_000
SEED = 20260810

OWN_1 = VesselState(0.0, 0.0, 0.0, 10.0)
TARGET_1 = VesselState(1250.0, 1000.0, 270.0, 10.0)

OWN_2 = VesselState(0.0, 0.0, 0.0, 10.0)
_B2 = math.radians(354.5)
TARGET_2 = VesselState(1000.0 * math.cos(_B2), 1000.0 * math.sin(_B2), 174.5, 10.0)

OWN_3 = VesselState(0.0, 0.0, 335.0, 14.0)
_B3 = math.radians(292.0)
TARGET_3 = VesselState(200.0 * math.cos(_B3), 200.0 * math.sin(_B3), 0.0, 10.0)

PAIRS = {1: (OWN_1, TARGET_1), 2: (OWN_2, TARGET_2), 3: (OWN_3, TARGET_3)}


HO, SB, OT, PS = Region.HEAD_ON, Region.STARBOARD, Region.OVERTAKING, Region.PORT

# Independent transcription of the sixteen-cell mutual mapping, kept in the
# tests so the implementation table is checked cell by cell.
EXPECTED_TABLE = {
    (HO, HO): (Rule.R14, Obligation.GIVE_WAY),
    (HO, SB): (Rule.R15, Obligation.STAND_ON),
    (HO, OT): (Rule.R13, Obligation.GIVE_WAY),
    (HO, PS): (Rule.R15, Obligation.GIVE_WAY),
    (SB, HO): (Rule.R15, Obligation.GIVE_WAY),
    (SB, SB): (Rule.R0, Obligation.GIVE_WAY),
    (SB, OT): (Rule.R13, Obligation.GIVE_WAY),
    (SB, PS): (Rule.R15, Obligation.GIVE_WAY),
    (OT, HO): (Rule.R13, Obligation.STAND_ON),
    (OT, SB): (Rule.R13, Obligation.STAND_ON),
    (OT, OT): (Rule.R0, Obligation.GIVE_WAY),
    (OT, PS): (Rule.R13, Obligation.STAND_ON),
    (PS, HO): (Rule.R15, Obligation.STAND_ON),
    (PS, SB): (Rule.R15, Obligation.STAND_ON),
    (PS, OT): (Rule.R13, Obligation.GIVE_WAY),
    (PS, PS): (Rule.R0, Obligation.GIVE_WAY),
}


def reference_bearing(origin, target):
    """Bearing (deg) of ``target`` clockwise from ``origin``'s course."""
    absolute = math.degrees(math.atan2(target.east - origin.east, target.north - origin.north))
    beta = (absolute - origin.course) % 360.0
    return 0.0 if beta >= 360.0 else beta


def reference_region(beta, psi_own, psi_other):
    """Case-enumeration oracle for the region mapping."""
    beta = beta % 360.0
    dpsi = (psi_own - psi_other) % 360.0 - 180.0
    if (0 <= beta <= 5) or (355 < beta < 360) or abs(dpsi) <= 5:
        return HO
    if 5 < beta <= 112.5:
        return SB
    if 112.5 < beta <= 247.5:
        return OT
    return PS
