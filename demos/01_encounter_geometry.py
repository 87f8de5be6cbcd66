"""
Encounter geometry basics
=========================

Closest-point-of-approach quantities, relative bearings, and the rule
classification for three reference encounters.  The risk answer is the
comfort zone's one test, DCPA inside the action radius, as in both
Monte-Carlo pipelines.
"""

from colreg_risk import (
    ComfortZone,
    VesselState,
    classify_pair,
    relative_bearing,
)

zone = ComfortZone(d_act=150.0, t_aware=600.0)

encounters = {
    "starboard crossing": (
        VesselState(0, 0, 0, 10),
        VesselState(1250, 1000, 270, 10),
    ),
    "head-on / port boundary": (
        VesselState(0, 0, 0, 10),
        VesselState(995.40, -95.85, 174.5, 10),
    ),
    "overtaking / starboard boundary": (
        VesselState(0, 0, 335, 14),
        VesselState(74.921, -185.437, 0, 10),
    ),
}

for name, (own, target) in encounters.items():
    dcpa, tcpa, outcome = classify_pair(own, target)
    print(f"{name}:")
    print(f"  TCPA = {tcpa:8.2f} s   DCPA = {dcpa:8.2f} m")
    print(f"  bearing own->target = {relative_bearing(own, target):6.1f} deg, "
          f"target->own = {relative_bearing(target, own):6.1f} deg")
    print(f"  risk inside comfort zone: {zone.at_risk(dcpa)}")
    print(f"  applicable rule: {outcome.rule.name}, "
          f"obligation: {outcome.obligation.name}")
    print()
