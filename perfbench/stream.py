"""Seeded stream of distinct two-vessel encounters.

Encounter ``i`` of seed ``s`` depends only on ``(s, i)``, so the stream is
as long as a run needs and the same seed always yields the same inputs.
The mix covers the input properties the library's cost and answers depend
on: bearings near the region band edges (or course deltas near the 5 deg
head-on test), open-water placements, near-parallel courses (heavy-tailed
TCPA, the input most likely to push the ISJ fixed point into its Silverman
fallback), pairs whose sampled velocities all coincide (degenerate CPA), an
exactly known own ship versus both vessels uncertain, and uncertainty scales
alpha from 0.1 to 5 (at alpha = 5 about 16% of sampled speeds are negative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import colreg_risk as cr

BAND_EDGES = (5.0, 112.5, 247.5, 355.0)
ALPHAS = (0.1, 0.5, 1.0, 1.5, 2.0, 5.0)
DIAG = (10.0, 10.0, 2.0, 2.0)
POSITION_ONLY = (10.0, 10.0, 0.0, 0.0)
ZONE = cr.ComfortZone(d_act=150.0, t_aware=600.0)
KINDS = ("band_edge", "course_edge", "open_water", "near_parallel", "degenerate")
KIND_WEIGHTS = (0.30, 0.10, 0.35, 0.15, 0.10)


@dataclass(frozen=True)
class Encounter:
    own: cr.VesselState
    own_unc: cr.StateUncertainty
    target: cr.VesselState
    target_unc: cr.StateUncertainty
    seed: int
    kind: str
    alpha: float
    exact_own: bool


def _course(deg: float) -> float:
    wrapped = deg % 360.0
    return 0.0 if wrapped >= 360.0 else wrapped


def encounter(seed: int, index: int) -> Encounter:
    rng = np.random.default_rng([seed, index])
    kind = KINDS[int(rng.choice(len(KINDS), p=KIND_WEIGHTS))]
    alpha = float(ALPHAS[int(rng.integers(len(ALPHAS)))])
    exact_own = bool(rng.random() < 0.5)
    own = cr.VesselState(0.0, 0.0, float(rng.uniform(0.0, 360.0)), float(rng.uniform(5.0, 15.0)))

    bearing = float(rng.uniform(0.0, 360.0))
    range_m = float(rng.uniform(500.0, 3000.0))
    speed = float(rng.uniform(5.0, 15.0))
    if kind == "band_edge":
        bearing = BAND_EDGES[int(rng.integers(4))] + float(rng.uniform(-2.0, 2.0))
        # Head roughly back towards the own ship so the pair approaches.
        course = own.course + bearing + 180.0 + float(rng.uniform(-40.0, 40.0))
    elif kind == "course_edge":
        side = 1.0 if rng.random() < 0.5 else -1.0
        course = own.course + 180.0 + side * (5.0 + float(rng.uniform(-2.0, 2.0)))
    elif kind == "open_water":
        range_m = float(rng.uniform(500.0, 5000.0))
        course = float(rng.uniform(0.0, 360.0))
        speed = float(rng.uniform(2.0, 15.0))
    elif kind == "near_parallel":
        course = own.course + float(rng.uniform(-1.0, 1.0))
        speed = own.speed + float(rng.uniform(-0.1, 0.1))
    else:  # degenerate: identical velocities, position-only uncertainty
        course = own.course
        speed = own.speed

    theta = math.radians(own.course + bearing)
    target = cr.VesselState(range_m * math.cos(theta), range_m * math.sin(theta),
                            _course(course), speed)
    diag = POSITION_ONLY if kind == "degenerate" else DIAG
    target_unc = cr.make_uncertainty(diag, alpha)
    own_unc = cr.make_uncertainty(diag, 0.0 if exact_own else alpha)
    return Encounter(own, own_unc, target, target_unc, int(rng.integers(2**62)),
                     kind, alpha, exact_own)


def _near_edge(beta: float) -> bool:
    return any(abs((beta - edge + 180.0) % 360.0 - 180.0) <= 2.0 for edge in BAND_EDGES)


def properties(encounters: list[Encounter]) -> dict[str, float]:
    """Share of each input property among the given encounters.

    The generator's kind is recorded as ``kind.*``; the ``nominal.*``
    shares are computed from the mean states, whatever kind made them.
    """
    n = len(encounters)
    counts: dict[str, int] = {f"kind.{k}": 0 for k in KINDS}
    counts.update({f"alpha.{a:g}": 0 for a in ALPHAS})
    for key in ("exact_own", "both_uncertain", "nominal.near_band_edge",
                "nominal.near_course_edge", "nominal.parallel", "nominal.open_water"):
        counts[key] = 0
    for e in encounters:
        counts[f"kind.{e.kind}"] += 1
        counts[f"alpha.{e.alpha:g}"] += 1
        counts["exact_own" if e.exact_own else "both_uncertain"] += 1
        edge = _near_edge(cr.relative_bearing(e.own, e.target)) or _near_edge(
            cr.relative_bearing(e.target, e.own)
        )
        course_edge = abs(abs(cr.reciprocal_course(e.own.course, e.target.course)) - 5.0) <= 2.0
        try:
            dcpa = cr.cpa(e.own, e.target).dcpa
            parallel = False
        except cr.DegenerateRelativeMotion:
            dcpa = math.hypot(e.own.north - e.target.north, e.own.east - e.target.east)
            parallel = True
        dcourse = abs((e.own.course - e.target.course + 180.0) % 360.0 - 180.0)
        parallel = parallel or (dcourse <= 1.0 and abs(e.own.speed - e.target.speed) <= 0.1)
        counts["nominal.near_band_edge"] += edge
        counts["nominal.near_course_edge"] += course_edge
        counts["nominal.parallel"] += parallel
        counts["nominal.open_water"] += (
            not (edge or course_edge or parallel) and dcpa > 2.0 * ZONE.d_act
        )
    return {key: value / n for key, value in counts.items()} if n else {}
