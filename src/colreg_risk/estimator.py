"""End-to-end encounter assessment under tracker uncertainty.

Two interchangeable Monte-Carlo pipelines produce a ``RiskAssessment`` for
a vessel pair: a density pipeline that fits kernel densities to the sampled
CPA/bearing quantities and integrates the relevant bands, and a counting
pipeline that applies the discrete-event loop's word tests as masks over
the buffers and averages the indicator outcomes.  ``assess`` draws one
batch and builds its geometry once, then runs each requested pipeline on
those same buffers, so the methods' disagreement measures the method, not
the noise.  A batch is fixed by its seed, so ``assess_kde`` and
``assess_des`` called apart give the answers ``assess`` gives for both at
once.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .assessment import Method, RiskAssessment, SituationDistribution, assessment_from_counts
from .colregs import (
    BEARING_BANDS,
    HEAD_ON_COURSE_DEG,
    ComfortZone,
    Region,
    band_regions,
    bearing_regions,
    course_head_on,
    event_counts,
    situation_codes,
    situation_masses,
)
from .density import (
    DensityEstimate,
    Topology,
    band_masses,
    fit,
    integrate,
    select_bandwidth,
)
from .kinematics import (
    POSITION_EPS,
    CoincidentPositions,
    VesselState,
    bearing_arrays,
    cpa_arrays,
    place_target,
    reciprocal_course,
    wrap_degrees,
)
from .sampling import SampleBatch, StateUncertainty, TooFewSamples, draw_pair, pair_stream_seeds


@dataclass(frozen=True)
class EncounterBuffers:
    """Per-sample CPA and bearing quantities for one sampled batch.

    Degenerate samples (matched velocities) carry tcpa = +inf and dcpa
    equal to the current separation, and they are the only samples with
    an infinite TCPA: a non-degenerate pair whose TCPA overflows has a
    non-finite DCPA, which ``encounter_buffers`` rejects.  The five arrays
    are read-only, so no method of ``assess`` can change what another reads.
    """

    tcpa: np.ndarray
    dcpa: np.ndarray
    bearing_jk: np.ndarray
    bearing_kj: np.ndarray
    course_delta: np.ndarray


def encounter_buffers(batch: SampleBatch) -> EncounterBuffers:
    """Vectorised CPA/bearing evaluation of a sampled batch.

    Raises:
        CoincidentPositions: some sampled pair's positions agree within
            POSITION_EPS, where ``relative_bearing`` raises too; the array
            bearing would otherwise be atan2(0, 0).
        FloatingPointError: a non-finite DCPA, bearing or course delta, or a
            NaN TCPA (+inf TCPA marks a degenerate pair and is kept).
    """
    sj, sk = batch.states_j, batch.states_k
    with np.errstate(over="ignore"):  # an overflowing offset is not coincident
        gap = sk.north - sj.north
        near = np.flatnonzero(np.abs(gap, out=gap) <= POSITION_EPS)
        del gap  # not held through the geometry below
        # Only the rows that coincide northward need the east test.
        if near.size and (np.abs(sk.east[near] - sj.east[near]) <= POSITION_EPS).any():
            raise CoincidentPositions("bearing undefined for coincident sampled positions")
    tcpa, dcpa, _ = cpa_arrays(
        sj.north, sj.east, sj.course, sj.speed,
        sk.north, sk.east, sk.course, sk.speed,
    )
    buf = EncounterBuffers(
        tcpa=tcpa,
        dcpa=dcpa,
        bearing_jk=bearing_arrays(sj.north, sj.east, sj.course, sk.north, sk.east),
        bearing_kj=bearing_arrays(sk.north, sk.east, sk.course, sj.north, sj.east),
        course_delta=reciprocal_course(sj.course, sk.course),
    )
    finite = (buf.dcpa, buf.bearing_jk, buf.bearing_kj, buf.course_delta)
    if np.isnan(tcpa).any() or not all(np.isfinite(col).all() for col in finite):
        raise FloatingPointError(
            "sampled states overflow the CPA/bearing geometry "
            "(non-finite DCPA, TCPA or bearing values)"
        )
    for col in (tcpa, *finite):
        col.setflags(write=False)
    return buf


# ---------------------------------------------------------------------------
# Density-pipeline helpers.  Rows with no density -- every row of a buffer
# with zero spread (exact tracking), and a degenerate pair's +inf TCPA --
# take the share of samples passing the matching DES test, so the pipeline
# returns the DES answer there.
# ---------------------------------------------------------------------------


def _fit_buffer(values: np.ndarray, topology: Topology) -> DensityEstimate | None:
    if float(np.ptp(values)) == 0.0:
        return None
    return fit(values, select_bandwidth(values, topology=topology), topology)


def _line_probability(values: np.ndarray, test: Callable, lo: float, hi: float) -> float:
    """Mass of the buffer's density on [lo, hi], or, for a buffer with zero
    spread, the share of samples that pass the matching DES ``test``."""
    density = _fit_buffer(values, Topology.LINE)
    return float(np.mean(test(values))) if density is None else integrate(density, lo, hi)


def _region_probabilities(bearings: np.ndarray, p_course_opposed: float) -> np.ndarray:
    """Marginal region probabilities for one vessel.

    The head-on probability is the union of the bearing band and the
    course-proximity event (treated as independent); the other bands are
    scaled by the complement so the four probabilities sum to one.
    """
    density = _fit_buffer(bearings, Topology.CIRCLE360)
    if density is None:
        band = np.bincount(bearing_regions(bearings), minlength=len(Region)) / bearings.size
    else:
        band = np.clip(band_regions(band_masses(density, BEARING_BANDS)), 0.0, 1.0)
    probs = band * (1.0 - p_course_opposed)
    head_on = band[0] + p_course_opposed - band[0] * p_course_opposed
    probs[0] = head_on
    return probs


def _situation(own: np.ndarray, other: np.ndarray, joint: np.ndarray) -> SituationDistribution:
    """Situation record from the two region marginals and the 4x4 joint."""
    return SituationDistribution(
        own_regions={r: float(own[r]) for r in Region},
        other_regions={r: float(other[r]) for r in Region},
        joint={(a, t): float(joint[a, t]) for a in Region for t in Region},
    )


def _kde(buf: EncounterBuffers, zone: ComfortZone, n: int, seed: int) -> RiskAssessment:
    """The density pipeline's step on one batch's buffers (see ``assess_kde``)."""
    p_risk = _line_probability(buf.dcpa, zone.at_risk, 0.0, zone.d_act)
    finite = np.isfinite(buf.tcpa)
    p_window = float(np.mean(~finite)) * zone.in_window(math.inf)
    if finite.any():
        # Every TCPA finite: the buffer itself, with no n-sized copy.
        tcpa = buf.tcpa if finite.all() else buf.tcpa[finite]
        p_window += float(np.mean(finite)) * _line_probability(
            tcpa, zone.in_window, 0.0, zone.t_aware
        )
    p_course_opposed = _line_probability(
        buf.course_delta, course_head_on, -HEAD_ON_COURSE_DEG, HEAD_ON_COURSE_DEG
    )
    own = _region_probabilities(buf.bearing_jk, p_course_opposed)
    other = _region_probabilities(buf.bearing_kj, p_course_opposed)

    joint = np.outer(own, other)
    rule_masses, give_way_fraction = situation_masses(joint)
    return RiskAssessment.from_shares(
        p_risk=p_risk,
        p_tcpa_window=p_window,
        rule_shares=rule_masses,
        give_way_share=give_way_fraction,
        method=Method.KDE,
        n_samples=n,
        seed=seed,
        situation=_situation(own, other, joint),
    )


def _des(buf: EncounterBuffers, zone: ComfortZone, n: int, seed: int) -> RiskAssessment:
    """The counting pipeline's step on one batch's buffers (see ``assess_des``)."""
    risk_count = int(np.count_nonzero(zone.at_risk(buf.dcpa)))
    window_count = int(np.count_nonzero(zone.in_window(buf.tcpa)))

    own_r, other_r = situation_codes(buf.bearing_jk, buf.bearing_kj, buf.course_delta)
    joint_counts = np.bincount(own_r * 4 + other_r, minlength=16).reshape(4, 4)
    situation = _situation(
        joint_counts.sum(axis=1) / n, joint_counts.sum(axis=0) / n, joint_counts / n
    )

    return assessment_from_counts(
        risk_count=risk_count,
        window_count=window_count,
        event_counts=event_counts(joint_counts),
        n=n,
        method=Method.DES,
        seed=seed,
        situation=situation,
    )


_STEPS = {Method.KDE: _kde, Method.DES: _des}


def assess(
    j_mean: VesselState,
    j_unc: StateUncertainty,
    k_mean: VesselState,
    k_unc: StateUncertainty,
    zone: ComfortZone,
    n: int,
    seed: int,
    methods: tuple[Method | str, ...],
) -> tuple[RiskAssessment, ...]:
    """Assessments of one vessel pair by each of ``methods``, in that order.

    Draws ``n`` paired samples and builds their CPA/bearing buffers once;
    every method reads those same read-only buffers, and the sampled states
    are released before the first method runs.

    Raises:
        ValueError: ``methods`` is empty, or ``Method`` rejects an entry.
        TooFewSamples: n < 1, or n < 1000 with the density pipeline among
            ``methods``.
        CoincidentPositions: a sampled pair at one position (see
            ``encounter_buffers``).
    """
    methods = tuple(map(Method, methods))
    if not methods:
        raise ValueError("need at least one method")
    if Method.KDE in methods and n < 1000:
        raise TooFewSamples(f"density pipeline needs n >= 1000, got {n}")
    if n < 1:
        raise TooFewSamples(f"need n >= 1, got {n}")
    buf = encounter_buffers(draw_pair(j_mean, j_unc, k_mean, k_unc, n, seed))
    return tuple(_STEPS[method](buf, zone, n, seed) for method in methods)


def assess_kde(
    j_mean: VesselState,
    j_unc: StateUncertainty,
    k_mean: VesselState,
    k_unc: StateUncertainty,
    zone: ComfortZone,
    n: int,
    seed: int,
) -> RiskAssessment:
    """Density-pipeline assessment of one vessel pair.

    Draws ``n`` paired samples, fits densities to the TCPA, DCPA, two
    bearing and course-opposition buffers (bearings on the circle, the rest
    on the line), and integrates: risk from the DCPA density inside d_act,
    region probabilities from the bearing bands with the head-on course
    correction, the joint as the product of the two marginals, and the
    give-way probability as the give-way mass of the joint times the risk.
    Rows with no density take the share of samples that pass the DES test
    instead: every row of a buffer with zero spread, so with exact tracking
    the result is the DES answer, and each degenerate pair's +inf TCPA,
    which counts toward the window probability exactly when
    ``zone.in_window(inf)`` holds, that is when t_aware is infinite.
    Needs n >= 1000 (``TooFewSamples``).
    """
    return assess(j_mean, j_unc, k_mean, k_unc, zone, n, seed, (Method.KDE,))[0]


def assess_des(
    j_mean: VesselState,
    j_unc: StateUncertainty,
    k_mean: VesselState,
    k_unc: StateUncertainty,
    zone: ComfortZone,
    n: int,
    seed: int,
) -> RiskAssessment:
    """Counting-pipeline assessment of one vessel pair.

    Draws the same paired samples as the density pipeline for the given
    seed and evaluates the discrete-event loop per sample.  The per-sample
    word tests are applied as vectorised masks over the array geometry,
    which shares the automaton's formulas and conventions; numpy's hypot and
    arctan2 can differ from ``math``'s by an ulp, so a sample within an ulp
    of ``d_act`` or of a band edge may count differently from ``run_once``.
    """
    return assess(j_mean, j_unc, k_mean, k_unc, zone, n, seed, (Method.DES,))[0]


# Per-component standard deviations of both vessels in ``propagation_study``.
_STUDY_SIGMAS = (10.0, 10.0, 2.0, 2.0)


def propagation_study(
    bearings: list[float],
    range_m: float,
    n: int,
    seed: int,
) -> dict[float, EncounterBuffers]:
    """Sample the CPA/bearing transformations for a ring of target placements.

    For each bearing the own ship is sampled around (0, 0, course 0,
    10 m/s) and the target around a point ``range_m`` away on that bearing,
    heading back on the mirrored course 180 - bearing (wrapped into
    [0, 360)) at 10 m/s, both with the standard deviations
    ``_STUDY_SIGMAS`` (10 m, 10 m, 2 deg, 2 m/s).  Returns the raw
    per-bearing buffers for histogram and density export.

    Raises:
        ValueError: no bearing, or one outside [0, 360) or repeated; or, from
            the functions that take them and before any draw, a negative
            ``seed``, a ``range_m`` not positive and finite, or an ``n``
            below 1 (``TooFewSamples``) or too large for numpy.
    """
    if not bearings:
        raise ValueError("need at least one bearing")
    for bearing in bearings:
        if not 0.0 <= bearing < 360.0:
            raise ValueError(f"bearing must lie in [0, 360), got {bearing}")
    if len(set(bearings)) != len(bearings):
        raise ValueError(f"bearings must be distinct, got {bearings}")
    unc = StateUncertainty(*_STUDY_SIGMAS)
    own_mean = VesselState(0.0, 0.0, 0.0, 10.0)
    pair_seeds = pair_stream_seeds(seed, len(bearings))

    out: dict[float, EncounterBuffers] = {}
    for bearing, pair_seed in zip(bearings, pair_seeds):
        target_mean = place_target(own_mean, bearing, range_m, wrap_degrees(180.0 - bearing), 10.0)
        batch = draw_pair(own_mean, unc, target_mean, unc, n, pair_seed)
        out[bearing] = encounter_buffers(batch)
    return out
