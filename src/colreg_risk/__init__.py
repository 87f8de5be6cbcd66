"""Probabilistic COLREGs encounter evaluation under tracker uncertainty.

The package evaluates a two-vessel encounter snapshot: closest-point-of-
approach geometry, rule classification with give-way/stand-on obligations,
and Monte-Carlo propagation of state-estimation uncertainty through two
interchangeable pipelines (kernel densities and discrete-event counting).
"""

from .assessment import Method, RiskAssessment, SituationDistribution
from .automaton import (
    AutomatonConfig,
    EmpiricalBehavior,
    RISK_ACT,
    RunString,
    estimate_behavioral_relation,
    estimate_probabilities,
    indicator,
    run_once,
    run_trace,
)
from .colregs import (
    ComfortZone,
    Obligation,
    Region,
    Rule,
    SituationOutcome,
    bearing_region,
    classify_pair,
    give_way_pairs,
    mutual_situation,
)
from .density import (
    DensityEstimate,
    Topology,
    bandwidth_grid_cv,
    bandwidth_isj,
    bandwidth_silverman,
    evaluate,
    fit,
    integrate,
    ks_normality,
    select_bandwidth,
)
from .estimator import (
    EncounterBuffers,
    assess,
    assess_des,
    assess_kde,
    encounter_buffers,
    propagation_study,
)
from .kinematics import (
    CoincidentPositions,
    CpaResult,
    VesselState,
    cpa,
    reciprocal_course,
    relative_bearing,
)
from .sampling import (
    SampleBatch,
    StateSample,
    StateUncertainty,
    TooFewSamples,
    draw,
    draw_pair,
    make_uncertainty,
)

__version__ = "0.1.0"

__all__ = [
    "AutomatonConfig",
    "ComfortZone",
    "CoincidentPositions",
    "CpaResult",
    "DensityEstimate",
    "EmpiricalBehavior",
    "EncounterBuffers",
    "Method",
    "Obligation",
    "Region",
    "RISK_ACT",
    "RiskAssessment",
    "Rule",
    "RunString",
    "SampleBatch",
    "SituationDistribution",
    "SituationOutcome",
    "StateSample",
    "StateUncertainty",
    "TooFewSamples",
    "Topology",
    "VesselState",
    "assess",
    "assess_des",
    "assess_kde",
    "bandwidth_grid_cv",
    "bandwidth_isj",
    "bandwidth_silverman",
    "bearing_region",
    "classify_pair",
    "cpa",
    "draw",
    "draw_pair",
    "encounter_buffers",
    "estimate_behavioral_relation",
    "estimate_probabilities",
    "evaluate",
    "fit",
    "give_way_pairs",
    "indicator",
    "integrate",
    "ks_normality",
    "make_uncertainty",
    "mutual_situation",
    "propagation_study",
    "reciprocal_course",
    "relative_bearing",
    "run_once",
    "run_trace",
    "select_bandwidth",
]
