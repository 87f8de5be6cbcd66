"""Result containers shared by the two estimation pipelines."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .colregs import N_EVENTS, RULE_VALUES, Region, Rule
from .sampling import TooFewSamples


class Method(Enum):
    KDE = "kde"
    DES = "des"


@dataclass(frozen=True)
class SituationDistribution:
    """Per-vessel region probabilities and the joint region-pair table."""

    own_regions: Mapping[Region, float]
    other_regions: Mapping[Region, float]
    joint: Mapping[tuple[Region, Region], float]


@dataclass(frozen=True)
class RiskAssessment:
    """Probability bundle for one assessed vessel pair.

    ``p_risk`` is P(DCPA <= d_act); ``p_tcpa_window`` is P(0 <= TCPA <=
    t_aware), reported separately because the action threshold alone
    drives the risk columns.  ``p_rule`` aggregates both obligations under
    R13/R15, in RULE_VALUES order, and always sums to one across the four
    rules.  ``p_give_way`` is the give-way share times ``p_risk`` and
    ``p_stand_on`` is 1 - p_give_way.  Build one with ``from_shares``.
    """

    p_risk: float
    p_tcpa_window: float
    p_rule: Mapping[Rule, float]
    p_give_way: float
    p_stand_on: float
    method: Method
    n_samples: int
    seed: int
    situation: SituationDistribution | None = None

    @classmethod
    def from_shares(
        cls,
        p_risk: float,
        p_tcpa_window: float,
        rule_shares: Iterable[float],
        give_way_share: float,
        method: Method,
        n_samples: int,
        seed: int,
        situation: SituationDistribution | None = None,
    ) -> RiskAssessment:
        """The one constructor: P(rule) from shares in RULE_VALUES order, and
        the give-way probability as the give-way share times the risk,
        mirroring the conditional-times-marginal factorisation."""
        p_give_way = give_way_share * p_risk
        return cls(
            p_risk=p_risk,
            p_tcpa_window=p_tcpa_window,
            p_rule=MappingProxyType(dict(zip(RULE_VALUES, map(float, rule_shares)))),
            p_give_way=p_give_way,
            p_stand_on=1.0 - p_give_way,
            method=method,
            n_samples=n_samples,
            seed=seed,
            situation=situation,
        )


def assessment_from_counts(
    risk_count: int,
    window_count: int,
    event_counts: Sequence[int],
    n: int,
    method: Method,
    seed: int,
    situation: SituationDistribution | None = None,
) -> RiskAssessment:
    """Assemble a RiskAssessment from per-sample counts.

    ``event_counts`` holds N_EVENTS situation event counts indexed by
    ``colregs.event_code``; every sample must land in exactly one event.
    """
    if n < 1:
        raise TooFewSamples("need at least one sample")
    counts = [int(c) for c in event_counts]
    if len(counts) != N_EVENTS or sum(counts) != n:
        raise ValueError(f"need {N_EVENTS} event counts summing to {n}, got {counts}")
    return RiskAssessment.from_shares(
        p_risk=risk_count / n,
        p_tcpa_window=window_count / n,
        rule_shares=(stand_on / n + give_way / n
                     for stand_on, give_way in zip(counts[0::2], counts[1::2])),
        give_way_share=sum(counts[1::2]) / n,
        method=method,
        n_samples=n,
        seed=seed,
        situation=situation,
    )
