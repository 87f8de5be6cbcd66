"""Stochastic discrete-event evaluation of vessel encounters.

A generic stochastic automaton is a five-tuple (states, inputs, outputs,
behavioral relation, initial distribution).  The situation-interpretation
instance used here is input-free: every evaluation walks the thirteen-state
loop U1 -> U2 -> ... -> U13 -> U1 once, and the words emitted along the way
form a string that encodes the outcome:

* U1 emits ``aware_d`` when DCPA is inside the awareness radius, twice the
  action radius,
* U2 emits ``aware_t`` when the CPA lies within the awareness window,
* U4 emits the situation word (``u4``/``u5`` for rule 13 stand-on/give-way,
  ``u6`` for rule 14, ``u7``/``u8`` for rule 15 stand-on/give-way) or stays
  silent when no rule applies,
* U8 emits ``u15`` when DCPA is inside the action radius,
* U9 emits ``act_t`` when the CPA lies within the action horizon, which is
  the awareness window, so it fires exactly when ``aware_t`` does,
* all other states are silent pass-throughs.

Strings from repeated runs over sampled states turn into empirical event
probabilities; aligned state/word trajectories turn into an empirical
behavioral relation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .assessment import Method, RiskAssessment, assessment_from_counts
from .colregs import (
    N_EVENTS,
    ComfortZone,
    Obligation,
    Rule,
    SituationOutcome,
    classify_pair,
    event_code,
)
from .kinematics import VesselState
from .sampling import TooFewSamples

RunString = tuple[str, ...]

# Output alphabet.
WORD_RISK_ACT = "u15"
WORD_AWARE_DIST = "aware_d"
WORD_AWARE_TIME = "aware_t"
WORD_ACT_TIME = "act_t"
EPSILON = ""

SITUATION_WORDS: Mapping[SituationOutcome, str] = {
    SituationOutcome(Rule.R13, Obligation.STAND_ON): "u4",
    SituationOutcome(Rule.R13, Obligation.GIVE_WAY): "u5",
    SituationOutcome(Rule.R14, Obligation.GIVE_WAY): "u6",
    SituationOutcome(Rule.R15, Obligation.STAND_ON): "u7",
    SituationOutcome(Rule.R15, Obligation.GIVE_WAY): "u8",
}
_EVENT_CODE_FOR_WORD = {word: event_code(outcome) for outcome, word in SITUATION_WORDS.items()}
_NO_RULE_CODE = event_code(SituationOutcome(Rule.R0, Obligation.GIVE_WAY))
_ALL_SITUATION_WORDS = frozenset(SITUATION_WORDS.values())

# Indicator event key for the collision-risk word.
RISK_ACT = "risk_act"

STATES: tuple[str, ...] = tuple(f"U{i}" for i in range(1, 14))
MARKED_STATES: frozenset[str] = frozenset({"U1", "U13"})


# The automaton reads the comfort zone directly; the old name stays for
# callers that construct it.
AutomatonConfig = ComfortZone


@dataclass(frozen=True)
class StochasticAutomaton:
    """Generic stochastic automaton container.

    ``behavior`` maps (next_state, word, state) to a probability; for each
    source state the outgoing probabilities must sum to one.
    """

    states: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    behavior: Mapping[tuple[str, str, str], float]
    initial: Mapping[str, float]
    marked: frozenset[str] = field(default_factory=frozenset)

    def validate(self) -> None:
        """Check probability bounds, known states and unit masses to 1e-12."""
        tol = 1e-12
        for (nxt, _word, src), prob in self.behavior.items():
            if not (0.0 <= prob <= 1.0):
                raise ValueError(f"behavior({nxt!r}|{src!r}) = {prob} outside [0, 1]")
            if nxt not in self.states or src not in self.states:
                raise ValueError("behavior references unknown state")
        for src in self.states:
            outgoing = [p for (n, w, s), p in self.behavior.items() if s == src]
            if outgoing and abs(math.fsum(outgoing) - 1.0) > tol:
                raise ValueError(f"outgoing mass from {src!r} is {math.fsum(outgoing)}")
        total_p0 = math.fsum(self.initial.values())
        if abs(total_p0 - 1.0) > tol:
            raise ValueError(f"initial distribution sums to {total_p0}")


def _encounter_words(j: VesselState, k: VesselState, zone: ComfortZone) -> dict[str, str]:
    """Words emitted by the testing states for one deterministic pair."""
    dcpa, tcpa, outcome = classify_pair(j, k)
    in_window = zone.in_window(tcpa)
    return {
        "U1": WORD_AWARE_DIST if dcpa <= 2.0 * zone.d_act else EPSILON,
        "U2": WORD_AWARE_TIME if in_window else EPSILON,
        "U4": SITUATION_WORDS.get(outcome, EPSILON),
        "U8": WORD_RISK_ACT if zone.at_risk(dcpa) else EPSILON,
        "U9": WORD_ACT_TIME if in_window else EPSILON,
    }


def run_trace(
    j: VesselState, k: VesselState, zone: ComfortZone
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """One full loop: aligned (state sequence, per-transition words).

    The state sequence has fourteen entries (U1 through U13 and back to the
    marked U1); words[i] is emitted on the transition out of states[i] and
    is the empty string for silent transitions.
    """
    emitted = _encounter_words(j, k, zone)
    states = STATES + ("U1",)
    words = tuple(emitted.get(src, EPSILON) for src in STATES)
    return states, words


def run_once(j: VesselState, k: VesselState, zone: ComfortZone) -> RunString:
    """Output string of one loop: the non-silent words in emission order."""
    _, words = run_trace(j, k, zone)
    return tuple(word for word in words if word)


def indicator(s: Sequence[str], event: object) -> int:
    """Membership indicator for a run string.

    ``event`` is either RISK_ACT (the string contains the action-radius
    word) or a (rule, obligation) pair; the no-rule event fires exactly
    when no situation word is present.
    """
    if event == RISK_ACT:
        return int(WORD_RISK_ACT in s)
    rule, obligation = event
    key = SituationOutcome(Rule(rule), Obligation(obligation))
    if key == SituationOutcome(Rule.R0, Obligation.GIVE_WAY):
        return int(not _ALL_SITUATION_WORDS.intersection(s))
    word = SITUATION_WORDS.get(key)
    if word is None:
        raise ValueError(f"no indicator event for {key}")
    return int(word in s)


def estimate_probabilities(strings: Iterable[RunString], seed: int = 0) -> RiskAssessment:
    """Empirical event probabilities over a batch of run strings.

    Each string increments exactly one situation counter (first matching
    situation word, else the no-rule bucket), so the situation
    probabilities reflect the joint sample rather than an independence
    product.
    """
    runs = list(strings)
    if not runs:
        raise TooFewSamples("no run strings given")

    risk_count = 0
    window_count = 0
    counts = [0] * N_EVENTS
    for s in runs:
        present = set(s)
        if WORD_RISK_ACT in present:
            risk_count += 1
        if WORD_AWARE_TIME in present:
            window_count += 1
        code = next(
            (c for word, c in _EVENT_CODE_FOR_WORD.items() if word in present), _NO_RULE_CODE
        )
        counts[code] += 1

    return assessment_from_counts(
        risk_count=risk_count,
        window_count=window_count,
        event_counts=counts,
        n=len(runs),
        method=Method.DES,
        seed=seed,
    )


@dataclass(frozen=True)
class EmpiricalBehavior:
    """Empirical behavioral relation estimated from aligned trajectories.

    Probabilities are transition counts over source-state visits, so the
    bound and unit-sum properties hold by construction; ``outgoing_mass``
    evaluates the sum integer-first and therefore returns exactly 1.0 for
    every visited state.
    """

    counts: Mapping[tuple[str, str, str], int]
    visits: Mapping[str, int]

    def probability(self, next_state: str, word: str, state: str) -> float:
        seen = self.visits.get(state, 0)
        if seen == 0:
            return 0.0
        return self.counts.get((next_state, word, state), 0) / seen

    def _share(self, state: str, keep: Callable[[str, str], bool]) -> float:
        """Summed counts of the transitions out of ``state`` whose (next
        state, word) ``keep`` accepts, divided once by the visits."""
        seen = self.visits.get(state, 0)
        if seen == 0:
            return 0.0
        total = sum(
            c for (nxt, w, src), c in self.counts.items() if src == state and keep(nxt, w)
        )
        return total / seen

    def transition_probability(self, next_state: str, state: str) -> float:
        return self._share(state, lambda nxt, _w: nxt == next_state)

    def output_probability(self, word: str, state: str) -> float:
        return self._share(state, lambda _nxt, w: w == word)

    def outgoing_mass(self, state: str) -> float:
        return self._share(state, lambda _nxt, _w: True)

    def as_automaton(self) -> StochasticAutomaton:
        words = sorted({w for (_n, w, _s) in self.counts})
        automaton = StochasticAutomaton(
            states=STATES,
            inputs=(),
            outputs=tuple(words),
            behavior={key: self.probability(*key) for key in self.counts},
            initial={"U1": 1.0},
            marked=MARKED_STATES,
        )
        automaton.validate()
        return automaton


def estimate_behavioral_relation(
    runs: Iterable[tuple[Sequence[str], Sequence[str]]],
) -> EmpiricalBehavior:
    """Estimate the behavioral relation from aligned (states, words) runs."""
    counts: Counter[tuple[str, str, str]] = Counter()
    visits: Counter[str] = Counter()
    n_runs = 0
    for states, words in runs:
        n_runs += 1
        if len(states) != len(words) + 1:
            raise ValueError("trajectories misaligned: need one word per transition")
        counts.update(zip(states[1:], words, states))
        visits.update(states[:-1])
    if n_runs == 0:
        raise TooFewSamples("no runs given")
    return EmpiricalBehavior(counts=dict(counts), visits=dict(visits))
