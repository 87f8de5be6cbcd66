"""Stochastic discrete-event evaluation of vessel encounters.

Every evaluation walks the thirteen-state loop U1 -> U2 -> ... -> U13 -> U1
once, reading no input, and the words emitted along the way form a string
that encodes the outcome:

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
probabilities.  Aligned state/word trajectories turn into the loop's
behavioral relation: how often each (next state, word) follows each state,
counted over the runs.  A loop emits at most one situation word, and a
string of any other origin is read the same way: its situation is its
first situation word in ``SITUATION_WORDS`` order, else no rule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Mapping, Sequence

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
_NO_RULE = SituationOutcome(Rule.R0, Obligation.GIVE_WAY)

# Indicator event key for the collision-risk word.
RISK_ACT = "risk_act"

STATES: tuple[str, ...] = tuple(f"U{i}" for i in range(1, 14))


# The automaton reads the comfort zone directly; the old name stays for
# callers that construct it.
AutomatonConfig = ComfortZone


# The state sequence of every loop: U1 through U13 and back to U1.
_LOOP = STATES + ("U1",)


def run_trace(
    j: VesselState, k: VesselState, zone: ComfortZone
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """One full loop: aligned (state sequence, per-transition words).

    The state sequence has fourteen entries (U1 through U13 and back to
    U1); words[i] is emitted on the transition out of states[i] and
    is the empty string for silent transitions.
    """
    dcpa, tcpa, outcome = classify_pair(j, k)
    # U9's action horizon is the awareness window, so act_t fires with aware_t.
    in_window = zone.in_window(tcpa)
    words = (
        WORD_AWARE_DIST if dcpa <= 2.0 * zone.d_act else EPSILON,  # U1
        WORD_AWARE_TIME if in_window else EPSILON,  # U2
        EPSILON,  # U3
        SITUATION_WORDS.get(outcome, EPSILON),  # U4
        EPSILON, EPSILON, EPSILON,  # U5..U7
        WORD_RISK_ACT if zone.at_risk(dcpa) else EPSILON,  # U8
        WORD_ACT_TIME if in_window else EPSILON,  # U9
        EPSILON, EPSILON, EPSILON, EPSILON,  # U10..U13
    )
    return _LOOP, words


def run_once(j: VesselState, k: VesselState, zone: ComfortZone) -> RunString:
    """Output string of one loop: the non-silent words in emission order."""
    _, words = run_trace(j, k, zone)
    return tuple(word for word in words if word)


def _situation(s: Collection[str]) -> SituationOutcome:
    """The situation a run string reports: its first situation word in
    ``SITUATION_WORDS`` order, else no rule."""
    return next((outcome for outcome, word in SITUATION_WORDS.items() if word in s), _NO_RULE)


def _words(s: Sequence[str]) -> RunString:
    if isinstance(s, str):  # read letter by letter, "xu15x" would hold "u15"
        raise ValueError(f"a run string is a sequence of words, not a str: {s!r:.60}")
    return tuple(s)


def indicator(s: Sequence[str], event: object) -> int:
    """Membership indicator for a run string.

    ``event`` is either RISK_ACT (the string contains the action-radius
    word) or a (rule, obligation) pair, which fires when it is the string's
    situation: the first situation word in ``SITUATION_WORDS`` order, else
    no rule.  The six situation events therefore partition every string.  A
    ``str`` is not a run string (ValueError).
    """
    s = _words(s)
    if event == RISK_ACT:
        return int(WORD_RISK_ACT in s)
    rule, obligation = event
    key = SituationOutcome(Rule(rule), Obligation(obligation))
    if key != _NO_RULE and key not in SITUATION_WORDS:
        raise ValueError(f"no indicator event for {key}")
    return int(_situation(s) == key)


def estimate_probabilities(strings: Iterable[RunString], seed: int = 0) -> RiskAssessment:
    """Empirical event probabilities over a batch of run strings.

    Each string increments the counter of its situation, read as
    ``indicator`` reads it (the first situation word in ``SITUATION_WORDS``
    order, else no rule), so each situation probability is the mean of its
    indicator and the probabilities reflect the joint sample rather than
    an independence product.  A ``str`` is not a run string (ValueError).
    """
    # Runs repeat a handful of strings, so each distinct one is read once.
    runs = Counter(map(_words, strings))
    if not runs:
        raise TooFewSamples("no run strings given")

    risk_count = 0
    window_count = 0
    counts = [0] * N_EVENTS
    for s, multiplicity in runs.items():
        present = set(s)
        if WORD_RISK_ACT in present:
            risk_count += multiplicity
        if WORD_AWARE_TIME in present:
            window_count += multiplicity
        counts[event_code(_situation(present))] += multiplicity

    return assessment_from_counts(
        risk_count=risk_count,
        window_count=window_count,
        event_counts=counts,
        n=runs.total(),
        method=Method.DES,
        seed=seed,
    )


@dataclass(frozen=True)
class EmpiricalBehavior:
    """Empirical behavioral relation estimated from aligned trajectories.

    ``counts`` maps (next state, word, state) to its transition count and
    ``visits`` maps each state to the transitions out of it.  Probabilities
    are counts over visits, so they lie in [0, 1] by construction, and
    ``outgoing_mass`` sums the integer counts before its one division, so
    it is exactly 1.0 for every visited state.
    """

    counts: Mapping[tuple[str, str, str], int]
    visits: Mapping[str, int]

    def _share(self, state: str, keep: Callable[[str], bool]) -> float:
        """Summed counts of the transitions out of ``state`` whose word
        ``keep`` accepts, divided once by the visits."""
        seen = self.visits.get(state, 0)
        if seen == 0:
            return 0.0
        total = sum(c for (_nxt, w, src), c in self.counts.items() if src == state and keep(w))
        return total / seen

    def output_probability(self, word: str, state: str) -> float:
        return self._share(state, lambda w: w == word)

    def outgoing_mass(self, state: str) -> float:
        return self._share(state, lambda _w: True)


def estimate_behavioral_relation(
    runs: Iterable[tuple[Sequence[str], Sequence[str]]],
) -> EmpiricalBehavior:
    """Estimate the behavioral relation from aligned (states, words) runs.

    Each distinct trajectory is counted once and its transitions are added
    times its multiplicity.  Trajectories are met in input order and a
    repeat adds no key, so ``counts`` and ``visits`` keep the key order of
    counting one transition at a time.
    """
    trajectories: Counter[tuple[tuple[str, ...], tuple[str, ...]]] = Counter()
    for states, words in runs:
        if len(states) != len(words) + 1:
            raise ValueError("trajectories misaligned: need one word per transition")
        trajectories[tuple(states), tuple(words)] += 1
    if not trajectories:
        raise TooFewSamples("no runs given")
    counts: Counter[tuple[str, str, str]] = Counter()
    visits: Counter[str] = Counter()
    for (states, words), multiplicity in trajectories.items():
        for key in zip(states[1:], words, states):
            counts[key] += multiplicity
        for state in states[:-1]:
            visits[state] += multiplicity
    return EmpiricalBehavior(counts=dict(counts), visits=dict(visits))
