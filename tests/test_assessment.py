"""The one count path: situation event-count vectors into a RiskAssessment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colreg_risk import (
    Method,
    Rule,
    TooFewSamples,
    assess_des,
    assess_kde,
    estimate_probabilities,
    make_uncertainty,
)
from colreg_risk.assessment import assessment_from_counts

from scenarios import DIAG, OWN_2, TARGET_2, ZONE

PROPERTY = settings(database=None, derandomize=True, deadline=None, max_examples=200)

# Literal slot layout: R0, R13, R14, R15, two slots each, stand-on first.
# R0 and R14 never oblige the acting vessel to stand on.
IMPOSSIBLE_SLOTS = (0, 4)


def oracle(risk, window, c, n):
    """Expected fields, written out slot by slot."""
    p_risk = risk / n
    p_give_way = ((c[1] + c[3] + c[5] + c[7]) / n) * p_risk
    return {
        "p_risk": p_risk,
        "p_tcpa_window": window / n,
        "p_rule": {
            Rule.R0: c[0] / n + c[1] / n,
            Rule.R13: c[2] / n + c[3] / n,
            Rule.R14: c[4] / n + c[5] / n,
            Rule.R15: c[6] / n + c[7] / n,
        },
        "p_give_way": p_give_way,
        "p_stand_on": 1.0 - p_give_way,
    }


@st.composite
def count_vectors(draw):
    possible = draw(st.lists(st.integers(0, 10**6), min_size=6, max_size=6))
    counts = list(possible)
    for slot in IMPOSSIBLE_SLOTS:
        counts.insert(slot, 0)
    n = sum(counts)
    if n == 0:
        counts[1] = n = 1
    return counts, n, draw(st.integers(0, n)), draw(st.integers(0, n))


@PROPERTY
@given(count_vectors())
def test_from_counts_matches_literal_oracle(case):
    counts, n, risk, window = case
    a = assessment_from_counts(risk, window, counts, n, Method.DES, seed=3)
    expected = oracle(risk, window, counts, n)
    assert a.p_risk == expected["p_risk"]
    assert a.p_tcpa_window == expected["p_tcpa_window"]
    assert list(a.p_rule.items()) == list(expected["p_rule"].items())
    assert a.p_give_way == expected["p_give_way"]
    assert a.p_stand_on == expected["p_stand_on"]
    assert (a.method, a.n_samples, a.seed, a.situation) == (Method.DES, n, 3, None)


def _fields(a):
    return {
        "p_risk": a.p_risk, "p_tcpa_window": a.p_tcpa_window, "p_rule": dict(a.p_rule),
        "p_give_way": a.p_give_way, "p_stand_on": a.p_stand_on,
    }


def test_run_strings_count_each_situation_word_in_its_slot():
    # No situation word is the no-rule event, R0 give-way (slot 1).
    strings = [("u15",), ("aware_t", "u4", "u15"), ("u5",), ("u6", "u15"), ("u7",), ("u8",)]
    a = estimate_probabilities(strings, seed=2)
    assert _fields(a) == oracle(3, 1, [0, 1, 1, 1, 0, 1, 1, 1], 6)
    assert (a.method, a.n_samples, a.seed) == (Method.DES, 6, 2)


def test_from_counts_rejects_bad_vectors():
    with pytest.raises(ValueError, match="8 event counts summing to 4"):
        assessment_from_counts(0, 0, [0, 1, 1, 0, 0, 1, 0, 0], 4, Method.DES, 0)
    with pytest.raises(ValueError, match="8 event counts summing to 3"):
        assessment_from_counts(0, 0, [0, 1, 1, 0, 0, 1], 3, Method.DES, 0)
    with pytest.raises(TooFewSamples, match="need at least one sample"):
        assessment_from_counts(0, 0, [0] * 8, 0, Method.DES, 0)


@pytest.mark.parametrize("assess", [assess_kde, assess_des])
def test_p_rule_is_read_only(assess):
    unc = make_uncertainty(DIAG, 1.0)
    a = assess(OWN_2, unc, TARGET_2, unc, ZONE, 1000, 4)
    assert list(a.p_rule) == [Rule.R0, Rule.R13, Rule.R14, Rule.R15]
    with pytest.raises(TypeError):
        a.p_rule[Rule.R0] = 0.5
