import math

import numpy as np
import pytest

from colreg_risk import (
    AutomatonConfig,
    ComfortZone,
    Obligation,
    RISK_ACT,
    Rule,
    VesselState,
    classify_sample,
    cpa,
    estimate_behavioral_relation,
    estimate_probabilities,
    indicator,
    run_once,
    run_trace,
)
from colreg_risk.automaton import MARKED_STATES, STATES, SITUATION_WORDS
from colreg_risk.sampling import StateUncertainty, TooFewSamples, draw_pair

from scenarios import (
    EXPECTED_TABLE,
    OWN_1,
    OWN_2,
    TARGET_1,
    TARGET_2,
    reference_bearing,
    reference_region,
)

CFG = ComfortZone(d_act=150.0, t_aware=600.0)

SITUATION_EVENTS = [
    (Rule.R0, Obligation.GIVE_WAY),
    (Rule.R13, Obligation.STAND_ON),
    (Rule.R13, Obligation.GIVE_WAY),
    (Rule.R14, Obligation.GIVE_WAY),
    (Rule.R15, Obligation.STAND_ON),
    (Rule.R15, Obligation.GIVE_WAY),
]


def random_state(rng):
    return VesselState(
        float(rng.uniform(-3000, 3000)), float(rng.uniform(-3000, 3000)),
        float(rng.uniform(0, 360)) % 360.0, float(rng.uniform(0.5, 20)),
    )


class TestConfig:
    def test_defaults(self):
        # The automaton takes the comfort zone; the old name is an alias.
        assert AutomatonConfig is ComfortZone
        assert AutomatonConfig(d_act=150.0, t_aware=600.0) == ComfortZone(150.0, 600.0)

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            AutomatonConfig(d_act=0.0, t_aware=600.0)
        with pytest.raises(ValueError):
            AutomatonConfig(d_act=150.0, t_aware=0.0)


class TestRunOnce:
    def test_scenario2_string(self):
        # Inside the action radius and classified (PORT, HEAD_ON): rule 15
        # stand-on, so the risk word and the stand-on word both appear.
        s = run_once(OWN_2, TARGET_2, CFG)
        assert "u15" in s and "u7" in s

    def test_scenario1_string(self):
        # Outside the action radius but a clear give-way crossing.
        s = run_once(OWN_1, TARGET_1, CFG)
        assert "u15" not in s and "u8" in s

    def test_distant_diagonal_pair_is_silent(self):
        own = VesselState(0.0, 0.0, 0.0, 10.0)
        # Target far out on true bearing 300, heading 200: both views land
        # in the port region, which maps to the silent no-rule diagonal.
        other = VesselState(
            1e6 * math.cos(math.radians(300.0)),
            1e6 * math.sin(math.radians(300.0)),
            200.0,
            10.0,
        )
        assert run_once(own, other, CFG) == ()

    def test_trace_alignment(self):
        states, words = run_trace(OWN_2, TARGET_2, CFG)
        assert states[0] == "U1" and states[-1] == "U1"
        assert len(states) == 14 and len(words) == 13
        assert states[1:-1] == STATES[1:]
        assert words[3] == "u7" and words[7] == "u15"

    def test_marked_states(self):
        assert MARKED_STATES == {"U1", "U13"}


class TestIndicator:
    def test_risk_event(self):
        assert indicator(("u15", "u7"), RISK_ACT) == 1
        assert indicator(("u7",), RISK_ACT) == 0

    def test_situation_events(self):
        assert indicator(("u15", "u7"), (Rule.R15, Obligation.STAND_ON)) == 1
        assert indicator((), (Rule.R0, Obligation.GIVE_WAY)) == 1
        assert indicator(("u5",), (Rule.R13, Obligation.GIVE_WAY)) == 1
        assert indicator(("u5",), (Rule.R13, Obligation.STAND_ON)) == 0

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError):
            indicator((), (Rule.R14, Obligation.STAND_ON))

    def test_partition_over_run_strings(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            a, b = random_state(rng), random_state(rng)
            s = run_once(a, b, CFG)
            fired = [event for event in SITUATION_EVENTS if indicator(s, event) == 1]
            assert len(fired) == 1


class TestEstimateProbabilities:
    def test_all_risky_head_on(self):
        runs = [("u15", "u6")] * 40
        a = estimate_probabilities(runs)
        assert a.p_risk == 1.0
        assert a.p_rule[Rule.R14] == 1.0
        assert a.p_give_way == 1.0
        assert a.p_stand_on == 0.0

    def test_empty_input(self):
        with pytest.raises(TooFewSamples, match="no run strings given"):
            estimate_probabilities([])

    def test_probability_identities(self):
        rng = np.random.default_rng(62)
        runs = [run_once(random_state(rng), random_state(rng), CFG) for _ in range(500)]
        a = estimate_probabilities(runs, seed=62)
        total = math.fsum(a.p_rule[r] for r in Rule)
        assert abs(total - 1.0) <= 1e-12
        assert a.p_give_way + a.p_stand_on == 1.0
        assert 0.0 <= a.p_risk <= 1.0
        assert a.seed == 62 and a.n_samples == 500

    def test_single_sample_binary(self):
        a = estimate_probabilities([("u15", "u6")])
        for value in (a.p_risk, a.p_give_way, *(a.p_rule[r] for r in Rule)):
            assert value in (0.0, 1.0)


class TestAgreementWithClassifier:
    def test_words_match_classify_sample(self):
        # The risk word is the pure action-radius test; the classifier's
        # risk flag additionally windows on TCPA, so compare the word
        # against the distance condition and the situation word against the
        # classifier's outcome.
        rng = np.random.default_rng(63)
        zone = ComfortZone(CFG.d_act, math.inf)
        for _ in range(1000):
            a, b = random_state(rng), random_state(rng)
            s = run_once(a, b, CFG)
            risk, outcome = classify_sample(a, b, zone)
            dcpa = cpa(a, b).dcpa
            assert ("u15" in s) == (dcpa <= CFG.d_act)
            if "u15" in s:
                # Inside the radius, the classifier only adds the window.
                assert risk == (0.0 <= cpa(a, b).tcpa <= zone.t_aware)
            expected_word = SITUATION_WORDS.get(outcome, "")
            if expected_word:
                assert expected_word in s
            else:
                assert not set("u4 u5 u6 u7 u8".split()).intersection(s)

    def test_situation_word_matches_independent_oracle(self):
        # Test-side bearings, literal band edges and the transcribed table;
        # nothing here shares the library's classifier.
        words = {
            (Rule.R13, Obligation.STAND_ON): "u4", (Rule.R13, Obligation.GIVE_WAY): "u5",
            (Rule.R14, Obligation.GIVE_WAY): "u6", (Rule.R15, Obligation.STAND_ON): "u7",
            (Rule.R15, Obligation.GIVE_WAY): "u8",
        }
        rng = np.random.default_rng(69)
        pairs = [(random_state(rng), random_state(rng)) for _ in range(1000)]
        for edge in (0.0, 5.0, 112.5, 247.5, 355.0):
            for offset in (-1e-7, 0.0, 1e-7):
                own = random_state(rng)
                theta = math.radians(own.course + edge + offset)
                course = float(rng.choice([own.course, (own.course + 175.0) % 360.0,
                                           float(rng.uniform(0, 360))]))
                pairs.append((own, VesselState(own.north + 800.0 * math.cos(theta),
                                               own.east + 800.0 * math.sin(theta),
                                               course, 8.0)))
        for a, b in pairs:
            cell = (reference_region(reference_bearing(a, b), a.course, b.course),
                    reference_region(reference_bearing(b, a), b.course, a.course))
            expected = words.get(EXPECTED_TABLE[cell], "")
            emitted = run_trace(a, b, CFG)[1][3]
            assert emitted == expected
            assert [w for w in run_once(a, b, CFG) if w in words.values()] == (
                [expected] if expected else []
            )

    def test_u15_tracks_dcpa_threshold(self):
        rng = np.random.default_rng(64)
        for _ in range(500):
            a, b = random_state(rng), random_state(rng)
            dcpa = cpa(a, b).dcpa
            assert ("u15" in run_once(a, b, CFG)) == (dcpa <= CFG.d_act)

    def test_awareness_and_action_words_match_literal_thresholds(self):
        # d_act = 150: the awareness radius is 300 m; U2 and U9 both test
        # 0 <= TCPA <= t_aware.  Axis-aligned pairs put DCPA and TCPA
        # exactly on (and one ulp past) the thresholds; every tenth random
        # pair is degenerate (TCPA = inf).
        rng = np.random.default_rng(71)
        own = VesselState(0.0, 0.0, 0.0, 10.0)
        pairs = [
            (own, VesselState(north, east, 0.0, speed))
            for east in (150.0, 300.0, math.nextafter(300.0, math.inf), 0.0)
            for north in (-500.0, -6000.0, math.nextafter(-6000.0, -math.inf), -5.0, 500.0)
            for speed in (10.0, 20.0)
        ]
        for i in range(1000):
            a, b = random_state(rng), random_state(rng)
            if i % 10 == 0:
                b = VesselState(a.north + float(rng.uniform(-400, 400)),
                                a.east + float(rng.uniform(-400, 400)), a.course, a.speed)
            pairs.append((a, b))
        for t_aware in (600.0, 50.0, math.inf):
            zone = ComfortZone(150.0, t_aware)
            for a, b in pairs:
                res = cpa(a, b)
                words = run_trace(a, b, zone)[1]
                assert (words[0] == "aware_d") == (res.dcpa <= 300.0)
                assert (words[1] == "aware_t") == (0.0 <= res.tcpa <= t_aware)
                assert (words[8] == "act_t") == (0.0 <= res.tcpa <= t_aware)


class TestBehavioralRelation:
    def test_counts_match_reference_loop(self):
        rng = np.random.default_rng(72)
        runs = [run_trace(random_state(rng), random_state(rng), CFG) for _ in range(300)]
        # Hand-made runs with other state orders and list sequences.
        runs += [(("U1", "U3", "U1"), ("x", "")), (["U3", "U1"], ["y"]), (("U9",), ())]
        counts, visits = {}, {}
        for states, words in runs:
            for i, word in enumerate(words):
                visits[states[i]] = visits.get(states[i], 0) + 1
                key = (states[i + 1], word, states[i])
                counts[key] = counts.get(key, 0) + 1
        rel = estimate_behavioral_relation(runs)
        assert list(rel.counts.items()) == list(counts.items())
        assert list(rel.visits.items()) == list(visits.items())
        words = {w for (_n, w, _s) in counts} | {"absent"}
        for state in list(visits) + ["U0"]:
            seen = visits.get(state, 0)
            for nxt in list(visits) + ["U0"]:
                total = sum(c for (n, _w, s), c in counts.items() if s == state and n == nxt)
                assert rel.transition_probability(nxt, state) == (total / seen if seen else 0.0)
            for word in words:
                total = sum(c for (_n, w, s), c in counts.items() if s == state and w == word)
                assert rel.output_probability(word, state) == (total / seen if seen else 0.0)

    def test_misaligned_run_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            estimate_behavioral_relation([(("U1", "U2"), ("a", "b"))])

    def test_single_run_is_deterministic(self):
        rel = estimate_behavioral_relation([run_trace(OWN_2, TARGET_2, CFG)])
        states, words = run_trace(OWN_2, TARGET_2, CFG)
        for i, word in enumerate(words):
            assert rel.probability(states[i + 1], word, states[i]) == 1.0

    def test_row_sums_exact(self):
        rng = np.random.default_rng(65)
        runs = [run_trace(random_state(rng), random_state(rng), CFG) for _ in range(200)]
        rel = estimate_behavioral_relation(runs)
        for state in STATES:
            assert rel.outgoing_mass(state) == 1.0
        for key, count in rel.counts.items():
            prob = rel.probability(*key)
            assert 0.0 <= prob <= 1.0
            assert count >= 1

    def test_marginals(self):
        runs = [run_trace(OWN_2, TARGET_2, CFG), run_trace(OWN_1, TARGET_1, CFG)]
        rel = estimate_behavioral_relation(runs)
        # One run emits the risk word from U8, the other does not.
        assert rel.output_probability("u15", "U8") == 0.5
        assert rel.transition_probability("U9", "U8") == 1.0

    def test_risk_word_nearly_certain_in_close_encounter(self):
        unc = StateUncertainty(10.0, 10.0, 2.0, 2.0)
        batch = draw_pair(OWN_2, StateUncertainty(0, 0, 0, 0), TARGET_2, unc,
                          2000, seed=66, clamp_speed=True)
        runs = [
            run_trace(batch.states_j.state(i), batch.states_k.state(i), CFG)
            for i in range(len(batch.states_j))
        ]
        rel = estimate_behavioral_relation(runs)
        assert rel.output_probability("u15", "U8") == pytest.approx(1.0, abs=0.01)

    def test_empty_input(self):
        with pytest.raises(TooFewSamples, match="no runs given"):
            estimate_behavioral_relation([])

    def test_as_automaton_validates(self):
        rng = np.random.default_rng(67)
        runs = [run_trace(random_state(rng), random_state(rng), CFG) for _ in range(100)]
        automaton = estimate_behavioral_relation(runs).as_automaton()
        automaton.validate()
        assert automaton.inputs == ()
        assert automaton.marked == MARKED_STATES
        for prob in automaton.behavior.values():
            assert 0.0 <= prob <= 1.0


class TestStochasticAutomatonValidation:
    def test_bad_mass_rejected(self):
        from colreg_risk import StochasticAutomaton

        bad = StochasticAutomaton(
            states=("A", "B"), inputs=(), outputs=("w",),
            behavior={("B", "w", "A"): 0.6}, initial={"A": 1.0},
        )
        with pytest.raises(ValueError):
            bad.validate()

    def test_bad_initial_rejected(self):
        from colreg_risk import StochasticAutomaton

        bad = StochasticAutomaton(
            states=("A",), inputs=(), outputs=(),
            behavior={("A", "", "A"): 1.0}, initial={"A": 0.5},
        )
        with pytest.raises(ValueError):
            bad.validate()
