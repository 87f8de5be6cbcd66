import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from colreg_risk import (
    AutomatonConfig,
    ComfortZone,
    Method,
    Obligation,
    RISK_ACT,
    Rule,
    VesselState,
    cpa,
    estimate_behavioral_relation,
    estimate_probabilities,
    indicator,
    run_once,
    run_trace,
)
from colreg_risk.assessment import assessment_from_counts
from colreg_risk.automaton import STATES, SITUATION_WORDS
from colreg_risk.colregs import N_EVENTS, SituationOutcome, classify_pair, event_code
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


def reference_relation(runs):
    # Counts one transition at a time, in input order.
    counts, visits = {}, {}
    for states, words in runs:
        for i, word in enumerate(words):
            visits[states[i]] = visits.get(states[i], 0) + 1
            key = (states[i + 1], word, states[i])
            counts[key] = counts.get(key, 0) + 1
    return counts, visits


def reference_words(a, b, zone):
    # The words of each testing state from the scalar classifier and the
    # zone's own tests, one state at a time.
    dcpa, tcpa, outcome = classify_pair(a, b)
    emitted = {
        "U1": "aware_d" if dcpa <= 2.0 * zone.d_act else "",
        "U2": "aware_t" if zone.in_window(tcpa) else "",
        "U4": SITUATION_WORDS.get(outcome, ""),
        "U8": "u15" if zone.at_risk(dcpa) else "",
        "U9": "act_t" if zone.in_window(tcpa) else "",
    }
    return tuple(emitted.get(state, "") for state in STATES)


# Situation words in the order estimate_probabilities tries them.
WORD_EVENTS = (
    ("u4", (Rule.R13, Obligation.STAND_ON)),
    ("u5", (Rule.R13, Obligation.GIVE_WAY)),
    ("u6", (Rule.R14, Obligation.GIVE_WAY)),
    ("u7", (Rule.R15, Obligation.STAND_ON)),
    ("u8", (Rule.R15, Obligation.GIVE_WAY)),
)


def reference_probabilities(strings, seed):
    # One string at a time: the first situation word in WORD_EVENTS order
    # picks the event, no situation word is the no-rule event.
    risk = window = 0
    counts = [0] * N_EVENTS
    for s in strings:
        risk += "u15" in s
        window += "aware_t" in s
        event = next((e for word, e in WORD_EVENTS if word in s), (Rule.R0, Obligation.GIVE_WAY))
        counts[event_code(SituationOutcome(*event))] += 1
    return assessment_from_counts(risk, window, counts, len(strings), Method.DES, seed)


STATE_NAMES = st.sampled_from(["U1", "U2", "U3", "U9", "U13"])
WORDS = st.sampled_from(["", "x", "u4", "u15", "aware_t"])


@st.composite
def trajectories(draw):
    n_words = draw(st.integers(0, 6))
    states = draw(st.lists(STATE_NAMES, min_size=n_words + 1, max_size=n_words + 1))
    return states, draw(st.lists(WORDS, min_size=n_words, max_size=n_words))


VESSEL_STATES = st.builds(
    VesselState,
    st.floats(-5000.0, 5000.0), st.floats(-5000.0, 5000.0),
    st.floats(0.0, 360.0, exclude_max=True), st.floats(0.0, 20.0),
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

    @settings(max_examples=300)
    @given(a=VESSEL_STATES, b=VESSEL_STATES, matched=st.booleans(),
           d_act=st.floats(1.0, 2000.0),
           t_aware=st.one_of(st.floats(1.0, 3600.0), st.just(math.inf)))
    def test_trace_matches_per_state_reference(self, a, b, matched, d_act, t_aware):
        # Matched velocities make the pair degenerate (TCPA = +inf).
        if matched:
            b = VesselState(b.north, b.east, a.course, a.speed)
        assume(max(abs(a.north - b.north), abs(a.east - b.east)) > 1e-6)  # a bearing exists
        zone = ComfortZone(d_act, t_aware)
        states, words = run_trace(a, b, zone)
        assert states == STATES + ("U1",)
        assert words == reference_words(a, b, zone)
        assert (words[8] == "act_t") == (words[1] == "aware_t")
        if matched:
            # The CPA never comes, which only an unbounded window holds.
            assert cpa(a, b).tcpa == math.inf
            assert (words[1] == "aware_t") == (t_aware == math.inf)


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

    @pytest.mark.parametrize("event", [RISK_ACT, (Rule.R15, Obligation.STAND_ON)])
    def test_str_is_not_a_run_string(self, event):
        # Read letter by letter, "xu15x" would contain the word "u15".
        with pytest.raises(ValueError, match="not a str"):
            indicator("xu15x", event)

    def test_partition_over_run_strings(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            a, b = random_state(rng), random_state(rng)
            s = run_once(a, b, CFG)
            fired = [event for event in SITUATION_EVENTS if indicator(s, event) == 1]
            assert len(fired) == 1

    @settings(max_examples=200)
    @given(strings=st.lists(
        st.lists(st.sampled_from(["u4", "u5", "u6", "u7", "u8", "u15", "aware_t", "aware_d",
                                  "act_t"]), max_size=6).map(tuple),
        min_size=1, max_size=40))
    def test_partition_and_means_match_estimate(self, strings):
        # Strings with several situation words too: one situation event
        # fires per string, and the indicator means are estimate_probabilities'
        # shares.
        for s in strings:
            assert sum(indicator(s, event) for event in SITUATION_EVENTS) == 1
        n = len(strings)
        mean = {event: sum(indicator(s, event) for s in strings) / n
                for event in [*SITUATION_EVENTS, RISK_ACT]}
        got = estimate_probabilities(strings, 5)
        for rule in Rule:
            assert got.p_rule[rule] == (mean.get((rule, Obligation.STAND_ON), 0.0)
                                        + mean.get((rule, Obligation.GIVE_WAY), 0.0))
        give_way_share = sum(indicator(s, event) for s in strings for event in SITUATION_EVENTS
                             if event[1] is Obligation.GIVE_WAY) / n
        assert got.p_risk == mean[RISK_ACT]
        assert got.p_give_way == give_way_share * mean[RISK_ACT]


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

    @pytest.mark.parametrize("strings", [["u15"], [("u15",), "u6"], "u15"])
    def test_str_is_not_a_run_string(self, strings):
        # Read letter by letter, ["u15"] would give p_risk 0.0.
        with pytest.raises(ValueError, match="not a str"):
            estimate_probabilities(strings)

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

    @settings(max_examples=200)
    @given(pool=st.lists(
               st.lists(st.sampled_from(["u4", "u5", "u6", "u7", "u8", "u15", "aware_t",
                                         "aware_d", "act_t"]), max_size=6),
               min_size=1, max_size=6),
           picks=st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=1, max_size=50),
           as_generator=st.booleans(), seed=st.integers(0, 2**32))
    def test_matches_one_string_at_a_time(self, pool, picks, as_generator, seed):
        # Repeated strings, tuples and lists, several situation words in one
        # string, a list or a generator of strings.
        strings = [pool[i % len(pool)] if as_list else tuple(pool[i % len(pool)])
                   for i, as_list in picks]
        got = estimate_probabilities(iter(strings) if as_generator else strings, seed)
        assert got == reference_probabilities(strings, seed)


class TestAgreementWithClassifier:
    def test_words_match_classify_pair(self):
        # The risk word is the zone's risk test of the classifier's DCPA,
        # the action-radius test alone, and the situation word is the
        # classifier's outcome.
        rng = np.random.default_rng(63)
        for _ in range(1000):
            a, b = random_state(rng), random_state(rng)
            s = run_once(a, b, CFG)
            dcpa, _, outcome = classify_pair(a, b)
            assert dcpa == cpa(a, b).dcpa
            assert ("u15" in s) == CFG.at_risk(dcpa) == (dcpa <= CFG.d_act)
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
        counts, visits = reference_relation(runs)
        rel = estimate_behavioral_relation(runs)
        assert list(rel.counts.items()) == list(counts.items())
        assert list(rel.visits.items()) == list(visits.items())
        words = {w for (_n, w, _s) in counts} | {"absent"}
        for state in list(visits) + ["U0"]:
            seen = visits.get(state, 0)
            assert sum(c for (_n, _w, s), c in rel.counts.items() if s == state) == seen
            for word in words:
                total = sum(c for (_n, w, s), c in counts.items() if s == state and w == word)
                assert rel.output_probability(word, state) == (total / seen if seen else 0.0)

    @settings(max_examples=200)
    @given(pool=st.lists(trajectories(), min_size=1, max_size=5),
           picks=st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=1, max_size=40),
           as_generator=st.booleans())
    def test_counts_match_reference_on_drawn_runs(self, pool, picks, as_generator):
        # Repeated trajectories, as tuples or lists, from a list or a generator.
        runs = [pool[i % len(pool)] if as_list else tuple(map(tuple, pool[i % len(pool)]))
                for i, as_list in picks]
        counts, visits = reference_relation(runs)
        rel = estimate_behavioral_relation(iter(runs) if as_generator else runs)
        assert list(rel.counts.items()) == list(counts.items())
        assert list(rel.visits.items()) == list(visits.items())
        # The unit mass holds exactly, and each word's probability is its
        # reference count over the state's visits.
        for state, seen in visits.items():
            assert rel.outgoing_mass(state) == 1.0
            for word in {w for (_n, w, s) in counts if s == state}:
                total = sum(c for (_n, w, s), c in counts.items() if s == state and w == word)
                assert rel.output_probability(word, state) == total / seen

    def test_misaligned_run_rejected(self):
        with pytest.raises(ValueError, match="misaligned"):
            estimate_behavioral_relation([(("U1", "U2"), ("a", "b"))])

    def test_misaligned_run_after_aligned_ones_rejected_in_order(self):
        aligned = run_trace(OWN_2, TARGET_2, CFG)

        def runs():
            yield aligned
            yield aligned
            yield (("U1", "U2"), ("a", "b"))
            raise AssertionError("read past the misaligned run")

        with pytest.raises(ValueError, match="misaligned"):
            estimate_behavioral_relation(runs())

    def test_single_run_is_deterministic(self):
        rel = estimate_behavioral_relation([run_trace(OWN_2, TARGET_2, CFG)])
        states, words = run_trace(OWN_2, TARGET_2, CFG)
        for i, word in enumerate(words):
            assert rel.counts[states[i + 1], word, states[i]] == rel.visits[states[i]] == 1

    def test_row_sums_exact(self):
        rng = np.random.default_rng(65)
        runs = [run_trace(random_state(rng), random_state(rng), CFG) for _ in range(200)]
        rel = estimate_behavioral_relation(runs)
        for state in STATES:
            assert rel.outgoing_mass(state) == 1.0
        for (_nxt, _word, state), count in rel.counts.items():
            assert 1 <= count <= rel.visits[state]

    def test_marginals(self):
        runs = [run_trace(OWN_2, TARGET_2, CFG), run_trace(OWN_1, TARGET_1, CFG)]
        rel = estimate_behavioral_relation(runs)
        # One run emits the risk word from U8, the other does not.
        assert rel.output_probability("u15", "U8") == 0.5
        # Both runs go on from U8 to U9.
        assert sum(c for (n, _w, s), c in rel.counts.items() if (n, s) == ("U9", "U8")) == 2
        assert rel.visits["U8"] == 2

    def test_risk_word_nearly_certain_in_close_encounter(self):
        unc = StateUncertainty(10.0, 10.0, 2.0, 2.0)
        batch = draw_pair(OWN_2, StateUncertainty(0, 0, 0, 0), TARGET_2, unc,
                          2000, seed=66, clamp_speed=True)
        runs = [run_trace(j, k, CFG)
                for j, k in zip(batch.states_j.as_states(), batch.states_k.as_states())]
        rel = estimate_behavioral_relation(runs)
        assert rel.output_probability("u15", "U8") == pytest.approx(1.0, abs=0.01)

    def test_empty_input(self):
        with pytest.raises(TooFewSamples, match="no runs given"):
            estimate_behavioral_relation([])
