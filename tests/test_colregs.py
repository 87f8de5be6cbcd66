import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from colreg_risk import (
    ComfortZone,
    Obligation,
    Region,
    Rule,
    SituationOutcome,
    StateUncertainty,
    VesselState,
    assess_des,
    bearing_region,
    classify_pair,
    give_way_pairs,
    mutual_situation,
    run_once,
)
from colreg_risk.colregs import (
    BEARING_BANDS,
    band_regions,
    bearing_regions,
    course_head_on,
    event_code,
    event_counts,
    situation_codes,
)
from colreg_risk.density import Topology, band_masses, fit, integrate
from colreg_risk.kinematics import bearing_arrays, place_target, reciprocal_course

from scenarios import (
    EXPECTED_TABLE,
    HO,
    OT,
    OWN_1,
    OWN_2,
    OWN_3,
    PS,
    SB,
    TARGET_1,
    TARGET_2,
    TARGET_3,
    ZONE,
    reference_region,
)

# Deterministic property runs: no example database, a fixed example order.
PROPERTY = settings(max_examples=150)
LITERAL_EDGES = (5.0, 112.5, 247.5, 355.0)
coords = st.floats(-5000.0, 5000.0)
courses = st.floats(0.0, 360.0, exclude_max=True)
bearings = st.one_of(st.sampled_from(LITERAL_EDGES + (0.0,)), courses)


def scalar_region(beta, own_course, other_course):
    """One view as ``classify_pair`` composes it: the band region, head-on
    when the pair's one course test holds."""
    if course_head_on(reciprocal_course(own_course, other_course)):
        return HO
    return bearing_region(beta)


def placed_outcome(bearing, own_course, other_course):
    """``classify_pair``'s outcome for a target 1 km from own at ``bearing``."""
    own = VesselState(0.0, 0.0, own_course, 10.0)
    target = place_target(own, bearing, 1000.0, other_course, 10.0)
    return classify_pair(own, target)[2]


# Only a pair of head-on views gives rule 14.
BOTH_HEAD_ON = SituationOutcome(Rule.R14, Obligation.GIVE_WAY)


class TestBearingRegion:
    def test_head_on_reciprocal(self):
        assert placed_outcome(0.0, 0.0, 180.0) == BOTH_HEAD_ON

    def test_starboard(self):
        assert bearing_region(90.0) is SB

    def test_port_scenario2_geometry(self):
        # dpsi = 5.5 just misses the course test, so own keeps the port band
        # and only the target, which sees own dead ahead, is head-on.
        assert reciprocal_course(0.0, 174.5) == pytest.approx(5.5)
        assert bearing_region(354.5) is PS
        assert placed_outcome(354.5, 0.0, 174.5) == mutual_situation(PS, HO)

    def test_overtaking_with_identical_courses(self):
        # Identical courses give dpsi = -180, so the course test does not
        # fire and the 200-degree band wins; the target sees own at 20 deg.
        assert reference_region(200.0, 0.0, 0.0) is OT
        assert placed_outcome(200.0, 0.0, 0.0) == mutual_situation(OT, SB)

    def test_course_proximity_overrides_band(self):
        assert bearing_region(200.0) is OT
        assert placed_outcome(200.0, 0.0, 183.0) == BOTH_HEAD_ON

    @pytest.mark.parametrize(
        "beta,expected",
        [(0.0, HO), (5.0, HO), (5.0001, SB), (112.5, SB), (112.5001, OT),
         (247.5, OT), (247.5001, PS), (355.0, PS), (355.0001, HO), (359.999, HO)],
    )
    def test_band_boundaries(self, beta, expected):
        assert bearing_region(beta) is expected

    def test_totality_random(self):
        rng = np.random.default_rng(21)
        betas = np.concatenate([
            rng.uniform(0, 360, 2000),
            np.array([0.0, 5.0, 112.5, 247.5, 355.0, 359.999999]),
        ])
        for beta in betas:
            own, other = float(rng.uniform(0, 360)), float(rng.uniform(0, 360))
            assert bearing_region(float(beta)) in Region
            assert scalar_region(float(beta), own, other) is reference_region(float(beta), own, other)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_bearing_rejected(self, beta):
        # A NaN compares false against every edge and used to land in the
        # head-on band; it lies in no band, so it is an error.
        with pytest.raises(ValueError, match="finite"):
            bearing_region(beta)

    @pytest.mark.parametrize("beta", [-20.0, -1e-9, 360.0, 400.0])
    def test_out_of_range_bearing_rejected(self, beta):
        # The scalar path used to wrap these while the array path called
        # them head-on; both now reject them.
        with pytest.raises(ValueError, match="finite"):
            bearing_region(beta)
        bad, good = np.array([10.0, beta]), np.full(2, 10.0)
        for columns in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="finite"):
                situation_codes(*columns, np.full(2, 90.0))

    @pytest.mark.parametrize("own, other", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0)])
    def test_non_finite_course_delta_rejected(self, own, other):
        # A NaN course delta is not head-on and used to fall into a band.
        # A scalar pair cannot carry one: VesselState rejects the course.
        dpsi = np.array([90.0, reciprocal_course(own, other)])
        with pytest.raises(ValueError, match="course"):
            VesselState(0.0, 0.0, own, 1.0), VesselState(0.0, 0.0, other, 1.0)
        with pytest.raises(ValueError, match="finite"):
            situation_codes(np.full(2, 10.0), np.full(2, 200.0), dpsi)


class TestMutualSituation:
    def test_table_exhaustive(self):
        for (a, t), (rule, obligation) in EXPECTED_TABLE.items():
            assert mutual_situation(a, t) == SituationOutcome(rule, obligation)

    def test_crossing_reciprocity(self):
        assert mutual_situation(HO, SB).obligation is Obligation.STAND_ON
        assert mutual_situation(SB, HO).obligation is Obligation.GIVE_WAY

    def test_diagonals_are_conservative(self):
        for region in (SB, OT, PS):
            assert mutual_situation(region, region) == SituationOutcome(
                Rule.R0, Obligation.GIVE_WAY
            )


class TestGiveWayPairs:
    def test_matches_derivation(self):
        derived = {
            pair for pair, (_, obligation) in EXPECTED_TABLE.items()
            if obligation is Obligation.GIVE_WAY
        }
        assert give_way_pairs() == frozenset(derived)

    def test_expected_membership(self):
        pairs = give_way_pairs()
        assert (HO, HO) in pairs
        assert (SB, PS) in pairs
        assert (OT, HO) not in pairs
        assert len(pairs) == 10


def risk_and_outcome(own, other):
    # The scalar answer for one pair: the zone's risk test of classify_pair's DCPA.
    dcpa, _, outcome = classify_pair(own, other)
    return ZONE.at_risk(dcpa), outcome


class TestClassifySample:
    def test_scenario1_no_risk_give_way(self):
        risk, outcome = risk_and_outcome(OWN_1, TARGET_1)
        assert risk is False
        assert outcome == SituationOutcome(Rule.R15, Obligation.GIVE_WAY)

    def test_scenario2_risk_stand_on(self):
        risk, outcome = risk_and_outcome(OWN_2, TARGET_2)
        assert risk is True
        assert outcome == SituationOutcome(Rule.R15, Obligation.STAND_ON)

    def test_scenario3_stand_on(self):
        risk, outcome = risk_and_outcome(OWN_3, TARGET_3)
        assert risk is True
        assert outcome == SituationOutcome(Rule.R15, Obligation.STAND_ON)

    def test_distant_receding_target(self):
        # Ahead and running away faster: the CPA, a 0 m pass, lies 1e5 s in
        # the past.  Risk binds on DCPA alone, so the pair is at risk, and
        # only the window test sees that the CPA is behind.
        own = VesselState(0, 0, 0, 10)
        far = VesselState(1e6, 0, 0, 20)
        dcpa, tcpa, _ = classify_pair(own, far)
        assert (dcpa, tcpa) == (0.0, -1e5)
        assert risk_and_outcome(own, far)[0] is True
        assert ZONE.in_window(tcpa) is False

    def test_degenerate_pair_uses_separation(self):
        own = VesselState(0, 0, 0, 10)
        near = VesselState(100, 0, 0, 10)
        far = VesselState(5000, 0, 0, 10)
        assert risk_and_outcome(own, near)[0] is True
        assert risk_and_outcome(own, far)[0] is False

    def test_past_cpa_pair_at_risk_in_every_path(self):
        # 10 s past a 0 m CPA: the scalar test, the automaton's risk word
        # and the DES count at zero spread give one answer.
        own = VesselState(0, 0, 0, 10)
        behind = VesselState(-50, 0, 0, 5)
        dcpa, tcpa, _ = classify_pair(own, behind)
        assert (dcpa, tcpa) == (0.0, -10.0)
        assert risk_and_outcome(own, behind)[0] is True
        assert "u15" in run_once(own, behind, ZONE)
        exact = StateUncertainty(0.0, 0.0, 0.0, 0.0)
        assert assess_des(own, exact, behind, exact, ZONE, 100, 1).p_risk == 1.0


class TestComfortZonePredicates:
    # d_act = 150, t_aware = 600; the expectations below are written out.
    VALUES = (0.0, -0.0, 150.0, math.nextafter(150.0, math.inf), 600.0,
              math.nextafter(600.0, math.inf), -1e-300, math.inf, -math.inf, math.nan)
    AT_RISK = (True, True, True, False, False, False, True, False, True, False)
    IN_WINDOW = (True, True, True, True, True, False, False, False, False, False)

    @pytest.mark.parametrize("t_aware", [600.0, math.inf])
    def test_float_and_array_agree(self, t_aware):
        zone = ComfortZone(150.0, t_aware)
        column = np.array(self.VALUES)
        risk, window = zone.at_risk(column), zone.in_window(column)
        assert risk.dtype == bool and window.dtype == bool
        for i, value in enumerate(self.VALUES):
            assert type(zone.at_risk(value)) is bool
            assert type(zone.in_window(value)) is bool
            assert zone.at_risk(value) == risk[i]
            assert zone.in_window(value) == window[i]

    def test_literal_thresholds(self):
        assert tuple(ZONE.at_risk(v) for v in self.VALUES) == self.AT_RISK
        assert tuple(ZONE.in_window(v) for v in self.VALUES) == self.IN_WINDOW
        # An unbounded horizon admits every non-negative TCPA, inf included.
        unbounded = ComfortZone(150.0, math.inf)
        assert tuple(unbounded.in_window(v) for v in self.VALUES) == (
            self.IN_WINDOW[:5] + (True, False, True, False, False)
        )


    @pytest.mark.parametrize("d_act", [math.inf, math.nan, -math.inf])
    def test_bad_action_radius_rejected(self, d_act):
        # An infinite radius would put every sample at risk.
        with pytest.raises(ValueError, match="d_act"):
            ComfortZone(d_act, 600.0)

    def test_infinite_horizon_accepted(self):
        assert ComfortZone(150.0, math.inf).t_aware == math.inf


class TestClassifyPair:
    def test_scenario2(self):
        dcpa, tcpa, outcome = classify_pair(OWN_2, TARGET_2)
        assert dcpa == pytest.approx(47.98, abs=0.01)
        assert tcpa == pytest.approx(50.0, abs=0.5)
        assert outcome == SituationOutcome(Rule.R15, Obligation.STAND_ON)

    def test_degenerate_pair_falls_back_to_separation(self):
        own = VesselState(0, 0, 45, 7)
        other = VesselState(30, 40, 45, 7)
        dcpa, tcpa, _ = classify_pair(own, other)
        assert dcpa == 50.0 and tcpa == math.inf


class TestVectorisedCodes:
    def test_bearing_bands(self):
        assert BEARING_BANDS == (0.0, 5.0, 112.5, 247.5, 355.0, 360.0)

    def test_band_regions(self):
        # One unit of mass in each band lands in that band's region alone.
        regions = [HO, SB, OT, PS, HO]
        for row, region in zip(np.eye(5), regions):
            assert band_regions(row).tolist() == np.eye(4)[region].tolist()

    def test_bearing_regions_on_edges(self):
        # Each edge belongs to the band below it.
        edges = np.array([0.0, 5.0, 112.5, 247.5, 355.0])
        assert bearing_regions(edges).tolist() == [HO, HO, SB, OT, PS]
        assert bearing_regions(np.nextafter(edges, 360.0)).tolist() == [HO, SB, OT, PS, HO]

    @pytest.mark.parametrize("topology", list(Topology))
    def test_band_masses_match_integrate(self, topology):
        rng = np.random.default_rng(24)
        est = fit(rng.normal(350.0, 40.0, 3000) % 360.0, 30.0, topology)
        masses = band_masses(est, BEARING_BANDS)
        bands = list(zip(BEARING_BANDS[:-1], BEARING_BANDS[1:]))
        assert len(masses) == len(bands)
        for mass, (lo, hi) in zip(masses, bands):
            assert float(np.clip(mass, 0.0, 1.0)) == integrate(est, lo, hi)
        if topology is Topology.CIRCLE360:
            assert abs(math.fsum(masses) - 1.0) <= 1e-9

    def test_situation_codes_match_scalar(self):
        # Each view's codes are reference_region's and the scalar
        # composition's, band edges included.  The scalar path tests the
        # courses once per pair, so the target's view must agree with the
        # reference read from the target's side: |dpsi| is symmetric, also
        # for courses exactly 175 and 185 deg apart and their neighbours.
        rng = np.random.default_rng(22)
        edges = np.array([0.0, 5.0, 112.5, 247.5, 355.0])
        beta = np.concatenate([rng.uniform(0, 360, 500), edges, np.nextafter(edges, 360.0)])
        own = rng.uniform(0, 360, beta.size)
        other = np.where(np.arange(beta.size) % 4 == 0, (own + 175.0) % 360.0,
                         rng.uniform(0, 360, beta.size))
        # Courses exactly 175 and 185 deg apart either way, and the float
        # neighbours of each; all these sums are exact.
        base = np.tile([0.0, 0.5, 12.25, 90.0, 174.5, 180.0, 269.75, 359.0], 4)
        apart = (base + np.repeat([175.0, 185.0, -175.0, -185.0], 8)) % 360.0
        own = np.concatenate([own, np.tile(base, 3)])
        other = np.concatenate([other, apart, np.nextafter(apart, 0.0), np.nextafter(apart, 360.0)])
        beta = np.concatenate([beta, rng.uniform(0, 360, own.size - beta.size)])
        beta_other = beta[::-1]
        own_r, other_r = situation_codes(beta, beta_other, reciprocal_course(own, other))
        for i in range(beta.size):
            courses = float(own[i]), float(other[i])
            assert own_r[i] == int(reference_region(float(beta[i]), *courses))
            assert own_r[i] == int(scalar_region(float(beta[i]), *courses))
            assert other_r[i] == int(reference_region(float(beta_other[i]), *courses[::-1]))
            assert other_r[i] == int(scalar_region(float(beta_other[i]), *courses))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_situation_codes_reject_non_finite_bearing(self, bad):
        beta = np.array([10.0, bad, 200.0])
        with pytest.raises(ValueError, match="finite"):
            situation_codes(beta, np.full(3, 10.0), np.full(3, 90.0))
        with pytest.raises(ValueError, match="finite"):
            situation_codes(np.full(3, 10.0), beta, np.full(3, 90.0))

    def test_situation_codes_match_table(self):
        rng = np.random.default_rng(23)
        beta_own = rng.uniform(0, 360, 400)
        beta_other = rng.uniform(0, 360, 400)
        course_own = rng.uniform(0, 360, 400)
        course_other = rng.uniform(0, 360, 400)
        own_r, other_r = situation_codes(
            beta_own, beta_other, reciprocal_course(course_own, course_other)
        )
        for i in range(400):
            courses = float(course_own[i]), float(course_other[i])
            assert own_r[i] == reference_region(float(beta_own[i]), *courses)
            assert other_r[i] == reference_region(float(beta_other[i]), *courses[::-1])

    @pytest.mark.parametrize("own, other", list(EXPECTED_TABLE))
    def test_event_counts_match_table(self, own, other):
        # Literal slot layout: rule order R0, R13, R14, R15, two slots each,
        # stand-on first.
        rule, obligation = EXPECTED_TABLE[(own, other)]
        slot = 2 * (Rule.R0, Rule.R13, Rule.R14, Rule.R15).index(rule) + int(obligation)
        assert mutual_situation(own, other) == SituationOutcome(rule, obligation)
        joint = np.zeros((4, 4), dtype=np.int64)
        joint[own, other] = 3
        expected = [0] * 8
        expected[slot] = 3
        assert event_counts(joint).tolist() == expected
        assert event_code(mutual_situation(own, other)) == slot

    def test_event_counts_sum_every_cell(self):
        joint = np.arange(16).reshape(4, 4)
        counts = event_counts(joint)
        assert counts.sum() == joint.sum()
        # The no-rule and head-on rules never oblige the acting vessel to stand on.
        assert counts[0] == 0 and counts[4] == 0


def _rotate(state, theta):
    c, s = math.cos(math.radians(theta)), math.sin(math.radians(theta))
    return VesselState(
        state.north * c - state.east * s, state.north * s + state.east * c,
        (state.course + theta) % 360.0, state.speed,
    )


def _regions(j, k):
    """(own, other) region codes of one pair through the array kernels."""
    col = lambda *values: np.array(values, dtype=float)
    beta_jk = bearing_arrays(col(j.north), col(j.east), col(j.course), col(k.north), col(k.east))
    beta_kj = bearing_arrays(col(k.north), col(k.east), col(k.course), col(j.north), col(j.east))
    own_r, other_r = situation_codes(
        beta_jk, beta_kj, reciprocal_course(col(j.course), col(k.course))
    )
    return int(own_r[0]), int(other_r[0]), float(beta_jk[0]), float(beta_kj[0])


def _edge_gap(beta):
    return min(abs((beta - edge + 180.0) % 360.0 - 180.0) for edge in LITERAL_EDGES)


class TestProperties:
    @PROPERTY
    @given(jn=coords, je=coords, jc=courses, kn=coords, ke=coords, kc=courses,
           theta=st.floats(0.0, 360.0))
    def test_rotation_leaves_regions_unchanged(self, jn, je, jc, kn, ke, kc, theta):
        assume(math.hypot(jn - kn, je - ke) > 1.0)
        j, k = VesselState(jn, je, jc, 5.0), VesselState(kn, ke, kc, 5.0)
        own, other, beta_jk, beta_kj = _regions(j, k)
        dpsi = reciprocal_course(jc, kc)
        assume(min(_edge_gap(beta_jk), _edge_gap(beta_kj), abs(abs(dpsi) - 5.0)) >= 1e-6)
        assert _regions(_rotate(j, theta), _rotate(k, theta))[:2] == (own, other)

    @settings(PROPERTY, max_examples=60)
    @given(st.lists(st.tuples(bearings, bearings, courses, st.sampled_from((175.0, 180.0, 185.0))),
                    min_size=1, max_size=16))
    def test_swapping_vessels_swaps_regions(self, rows):
        beta_jk, beta_kj, course_j, offset = (np.array(c) for c in zip(*rows))
        course_k = (course_j + offset) % 360.0
        own, other = situation_codes(beta_jk, beta_kj, reciprocal_course(course_j, course_k))
        own_s, other_s = situation_codes(beta_kj, beta_jk, reciprocal_course(course_k, course_j))
        assert np.array_equal(own, other_s) and np.array_equal(other, own_s)
        for i in range(len(rows)):
            args = float(course_j[i]), float(course_k[i])
            assert own[i] == reference_region(float(beta_jk[i]), *args)
            assert other[i] == reference_region(float(beta_kj[i]), *args[::-1])
