import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from colreg_risk import (
    CoincidentPositions,
    ComfortZone,
    EncounterBuffers,
    Method,
    Rule,
    StateUncertainty,
    VesselState,
    assess_des,
    assess_kde,
    encounter_buffers,
    estimate_probabilities,
    make_uncertainty,
    propagation_study,
    run_once,
)
from colreg_risk import estimator
from colreg_risk.density import TooFewSamples, fit
from colreg_risk.kinematics import cpa_arrays
from colreg_risk.sampling import draw_pair

from scenarios import (
    DIAG, N_FULL, OWN_1, OWN_2, OWN_3, SEED, TARGET_1, TARGET_2, TARGET_3, ZONE, traced_peak,
)

EXACT = StateUncertainty(0.0, 0.0, 0.0, 0.0)


def rule_vector(a):
    return [a.p_risk, a.p_rule[Rule.R0], a.p_rule[Rule.R13],
            a.p_rule[Rule.R14], a.p_rule[Rule.R15], a.p_give_way]


class TestBuffers:
    def test_matches_scalar_kinematics(self):
        unc = make_uncertainty(DIAG, 1.0)
        batch = draw_pair(OWN_1, EXACT, TARGET_1, unc, 200, seed=1, clamp_speed=True)
        buf = encounter_buffers(batch)
        from colreg_risk import cpa, relative_bearing

        rows = list(zip(batch.states_j.as_states(), batch.states_k.as_states()))
        for i in range(0, 200, 17):
            a, b = rows[i]
            res = cpa(a, b)
            assert buf.tcpa[i] == pytest.approx(res.tcpa, rel=1e-12)
            assert buf.dcpa[i] == pytest.approx(res.dcpa, rel=1e-12)
            assert buf.bearing_jk[i] == pytest.approx(relative_bearing(a, b), abs=1e-12)
            assert buf.bearing_kj[i] == pytest.approx(relative_bearing(b, a), abs=1e-12)

    def test_degenerate_entries(self):
        batch = draw_pair(
            VesselState(0, 0, 45, 7), EXACT, VesselState(30, 40, 45, 7), EXACT,
            10, seed=2,
        )
        buf = encounter_buffers(batch)
        assert np.all(np.isposinf(buf.tcpa))
        assert np.allclose(buf.dcpa, 50.0)

    @pytest.mark.parametrize("sigma_speed, all_degenerate", [(0.0, True), (3e-5, False)])
    def test_infinite_tcpa_marks_exactly_the_degenerate_pairs(self, sigma_speed,
                                                               all_degenerate):
        # Matched velocities under position-only noise; a target speed noise
        # near sqrt(REL_SPEED_SQ_EPS) leaves about half the pairs degenerate.
        pos_only = StateUncertainty(10.0, 10.0, 0.0, 0.0)
        batch = draw_pair(VesselState(0, 0, 45, 7), pos_only, VesselState(300, 400, 45, 7),
                          StateUncertainty(10.0, 10.0, 0.0, sigma_speed), 2000, seed=4)
        sj, sk = batch.states_j, batch.states_k
        degenerate = cpa_arrays(sj.north, sj.east, sj.course, sj.speed,
                                sk.north, sk.east, sk.course, sk.speed)[2]
        assert degenerate.any() and degenerate.all() == all_degenerate
        assert np.array_equal(np.isposinf(encounter_buffers(batch).tcpa), degenerate)

    def test_overflow_rejected(self):
        # Sigmas near 1e301 overflow the CPA products to inf and NaN.
        huge = make_uncertainty(DIAG, 1e300)
        batch = draw_pair(OWN_2, huge, TARGET_2, huge, 50, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow shows only as the error
            with pytest.raises(FloatingPointError,
                               match="sampled states overflow the CPA/bearing geometry"):
                encounter_buffers(batch)
            for assess in (assess_kde, assess_des):
                with pytest.raises(FloatingPointError):
                    assess(OWN_2, huge, TARGET_2, huge, ZONE, 1000, 3)

    @pytest.mark.parametrize("target_unc", [StateUncertainty(0.0, 0.0, 2.0, 0.0),
                                            StateUncertainty(1e-12, 1e-12, 0.0, 0.0)],
                             ids=["course-noise", "1e-12-m-position-noise"])
    def test_coincident_positions_rejected(self, target_unc):
        # The array bearing of a coincident pair was atan2(0, 0) = 0, dead
        # ahead, so both pipelines reported p_R15 = 1.0 and p_risk = 1.0
        # where relative_bearing raises.
        own, target = VesselState(0.0, 0.0, 0.0, 10.0), VesselState(0.0, 0.0, 90.0, 10.0)
        batch = draw_pair(own, EXACT, target, target_unc, 1000, seed=1)
        with pytest.raises(CoincidentPositions, match="coincident sampled positions"):
            encounter_buffers(batch)
        for assess in (assess_kde, assess_des):
            with pytest.raises(CoincidentPositions, match="coincident sampled positions"):
                assess(own, EXACT, target, target_unc, ComfortZone(150.0, 600.0), 1000, 1)

    @pytest.mark.parametrize("field", ["tcpa", "dcpa", "bearing_jk", "bearing_kj",
                                       "course_delta"])
    def test_buffers_are_read_only(self, field):
        batch = draw_pair(OWN_2, EXACT, TARGET_2, make_uncertainty(DIAG, 1.0), 10, seed=5)
        column = getattr(encounter_buffers(batch), field)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.0


@st.composite
def _tcpa_columns(draw):
    # A read-only TCPA column, as encounter_buffers leaves it, with no, some
    # or only degenerate pairs (+inf).
    share = draw(st.sampled_from(["none", "some", "all"]))
    n = draw(st.integers(2 if share == "some" else 1, 300))
    degenerate = {"none": [False] * n, "all": [True] * n}.get(share) or draw(
        st.lists(st.booleans(), min_size=n, max_size=n)
        .filter(lambda mask: any(mask) and not all(mask))
    )
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n, max_size=n))
    tcpa = np.where(degenerate, math.inf, values)
    tcpa.setflags(write=False)
    return share, tcpa


class TestFiniteTcpa:
    # The parallel pair of TestKdePath at n = 100k: 24.8% of the pairs are
    # degenerate.
    @pytest.fixture(scope="class")
    def buf(self):
        unc = StateUncertainty(20.0, 20.0, 0.0, 1e-4)
        return encounter_buffers(draw_pair(TestKdePath._PARALLEL_OWN, EXACT,
                                           TestKdePath._PARALLEL_TARGET, unc, N_FULL, 3))

    @settings(max_examples=200)
    @given(_tcpa_columns())
    def test_is_the_finite_column_read_only(self, case):
        share, tcpa = case
        other = np.zeros(tcpa.size)
        got = EncounterBuffers(tcpa, other, other, other, other).finite_tcpa()
        expected = tcpa[np.isfinite(tcpa)]
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        assert not got.flags.writeable
        # With no degenerate pair it is the column itself, with no copy.
        assert np.shares_memory(got, tcpa) == (share == "none")

    def test_fit_keeps_it_without_a_copy(self, buf):
        # fit keeps a read-only float64 line input as it is; a fresh mask
        # result used to be copied once more (0.75 n-columns here).
        tcpa = buf.finite_tcpa()
        assert 0.2 < 1.0 - tcpa.size / N_FULL < 0.3
        _, peak = traced_peak(fit, tcpa, 1.0)
        assert peak <= 0.2 * N_FULL * 8, f"{peak / (N_FULL * 8):.2f} columns"

    def test_window_keeps_its_bits(self):
        kde, = estimator.assess(TestKdePath._PARALLEL_OWN, EXACT, TestKdePath._PARALLEL_TARGET,
                                StateUncertainty(20.0, 20.0, 0.0, 1e-4),
                                ComfortZone(150.0, math.inf), N_FULL, 3, ("kde",))
        assert kde.p_tcpa_window == 0.623759999999958


_DEGENERATE_OWN = VesselState(0.0, 0.0, 45.0, 7.0)
_DEGENERATE_TARGET = VesselState(300.0, 400.0, 45.0, 7.0)  # same velocity: TCPA = inf
_POSITION_ONLY = StateUncertainty(10.0, 10.0, 0.0, 0.0)

ASSESS_CASES = {
    "scenario1": (OWN_1, make_uncertainty(DIAG, 1.0), TARGET_1, make_uncertainty(DIAG, 1.0), 2000),
    "scenario2": (OWN_2, EXACT, TARGET_2, make_uncertainty(DIAG, 2.0), 2000),
    "scenario3": (OWN_3, make_uncertainty(DIAG, 0.5), TARGET_3, make_uncertainty(DIAG, 0.5),
                  2000),
    "exact_tracking": (OWN_2, EXACT, TARGET_2, EXACT, 2000),
    "all_degenerate": (_DEGENERATE_OWN, _POSITION_ONLY, _DEGENERATE_TARGET, _POSITION_ONLY,
                       2000),
    "sample_floor": (OWN_2, EXACT, TARGET_2, make_uncertainty(DIAG, 1.0), 1000),
}


class TestAssess:
    @pytest.mark.parametrize("case", ASSESS_CASES.values(), ids=ASSESS_CASES.keys())
    def test_one_draw_equals_separate_calls(self, draws, case):
        j, j_unc, k, k_unc, n = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # Silverman fallback
            both = estimator.assess(j, j_unc, k, k_unc, ZONE, n, 17, (Method.KDE, Method.DES))
            assert len(draws) == 1
            kde = assess_kde(j, j_unc, k, k_unc, ZONE, n, 17)
            assert len(draws) == 2
        des = assess_des(j, j_unc, k, k_unc, ZONE, n, 17)
        assert len(draws) == 3
        # Dataclass equality compares every field, the situation tables too.
        assert both == (kde, des)

    def test_results_follow_the_given_order(self):
        unc = make_uncertainty(DIAG, 1.0)
        args = (OWN_2, EXACT, TARGET_2, unc, ZONE, 1000, 18)
        des, kde = estimator.assess(*args, (Method.DES, Method.KDE))
        assert (kde.method, des.method) == (Method.KDE, Method.DES)
        assert (kde, des) == estimator.assess(*args, (Method.KDE, Method.DES))

    @pytest.mark.parametrize("methods, n, error", [
        ((), 2000, ValueError),
        ((Method.KDE,), 999, TooFewSamples),
        ((Method.DES, Method.KDE), 999, TooFewSamples),
        ((Method.KDE, Method.DES), 0, TooFewSamples),
        ((Method.DES,), 0, TooFewSamples),
        (("x",), 2000, ValueError),
    ])
    def test_checks_come_before_the_draw(self, draws, methods, n, error):
        with pytest.raises(error):
            estimator.assess(OWN_2, EXACT, TARGET_2, EXACT, ZONE, n, 19, methods)
        assert draws == []

    def test_method_names_work_like_members(self):
        # parse_config reads a config's method names through Method(...); so does assess.
        args = (OWN_2, EXACT, TARGET_2, make_uncertainty(DIAG, 1.0), ZONE, 1000, 20)
        assert estimator.assess(*args, ("kde", "des")) == estimator.assess(
            *args, (Method.KDE, Method.DES))


class TestZeroUncertainty:
    def test_scenario1_deterministic(self):
        kde = assess_kde(OWN_1, EXACT, TARGET_1, EXACT, ZONE, 2000, seed=3)
        des = assess_des(OWN_1, EXACT, TARGET_1, EXACT, ZONE, 2000, seed=3)
        for a in (kde, des):
            assert a.p_risk == 0.0
            assert a.p_give_way == 0.0
            assert a.p_stand_on == 1.0
            assert a.p_rule[Rule.R15] == 1.0

    def test_scenario2_deterministic(self):
        des = assess_des(OWN_2, EXACT, TARGET_2, EXACT, ZONE, 100, seed=4)
        assert des.p_risk == 1.0
        assert des.p_rule[Rule.R15] == 1.0
        assert des.p_give_way == 0.0  # stand-on classification


class TestDesPath:
    def test_single_sample_binary(self):
        unc = make_uncertainty(DIAG, 1.0)
        a = assess_des(OWN_1, EXACT, TARGET_1, unc, ZONE, 1, seed=5)
        for value in rule_vector(a):
            assert value in (0.0, 1.0)

    def test_matches_scalar_automaton(self):
        from colreg_risk import run_once

        cfg = ZONE
        unc = make_uncertainty(DIAG, 1.0)
        n = 400
        batch = draw_pair(OWN_2, EXACT, TARGET_2, unc, n, seed=6, clamp_speed=True)
        strings = [
            run_once(a, b, cfg)
            for a, b in zip(batch.states_j.as_states(), batch.states_k.as_states())
        ]
        from colreg_risk import estimate_probabilities

        scalar = estimate_probabilities(strings, seed=6)
        vector = assess_des(OWN_2, EXACT, TARGET_2, unc, ZONE, n, seed=6)
        # Same seed, same batch; the vectorised path must agree exactly
        # (clamping never fires here: five sigmas from zero).
        assert vector.p_risk == scalar.p_risk
        for rule in Rule:
            assert vector.p_rule[rule] == scalar.p_rule[rule]
        assert vector.p_give_way == scalar.p_give_way

    def test_counts_consistency(self):
        unc = make_uncertainty(DIAG, 2.0)
        a = assess_des(OWN_2, EXACT, TARGET_2, unc, ZONE, 20_000, seed=7)
        assert math.fsum(a.p_rule[r] for r in Rule) == pytest.approx(1.0, abs=1e-12)
        assert a.p_give_way + a.p_stand_on == 1.0
        assert a.situation is not None
        joint_total = math.fsum(a.situation.joint.values())
        assert joint_total == pytest.approx(1.0, abs=1e-9)


class TestWorkingSet:
    """One worker's short-lived arrays at n = 100k: scenario 3 at alpha = 5,
    as ``run`` assesses it, in n-float64 columns (800 kB each).

    The bounds sit about 0.7 column above the measured peaks (numpy 2.4.6,
    scipy 1.17.1): 5.25 columns for ``encounter_buffers`` (its five outputs
    and the geometry's scratch) and 4.56 for the density step, where the
    kernels writing fresh temporaries reached 11.1 and 6.7 columns, and
    1.38 for the counting step, which reached 4.13 with int64 region codes.
    """

    COLUMN = N_FULL * 8

    @pytest.fixture(scope="class")
    def batch(self):
        return draw_pair(OWN_3, EXACT, TARGET_3, make_uncertainty(DIAG, 5.0), N_FULL, SEED)

    def test_encounter_buffers(self, batch):
        _, peak = traced_peak(encounter_buffers, batch)
        assert peak <= 6.0 * self.COLUMN, f"{peak / self.COLUMN:.2f} columns"

    def test_density_step(self, batch):
        buf = encounter_buffers(batch)
        _, peak = traced_peak(estimator._kde, buf, ZONE, N_FULL, SEED)
        assert peak <= 5.25 * self.COLUMN, f"{peak / self.COLUMN:.2f} columns"

    def test_counting_step(self, batch):
        buf = encounter_buffers(batch)
        _, peak = traced_peak(estimator._des, buf, ZONE, N_FULL, SEED)
        assert peak <= 2.0 * self.COLUMN, f"{peak / self.COLUMN:.2f} columns"


class TestKdePath:
    def test_few_finite_tcpa_samples_fall_back_to_silverman(self):
        # Matched mean velocities with a tiny speed spread: only a few dozen
        # of the 2000 samples have a finite TCPA, too few for the plug-in
        # selector, so the TCPA density uses Silverman's rule.
        own = VesselState(0.0, 0.0, 0.0, 10.0)
        target = VesselState(500.0, 500.0, 0.0, 10.0)
        unc = StateUncertainty(10.0, 10.0, 0.0, 1.3e-5)
        batch = draw_pair(own, EXACT, target, unc, 2000, seed=1)
        tcpa = encounter_buffers(batch).tcpa
        finite = np.isfinite(tcpa)
        assert 2 <= np.unique(tcpa[finite]).size < 50
        with pytest.warns(RuntimeWarning, match="Silverman"):
            a = assess_kde(own, EXACT, target, unc, ZONE, 2000, seed=1)
        des = assess_des(own, EXACT, target, unc, ZONE, 2000, seed=1)
        assert 0.0 <= a.p_tcpa_window <= float(np.mean(finite))
        assert a.p_tcpa_window == pytest.approx(des.p_tcpa_window, abs=0.01)

    # Parallel mean courses at 10 m/s and a 1e-4 m/s target speed spread:
    # 1270 of the 5000 pairs at seed 3 (25.4%) are degenerate (TCPA = +inf).
    _PARALLEL_OWN = VesselState(0.0, 0.0, 0.0, 10.0)
    _PARALLEL_TARGET = VesselState(500.0, 300.0, 0.0, 10.0)

    def _parallel_windows(self, sigma_speed, t_aware):
        """(KDE, DES) p_tcpa_window of the parallel pair at seed 3."""
        unc = StateUncertainty(20.0, 20.0, 0.0, sigma_speed)
        kde, des = estimator.assess(self._PARALLEL_OWN, EXACT, self._PARALLEL_TARGET, unc,
                                    ComfortZone(150.0, t_aware), 5000, 3, ("kde", "des"))
        return kde.p_tcpa_window, des.p_tcpa_window

    def test_degenerate_pairs_take_the_des_window_share(self):
        # The +inf TCPAs used to drop out of the KDE window probability
        # (0.370 against DES 0.624) when the window has no upper end.
        unc = StateUncertainty(20.0, 20.0, 0.0, 1e-4)
        batch = draw_pair(self._PARALLEL_OWN, EXACT, self._PARALLEL_TARGET, unc, 5000, seed=3)
        assert np.count_nonzero(np.isposinf(encounter_buffers(batch).tcpa)) == 1270
        kde, des = self._parallel_windows(1e-4, math.inf)
        assert abs(kde - des) <= 0.01

    def test_finite_window_keeps_its_bits(self):
        # A finite window never holds +inf, so the degenerate share adds 0.0.
        assert self._parallel_windows(1e-4, 600.0) == (3.0529356637960072e-09, 0.0)

    def test_every_pair_degenerate_counts_the_unbounded_window(self):
        assert self._parallel_windows(0.0, math.inf) == (1.0, 1.0)

    def test_needs_enough_samples(self):
        with pytest.raises(TooFewSamples):
            assess_kde(OWN_1, EXACT, TARGET_1, make_uncertainty(DIAG, 1.0), ZONE, 500, seed=8)

    @pytest.mark.parametrize("own, target, alpha, seed, rule", [
        # A near-parallel pair and two pairs near a band edge, with an
        # exactly known own ship: the joint's cells for one rule sum to
        # 1.0000000000000002, and the give-way mass of the second too.
        (VesselState(0.0, 0.0, 347.68669758310466, 5.420591039438763),
         VesselState(-582.3860513999379, 222.92771068738722, 346.89977620245656,
                     5.328777436503647), 0.5, 4259040706448863540, Rule.R13),
        (VesselState(0.0, 0.0, 20.31480662713811, 9.397102865699997),
         VesselState(1980.7297146574501, 875.035508473237, 234.28576706206002,
                     7.1880225628924155), 1.5, 2737336670534304376, Rule.R15),
        (VesselState(0.0, 0.0, 21.427495834011772, 7.372085722792717),
         VesselState(1918.0982451128623, 602.5455854168981, 157.7417648824961,
                     10.593135851400415), 2.0, 107891674213493202, Rule.R15),
    ], ids=["near_parallel", "band_edge_give_way", "band_edge"])
    def test_rule_masses_stay_at_most_one(self, own, target, alpha, seed, rule):
        a = assess_kde(own, EXACT, target, make_uncertainty(DIAG, alpha), ZONE, 10_000, seed)
        assert a.p_rule[rule] == 1.0
        assert max(a.p_rule.values()) <= 1.0
        assert a.p_give_way <= a.p_risk

    def test_risk_matches_empirical_fraction(self):
        unc = make_uncertainty(DIAG, 1.0)
        n = 20_000
        a = assess_kde(OWN_1, EXACT, TARGET_1, unc, ZONE, n, seed=9)
        batch = draw_pair(OWN_1, EXACT, TARGET_1, unc, n, seed=9)
        frac = float(np.mean(encounter_buffers(batch).dcpa <= ZONE.d_act))
        assert abs(a.p_risk - frac) <= 0.015

    def test_marginals_and_joint(self):
        unc = make_uncertainty(DIAG, 1.5)
        a = assess_kde(OWN_2, EXACT, TARGET_2, unc, ZONE, 20_000, seed=10)
        dist = a.situation
        assert math.fsum(dist.own_regions.values()) == pytest.approx(1.0, abs=1e-9)
        assert math.fsum(dist.other_regions.values()) == pytest.approx(1.0, abs=1e-9)
        assert math.fsum(dist.joint.values()) == pytest.approx(1.0, abs=1e-9)
        for (a_r, t_r), value in dist.joint.items():
            assert value == pytest.approx(
                dist.own_regions[a_r] * dist.other_regions[t_r], rel=1e-9, abs=1e-12
            )
        assert math.fsum(a.p_rule[r] for r in Rule) == pytest.approx(1.0, abs=1e-9)
        assert a.p_give_way + a.p_stand_on == 1.0

    def test_head_on_checkpoint_small_n(self):
        # Course-proximity boundary case: the rule-14 probability tracks the
        # normal tail of the course-opposition margin.
        unc = make_uncertainty(DIAG, 0.1)
        a = assess_kde(OWN_2, EXACT, TARGET_2, unc, ZONE, 20_000, seed=11)
        assert a.p_rule[Rule.R14] == pytest.approx(0.006, abs=0.004)

    def test_window_probability(self):
        unc = make_uncertainty(DIAG, 1.0)
        a = assess_kde(OWN_2, EXACT, TARGET_2, unc, ZONE, 5000, seed=12)
        # Nominal TCPA is 50 s, far inside the 600 s horizon.
        assert a.p_tcpa_window == pytest.approx(1.0, abs=0.01)


class TestDeterminismAndAgreement:
    def test_seed_determinism(self):
        unc = make_uncertainty(DIAG, 1.0)
        a = assess_kde(OWN_2, EXACT, TARGET_2, unc, ZONE, 5000, seed=13)
        b = assess_kde(OWN_2, EXACT, TARGET_2, unc, ZONE, 5000, seed=13)
        assert rule_vector(a) == rule_vector(b)
        assert a.p_tcpa_window == b.p_tcpa_window
        c = assess_des(OWN_2, EXACT, TARGET_2, unc, ZONE, 5000, seed=13)
        d = assess_des(OWN_2, EXACT, TARGET_2, unc, ZONE, 5000, seed=13)
        assert rule_vector(c) == rule_vector(d)

    def test_methods_agree_at_moderate_n(self):
        unc = make_uncertainty(DIAG, 0.5)
        kde = assess_kde(OWN_2, EXACT, TARGET_2, unc, ZONE, 20_000, seed=14)
        des = assess_des(OWN_2, EXACT, TARGET_2, unc, ZONE, 20_000, seed=14)
        for a, b in zip(rule_vector(kde), rule_vector(des)):
            assert abs(a - b) <= 0.03

    def test_metadata(self):
        unc = make_uncertainty(DIAG, 1.0)
        a = assess_kde(OWN_1, EXACT, TARGET_1, unc, ZONE, 2000, seed=15)
        assert a.method is Method.KDE and a.n_samples == 2000 and a.seed == 15
        b = assess_des(OWN_1, EXACT, TARGET_1, unc, ZONE, 2000, seed=15)
        assert b.method is Method.DES

    def test_small_alpha_concentrates_on_deterministic_rule(self):
        # Shrinking uncertainty drives the rule mass onto the deterministic
        # classification and the risk toward its deterministic indicator.
        unc = make_uncertainty(DIAG, 0.01)
        a = assess_des(OWN_1, EXACT, TARGET_1, unc, ZONE, 20_000, seed=16)
        assert a.p_rule[Rule.R15] > 0.999
        assert a.p_risk < 0.005  # deterministic DCPA is outside the zone


class TestPropagationStudy:
    def test_nominal_head_on_closure(self, monkeypatch):
        # Noise-free check of the construction: bearing 0 places the target
        # 1000 m ahead on a reciprocal course, closing at 20 m/s.
        monkeypatch.setattr(estimator, "_STUDY_SIGMAS", (0.0, 0.0, 0.0, 0.0))
        study = propagation_study([0.0], 1000.0, 2000, seed=16)
        assert np.allclose(study[0.0].tcpa, 50.0)

    def test_buffers_shapes_and_keys(self):
        study = propagation_study([0.0, 90.0, 180.0], 1000.0, 500, seed=17)
        assert set(study) == {0.0, 90.0, 180.0}
        for buffers in study.values():
            assert buffers.tcpa.shape == (500,)
            assert np.all(buffers.dcpa >= 0.0)
            assert np.all((buffers.bearing_jk >= 0) & (buffers.bearing_jk < 360))

    def test_sampled_means_near_nominal(self):
        study = propagation_study([0.0, 180.0], 1000.0, 10_000, seed=18)
        assert float(np.mean(study[0.0].tcpa)) == pytest.approx(51.0, abs=1.5)
        neg = float(np.mean(study[180.0].tcpa < 0))
        assert 0.4 <= neg <= 0.6

    def test_one_bearing_draws_what_it_draws_among_more(self):
        # The study asks for one pair seed per bearing; the seeds are a
        # prefix-stable list, so bearing 0's buffers do not depend on how
        # many bearings follow it.
        alone = propagation_study([0.0], 1000.0, 300, seed=19)[0.0]
        first = propagation_study([0.0, 90.0, 200.0], 1000.0, 300, seed=19)[0.0]
        for name in ("tcpa", "dcpa", "bearing_jk", "bearing_kj", "course_delta"):
            assert getattr(alone, name).tobytes() == getattr(first, name).tobytes()

    def test_bearing_just_above_180_wraps_the_course(self, monkeypatch):
        # (180 - bearing) % 360 rounds to 360.0 here; the wrapped course is
        # 0, the own ship's, so the noise-free pair never closes.
        monkeypatch.setattr(estimator, "_STUDY_SIGMAS", (0.0, 0.0, 0.0, 0.0))
        bearing = math.nextafter(180.0, 360.0)
        buffers = propagation_study([bearing], 1000.0, 100, seed=22)[bearing]
        assert np.all(buffers.tcpa == math.inf)
        assert np.all(buffers.course_delta == -180.0)

    def test_invalid_inputs(self):
        with pytest.raises(TooFewSamples, match="sample count must be >= 1, got 0"):
            propagation_study([0.0], 1000.0, 0, seed=19)
        with pytest.raises(ValueError):
            propagation_study([400.0], 1000.0, 10, seed=20)

    @pytest.mark.parametrize("bearings, range_m, match", [
        ([0.0, 0.0], 1000.0, "distinct"),
        ([0.0, -0.0], 1000.0, "distinct"),
        ([0.0], -1000.0, "range_m"),
        ([0.0], 0.0, "range_m"),
        ([0.0], math.inf, "range_m"),
        ([0.0], math.nan, "range_m"),
        ([], 1000.0, "at least one bearing"),
    ])
    def test_rejects_what_analyze_rejects(self, bearings, range_m, match):
        with pytest.raises(ValueError, match=match):
            propagation_study(bearings, range_m, 10, seed=21)


# Deterministic property runs: no example database, a fixed example order.
PROPERTY = settings(max_examples=30)
coords = st.floats(-3000.0, 3000.0)
mean_states = st.builds(
    VesselState, coords, coords, st.floats(0.0, 360.0, exclude_max=True), st.floats(0.0, 15.0)
)
alphas = st.sampled_from((0.0, 0.1, 1.0, 5.0))


# Own course on a band edge with the target due north puts the bearing
# exactly on the edge at 360 - course; matched velocities make the pair
# degenerate.
edge_pairs = st.builds(
    lambda course, speed, range_m, target_course: (
        VesselState(0.0, 0.0, course, speed), VesselState(range_m, 0.0, target_course, speed)
    ),
    st.sampled_from((5.0, 112.5, 247.5, 355.0)), st.floats(0.0, 15.0), st.floats(10.0, 3000.0),
    st.floats(0.0, 360.0, exclude_max=True),
)
degenerate_pairs = st.builds(
    lambda j, k: (j, VesselState(k.north, k.east, j.course, j.speed)), mean_states, mean_states
)


def _uncertainties(alpha, exact_own):
    unc = make_uncertainty(DIAG, alpha)
    return (EXACT if exact_own else unc), unc


class TestProperties:
    @PROPERTY
    @given(j=mean_states, k=mean_states, alpha=alphas, exact_own=st.booleans(),
           n=st.integers(1, 40), seed=st.integers(0, 2**63 - 1),
           d_act=st.floats(10.0, 3000.0), t_aware=st.floats(10.0, 1000.0))
    def test_des_equals_per_sample_automaton(self, j, k, alpha, exact_own, n, seed,
                                             d_act, t_aware):
        own_unc, tgt_unc = _uncertainties(alpha, exact_own)
        assume(math.hypot(j.north - k.north, j.east - k.east) > 1.0)
        batch = draw_pair(j, own_unc, k, tgt_unc, n, seed)
        assume(np.all(batch.states_j.speed >= 0.0) and np.all(batch.states_k.speed >= 0.0))
        cfg = ComfortZone(d_act, t_aware)
        scalar = estimate_probabilities(
            [run_once(a, b, cfg)
             for a, b in zip(batch.states_j.as_states(), batch.states_k.as_states())]
        )
        vector = assess_des(j, own_unc, k, tgt_unc, cfg, n, seed)
        assert vector.p_risk == scalar.p_risk
        assert vector.p_tcpa_window == scalar.p_tcpa_window
        assert dict(vector.p_rule) == dict(scalar.p_rule)
        assert vector.p_give_way == scalar.p_give_way

    @settings(PROPERTY, max_examples=60)
    @given(pair=st.tuples(mean_states, mean_states) | edge_pairs | degenerate_pairs,
           seed=st.integers(0, 2**63 - 1), d_act=st.floats(10.0, 3000.0),
           t_aware=st.floats(10.0, 1000.0) | st.just(math.inf))
    def test_exact_tracking_kde_equals_des(self, pair, seed, d_act, t_aware):
        # With no tracker error every buffer has zero spread, so KDE has no
        # density to integrate and must return the DES answer exactly.
        j, k = pair
        assume(math.hypot(j.north - k.north, j.east - k.east) > 1.0)
        zone = ComfortZone(d_act, t_aware)
        kde = assess_kde(j, EXACT, k, EXACT, zone, 1000, seed)
        des = assess_des(j, EXACT, k, EXACT, zone, 1000, seed)
        assert kde.p_risk == des.p_risk
        assert kde.p_tcpa_window == des.p_tcpa_window
        assert dict(kde.p_rule) == dict(des.p_rule)
        assert kde.p_give_way == des.p_give_way
        assert kde.situation == des.situation

    @settings(PROPERTY, max_examples=8)
    @given(j=mean_states, k=mean_states, alpha=alphas, exact_own=st.booleans(),
           seed=st.integers(0, 2**63 - 1))
    def test_probabilities_in_range(self, j, k, alpha, exact_own, seed):
        own_unc, tgt_unc = _uncertainties(alpha, exact_own)
        assume(math.hypot(j.north - k.north, j.east - k.east) > 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            kde = assess_kde(j, own_unc, k, tgt_unc, ZONE, 1000, seed)
        des = assess_des(j, own_unc, k, tgt_unc, ZONE, 1000, seed)
        # KDE band integrals may overshoot 1 by rounding (about one ulp);
        # the counts are exact.
        for a, slack in ((kde, 1e-12), (des, 0.0)):
            values = [a.p_risk, a.p_tcpa_window, a.p_give_way, a.p_stand_on,
                      *a.p_rule.values()]
            assert all(-slack <= v <= 1.0 + slack for v in values)
            assert abs(math.fsum(a.p_rule.values()) - 1.0) <= 1e-12

    @settings(PROPERTY, max_examples=8)
    @given(j=mean_states, k=mean_states, alpha=alphas, exact_own=st.booleans(),
           seed=st.integers(0, 2**63 - 1))
    def test_same_seed_same_assessment(self, j, k, alpha, exact_own, seed):
        own_unc, tgt_unc = _uncertainties(alpha, exact_own)
        assume(math.hypot(j.north - k.north, j.east - k.east) > 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            kde = [assess_kde(j, own_unc, k, tgt_unc, ZONE, 1000, seed) for _ in range(2)]
        des = [assess_des(j, own_unc, k, tgt_unc, ZONE, 1000, seed) for _ in range(2)]
        # Dataclass equality compares every field, the situation tables too.
        assert kde[0] == kde[1]
        assert des[0] == des[1]
