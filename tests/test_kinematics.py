import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colreg_risk import (
    CoincidentPositions,
    CpaResult,
    VesselState,
    cpa,
    reciprocal_course,
    relative_bearing,
)
from colreg_risk.kinematics import (
    REL_SPEED_SQ_EPS,
    bearing_arrays,
    cpa_arrays,
    velocity_arrays,
    wrap_degrees,
)

from scenarios import OWN_1, OWN_2, TARGET_1


def random_state(rng):
    return VesselState(
        north=float(rng.uniform(-5000, 5000)),
        east=float(rng.uniform(-5000, 5000)),
        course=float(rng.uniform(0, 360)) % 360.0,
        speed=float(rng.uniform(0.5, 25)),
    )


def velocity(state):
    """(north, east) velocity of a state, m/s."""
    rad = math.radians(state.course)
    return state.speed * math.cos(rad), state.speed * math.sin(rad)


def reference_cpa(j, k):
    """(tcpa, dcpa) from the relative velocity and offset, (inf, separation)
    for matched velocities, or the exception ``cpa`` must raise."""
    (vjn, vje), (vkn, vke) = velocity(j), velocity(k)
    dvn, dve = vjn - vkn, vje - vke
    dpn, dpe = j.north - k.north, j.east - k.east
    rel_sq = dvn * dvn + dve * dve
    if math.isinf(rel_sq):
        return FloatingPointError
    if rel_sq <= REL_SPEED_SQ_EPS:
        return math.inf, math.hypot(dpn, dpe)
    tcpa = -(dpn * dvn + dpe * dve) / rel_sq
    return tcpa, math.hypot(dpn + dvn * tcpa, dpe + dve * tcpa)


class TestVelocity:
    def _one(self, course, speed):
        vn, ve = velocity_arrays(np.array([course]), np.array([speed]))
        return float(vn[0]), float(ve[0])

    def test_due_north(self):
        assert self._one(0.0, 10.0) == (10.0, 0.0)

    def test_due_west(self):
        v_north, v_east = self._one(270.0, 10.0)
        assert v_north == pytest.approx(0.0, abs=1e-12)
        assert v_east == pytest.approx(-10.0, abs=1e-12)

    def test_zero_speed(self):
        assert self._one(90.0, 0.0) == (0.0, 0.0)


class TestCpa:
    @pytest.mark.parametrize("speed", [1e160, 1e300])
    def test_overflowing_relative_speed_raises(self, speed):
        # |dv|^2 = inf used to give TCPA 0 and DCPA 1000 m, the current
        # separation, where the vessels meet head-on (DCPA about 0).
        with pytest.raises(FloatingPointError, match="overflows"):
            cpa(VesselState(0, 0, 0, 10), VesselState(1000, 0, 180, speed))

    def test_scenario1_dcpa_matches_reference(self):
        assert cpa(OWN_1, TARGET_1).dcpa == pytest.approx(176.78, abs=0.01)

    def test_scenario1_tcpa_hand_evaluation(self):
        # Hand evaluation: dp.dv = -1250*10 - 1000*10 = -22500, |dv|^2 = 200.
        assert cpa(OWN_1, TARGET_1).tcpa == pytest.approx(22500.0 / 200.0, rel=1e-12)

    def test_scenario2_dcpa_matches_reference(self):
        own = VesselState(0.0, 0.0, 0.0, 10.0)
        target = VesselState(995.40, -95.85, 174.5, 10.0)
        assert cpa(own, target).dcpa == pytest.approx(47.98, abs=0.01)

    def test_identical_velocities_degenerate(self):
        res = cpa(VesselState(0, 0, 0, 10), VesselState(100, 0, 0, 10))
        assert res == CpaResult(math.inf, 100.0)

    def test_result_consistency(self):
        res = cpa(OWN_1, TARGET_1)
        (vjn, vje), (vkn, vke) = velocity(OWN_1), velocity(TARGET_1)
        gap = math.hypot(
            (OWN_1.north + vjn * res.tcpa) - (TARGET_1.north + vkn * res.tcpa),
            (OWN_1.east + vje * res.tcpa) - (TARGET_1.east + vke * res.tcpa),
        )
        assert gap == pytest.approx(res.dcpa, rel=1e-12)
        assert res.dcpa >= 0.0
        assert (vjn - vkn) ** 2 + (vje - vke) ** 2 == pytest.approx(200.0, rel=1e-12)

    def test_symmetry_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = random_state(rng), random_state(rng)
            r_ab, r_ba = cpa(a, b), cpa(b, a)
            assert r_ab.tcpa == pytest.approx(r_ba.tcpa, rel=1e-9, abs=1e-9)
            assert r_ab.dcpa == pytest.approx(r_ba.dcpa, rel=1e-9, abs=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a, b = random_state(rng), random_state(rng)
            dn, de = float(rng.uniform(-1e5, 1e5)), float(rng.uniform(-1e5, 1e5))
            a2 = VesselState(a.north + dn, a.east + de, a.course, a.speed)
            b2 = VesselState(b.north + dn, b.east + de, b.course, b.speed)
            r, r2 = cpa(a, b), cpa(a2, b2)
            assert r2.tcpa == pytest.approx(r.tcpa, rel=1e-9, abs=1e-9)
            assert r2.dcpa == pytest.approx(r.dcpa, rel=1e-9, abs=1e-6)

    def test_dcpa_is_grid_minimum(self):
        # Independent oracle: separation minimised over a dense time grid
        # around TCPA must match the closed form within a millimeter.
        rng = np.random.default_rng(13)
        for _ in range(40):
            a, b = random_state(rng), random_state(rng)
            res = cpa(a, b)
            (van, vae), (vbn, vbe) = velocity(a), velocity(b)
            t = res.tcpa + np.arange(-100.0, 100.0 + 1e-9, 0.01)
            sep = np.hypot(
                (a.north - b.north) + (van - vbn) * t,
                (a.east - b.east) + (vae - vbe) * t,
            )
            assert res.dcpa == pytest.approx(float(sep.min()), abs=1e-3)


# Hypothesis often repeats a drawn value, so a turned target course keeps
# most pairs non-degenerate; matched velocities and zero speeds draw the
# degenerate branch, and speeds whose |dv|^2 overflows the raising one.
coords = st.floats(-5000.0, 5000.0)
courses = st.floats(0.0, 360.0, exclude_max=True)
speeds = st.floats(0.5, 25.0) | st.sampled_from((0.0, 1e155, 1e160, 1e300))
states = st.builds(VesselState, coords, coords, courses, speeds)
pairs = st.one_of(
    st.builds(lambda j, k, turn: (j, VesselState(k.north, k.east, (j.course + turn) % 360.0,
                                                 k.speed)),
              states, states, st.floats(1.0, 359.0)),
    st.builds(lambda j, k: (j, VesselState(k.north, k.east, j.course, j.speed)), states, states),
)
# The same pairs placed about 1e308 apart, so the offset and the TCPA
# products can overflow.
far = st.floats(5e307, 1.7e308)
far_pairs = st.builds(lambda pair, a, b: (replace(pair[0], north=a), replace(pair[1], north=-b)),
                      pairs, far, far)


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(pair=pairs)
def test_cpa_equals_reference_expressions(pair):
    j, k = pair
    expected = reference_cpa(j, k)
    if isinstance(expected, type):
        with pytest.raises(expected):
            cpa(j, k)
    else:
        res = cpa(j, k)
        assert (res.tcpa, res.dcpa) == expected


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(pair=pairs | far_pairs)
def test_cpa_matches_cpa_arrays(pair):
    j, k = pair
    col = lambda v: np.array([v], dtype=float)
    tcpa, dcpa, degenerate = cpa_arrays(
        col(j.north), col(j.east), col(j.course), col(j.speed),
        col(k.north), col(k.east), col(k.course), col(k.speed),
    )
    # The rows estimator.encounter_buffers rejects.
    rejected = np.isnan(tcpa[0]) or not np.isfinite(dcpa[0])
    try:
        res = cpa(j, k)
    except FloatingPointError:
        assert rejected
        return
    assert not rejected
    assert degenerate[0] == math.isinf(res.tcpa)
    assert tcpa[0] == res.tcpa
    assert abs(dcpa[0] - res.dcpa) <= math.ulp(res.dcpa)


class TestRelativeBearing:
    def test_dead_ahead(self):
        assert relative_bearing(VesselState(0, 0, 0, 1), VesselState(1000, 0, 0, 1)) == 0.0

    def test_scenario2_reference_bearing(self):
        target = VesselState(995.40, -95.85, 174.5, 10.0)
        assert relative_bearing(OWN_2, target) == pytest.approx(354.5, abs=0.01)

    def test_atan2_oracle(self):
        expected = math.degrees(math.atan2(1000.0, 1250.0))
        assert relative_bearing(OWN_1, TARGET_1) == pytest.approx(expected, rel=1e-12)

    def test_coincident_positions(self):
        with pytest.raises(CoincidentPositions):
            relative_bearing(VesselState(5, 5, 0, 1), VesselState(5, 5, 90, 1))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            a, b = random_state(rng), random_state(rng)
            delta = float(rng.uniform(0, 360))
            rad = math.radians(delta)
            dn, de = b.north - a.north, b.east - a.east
            rotated = VesselState(
                a.north + dn * math.cos(rad) - de * math.sin(rad),
                a.east + dn * math.sin(rad) + de * math.cos(rad),
                b.course,
                b.speed,
            )
            a_rot = VesselState(a.north, a.east, (a.course + delta) % 360.0, a.speed)
            before = relative_bearing(a, b)
            after = relative_bearing(a_rot, rotated)
            diff = (after - before + 180.0) % 360.0 - 180.0
            assert abs(diff) < 1e-6

    def test_output_range(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            a, b = random_state(rng), random_state(rng)
            beta = relative_bearing(a, b)
            assert 0.0 <= beta < 360.0


class TestReciprocalCourse:
    def test_reciprocal_pair(self):
        assert reciprocal_course(0.0, 180.0) == 0.0

    def test_modular_oracle(self):
        assert reciprocal_course(0.0, 174.5) == pytest.approx((-174.5) % 360.0 - 180.0)
        assert reciprocal_course(0.0, 174.5) == pytest.approx(5.5)

    def test_identical_courses(self):
        assert reciprocal_course(90.0, 90.0) == -180.0

    def test_output_range(self):
        rng = np.random.default_rng(16)
        psi = rng.uniform(-720, 720, size=(500, 2))
        for a, b in psi:
            value = reciprocal_course(float(a), float(b))
            assert -180.0 <= value < 180.0


class TestArrayKernels:
    def test_wrap_degrees_edge(self):
        assert wrap_degrees(-1e-16) == 0.0
        assert wrap_degrees(360.0) == 0.0
        arr = wrap_degrees(np.array([-1e-16, 360.0, 719.5, -0.5]))
        assert np.all((arr >= 0.0) & (arr < 360.0))

    def test_cpa_arrays_match_scalar(self):
        rng = np.random.default_rng(17)
        states = [(random_state(rng), random_state(rng)) for _ in range(300)]
        # Columns plus one deliberately degenerate pair at the end.
        a_list = [p[0] for p in states] + [VesselState(0, 0, 45, 7)]
        b_list = [p[1] for p in states] + [VesselState(10, 10, 45, 7)]
        cols = lambda xs, f: np.array([f(x) for x in xs])
        tcpa, dcpa, degenerate = cpa_arrays(
            cols(a_list, lambda s: s.north), cols(a_list, lambda s: s.east),
            cols(a_list, lambda s: s.course), cols(a_list, lambda s: s.speed),
            cols(b_list, lambda s: s.north), cols(b_list, lambda s: s.east),
            cols(b_list, lambda s: s.course), cols(b_list, lambda s: s.speed),
        )
        # One formula: TCPA is bit-equal and DCPA differs only by the
        # rounding of math.hypot against np.hypot.
        for i, (a, b) in enumerate(zip(a_list, b_list)):
            res = cpa(a, b)
            assert degenerate[i] == math.isinf(res.tcpa)
            assert tcpa[i] == res.tcpa
            assert abs(dcpa[i] - res.dcpa) <= math.ulp(res.dcpa)
        assert (tcpa[-1], dcpa[-1]) == (res.tcpa, res.dcpa) == (math.inf, math.hypot(10, 10))

    def test_cpa_arrays_mark_overflow_nan(self):
        col = lambda *v: np.array(v, dtype=float)
        with np.errstate(over="ignore"):
            tcpa, dcpa, degenerate = cpa_arrays(
                col(0, 0), col(0, 0), col(0, 0), col(10, 10),
                col(1000, 1000), col(0, 0), col(180, 180), col(10, 1e300),
            )
        assert tcpa[0] == pytest.approx(50.0) and dcpa[0] == pytest.approx(0.0)
        assert np.isnan(tcpa[1]) and np.isnan(dcpa[1]) and not degenerate.any()

    def test_bearing_arrays_match_scalar(self):
        rng = np.random.default_rng(18)
        pairs = [(random_state(rng), random_state(rng)) for _ in range(300)]
        beta = bearing_arrays(
            np.array([a.north for a, _ in pairs]), np.array([a.east for a, _ in pairs]),
            np.array([a.course for a, _ in pairs]),
            np.array([b.north for _, b in pairs]), np.array([b.east for _, b in pairs]),
        )
        for i, (a, b) in enumerate(pairs):
            assert beta[i] == pytest.approx(relative_bearing(a, b), abs=1e-12)

    def test_reciprocal_arrays_match_scalar(self):
        rng = np.random.default_rng(19)
        pj = np.concatenate([rng.uniform(0, 360, 200), [0.0, 90.0, 0.0, 359.5]])
        pk = np.concatenate([rng.uniform(0, 360, 200), [180.0, 90.0, 174.5, 184.5]])
        arr = reciprocal_course(pj, pk)
        assert isinstance(arr, np.ndarray) and arr.shape == pj.shape
        for i in range(pj.size):
            oracle = (float(pj[i]) - float(pk[i])) % 360.0 - 180.0
            assert arr[i] == oracle
            assert arr[i] == reciprocal_course(float(pj[i]), float(pk[i]))


class TestValidation:
    def test_course_out_of_range(self):
        with pytest.raises(ValueError):
            VesselState(0, 0, 360.0, 1.0)

    def test_negative_speed(self):
        with pytest.raises(ValueError):
            VesselState(0, 0, 0.0, -1.0)

    @pytest.mark.parametrize("speed", [math.inf, math.nan])
    def test_nonfinite_speed(self, speed):
        # An infinite speed used to be accepted; cpa against any moving
        # vessel then gave (nan, nan) and classify_sample reported no risk.
        with pytest.raises(ValueError, match="finite"):
            VesselState(0, 0, 0.0, speed)

    def test_nonfinite_position(self):
        with pytest.raises(ValueError):
            VesselState(math.nan, 0, 0.0, 1.0)
