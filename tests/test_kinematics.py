import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colreg_risk import (
    CoincidentPositions,
    CpaResult,
    StateUncertainty,
    VesselState,
    cpa,
    draw,
    reciprocal_course,
    relative_bearing,
)
from colreg_risk.kinematics import (
    REL_SPEED_SQ_EPS,
    _WRAP_BLOCK,
    bearing_arrays,
    cpa_arrays,
    place_target,
    velocity_arrays,
    wrap_degrees,
)

from scenarios import OWN_1, OWN_2, OWN_3, TARGET_1, TARGET_3


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


@settings(max_examples=300)
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


@settings(max_examples=300)
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


class TestPlaceTarget:
    def test_bearing_is_relative_to_own_course(self):
        own = VesselState(100.0, 200.0, 90.0, 5.0)
        placed = place_target(own, 90.0, 50.0, 10.0, 3.0)
        assert (placed.north, placed.east) == pytest.approx((50.0, 200.0), abs=1e-9)
        assert (placed.course, placed.speed) == (10.0, 3.0)
        assert relative_bearing(own, placed) == pytest.approx(90.0, abs=1e-9)

    def test_origin_heading_north_is_the_plain_polar_point(self):
        # Bit for bit: 0.0 + x == x and radians(0.0 + b) == radians(b).
        own = VesselState(0.0, 0.0, 0.0, 10.0)
        rng = np.random.default_rng(23)
        for bearing, range_m in zip(rng.uniform(0.0, 360.0, 200), rng.uniform(1.0, 1e4, 200)):
            placed = place_target(own, float(bearing), float(range_m), 0.0, 10.0)
            rad = math.radians(bearing)
            assert placed.north == range_m * math.cos(rad)
            assert placed.east == range_m * math.sin(rad)

    @pytest.mark.parametrize("bearing", [math.nan, math.inf, -math.inf])
    def test_bearing_must_be_finite(self, bearing):
        # math.cos(inf) used to raise "math domain error", naming nothing.
        own = VesselState(0.0, 0.0, 10.0, 1.0)
        with pytest.raises(ValueError, match=f"bearing must be finite, got {bearing}"):
            place_target(own, bearing, 100.0, 0.0, 1.0)

    @pytest.mark.parametrize("range_m", [0.0, -0.0, -100.0, math.nan, math.inf, -math.inf])
    def test_range_must_be_positive_and_finite(self, range_m):
        # A negative range would mirror the target through own ship.
        own = VesselState(0.0, 0.0, 10.0, 1.0)
        with pytest.raises(ValueError, match="range_m"):
            place_target(own, 10.0, range_m, 0.0, 1.0)


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
        # Course differences just below 0, where the remainder rounds to 360.
        tiny = np.stack([np.zeros(4), np.array([1e-14, 2.8e-14, 5e-324, 1e-300])], axis=1)
        for a, b in np.concatenate([psi, tiny]):
            value = reciprocal_course(float(a), float(b))
            assert -180.0 <= value < 180.0

    @pytest.mark.parametrize("difference", [-1e-14, -2.8e-14, -5e-324, -1e-300])
    def test_tiny_negative_difference_is_identical_courses(self, difference):
        # (-1e-14) % 360 rounds to 360.0, which used to give +180.0.
        assert reciprocal_course(0.0, -difference) == -180.0
        arr = reciprocal_course(np.array([0.0, 90.0]), np.array([-difference, 90.0]))
        np.testing.assert_array_equal(arr, [-180.0, -180.0])


class TestArrayKernels:
    def test_wrap_degrees_edge(self):
        assert wrap_degrees(-1e-16) == 0.0
        assert wrap_degrees(360.0) == 0.0
        arr = wrap_degrees(np.array([-1e-16, 360.0, 719.5, -0.5]))
        assert np.all((arr >= 0.0) & (arr < 360.0))

    def test_cpa_arrays_match_scalar(self):
        # A batch with no degenerate pair (matched velocities), one with a
        # degenerate pair at the end and one with seven spread through it.
        for n_degenerate in (0, 1, 7):
            self._check_cpa_arrays_against_scalar(n_degenerate)

    @staticmethod
    def _check_cpa_arrays_against_scalar(n_degenerate):
        rng = np.random.default_rng(17)
        states = [(random_state(rng), random_state(rng)) for _ in range(300)]
        for i in range(n_degenerate):
            # The pair at the end has matched velocities; the others differ
            # by 1e-5 m/s, inside REL_SPEED_SQ_EPS, so only the fill gives
            # them their CPA.
            a = random_state(rng) if i else VesselState(0, 0, 45, 7)
            b = replace(a, north=a.north + 10, east=a.east + 10,
                        speed=a.speed + (1e-5 if i else 0.0))
            states.insert(len(states) - 43 * i, (a, b))
        a_list = [p[0] for p in states]
        b_list = [p[1] for p in states]
        cols = lambda xs, f: np.array([f(x) for x in xs])
        columns = (
            cols(a_list, lambda s: s.north), cols(a_list, lambda s: s.east),
            cols(a_list, lambda s: s.course), cols(a_list, lambda s: s.speed),
            cols(b_list, lambda s: s.north), cols(b_list, lambda s: s.east),
            cols(b_list, lambda s: s.course), cols(b_list, lambda s: s.speed),
        )
        tcpa, dcpa, degenerate = cpa_arrays(*columns)
        assert degenerate.sum() == n_degenerate
        # One formula: TCPA is bit-equal and DCPA differs only by the
        # rounding of math.hypot against np.hypot.
        for i, (a, b) in enumerate(zip(a_list, b_list)):
            res = cpa(a, b)
            assert degenerate[i] == math.isinf(res.tcpa)
            assert tcpa[i] == res.tcpa
            assert abs(dcpa[i] - res.dcpa) <= math.ulp(res.dcpa)
        if n_degenerate:
            assert (tcpa[-1], dcpa[-1]) == (math.inf, math.hypot(10, 10))
        # Skipping the fills when no pair is degenerate keeps every bit.
        for got, expected in zip((tcpa, dcpa, degenerate), _plain_cpa_arrays(*columns)):
            np.testing.assert_array_equal(got.view(np.uint8), expected.view(np.uint8))

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


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


# Each bound of wrap_degrees' shift domain [-720, 720) and of its steps, the
# values one ulp either side, signed zeros and subnormals.
_MOD_EDGES = sorted({
    v
    for bound in (-720.0, -360.0, 0.0, 360.0, 720.0)
    for v in (bound, np.nextafter(bound, -math.inf), np.nextafter(bound, math.inf))
} | {-0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, -1e-17, 1e-17, 1e300, -1e300})
_MOD_SPECIAL = st.sampled_from(_MOD_EDGES + [math.nan, math.inf, -math.inf])
_MOD_DOMAIN = st.floats(-720.0, 720.0, exclude_max=True) | st.sampled_from(
    [v for v in _MOD_EDGES if -720.0 <= v < 720.0])


def _read_as_zero(remainder):
    # x % 360.0 with a remainder that rounded up to 360 read as 0.0.
    return np.where(remainder >= 360.0, 0.0, remainder)


class TestWrapDegrees:
    """wrap_degrees is x % 360.0 in 64-bit patterns, with 360 read as 0,
    whichever path it takes."""

    @settings(max_examples=400)
    @given(st.lists(_MOD_DOMAIN, min_size=1, max_size=60)
           | st.lists(st.floats(width=64) | _MOD_SPECIAL, min_size=1, max_size=60))
    def test_arrays_match_remainder(self, values):
        x = np.array(values, dtype=float)
        with np.errstate(invalid="ignore"):  # inf % 360 is NaN on either path
            got, expected = wrap_degrees(x), x % 360.0
        assert type(got) is np.ndarray and got.shape == x.shape
        np.testing.assert_array_equal(_bits(got), _bits(_read_as_zero(expected)))

    @settings(max_examples=200)
    @given(st.floats(width=64) | _MOD_SPECIAL)
    def test_scalars_match_remainder(self, value):
        for x in (value, np.float64(value), np.array(value)):
            with np.errstate(invalid="ignore"):
                got, expected = wrap_degrees(x), x % 360.0
            assert isinstance(got, float)
            assert _bits(got) == _bits(_read_as_zero(expected))

    def test_shift_domain_at_scale(self):
        # Uniform draws over the domain plus every edge value, so each
        # shift step runs on a long array.
        rng = np.random.default_rng(41)
        x = np.concatenate([rng.uniform(-720.0, 720.0, 100_000),
                            [v for v in _MOD_EDGES if -720.0 <= v < 720.0]])
        np.testing.assert_array_equal(_bits(wrap_degrees(x)), _bits(_read_as_zero(x % 360.0)))

    @pytest.mark.parametrize("shape", [(3 * _WRAP_BLOCK + 5,), (700, 41), (3, 5000, 2)])
    def test_shift_blocks_of_any_shape(self, shape):
        # The shift steps run in blocks along the first axis, on C-ordered
        # arrays and on transposed (non-contiguous) views.
        x = np.random.default_rng(sum(shape)).uniform(-720.0, 720.0, shape)
        for arr in (x, x.T):
            np.testing.assert_array_equal(_bits(wrap_degrees(arr)), _bits(_read_as_zero(arr % 360.0)))

    def test_other_types_take_the_remainder(self):
        for x in (np.array([-1, 725, 360]), np.array([-1.5, 400.0], dtype=np.float32),
                  np.empty(0)):
            got = wrap_degrees(x)
            assert got.dtype == (x % 360.0).dtype
            np.testing.assert_array_equal(got, x % 360.0)

    def test_inputs_are_not_modified(self):
        x = np.array([-700.0, -0.0, 500.0])
        wrap_degrees(x)
        np.testing.assert_array_equal(_bits(x), _bits([-700.0, -0.0, 500.0]))


def _per_sample(kernel, *columns):
    # The kernel on the columns plus one row whose values differ from every
    # other, as full arrays, so each element takes its own trig; the extra
    # row is dropped.
    extended = [np.append(c, 0.5 if c[0] != 0.5 else 1.5) for c in columns]
    out = kernel(*extended)
    return tuple(o[:-1] for o in out) if isinstance(out, tuple) else out[:-1]


_STATE_VALUES = {
    "north": st.floats(-1e4, 1e4), "east": st.floats(-1e4, 1e4),
    "course": st.floats(0.0, 360.0, exclude_max=True) | st.sampled_from([0.0, -0.0]),
    "speed": st.floats(-20.0, 20.0) | st.sampled_from([0.0, -0.0]),
}


@st.composite
def _vessel_columns(draw, n):
    # One vessel's four columns: each one value broadcast (stride 0, as an
    # exactly known vessel's), one value in a full array, drawn per sample,
    # or a zero component mixed -0.0/+0.0.
    columns = []
    for values in _STATE_VALUES.values():
        kind = draw(st.sampled_from(["broadcast", "broadcast", "constant", "varying",
                                     "mixed zero"]))
        if kind == "broadcast":
            column = np.broadcast_to(np.float64(draw(values)), (n,))
        elif kind == "constant":
            column = np.full(n, draw(values))
        elif kind == "varying":
            column = np.array(draw(st.lists(values, min_size=n, max_size=n)))
        else:
            column = np.where(np.arange(n) % 2 == 0, 0.0, -0.0)
        columns.append(column)
    return columns


class TestConstantVessel:
    """An exactly known vessel's columns are stride-0 views of one value;
    its trig runs once and every output equals the per-sample one bit for
    bit."""

    def test_two_broadcast_columns_take_one_evaluation(self, monkeypatch):
        calls = []
        real = np.radians
        monkeypatch.setattr(np, "radians", lambda x: calls.append(x.size) or real(x))
        one = np.broadcast_to(np.float64(30.0), (5,))
        zero = np.broadcast_to(np.float64(-0.0), (5,))
        for vn_ve in (velocity_arrays(one, zero), velocity_arrays(one, one)):
            assert all(v.strides == (0,) and v.shape == (5,) for v in vn_ve)
        assert calls == [1, 1]
        # Any full column, or broadcast columns of two lengths, takes the
        # general path: one trig per element, full outputs.
        for course, speed in (
            (one, np.full(5, 2.0)),
            (np.full(5, 30.0), one),
            (one, np.array([0.0, -0.0, 0.0, -0.0, 0.0])),
            (one, np.linspace(1.0, 2.0, 5)),
            (one, np.broadcast_to(np.float64(2.0), (1,))),
        ):
            calls.clear()
            vn, ve = velocity_arrays(course, speed)
            assert calls == [5] and vn.strides == ve.strides == (8,)

    @settings(max_examples=300)
    @given(data=st.data(), n=st.integers(2, 40))
    def test_geometry_equals_per_sample(self, data, n):
        j = data.draw(_vessel_columns(n))
        k = data.draw(_vessel_columns(n))
        with np.errstate(invalid="ignore", over="ignore"):
            for got, expected in (
                (velocity_arrays(j[2], j[3]), _per_sample(velocity_arrays, j[2], j[3])),
                (cpa_arrays(*j, *k), _per_sample(cpa_arrays, *j, *k)),
                ((bearing_arrays(*j[:3], *k[:2]),),
                 (_per_sample(bearing_arrays, *j[:3], *k[:2]),)),
            ):
                for g, e in zip(got, expected):
                    assert g.shape == (n,)
                    np.testing.assert_array_equal(_bits(g), _bits(e))

    def test_exact_own_ship_at_scale(self):
        # Scenario 2's exact own ship, as draw returns it, against 100k
        # drawn targets: the velocity trig runs once, the velocity comes
        # back as stride-0 views and the outputs keep every bit.
        rng = np.random.default_rng(43)
        n = 100_000
        exact = draw(OWN_2, StateUncertainty(0.0, 0.0, 0.0, 0.0), n, stream_seed=43)
        own = [exact.north, exact.east, exact.course, exact.speed]
        target = [rng.normal(500.0, 10.0, n), rng.normal(-20.0, 10.0, n),
                  rng.uniform(0.0, 360.0, n), rng.normal(6.0, 2.0, n)]
        for got, expected in zip(cpa_arrays(*own, *target), _per_sample(cpa_arrays, *own, *target)):
            assert got.shape == (n,)
            np.testing.assert_array_equal(got.view(np.uint8), expected.view(np.uint8))
        vn, ve = velocity_arrays(own[2], own[3])
        assert vn.strides == ve.strides == (0,)
        np.testing.assert_array_equal(_bits(vn), _bits(_per_sample(velocity_arrays, *own[2:])[0]))
        np.testing.assert_array_equal(_bits(ve), _bits(_per_sample(velocity_arrays, *own[2:])[1]))


def _plain_velocity(course, speed):
    rad = np.radians(course)
    return speed * np.cos(rad), speed * np.sin(rad)


def _plain_cpa_arrays(north_j, east_j, course_j, speed_j, north_k, east_k, course_k, speed_k):
    # cpa_arrays as plain expressions, one new array per step, with its
    # three degenerate-pair fills run on every batch.
    vjn, vje = _plain_velocity(course_j, speed_j)
    vkn, vke = _plain_velocity(course_k, speed_k)
    dvn, dve = vjn - vkn, vje - vke
    rel_sq = dvn * dvn + dve * dve
    rel_sq[np.isinf(rel_sq)] = np.nan
    degenerate = rel_sq <= REL_SPEED_SQ_EPS
    dpn, dpe = north_j - north_k, east_j - east_k
    tcpa = -(dpn * dvn + dpe * dve) / np.where(degenerate, 1.0, rel_sq)
    dcpa = np.hypot(dpn + dvn * tcpa, dpe + dve * tcpa)
    return (np.where(degenerate, np.inf, tcpa),
            np.where(degenerate, np.hypot(dpn, dpe), dcpa), degenerate)


def _plain_bearing_arrays(north_j, east_j, course_j, north_k, east_k):
    return wrap_degrees(np.degrees(np.arctan2(east_k - east_j, north_k - north_j)) - course_j)


def _drawn_columns(exact_own, n=4000):
    # Scenario 3's pair at five times its diagonal: the own ship exactly
    # known (stride-0 columns, as draw returns them) or drawn too.
    sigmas = StateUncertainty(50.0, 50.0, 10.0, 10.0)
    own = draw(OWN_3, StateUncertainty(0.0, 0.0, 0.0, 0.0) if exact_own else sigmas, n, 5)
    target = draw(TARGET_3, sigmas, n, 6, clamp_speed=False)
    return [own.north, own.east, own.course, own.speed,
            target.north, target.east, target.course, target.speed]


def _special_rows(columns):
    # The columns with target rows spliced in against scenario 3's own ship,
    # whose columns stay stride-0 views where they were: degenerate pairs
    # (matched velocities, and a speed 1e-6 m/s off), pairs whose |dv|^2
    # overflows, and offsets of +0.0 and -0.0 (coincident positions too).
    rows = [
        (15.0, 25.0, OWN_3.course, OWN_3.speed),
        (-300.0, 40.0, OWN_3.course, OWN_3.speed + 1e-6),
        (1000.0, 0.0, 180.0, 1e300),
        (1e5, -1e5, 155.0, 1e200),
        (0.0, 0.0, 90.0, 5.0),
        (-0.0, 0.0, 200.0, 3.0),
        (0.0, -0.0, 10.0, 3.0),
        (-0.0, -0.0, 335.0, 9.0),
        (50.0, 0.0, 180.0, 5.0),
        (-0.0, 80.0, 0.0, -0.0),
    ]
    n = columns[0].size + len(rows)
    at = np.linspace(0, columns[0].size, len(rows), endpoint=False).astype(int)
    own_values = (OWN_3.north, OWN_3.east, OWN_3.course, OWN_3.speed)
    spliced = []
    for i, column in enumerate(columns):
        if column.strides == (0,):
            spliced.append(np.broadcast_to(column[0], (n,)))
        else:
            values = [r[i - 4] for r in rows] if i >= 4 else [own_values[i]] * len(rows)
            spliced.append(np.insert(column, at, values))
    return spliced


class TestInPlaceKernels:
    """The in-place kernels give the plain expressions' bits on every row."""

    @pytest.mark.parametrize("exact_own", [True, False])
    @pytest.mark.parametrize("special", [False, True])
    def test_cpa_and_bearings_equal_the_plain_expressions(self, exact_own, special):
        cols = _drawn_columns(exact_own)
        if special:
            cols = _special_rows(cols)
        j, k = cols[:4], cols[4:]
        with np.errstate(over="ignore", invalid="ignore"):
            got = cpa_arrays(*j, *k)
            expected = _plain_cpa_arrays(*j, *k)
            bearings = (bearing_arrays(*j[:3], *k[:2]), bearing_arrays(*k[:3], *j[:2]))
            plain_bearings = (_plain_bearing_arrays(*j[:3], *k[:2]),
                              _plain_bearing_arrays(*k[:3], *j[:2]))
        assert [c.strides == (0,) for c in cols] == [exact_own] * 4 + [False] * 4
        if special:
            assert got[2].sum() == 2 and np.isnan(got[0]).sum() == np.isnan(got[1]).sum() == 2
        for g, e in zip((*got[:2], *bearings), (*expected[:2], *plain_bearings)):
            assert g.shape == e.shape
            np.testing.assert_array_equal(g.view(np.int64), e.view(np.int64))
        np.testing.assert_array_equal(got[2], expected[2])

    def test_inputs_are_not_modified(self):
        cols = _special_rows(_drawn_columns(False, n=50))
        before = [c.copy() for c in cols]
        with np.errstate(over="ignore", invalid="ignore"):
            cpa_arrays(*cols)
            bearing_arrays(*cols[:3], *cols[4:6])
            reciprocal_course(cols[2], cols[6])
        for c, b in zip(cols, before):
            np.testing.assert_array_equal(c.view(np.int64), b.view(np.int64))


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
        # vessel then gave (nan, nan), which no risk test calls at risk.
        with pytest.raises(ValueError, match="finite"):
            VesselState(0, 0, 0.0, speed)

    def test_nonfinite_position(self):
        with pytest.raises(ValueError):
            VesselState(math.nan, 0, 0.0, 1.0)
