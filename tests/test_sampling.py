import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colreg_risk
from colreg_risk import (
    StateUncertainty,
    TooFewSamples,
    VesselState,
    draw,
    draw_pair,
    make_uncertainty,
)
from colreg_risk.kinematics import wrap_degrees
from colreg_risk.sampling import StateSample, pair_stream_seeds

MEAN = VesselState(100.0, -50.0, 350.0, 10.0)
UNC = StateUncertainty(10.0, 10.0, 2.0, 2.0)
EXACT = StateUncertainty(0.0, 0.0, 0.0, 0.0)


def _drawn(mean, unc, n, stream_seed, clamp_speed):
    # The columns drawn from the stream, whatever the sigmas.
    rng = np.random.default_rng(stream_seed)
    north = rng.normal(mean.north, unc.sigma_north, n)
    east = rng.normal(mean.east, unc.sigma_east, n)
    course = wrap_degrees(mean.course + rng.normal(0.0, unc.sigma_course, n))
    speed = rng.normal(mean.speed, unc.sigma_speed, n)
    if clamp_speed:
        speed = np.maximum(speed, 0.0)
    return north, east, course, speed


def _columns(batch):
    return batch.north, batch.east, batch.course, batch.speed


class TestMakeUncertainty:
    def test_stddev_scaling(self):
        unc = make_uncertainty((10, 10, 2, 2), 0.1)
        assert (unc.sigma_north, unc.sigma_east, unc.sigma_course, unc.sigma_speed) == (
            pytest.approx(1.0), pytest.approx(1.0), pytest.approx(0.2), pytest.approx(0.2)
        )

    def test_zero_alpha(self):
        assert make_uncertainty((10, 10, 2, 2), 0.0) == StateUncertainty(0, 0, 0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="dispersion entries and alpha must be >= 0"):
            make_uncertainty((10, -1, 2, 2), 1.0)
        with pytest.raises(ValueError, match="dispersion entries and alpha must be >= 0"):
            make_uncertainty((10, 10, 2, 2), -0.5)
        with pytest.raises(ValueError, match="sigma_north must be >= 0, got -1.0"):
            StateUncertainty(-1.0, 0, 0, 0)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            make_uncertainty((10, 10, 2), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # NaN slips past a plain "< 0" test; without this check assess_des
        # returned p_risk = 0.0 and P(R0) = 1.0 for such input.
        with pytest.raises(ValueError, match="finite"):
            make_uncertainty((10, 10, 2, 2), bad)
        with pytest.raises(ValueError, match="finite"):
            make_uncertainty((10, bad, 2, 2), 1.0)
        for position in range(4):
            sigmas = [1.0, 1.0, 1.0, 1.0]
            sigmas[position] = bad
            with pytest.raises(ValueError, match="finite"):
                StateUncertainty(*sigmas)

    def test_scaling_overflow_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_uncertainty((10, 10, 2, 2), 1e308)

    def test_entries_are_standard_deviations_only(self):
        # One reading of the entries: no enum or argument selects another.
        assert not hasattr(colreg_risk, "Spread")
        with pytest.raises(TypeError):
            make_uncertainty((10, 10, 2, 2), 4.0, "variance")


def _row(batch, i):
    # Row i built one column element at a time.
    return VesselState(float(batch.north[i]), float(batch.east[i]),
                       float(batch.course[i]), float(batch.speed[i]))


class TestDraw:
    def test_zero_sigma_copies_mean(self):
        batch = draw(MEAN, StateUncertainty(0, 0, 0, 0), 50, stream_seed=1)
        assert np.all(batch.north == MEAN.north)
        assert np.all(batch.east == MEAN.east)
        assert np.all(batch.course == MEAN.course)
        assert np.all(batch.speed == MEAN.speed)

    @pytest.mark.parametrize("clamp", [True, False])
    @pytest.mark.parametrize("n", [1, 100_000])
    @pytest.mark.parametrize("mean", [
        MEAN,
        VesselState(0.0, 0.0, 0.0, 10.0),
        VesselState(0, 7, 90, 3),
        VesselState(-3.5, 1e300, 0.0, 0.0),
        VesselState(5e-324, -7.0, np.nextafter(360.0, 0.0), 1e-300),
    ])
    def test_exact_vessel_equals_its_draws(self, mean, n, clamp):
        batch = draw(mean, EXACT, n, stream_seed=3, clamp_speed=clamp)
        for column, drawn in zip(_columns(batch), _drawn(mean, EXACT, n, 3, clamp)):
            assert column.dtype == drawn.dtype and column.tobytes() == drawn.tobytes()
            assert column.strides == (0,) and not column.flags.writeable

    @pytest.mark.parametrize("field", ["north", "east", "course", "speed"])
    def test_minus_zero_mean_is_drawn(self, field):
        # loc + 0.0 * z is +0.0 or -0.0 by the sign of z when loc is -0.0.
        values = {"north": 1.0, "east": 2.0, "course": 3.0, "speed": 4.0, field: -0.0}
        mean = VesselState(**values)
        for clamp in (True, False):
            batch = draw(mean, EXACT, 1000, stream_seed=4, clamp_speed=clamp)
            for column, drawn in zip(_columns(batch), _drawn(mean, EXACT, 1000, 4, clamp)):
                assert column.tobytes() == drawn.tobytes()

    def test_minus_zero_sigma_draws_as_plus_zero(self):
        # numpy rejects a -0.0 scale; StateUncertainty stores it as +0.0.
        for field, other in itertools.product(range(4), (0.0, 3.0)):
            sigmas = [other] * 4
            sigmas[field] = -0.0
            unc = StateUncertainty(*sigmas)
            stored = (unc.sigma_north, unc.sigma_east, unc.sigma_course, unc.sigma_speed)
            assert math.copysign(1.0, stored[field]) == 1.0
            sigmas[field] = 0.0
            for clamp in (True, False):
                batch = draw(MEAN, unc, 1000, 1, clamp_speed=clamp)
                plus = draw(MEAN, StateUncertainty(*sigmas), 1000, 1, clamp_speed=clamp)
                for column, expected in zip(_columns(batch), _columns(plus)):
                    assert column.tobytes() == expected.tobytes()

    def test_exact_vessel_leaves_the_other_draws(self):
        pair = draw_pair(MEAN, EXACT, MEAN, UNC, 1000, seed=8)
        drawn = draw_pair(MEAN, UNC, MEAN, UNC, 1000, seed=8)
        for a, b in zip(_columns(pair.states_k), _columns(drawn.states_k)):
            assert a.tobytes() == b.tobytes()

    def test_invalid_count(self):
        with pytest.raises(TooFewSamples, match="sample count must be >= 1, got 0"):
            draw(MEAN, UNC, 0, stream_seed=1)

    def test_seed_determinism(self):
        a = draw(MEAN, UNC, 1000, stream_seed=42)
        b = draw(MEAN, UNC, 1000, stream_seed=42)
        for name in ("north", "east", "course", "speed"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        c = draw(MEAN, UNC, 1000, stream_seed=43)
        assert not np.array_equal(a.north, c.north)

    def test_course_wrapped(self):
        batch = draw(MEAN, StateUncertainty(0, 0, 50.0, 0), 100_000, stream_seed=7)
        assert np.all((batch.course >= 0.0) & (batch.course < 360.0))

    def test_speed_clamped(self):
        batch = draw(MEAN, StateUncertainty(0, 0, 0, 20.0), 100_000, stream_seed=8)
        assert np.all(batch.speed >= 0.0)
        assert np.any(batch.speed == 0.0)

    def test_speed_unclamped_keeps_gaussian(self):
        batch = draw(MEAN, StateUncertainty(0, 0, 0, 20.0), 100_000, stream_seed=8,
                     clamp_speed=False)
        assert np.any(batch.speed < 0.0)
        assert float(np.mean(batch.speed)) == pytest.approx(10.0, abs=0.3)

    def test_circular_mean_at_wrap(self):
        # Circular-statistics oracle on a mean course next to the cut.
        mean = VesselState(0, 0, 359.0, 10.0)
        batch = draw(mean, StateUncertainty(0, 0, 2.0, 0), 100_000, stream_seed=9)
        assert np.all((batch.course >= 0.0) & (batch.course < 360.0))
        rad = np.radians(batch.course)
        circ = math.degrees(math.atan2(float(np.mean(np.sin(rad))), float(np.mean(np.cos(rad)))))
        assert abs((circ - 359.0 + 180.0) % 360.0 - 180.0) <= 0.05

    def test_speed_moment_recovery(self):
        n = 100_000
        batch = draw(MEAN, StateUncertainty(0, 0, 0, 2.0), n, stream_seed=10)
        # Clamping is negligible at five sigmas from zero.
        se_of_std = 2.0 / math.sqrt(2.0 * (n - 1))
        assert float(np.std(batch.speed, ddof=1)) == pytest.approx(2.0, abs=3 * se_of_std)

    def test_moment_recovery_all_components(self):
        n = 100_000
        batch = draw(MEAN, UNC, n, stream_seed=11)
        for values, mean, sigma in (
            (batch.north, MEAN.north, UNC.sigma_north),
            (batch.east, MEAN.east, UNC.sigma_east),
            (batch.speed, MEAN.speed, UNC.sigma_speed),
        ):
            se_mean = sigma / math.sqrt(n)
            se_std = sigma / math.sqrt(2 * (n - 1))
            assert float(np.mean(values)) == pytest.approx(mean, abs=4 * se_mean)
            assert float(np.std(values, ddof=1)) == pytest.approx(sigma, abs=4 * se_std)

    def test_state_accessors(self):
        batch = draw(MEAN, UNC, 10, stream_seed=12)
        states = batch.as_states()
        assert len(states) == 10
        assert states[3] == _row(batch, 3)
        assert 0.0 <= states[0].course < 360.0

    @pytest.mark.parametrize("speed, clamp", [(1.0, True), (10.0, False)])
    def test_as_states_equals_rows(self, speed, clamp):
        # Mean 1 with sigma 2 clamps many speeds to 0.0; mean 10 leaves the
        # unclamped speeds positive.
        batch = draw(VesselState(100.0, -50.0, 359.5, speed), UNC, 2000, stream_seed=13,
                     clamp_speed=clamp)
        states = batch.as_states()
        assert states == [_row(batch, i) for i in range(len(batch))]
        assert np.any(batch.speed == 0.0) == clamp
        assert {type(getattr(states[-1], f)) for f in ("north", "east", "course", "speed")} == {
            float
        }

    @pytest.mark.parametrize("column, value", [("north", math.nan), ("east", math.nan),
                                               ("course", math.nan), ("speed", math.nan),
                                               ("speed", -0.5)])
    def test_as_states_rejects_what_a_state_rejects(self, column, value):
        good = draw(MEAN, UNC, 4, stream_seed=14)
        columns = {name: getattr(good, name).copy() for name in ("north", "east", "course",
                                                                  "speed")}
        columns[column][2] = value
        batch = StateSample(**columns)
        with pytest.raises(ValueError):
            _row(batch, 2)
        with pytest.raises(ValueError):
            batch.as_states()


class TestDrawPair:
    def test_batch_determinism(self):
        a = draw_pair(MEAN, UNC, MEAN, UNC, 500, seed=99)
        b = draw_pair(MEAN, UNC, MEAN, UNC, 500, seed=99)
        assert np.array_equal(a.states_j.north, b.states_j.north)
        assert np.array_equal(a.states_k.speed, b.states_k.speed)

    def test_streams_are_distinct_and_uncorrelated(self):
        batch = draw_pair(MEAN, UNC, MEAN, UNC, 100_000, seed=100)
        assert not np.array_equal(batch.states_j.north, batch.states_k.north)
        for name in ("north", "east", "speed"):
            j = getattr(batch.states_j, name)
            k = getattr(batch.states_k, name)
            rho = float(np.corrcoef(j, k)[0, 1])
            assert abs(rho) < 0.01

    def test_metadata(self):
        batch = draw_pair(MEAN, UNC, MEAN, UNC, 123, seed=5)
        assert len(batch.states_j) == 123 and len(batch.states_k) == 123


class TestPairStreamSeeds:
    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**128))
    def test_prefix_stable(self, seed):
        # A longer list extends a shorter one, so a caller may ask for
        # exactly as many seeds as it uses.
        longest = pair_stream_seeds(seed, 9)
        for count in range(1, 9):
            assert pair_stream_seeds(seed, count) == longest[:count]
        assert pair_stream_seeds(seed) == longest[:2]
