import math

import numpy as np
import pytest

from colreg_risk import (
    Spread,
    StateUncertainty,
    TooFewSamples,
    VesselState,
    draw,
    draw_pair,
    make_uncertainty,
)

MEAN = VesselState(100.0, -50.0, 350.0, 10.0)
UNC = StateUncertainty(10.0, 10.0, 2.0, 2.0)


class TestMakeUncertainty:
    def test_stddev_scaling(self):
        unc = make_uncertainty((10, 10, 2, 2), 0.1, Spread.STD_DEV)
        assert (unc.sigma_north, unc.sigma_east, unc.sigma_course, unc.sigma_speed) == (
            pytest.approx(1.0), pytest.approx(1.0), pytest.approx(0.2), pytest.approx(0.2)
        )

    def test_variance_scaling(self):
        unc = make_uncertainty((10, 10, 2, 2), 1.0, Spread.VARIANCE)
        assert unc.sigma_north == pytest.approx(math.sqrt(10))
        assert unc.sigma_course == pytest.approx(math.sqrt(2))

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
        with pytest.raises(ValueError, match="finite"):
            make_uncertainty((10, bad, 2, 2), 1.0, Spread.VARIANCE)
        for position in range(4):
            sigmas = [1.0, 1.0, 1.0, 1.0]
            sigmas[position] = bad
            with pytest.raises(ValueError, match="finite"):
                StateUncertainty(*sigmas)

    def test_scaling_overflow_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_uncertainty((10, 10, 2, 2), 1e308)


class TestDraw:
    def test_zero_sigma_copies_mean(self):
        batch = draw(MEAN, StateUncertainty(0, 0, 0, 0), 50, stream_seed=1)
        assert np.all(batch.north == MEAN.north)
        assert np.all(batch.east == MEAN.east)
        assert np.all(batch.course == MEAN.course)
        assert np.all(batch.speed == MEAN.speed)

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
        assert states[3] == batch.state(3)
        assert 0.0 <= states[0].course < 360.0


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
