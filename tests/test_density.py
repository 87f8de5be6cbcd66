import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.special import ndtr

from colreg_risk import (
    Topology,
    bandwidth_grid_cv,
    bandwidth_isj,
    bandwidth_silverman,
    evaluate,
    fit,
    integrate,
    ks_normality,
    select_bandwidth,
)
import colreg_risk.density as density_module
from colreg_risk.density import (
    FixedPointFailure,
    TooFewSamples,
    ZeroDispersion,
    _NDTR_ONE_AT,
    _NDTR_ZERO_AT,
    _PAIRWISE_PREFIXES,
    _bin_counts,
    _brentq,
    _circular_recenter,
    _derivative_norm,
    _distinct_count,
    _grid_cv_scores,
    _image_shifts,
    _silverman,
    _sorted_quantile,
    _stage_tables,
    band_masses,
)
from colreg_risk.kinematics import wrap_degrees


def brute_pdf(samples, h, x, shifts=(0.0,)):
    total = 0.0
    for xi in samples:
        for shift in shifts:
            z = (x - xi + shift) / h
            total += math.exp(-0.5 * z * z)
    return total / (len(samples) * h * math.sqrt(2 * math.pi))


class TestFitEvaluate:
    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            fit([5.0], 1.0)

    def test_nonpositive_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite, got 0.0"):
            fit([0.0, 1.0], 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        lambda s: fit(s, 1.0), bandwidth_silverman, select_bandwidth,
        lambda s: bandwidth_grid_cv(s, 0.1, 1.0, 0.1),
    ], ids=["fit", "bandwidth_silverman", "select_bandwidth", "bandwidth_grid_cv"])
    def test_non_finite_sample_rejected(self, call, bad):
        with pytest.raises(ValueError, match="samples must be finite"):
            call([0.0, 1.0, 2.0, bad] * 20)

    @pytest.mark.parametrize("topology", list(Topology))
    @pytest.mark.parametrize("bandwidth", [math.inf, math.nan])
    def test_nonfinite_bandwidth(self, bandwidth, topology):
        # An infinite bandwidth used to integrate to 0.0 over the whole line
        # and to overflow on the circle.
        with pytest.raises(ValueError, match="positive and finite"):
            fit([0.0, 1.0], bandwidth, topology)

    @pytest.mark.parametrize("topology", list(Topology))
    @pytest.mark.parametrize("x", [math.nan, np.array([0.0, math.nan])])
    def test_nan_point_rejected(self, topology, x):
        # The exp skip reads a NaN exponent as skipped, which gave 0.0.
        d = fit([0.0, 1.0, 2.0], 1.0, topology)
        with pytest.raises(ValueError, match="NaN"):
            evaluate(d, x)

    @pytest.mark.parametrize("topology", list(Topology))
    def test_infinite_points_have_zero_density(self, topology):
        d = fit([0.0, 1.0, 2.0], 1.0, topology)
        assert evaluate(d, math.inf) == evaluate(d, -math.inf) == 0.0
        assert evaluate(d, np.array([-math.inf, math.inf])).tolist() == [0.0, 0.0]

    def test_circle_points_read_modulo_360(self):
        # Exact images of 80 deg: beyond one period from the samples no
        # periodic image reached them, and they used to read 0.0.
        rng = np.random.default_rng(38)
        samples = np.degrees(rng.vonmises(math.radians(80.0), 4.0, 1000))
        d = fit(samples, 2.0, Topology.CIRCLE360)
        xs = [80.0, 440.0, -280.0, 800.0, -640.0]
        peak = evaluate(d, 80.0)
        assert peak > 0.01
        assert evaluate(d, np.array(xs)).tolist() == [peak] * len(xs)
        assert [evaluate(d, x) for x in xs] == [peak] * len(xs)

    def test_tiny_negative_point_is_zero(self):
        # -1e-17 % 360 rounds to 360.0, where fit stores such a sample as 0.0.
        rng = np.random.default_rng(39)
        d = fit(rng.normal(0.0, 3.0, 500), 0.5, Topology.CIRCLE360)
        xs = np.array([-1e-17, -1e-300, 0.0])
        assert evaluate(d, xs).tobytes() == np.full(3, evaluate(d, 0.0)).tobytes()
        assert [evaluate(d, x).hex() for x in xs] == [evaluate(d, 0.0).hex()] * 3

    def test_point_mass_peak(self):
        d = fit(np.zeros(100), 1.0)
        assert evaluate(d, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_far_tail_vanishes(self):
        d = fit(np.linspace(0, 1, 50), 0.01)
        assert evaluate(d, 1.0 + 100 * 0.01 * 10) < 1e-30

    def test_symmetry(self):
        d = fit([-3.0, 3.0], 0.7)
        xs = np.linspace(0.1, 5, 25)
        assert np.allclose(evaluate(d, xs), evaluate(d, -xs), rtol=1e-12)

    def test_line_brute_force_oracle(self):
        rng = np.random.default_rng(31)
        samples = rng.normal(2.0, 3.0, 500)
        d = fit(samples, 0.8)
        for x in rng.uniform(-10, 14, 100):
            assert evaluate(d, float(x)) == pytest.approx(
                brute_pdf(samples, 0.8, float(x)), rel=1e-12, abs=1e-300
            )

    def test_circular_cluster_wraps(self):
        rng = np.random.default_rng(32)
        samples = np.concatenate([rng.normal(359.5, 0.2, 50), rng.normal(0.5, 0.2, 50)]) % 360
        d = fit(samples, 0.4, Topology.CIRCLE360)
        assert evaluate(d, 0.0) > evaluate(d, 180.0)
        # Wrapped-kernel oracle: sum of shifted copies.
        shifts = (-720.0, -360.0, 0.0, 360.0, 720.0)
        for x in (0.0, 0.5, 359.5, 180.0):
            assert evaluate(d, x) == pytest.approx(
                brute_pdf(d.samples, 0.4, x, shifts), rel=1e-10, abs=1e-300
            )


def _outside_the_circle(*edges):
    # band_masses' message, naming the first edge outside [0, 360].
    edge = float(next(e for e in edges if not 0.0 <= e <= 360.0))
    return rf"a band edge on the circle must lie in \[0, 360\], got {re.escape(str(edge))}$"


class TestIntegrate:
    def test_full_support_line(self):
        rng = np.random.default_rng(33)
        d = fit(rng.normal(0, 5, 2000), 1.3)
        assert integrate(d, -math.inf, math.inf) == pytest.approx(1.0, abs=1e-9)

    def test_half_mass_at_kernel_centre(self):
        d = fit([5.0, 5.0], 1.0)
        assert integrate(d, 5.0, math.inf) == pytest.approx(0.5, abs=1e-12)

    def test_lo_above_hi_rejected_on_line(self):
        d = fit([0.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            integrate(d, 2.0, 1.0)

    def test_monotonicity(self):
        rng = np.random.default_rng(34)
        d = fit(rng.normal(0, 2, 500), 0.5)
        his = np.linspace(-4, 4, 40)
        masses = [integrate(d, -math.inf, float(h)) for h in his]
        assert all(b >= a - 1e-15 for a, b in zip(masses, masses[1:]))

    def test_circle_normalisation_and_complement(self):
        rng = np.random.default_rng(35)
        for h in (0.3, 4.0, 40.0):
            samples = rng.uniform(0, 360, 400)
            d = fit(samples, h, Topology.CIRCLE360)
            assert integrate(d, 0.0, 360.0) == pytest.approx(1.0, abs=1e-9)
            arc = integrate(d, 350.0, 10.0)
            complement = integrate(d, 10.0, 350.0)
            assert arc + complement == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(36)
        d = fit(rng.normal(10, 3, 800), 0.9)
        lo, hi = 7.0, 13.5
        xs = np.linspace(lo, hi, 10_000)
        quad = float(np.trapezoid(evaluate(d, xs), xs))
        assert integrate(d, lo, hi) == pytest.approx(quad, abs=1e-4)

    @pytest.mark.parametrize("topology", list(Topology))
    @pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_nan_bound_rejected(self, topology, lo, hi):
        d = fit([0.0, 1.0, 2.0], 1.0, topology)
        with pytest.raises(ValueError, match="NaN"):
            integrate(d, lo, hi)

    @pytest.mark.parametrize("edges", [(0.0, -1.0, 2.0), (0.0, math.nan, 2.0), (math.nan,),
                                       (math.inf, 0.0)])
    def test_bad_band_edges_rejected(self, edges):
        d = fit([0.0, 1.0, 2.0], 1.0)
        with pytest.raises(ValueError, match="ascending and not NaN"):
            band_masses(d, edges)

    def test_infinite_edges_valid(self):
        d = fit([0.0, 1.0, 2.0], 1.0)
        inf = math.inf
        assert band_masses(d, (-inf, -inf, inf, inf)) == [0.0, 1.0, 0.0]
        assert integrate(d, -inf, inf) == 1.0
        assert integrate(d, 1.0, inf) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 10.0), (10.0, math.inf)])
    def test_infinite_bounds_on_the_circle_rejected(self, lo, hi):
        # Both used to return 1.0, a clipped sum over the periodic images,
        # where (0, 10) and (10, 360) hold 0.1667 and 0.8333.
        d = fit([0.0, 90.0, 350.0], 5.0, Topology.CIRCLE360)
        with pytest.raises(ValueError, match=_outside_the_circle(lo, hi)):
            integrate(d, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(370.0, 10.0), (350.0, -5.0), (math.inf, 0.0),
                                        (1.0, -math.inf)])
    def test_arc_bounds_outside_the_circle_rejected(self, lo, hi):
        # The arc's bands are (0, hi) and (lo, 360), so hi is read first.
        d = fit([0.0, 90.0, 350.0], 5.0, Topology.CIRCLE360)
        with pytest.raises(ValueError, match=_outside_the_circle(hi, lo)):
            integrate(d, lo, hi)

    @pytest.mark.parametrize("lo, hi", [(400.0, 480.0), (760.0, 840.0), (-10.0, 10.0),
                                        (350.0, 360.5), (-math.inf, 400.0)])
    def test_finite_bounds_outside_the_circle_rejected(self, lo, hi):
        # (760, 840) lies beyond the periodic images and used to give 0.0,
        # where (40, 120) and (400, 480) gave 1.0.
        d = fit([70.0, 80.0, 90.0], 2.0, Topology.CIRCLE360)
        assert integrate(d, 40.0, 120.0) == 1.0
        with pytest.raises(ValueError, match=_outside_the_circle(lo, hi)):
            integrate(d, lo, hi)

    @pytest.mark.parametrize("edges", [(400.0, 480.0), (760.0, 840.0), (-1e6, 120.0),
                                       (-math.inf, 10.0), (0.0, 5.0, 360.0, math.inf),
                                       (0.0, np.nextafter(360.0, 361.0))])
    def test_band_edges_outside_the_circle_rejected(self, edges):
        # band_masses used to give 0.0 for (760, 840) and 2.0 for (-1e6, 120)
        # on a cluster at 80 deg, where (40, 120) and (400, 480) gave 1.0.
        d = fit(np.random.default_rng(40).normal(80.0, 1.0, 500), 2.0, Topology.CIRCLE360)
        assert band_masses(d, (40.0, 120.0)) == [1.0]
        with pytest.raises(ValueError, match=_outside_the_circle(*edges)):
            band_masses(d, edges)

    @pytest.mark.parametrize("edges", [(math.nan, 10.0), (0.0, math.nan, 360.0)])
    def test_nan_edge_on_the_circle_named_as_nan(self, edges):
        d = fit([0.0, 90.0, 350.0], 5.0, Topology.CIRCLE360)
        with pytest.raises(ValueError, match="ascending and not NaN"):
            band_masses(d, edges)

    @pytest.mark.parametrize("topology", list(Topology))
    def test_fewer_than_two_edges_give_no_band(self, topology, monkeypatch):
        # No band, so no CDF: no edges used to raise IndexError, and one
        # edge evaluated its CDF at every periodic image before giving [].
        d = fit([0.0, 90.0, 350.0], 5.0, topology)
        monkeypatch.setattr(density_module, "_edge_cdf", None)  # a call would fail
        assert band_masses(d, []) == []
        assert band_masses(d, (10.0,)) == []
        with pytest.raises(ValueError, match="NaN"):
            band_masses(d, (math.nan,))
        if topology is Topology.CIRCLE360:
            with pytest.raises(ValueError, match=_outside_the_circle(400.0)):
                band_masses(d, (400.0,))

    @pytest.mark.parametrize("lo, hi", [(355.0, 5.0), (360.0, 0.0), (10.0, 0.0), (360.0, 350.0)])
    def test_arcs_on_the_circle_keep_their_masses(self, lo, hi):
        d = fit([0.0, 90.0, 350.0, 359.5], 5.0, Topology.CIRCLE360)
        head, _, tail = band_masses(d, (0.0, hi, lo, 360.0))
        assert integrate(d, lo, hi) == float(np.clip(tail + head, 0.0, 1.0))

    def test_circle_arc_matches_quadrature(self):
        rng = np.random.default_rng(37)
        samples = rng.vonmises(0.0, 2.0, 600) * 180 / math.pi % 360
        d = fit(samples, 8.0, Topology.CIRCLE360)
        xs = np.linspace(300.0, 355.0, 10_000)
        quad = float(np.trapezoid(evaluate(d, xs), xs))
        assert integrate(d, 300.0, 355.0) == pytest.approx(quad, abs=1e-4)


class TestSilverman:
    def test_standard_normal_value(self):
        rng = np.random.default_rng(38)
        h = bandwidth_silverman(rng.standard_normal(100_000))
        assert h == pytest.approx(0.9 * 100_000 ** (-0.2), rel=0.10)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(39)
        x = rng.normal(0, 2, 5000)
        assert bandwidth_silverman(3.7 * x) == pytest.approx(
            3.7 * bandwidth_silverman(x), rel=1e-12
        )

    def test_zero_dispersion(self):
        with pytest.raises(ZeroDispersion):
            bandwidth_silverman(np.full(100, 2.5))

    def test_overflowing_variance_keeps_iqr_term(self):
        # The variance of samples 1e157 apart overflows; the robust minimum
        # is then the IQR term, with no numpy warning.
        samples = 1e157 * np.arange(5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = bandwidth_silverman(samples)
        # The quartiles of five samples are samples[1] and samples[3].
        assert h == 0.9 * ((samples[3] - samples[1]) / 1.34) * 5 ** (-0.2)

    @pytest.mark.parametrize("select", [bandwidth_silverman, select_bandwidth])
    def test_infinite_bandwidth_is_floating_point_error(self, select):
        # No IQR and an overflowing variance used to return inf, which fit
        # then rejected with an unmapped ValueError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="not finite"):
                select([0.0] * 60 + [1e160])


class TestIsj:
    def test_close_to_silverman_for_gaussian(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal(100_000)
        h_isj = bandwidth_isj(x)
        h_silv = bandwidth_silverman(x)
        assert abs(h_isj - h_silv) / h_silv <= 0.25

    def test_bimodal_undersmooths_silverman(self):
        rng = np.random.default_rng(41)
        x = np.concatenate([rng.standard_normal(50_000), rng.standard_normal(50_000) + 10])
        assert bandwidth_isj(x) < bandwidth_silverman(x)

    def test_folded_data_undersmooths_silverman(self):
        # Fold-at-zero data mimics a distance that piles up at its floor.
        rng = np.random.default_rng(42)
        x = np.abs(rng.normal(0.0, 30.0, 50_000))
        assert bandwidth_isj(x) < bandwidth_silverman(x)

    def test_crossing_dcpa_sample_undersmooths_silverman(self):
        # The skewed closest-approach distances of the reference crossing
        # scenario: the rule of thumb lands several times too wide.
        from colreg_risk import StateUncertainty, encounter_buffers, make_uncertainty
        from colreg_risk.sampling import draw_pair
        from scenarios import DIAG, OWN_1, TARGET_1

        batch = draw_pair(OWN_1, StateUncertainty(0, 0, 0, 0), TARGET_1,
                          make_uncertainty(DIAG, 1.0), 20_000, seed=52)
        dcpa = encounter_buffers(batch).dcpa
        assert bandwidth_isj(dcpa) < bandwidth_silverman(dcpa)

    def test_minimum_count(self):
        with pytest.raises(TooFewSamples):
            bandwidth_isj(np.arange(49.0))

    def test_circular_recentering_handles_wrap(self):
        rng = np.random.default_rng(43)
        cluster = np.concatenate([rng.normal(359.0, 1.0, 5000), rng.normal(1.0, 1.0, 5000)]) % 360
        h_wrapped = bandwidth_isj(cluster, Topology.CIRCLE360)
        h_recentred = bandwidth_isj((cluster + 180.0) % 360.0)
        assert h_wrapped == pytest.approx(h_recentred, rel=0.05)
        # Read on the line the same cluster looks like two far-apart modes.
        assert h_wrapped < 5.0

    def test_fallback_on_fixed_point_failure(self, monkeypatch):
        def boom(samples, topology=Topology.LINE):
            raise FixedPointFailure("forced")

        monkeypatch.setattr(density_module, "bandwidth_isj", boom)
        rng = np.random.default_rng(44)
        x = rng.standard_normal(1000)
        with pytest.warns(RuntimeWarning):
            h = density_module.select_bandwidth(x)
        assert h == pytest.approx(bandwidth_silverman(x))

    @pytest.mark.parametrize("topology", [Topology.LINE, Topology.CIRCLE360])
    def test_fallback_on_range_too_narrow_for_the_grid(self, topology):
        # A spread of a few ulps at 180 leaves no 2**14 distinct bin edges;
        # np.histogram used to raise a bare ValueError here.
        x = 180.0 + 1e-12 * np.random.default_rng(46).standard_normal(1000)
        with pytest.raises(FixedPointFailure, match="too narrow"):
            bandwidth_isj(x, topology)
        with pytest.warns(RuntimeWarning, match="too narrow"):
            h = select_bandwidth(x, topology)
        assert h == bandwidth_silverman(x)

    def test_fallback_on_unbracketed_fixed_point(self):
        # Three repeated values: no bracket [0, 0.01] .. [0, 0.64] holds a
        # sign change of t - xi * gamma(t).
        x = np.repeat([0.0, 1.0, 3.0], [80, 20, 20])
        with pytest.raises(FixedPointFailure, match=r"no positive root bracketed on \(0, 1\]"):
            bandwidth_isj(x)
        with pytest.warns(RuntimeWarning, match="no positive root bracketed"):
            h = select_bandwidth(x)
        assert h == bandwidth_silverman(x)

    def test_fixed_point_collapses_at_the_first_stage(self):
        # All DCT coefficients zero: the top-stage derivative norm is 0.0.
        tables = _stage_tables(np.zeros(density_module._I_SQ.size))
        with pytest.raises(FixedPointFailure, match="derivative-norm estimate collapsed"):
            density_module._fixed_point(0.01, 100, tables)

    @pytest.mark.parametrize("n", [2, 49])
    def test_fallback_on_too_few_samples(self, n):
        x = np.random.default_rng(45).standard_normal(n)
        with pytest.warns(RuntimeWarning, match="at least 50 samples"):
            h = select_bandwidth(x)
        assert h == bandwidth_silverman(x)


def _scipy_brentq(f, a, b, args, xtol):
    """scipy's brentq behind ``_brentq``'s interface: None for no sign change."""
    try:
        return scipy_brentq(f, a, b, args=args, xtol=xtol)
    except ValueError as exc:
        if "different signs" not in str(exc):
            raise
        return None


def _brent_function(kind, params):
    if kind == "cubic":
        c0, c1, c2, c3 = params
        return lambda x: ((c0 * x + c1) * x + c2) * x + c3
    if kind == "linear":
        scale, root = params
        return lambda x: scale * (x - root)
    if kind == "step":
        root, low, high = params
        return lambda x: low if x < root else high
    zero, at, root = params  # a signed zero at one end of the bracket
    return lambda x: zero if x == at else x - root


@st.composite
def _brent_cases(draw):
    point = st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0, 1.0, -1.0])
    a, b = draw(point), draw(point)
    kind = draw(st.sampled_from(["cubic", "linear", "step", "signed_zero"]))
    if kind == "cubic":
        params = draw(st.tuples(*[st.floats(-10.0, 10.0)] * 4))
    elif kind == "linear":
        params = (10.0 ** draw(st.integers(-300, 300)), draw(point))
    elif kind == "step":
        level = st.sampled_from([-1.0, -0.0, 0.0, 1.0, -3.5, 2.0])
        params = (draw(point), draw(level), draw(level))
    else:
        params = (draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([a, b])), draw(point))
    return kind, params, a, b, draw(st.sampled_from([5e-324, 1e-12, 1e-3]))


def _solve(solver, f, a, b, xtol):
    """The root's bits (None for no sign change, or the non-convergence
    error) and the bits of every point ``solver`` evaluated, in order."""
    points = []

    def recorded(x):
        points.append(x.hex())
        return f(x)

    try:
        root = solver(recorded, a, b, (), xtol)
    except RuntimeError as exc:
        return ("RuntimeError", str(exc)), points
    return (None if root is None else root.hex()), points


class TestBrentq:
    """``_brentq`` is scipy's C solver transcribed step for step: the same
    evaluated points and the same root bits."""

    @settings(max_examples=500)
    @given(_brent_cases())
    def test_matches_scipy_step_for_step(self, case):
        kind, params, a, b, xtol = case
        f = _brent_function(kind, params)
        assert _solve(_brentq, f, a, b, xtol) == _solve(_scipy_brentq, f, a, b, xtol)

    @pytest.mark.parametrize("kind, params, a, b, xtol, expected", [
        # Bisection toward a step at 0 with no absolute tolerance runs out
        # of iterations halving down to the subnormals.
        ("step", (0.0, -1.0, 1.0), -1.0, 1.0, 5e-324, "RuntimeError"),
        ("cubic", (0.0, 1.0, 0.0, 1.0), -1.0, 1.0, 1e-12, None),
        ("signed_zero", (-0.0, -1.0, 3.0), -1.0, 2.0, 1e-12, "-0x1.0000000000000p+0"),
        ("signed_zero", (0.0, 2.0, 3.0), -1.0, 2.0, 1e-12, "0x1.0000000000000p+1"),
        # At this scale two f values near the root are equal subnormals, so
        # a step divides by zero and bisects.
        ("linear", (1e-300, 0.3), -1.0, 1.0, 1e-12, "float"),
    ])
    def test_each_exit(self, kind, params, a, b, xtol, expected):
        f = _brent_function(kind, params)
        ported = _solve(_brentq, f, a, b, xtol)
        assert ported == _solve(_scipy_brentq, f, a, b, xtol)
        root = ported[0]
        if expected == "RuntimeError":
            assert root == ("RuntimeError", "Failed to converge after 100 iterations.")
            assert len(ported[1]) == 102
        elif expected == "float":
            assert abs(float.fromhex(root) - 0.3) < 1e-11
        else:
            assert root == expected

    def test_bandwidth_isj_keeps_scipy_bits(self, monkeypatch):
        rng = np.random.default_rng(48)
        buffers = [
            (rng.normal(0.0, 1.0, 1000), Topology.LINE),
            (rng.standard_cauchy(1000), Topology.LINE),
            (np.round(rng.normal(0.0, 3.0, 1000), 1), Topology.LINE),
            (np.concatenate([rng.normal(0.0, 1.0, 500), rng.normal(8.0, 1.5, 500)]),
             Topology.LINE),
            (rng.exponential(1.0, 1000) ** 3, Topology.LINE),
            (rng.normal(0.0, 4.0, 1000) % 360.0, Topology.CIRCLE360),
            # Few distinct values: the first brackets hold no sign change, so
            # the bracket doubles; the first buffer ends in a root, the
            # second in FixedPointFailure.
            (np.random.default_rng(1).integers(0, 20, 500).astype(float), Topology.LINE),
            (np.random.default_rng(0).integers(0, 5, 857).astype(float), Topology.LINE),
        ]

        def outcomes():
            results = []
            for x, topology in buffers:
                try:
                    results.append(bandwidth_isj(x, topology).hex())
                except FixedPointFailure as exc:
                    results.append(str(exc))
            return results

        brackets = []

        def scipy_backed(f, a, b, args, xtol):
            brackets.append(b)
            return _scipy_brentq(f, a, b, args, xtol)

        ported = outcomes()
        monkeypatch.setattr(density_module, "_brentq", scipy_backed)
        assert outcomes() == ported
        assert max(brackets) >= 0.08
        assert ported[-2].startswith("0x") and not ported[-1].startswith("0x")


class TestCircleBandwidths:
    """Every selector reads angles recentred on their circular mean, so a
    rotation of the samples leaves the bandwidth unchanged up to rounding."""

    @staticmethod
    def _rotations(n, sd, seed):
        offsets = np.random.default_rng(seed).normal(0.0, sd, n)
        return [(centre + offsets) % 360.0 for centre in (0.0, 0.4, 97.0, 180.0, 359.9)]

    @pytest.mark.parametrize("n", [40, 2000])
    def test_silverman_is_rotation_invariant(self, n):
        h = [bandwidth_silverman(x, Topology.CIRCLE360) for x in self._rotations(n, 1.0, 47)]
        assert h == pytest.approx([h[-2]] * len(h), rel=1e-9)
        assert h[0] < 1.0  # read on the line, the cluster at north spans 360 degrees

    def test_isj_is_rotation_invariant(self):
        h = [bandwidth_isj(x, Topology.CIRCLE360) for x in self._rotations(2000, 1.0, 48)]
        assert h == pytest.approx([h[-2]] * len(h), rel=1e-3)

    def test_fallback_is_rotation_invariant(self):
        # 40 samples are too few for the plug-in rule; Silverman's rule on
        # the line gave about 78 degrees for the cluster across north.
        with pytest.warns(RuntimeWarning, match="falling back"):
            h = [select_bandwidth(x, Topology.CIRCLE360)
                 for x in self._rotations(40, 1.0, 49)]
        assert h == pytest.approx([h[-2]] * len(h), rel=1e-9)
        assert h[0] < 1.0

    def test_grid_cv_is_rotation_invariant(self):
        h = [bandwidth_grid_cv(x, 0.05, 1.5, 0.05, topology=Topology.CIRCLE360)
             for x in self._rotations(500, 1.0, 50)]
        assert h == [h[-2]] * len(h)
        assert h[0] < 1.5  # inside the bracket, not pinned to an end

    def test_line_default_reads_the_samples_as_they_are(self):
        x = self._rotations(500, 1.0, 51)[0]
        assert bandwidth_silverman(x) > 10.0


def _circle_cases():
    rng = np.random.default_rng(52)
    inside = np.clip(rng.normal(180.0, 60.0, 3000), 1e-9, 359.0)
    below_360 = np.concatenate([inside, [np.nextafter(360.0, 0.0), 359.9999999999999]])
    return {
        "inside": inside,
        "plus_zero": np.concatenate([inside, [0.0]]),
        "minus_zero": np.concatenate([[-0.0], inside, [-0.0]]),
        "below_360": below_360,
        "out_of_range": np.concatenate([inside, [-10.0, 360.0, 365.5, 720.25, -1e-300]]),
        "across_north": rng.normal(0.0, 3.0, 3000),
    }


class TestCircleWrapSkip:
    """Circle samples are wrapped on entry to ``fit`` and the selectors; the
    wrap returns in-range angles with their bits, and a -0.0 as +0.0."""

    @pytest.mark.parametrize("case", sorted(_circle_cases()) + ["large"])
    def test_recentring_equals_the_plain_expression(self, case):
        # _circular_recenter reuses its trig and radians buffers; its bits
        # are those of the plain expression, and its input is left alone.
        if case == "large":
            x = np.random.default_rng(54).normal(350.0, 30.0, 100_000)
        else:
            x = _circle_cases()[case]
        before = x.copy()
        rad = np.radians(x)
        mean = math.degrees(math.atan2(float(np.mean(np.sin(rad))), float(np.mean(np.cos(rad)))))
        expected = wrap_degrees(x - mean + 180.0)
        got = _circular_recenter(x)
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(x.view(np.int64), before.view(np.int64))

    @pytest.mark.parametrize("case", sorted(_circle_cases()))
    def test_isj_equals_the_wrapped_path(self, case):
        x = _circle_cases()[case]
        reference = bandwidth_isj(_circular_recenter(x % 360.0))
        assert bandwidth_isj(x, Topology.CIRCLE360) == reference

    @pytest.mark.parametrize("case", sorted(_circle_cases()))
    def test_fit_equals_the_wrapped_path(self, case):
        x = _circle_cases()[case]
        samples = fit(x, 1.0, Topology.CIRCLE360).samples
        assert samples.tobytes() == wrap_degrees(x).tobytes()
        assert not np.signbit(samples).any()
        assert not samples.flags.writeable

    def test_line_view_equals_the_wrapped_path(self):
        # -1e-17 % 360 rounds to 360.0, where fit stores the sample as 0.0:
        # the selectors used to read it 360 deg away, recentred to other bits.
        x = np.append(_circle_cases()["across_north"][:2000], -1e-17)
        view = density_module._line_view(x, Topology.CIRCLE360)
        assert view.tobytes() == density_module._line_view(
            wrap_degrees(x), Topology.CIRCLE360).tobytes()

    def test_fit_copies_in_range_samples(self):
        x = _circle_cases()["inside"].copy()
        estimate = fit(x, 1.0, Topology.CIRCLE360)
        x[0] = 5.0
        assert estimate.samples[0] == _circle_cases()["inside"][0]


@st.composite
def _binned_samples(draw):
    # Samples on a uniform grid of edges: uniform draws, values exactly on
    # edges and repeated values, around magnitudes where a bin is anywhere
    # from about one ulp to many thousands of ulps wide.
    bins = draw(st.sampled_from([1, 3, 64, 2**14]))
    centre = draw(st.sampled_from([0.0, -7.5, 180.0, 3.0e5, -2.5e9, 1e15]))
    width = draw(st.floats(1.0, 1e6)) * float(np.spacing(max(abs(centre), 1.0)))
    lo = centre - 0.5 * bins * width
    hi = lo + bins * width
    edges = np.linspace(lo, hi, bins + 1)
    assume(lo < hi and np.all(edges[1:] > edges[:-1]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    uniform = np.clip(lo + rng.random(draw(st.integers(1, 400))) * (hi - lo), lo, hi)
    on_edges = edges[rng.integers(0, bins + 1, draw(st.integers(0, 100)))]
    x = np.concatenate([uniform, on_edges, [lo, hi]])
    x = np.concatenate([x, x[: draw(st.integers(0, x.size))]])
    return rng.permutation(x), lo, hi, bins


def _assert_same_quantiles(got, expected):
    # Equal bits, except that a zero may differ in sign: np.percentile
    # partitions its own copy, which can swap a -0.0 and a +0.0 that the
    # sort left in the other order.  Silverman's rule reads the quartiles'
    # difference only where it is > 0, so its bandwidth keeps every bit.
    np.testing.assert_array_equal(got, expected)
    nonzero = expected != 0.0
    np.testing.assert_array_equal(got[nonzero].view(np.int64), expected[nonzero].view(np.int64))


class TestSortedOrderStatistics:
    """bandwidth_isj reads its pilot quartiles, distinct count and bin
    counts from one sorted copy; each must equal numpy's unsorted answer."""

    @settings(max_examples=300)
    @given(_binned_samples())
    def test_bin_counts_match_histogram(self, case):
        x, lo, hi, bins = case
        expected, _ = np.histogram(x, bins=bins, range=(lo, hi))
        counts = _bin_counts(np.sort(x), np.linspace(lo, hi, bins + 1))
        assert counts.dtype == expected.dtype
        np.testing.assert_array_equal(counts, expected)

    @settings(max_examples=300)
    @given(_binned_samples(), st.sampled_from([0.0, -0.0]))
    def test_distinct_count_matches_unique(self, case, zero):
        x = np.concatenate([case[0], [zero, -zero, zero]])
        assert _distinct_count(np.sort(x)) == np.unique(x).size

    @settings(max_examples=300)
    @given(_binned_samples(), st.sampled_from([0.0, -0.0]))
    def test_quartiles_match_percentile(self, case, zero):
        x = np.concatenate([case[0], [zero, -zero]])
        ordered = np.sort(x)
        q = [75.0, 25.0, 0.0, 50.0, 100.0]
        np.testing.assert_array_equal(np.percentile(ordered, q), np.percentile(x, q))
        try:
            expected = bandwidth_silverman(x)
        except ZeroDispersion:
            with pytest.raises(ZeroDispersion):
                _silverman(x, ordered)
        else:
            assert _silverman(x, ordered) == expected

    @settings(max_examples=400)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                    | st.sampled_from([0.0, -0.0, 5e-324, 1.7e308, -1.7e308]),
                    min_size=2, max_size=60)
           | _binned_samples().map(lambda case: list(case[0])))
    def test_sorted_quantiles_equal_percentile(self, values):
        # Values up to the float64 limit, so that b - a overflows to inf and
        # the interpolation gives inf or NaN on both paths.
        ordered = np.sort(np.array(values, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.percentile(ordered, [75.0, 25.0])
        got = np.array([_sorted_quantile(ordered, 0.75), _sorted_quantile(ordered, 0.25)])
        _assert_same_quantiles(got, expected)

    def test_sorted_quantiles_for_every_small_n(self):
        # (n - 1) q runs through every fraction 0, 1/4, 1/2 and 3/4, so both
        # branches of numpy's interpolation and its switch at 1/2 are met;
        # ties and signed zeros included, then a few large n.
        rng = np.random.default_rng(47)
        sizes = [*range(2, 400), 2**17 - 1, 2**17, 2**17 + 1, 2**17 + 2, 100_000]
        for n in sizes:
            x = np.round(rng.normal(0.0, 3.0, n), 1)
            if n % 97 == 0:
                x *= 0.0  # zeros of both signs
            x.sort()
            expected = np.percentile(x, [75.0, 25.0])
            got = np.array([_sorted_quantile(x, 0.75), _sorted_quantile(x, 0.25)])
            _assert_same_quantiles(got, expected)

    @settings(max_examples=300)
    @given(_binned_samples(), st.sampled_from(list(Topology)))
    def test_silverman_equals_percentile_rule(self, case, topology):
        # Silverman's rule as it read np.percentile on the unsorted samples.
        x = case[0]
        arr = density_module._line_view(x, topology)
        with np.errstate(over="ignore", invalid="ignore"):
            sd = float(np.std(arr, ddof=1))
            q75, q25 = np.percentile(arr, [75.0, 25.0])
            iqr = float(q75 - q25)
        scale = min(sd, iqr / 1.34) if iqr > 0.0 else sd
        if not (scale > 0.0 and math.isfinite(0.9 * scale * arr.size ** (-0.2))):
            with pytest.raises((ZeroDispersion, FloatingPointError)):
                bandwidth_silverman(x, topology)
        else:
            assert bandwidth_silverman(x, topology) == 0.9 * scale * arr.size ** (-0.2)

    def test_isj_grid_counts_match_histogram(self):
        # The grid bandwidth_isj bins on: three pilot bandwidths of padding.
        x = _isj_golden_inputs()["rounded10k"][0]
        pilot = bandwidth_silverman(x)
        lo, hi = float(x.min()) - 3.0 * pilot, float(x.max()) + 3.0 * pilot
        expected, _ = np.histogram(x, bins=2**14, range=(lo, hi))
        counts = _bin_counts(np.sort(x), np.linspace(lo, hi, 2**14 + 1))
        np.testing.assert_array_equal(counts, expected)


def _isj_golden_inputs():
    rng = np.random.default_rng(103)
    bimodal = np.concatenate([rng.normal(0.0, 1.0, 50_000), rng.normal(8.0, 1.5, 50_000)])
    return {
        "gauss50": (np.random.default_rng(101).normal(0.0, 1.0, 50), Topology.LINE),
        "gauss10k": (np.random.default_rng(102).normal(5.0, 2.0, 10_000), Topology.LINE),
        "bimodal100k": (bimodal, Topology.LINE),
        "folded10k": (np.abs(np.random.default_rng(104).normal(0.0, 30.0, 10_000)),
                      Topology.LINE),
        "rounded10k": (np.round(np.random.default_rng(105).normal(0.0, 3.0, 10_000), 1),
                       Topology.LINE),
        "circle10k": (np.random.default_rng(106).normal(0.0, 4.0, 10_000) % 360.0,
                      Topology.CIRCLE360),
    }


# Bandwidths computed by the full-length stage sums, before the sums were
# truncated at the exp underflow; the truncated sums must reproduce them bit
# for bit.
_ISJ_GOLDEN = {
    "gauss50": 0.6816549074798015,
    "gauss10k": 0.34337470429803685,
    "bimodal100k": 0.1379664991980339,
    "folded10k": 0.6738223361091122,
    "rounded10k": 1.3052436087456216,
    "circle10k": 0.6764453213290508,
}


def _full_derivative_norm(s, t, i_sq, a_sq):
    return 2.0 * math.pi ** (2 * s) * float(
        np.sum(i_sq**s * a_sq * np.exp(-i_sq * math.pi**2 * t))
    )


def _step_ulps(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def _numpy_pairwise_sum(values):
    # NumPy's float64 pairwise sum in Python floats: a block of fewer than 8
    # adds in order, one of at most 128 uses eight accumulators and adds its
    # remainder in order, and a longer one splits at m//2 - (m//2) % 8.
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        acc = values[:8]
        for i in range(8, n - n % 8, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for v in values[n - n % 8:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _numpy_pairwise_sum(values[:half]) + _numpy_pairwise_sum(values[half:])


def _reference_shifts(estimate):
    if estimate.topology is Topology.LINE:
        return np.zeros(1)
    periods = max(1, int(math.ceil(8.0 * estimate.bandwidth / 360.0)))
    return 360.0 * np.arange(-periods, periods + 1, dtype=float)


def _unblocked_evaluate(estimate, xs):
    if estimate.topology is Topology.CIRCLE360:  # finite points read modulo 360
        with np.errstate(invalid="ignore"):
            xs = np.where(np.isinf(xs), xs, xs % 360.0)
    h = estimate.bandwidth
    diff = xs[:, None] - estimate.samples[None, :]
    acc = np.zeros(xs.size)
    for shift in _reference_shifts(estimate):
        z = (diff + shift) / h
        acc += np.exp(-0.5 * z * z).sum(axis=1)
    return acc / (estimate.samples.size * h * math.sqrt(2.0 * math.pi))


class TestExactTruncation:
    @pytest.mark.parametrize("name", sorted(_ISJ_GOLDEN))
    def test_isj_matches_full_sum_golden(self, name):
        samples, topology = _isj_golden_inputs()[name]
        assert bandwidth_isj(samples, topology) == _ISJ_GOLDEN[name]

    def test_stage_sum_matches_full_length_sum(self):
        from scipy.fft import dct

        rng = np.random.default_rng(60)
        x = rng.normal(0.0, 1.0, 5000)
        counts, _ = np.histogram(x, bins=2**14, range=(-6.0, 6.0))
        a_sq = (dct(counts / x.size, type=2)[1:] / 2.0) ** 2
        i_sq = np.arange(1, 2**14, dtype=float) ** 2
        # One set of tables for the whole sweep, as in bandwidth_isj: the
        # shared terms buffer must not carry a longer prefix into a shorter one.
        tables = _stage_tables(a_sq)
        # t values whose cut lands exactly on a DCT term, from the first to
        # the last, and their neighbours one ulp either side.
        on_term = [746.0 / (math.pi**2 * i_sq[k]) for k in (0, 1, 8000, i_sq.size - 1)]
        sweep = [0.0, 5e-324, 1e-320, 1e-300, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 0.1, 1.0,
                 1e6, math.inf, -1e-9, math.nan] + on_term
        sweep += [math.nextafter(t, math.inf) for t in on_term]
        sweep += [math.nextafter(t, 0.0) for t in on_term]
        sweep += list(np.geomspace(1e-10, 1e-1, 41))
        partial = 0
        for t in sweep:
            for s in range(2, 8):
                got = _derivative_norm(s, float(t), tables)
                want = _full_derivative_norm(s, float(t), i_sq, a_sq)
                assert got == want or (math.isnan(got) and math.isnan(want)), (s, t)
            live = np.flatnonzero(np.exp(-i_sq * math.pi**2 * t))
            partial += int(0 < live.size < i_sq.size)
        assert partial >= 30

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), lo=st.floats(-30.0, 30.0), width=st.floats(0.0, 30.0),
           t=st.one_of(
               st.floats(-12.0, 2.0).map(lambda e: 10.0**e),
               st.sampled_from([0.0, 5e-324, math.inf, math.nan]),
               st.tuples(st.integers(1, 2**14 - 1), st.sampled_from([-1, 0, 1])).map(
                   lambda p: _step_ulps(746.0 / (math.pi**2 * float(p[0]) ** 2), p[1])),
           ))
    def test_stage_sum_matches_full_length_sum_for_drawn_coefficients(self, seed, lo, width, t):
        # a_i^2 spread log-uniformly over up to 30 decades inside 1e-30..1e30;
        # t log-uniform, at the special values, or with its cut on a term
        # (and one ulp either side).  Two drawn t share one set of tables.
        rng = np.random.default_rng(seed)
        i_sq = np.arange(1, 2**14, dtype=float) ** 2
        hi = min(30.0, lo + width)
        a_sq = 10.0 ** rng.uniform(lo, hi, i_sq.size)
        tables = _stage_tables(a_sq)
        for t_now in (t, float(10.0 ** rng.uniform(-12.0, 2.0)), t):
            for s in range(2, 8):
                got = _derivative_norm(s, t_now, tables)
                want = _full_derivative_norm(s, t_now, i_sq, a_sq)
                assert got == want or (math.isnan(got) and math.isnan(want)), (s, t_now)

    def test_prefixes_are_numpy_pairwise_split(self):
        # The nested block ends of np.add.reduce over the 2**14 - 1 terms:
        # each block of more than 128 splits at m//2 - (m//2) % 8.
        ends = [2**14 - 1]
        while ends[-1] > 128:
            half = ends[-1] // 2
            ends.append(half - half % 8)
        assert _PAIRWISE_PREFIXES == tuple(reversed(ends))

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 100, 120, 121, 128, 129, 248, 1000,
                                      2**14 - 1])
    def test_numpy_sum_is_the_pinned_pairwise_sum(self, size):
        # If NumPy changes its float64 summation, this fails before the
        # truncated stage sums move a bandwidth bit.
        rng = np.random.default_rng(size)
        values = np.exp(rng.normal(0.0, 20.0, size))
        assert np.add.reduce(values) == _numpy_pairwise_sum(values.tolist())
        assert np.sum(values) == np.add.reduce(values)

    @pytest.mark.parametrize("prefix", _PAIRWISE_PREFIXES)
    def test_zero_tail_sums_like_its_prefix(self, prefix):
        # With every term from n_live on zero, the full-length sum is the
        # sum over the first prefix that holds the live terms.
        rng = np.random.default_rng(prefix)
        values = np.exp(rng.normal(0.0, 20.0, 2**14 - 1))
        below = _PAIRWISE_PREFIXES[_PAIRWISE_PREFIXES.index(prefix) - 1] if prefix > 120 else 0
        for n_live in sorted({below + 1, (below + prefix) // 2, prefix - 1, prefix}):
            padded = values.copy()
            padded[n_live:] = 0.0
            assert np.add.reduce(padded) == np.add.reduce(padded[:prefix]), n_live

    @pytest.mark.parametrize("n", [7, 1000, 40_000])
    def test_evaluate_matches_unblocked_line(self, n):
        rng = np.random.default_rng(61 + n)
        samples = rng.normal(0.0, 1.0, n)
        h = 0.05
        # Points in the bulk, in the sparse tails, where the nearest kernel
        # term is subnormal (z about 38) and far outside, where it is 0.0.
        edge = samples.max() + 38.0 * h
        xs = np.concatenate([
            np.linspace(-4.0, 4.0, 97),
            edge + np.linspace(-0.5, 0.5, 11) * h,
            [samples.min() - 39.0 * h, samples.max() + 1e3, -1e6],
        ])
        estimate = fit(samples, h)
        got = evaluate(estimate, xs)
        want = _unblocked_evaluate(estimate, xs)
        assert np.array_equal(got, want)
        assert np.sum(got == 0.0) >= 3
        tiny = got[(got > 0.0) & (got < 1e-300)]
        assert tiny.size >= 1
        assert evaluate(estimate, float(xs[5])) == want[5]

    @pytest.mark.parametrize("h", [0.3, 2.0, 400.0])
    def test_evaluate_matches_unblocked_circle(self, h):
        rng = np.random.default_rng(62)
        samples = rng.normal(0.0, 3.0, 3000) % 360.0
        xs = np.linspace(0.0, 360.0, 361)[:-1]
        estimate = fit(samples, h, Topology.CIRCLE360)
        got = evaluate(estimate, xs)
        assert np.array_equal(got, _unblocked_evaluate(estimate, xs))
        if h < 1.0:
            assert np.any(got == 0.0)

    @settings(max_examples=150)
    @given(topology=st.sampled_from(list(Topology)), n=st.integers(2, 200),
           seed=st.integers(0, 2**32 - 1), centre=st.floats(0.0, 360.0),
           spread=st.floats(-3.0, 2.0), h_ratio=st.floats(-2.0, 1.0),
           far=st.sampled_from([0.0, 1e3, 1e7, 1e300, math.inf]))
    def test_evaluate_skips_only_all_zero_images(self, topology, n, seed, centre, spread,
                                                 h_ratio, far):
        # Clusters on and off the 0/360 cut (off it, whole periodic images of
        # a block are zeros), points near and far (1e300 overflows the squared
        # distance without a warning), and blocks of one to three points.
        rng = np.random.default_rng(seed)
        samples = centre + 10.0**spread * rng.standard_normal(n)
        estimate = fit(samples, 10.0 ** (spread + h_ratio), topology)
        xs = np.concatenate([np.linspace(0.0, 360.0, 91), [centre + far, -far]])
        with np.errstate(over="ignore", invalid="ignore"):  # the reference at 1e300
            want = _unblocked_evaluate(estimate, xs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(density_module, "_EVAL_BLOCK", int(rng.integers(1, 4)) * n)
            assert np.array_equal(evaluate(estimate, xs), want)

    def test_evaluate_skips_zero_images_on_a_bearing_buffer(self, monkeypatch):
        # A bearing cluster like analyze's at 90 degrees: its +-360 images
        # are zeros at every point, so evaluate never computes them.
        rng = np.random.default_rng(64)
        estimate = fit(rng.normal(90.0, 3.0, 10_000), 0.38, Topology.CIRCLE360)
        xs = np.linspace(0.0, 360.0, 721)[:-1]
        skipped = []
        real = density_module._image_is_zero

        def spy(*args):
            skipped.append(real(*args))
            return skipped[-1]

        monkeypatch.setattr(density_module, "_image_is_zero", spy)
        assert np.array_equal(evaluate(estimate, xs), _unblocked_evaluate(estimate, xs))
        assert sum(skipped) >= 2 * len(skipped) // 3


def _full_band_masses(estimate, edges):
    # band_masses before the saturation window: ndtr on every kernel.
    data = estimate.samples
    h = estimate.bandwidth
    masses = [0.0] * (len(edges) - 1)
    for shift in _reference_shifts(estimate):
        lower = ndtr((edges[0] - data + shift) / h)
        for band, edge in enumerate(edges[1:]):
            upper = ndtr((edge - data + shift) / h)
            masses[band] += float(np.mean(upper - lower))
            lower = upper
    return masses


@st.composite
def _band_mass_cases(draw):
    topology = draw(st.sampled_from(list(Topology)))
    n = draw(st.integers(2, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    # Circle spreads stay small so that 1e3 times them needs few images.
    circle = topology is Topology.CIRCLE360
    spread = 10.0 ** draw(st.floats(-3.0, 0.3 if circle else 3.0))
    centre = draw(st.floats(-1e3, 1e3))
    h = spread * 10.0 ** draw(st.floats(-3.0, 3.0))
    samples = centre + spread * np.random.default_rng(seed).standard_normal(n)
    estimate = fit(samples, h, topology)
    data = estimate.samples
    # Edges at a sample plus a few bandwidths (inside, at and past the ndtr
    # window), far outside the data, and infinite.  On the circle every edge
    # lies in [0, 360]: the near edges that fall inside, any edge in
    # [0, 360] and the two ends.
    near = st.builds(lambda i, k: float(data[i] + k * h),
                     st.integers(0, n - 1), st.floats(-60.0, 60.0))
    if circle:
        edge = near.filter(lambda e: 0.0 <= e <= 360.0) | st.floats(0.0, 360.0) \
            | st.sampled_from([0.0, 360.0])
    else:
        edge = near | st.floats(-1e6, 1e6) | st.sampled_from([-math.inf, math.inf])
    edges = draw(st.lists(edge, min_size=2, max_size=6))
    return estimate, sorted(edges)


class TestSaturationWindow:
    def test_ndtr_saturates_at_the_window(self):
        # band_masses writes these exact values instead of calling ndtr; a
        # scipy release that moves where ndtr saturates fails here.
        assert ndtr(_NDTR_ONE_AT) == 1.0
        assert ndtr(_NDTR_ZERO_AT) == 0.0
        ones = np.append(np.geomspace(_NDTR_ONE_AT, 1e300, 20_000), math.inf)
        zeros = -np.append(np.geomspace(-_NDTR_ZERO_AT, 1e300, 20_000), math.inf)
        assert np.all(ndtr(ones) == 1.0)
        assert np.all(ndtr(zeros) == 0.0)

    @settings(max_examples=300)
    @given(_band_mass_cases())
    def test_band_masses_equal_full_ndtr(self, case):
        estimate, edges = case
        assert band_masses(estimate, edges) == _full_band_masses(estimate, edges)

    @pytest.mark.parametrize("topology", list(Topology))
    def test_band_masses_equal_full_ndtr_on_bearings(self, topology):
        # A bearing buffer across the 0/360 cut, on the regions' band edges:
        # each edge is saturated for some images and crossed in others.
        rng = np.random.default_rng(63)
        estimate = fit(rng.normal(0.0, 3.0, 20_000) % 360.0, 0.4, topology)
        edges = (0.0, 5.0, 112.5, 247.5, 355.0, 360.0)
        assert band_masses(estimate, edges) == _full_band_masses(estimate, edges)


@st.composite
def _seam_cases(draw):
    # Circle buffers at and around the 0/360 cut, with bandwidths from far
    # below the spread up to several periods (more images), and edges that
    # run from 0 to 360: the bearing bands, a crossing arc's four edges, or
    # random ones.
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centre = draw(st.sampled_from([0.0, 359.0, 180.0]) | st.floats(0.0, 360.0))
    spread = 10.0 ** draw(st.floats(-3.0, 2.0))
    estimate = fit(centre + spread * rng.standard_normal(n),
                   spread * 10.0 ** draw(st.floats(-2.0, 1.5)), Topology.CIRCLE360)
    inner = draw(st.sampled_from([[5.0, 112.5, 247.5, 355.0], [3.0, 350.0]])
                 | st.lists(st.floats(0.0, 360.0), max_size=5))
    return estimate, [0.0, *sorted(inner), 360.0]


def _assert_same_bits(got, expected):
    assert np.array_equal(np.array(got).view(np.int64), np.array(expected).view(np.int64))


class TestSeamReuse:
    # The reference is the plain expression, which calls no part of the
    # kernel: ndtr on every kernel at every image, each edge's CDF computed
    # afresh, and np.mean(upper - lower) per band.

    @settings(max_examples=300)
    @given(_seam_cases())
    def test_equals_recomputed_cdfs(self, case):
        estimate, edges = case
        _assert_same_bits(band_masses(estimate, edges), _full_band_masses(estimate, edges))

    @pytest.mark.parametrize("n", [density_module._NDTR_CHUNK + 1, 40_000])
    @pytest.mark.parametrize("topology", list(Topology))
    def test_equals_recomputed_cdfs_past_one_ndtr_chunk(self, n, topology):
        # More kernels than one ndtr chunk, so the live kernels span chunks
        # and the last is partial; on the circle the buffer crosses the cut
        # and the seam CDF serves image 360.
        rng = np.random.default_rng(n)
        estimate = fit(rng.normal(0.0, 4.0, n) % 360.0, 0.7, topology)
        for edges in ((0.0, 5.0, 112.5, 247.5, 355.0, 360.0), (0.0, 3.0, 350.0, 360.0),
                      (1.0, 359.0)):
            _assert_same_bits(band_masses(estimate, edges), _full_band_masses(estimate, edges))

    def test_one_cdf_serves_the_seam(self, monkeypatch):
        # Edge 360 at image 0 is edge 0 at image 360: one call fewer, and
        # only on the circle with a first edge of 0.
        calls = []
        real = density_module._edge_cdf

        def counted(edge, *args):
            calls.append(edge)
            return real(edge, *args)

        monkeypatch.setattr(density_module, "_edge_cdf", counted)
        rng = np.random.default_rng(53)
        edges = (0.0, 5.0, 112.5, 247.5, 355.0, 360.0)
        for topology, first, saved in ((Topology.CIRCLE360, 0.0, 1), (Topology.CIRCLE360, 1.0, 0),
                                       (Topology.LINE, 0.0, 0)):
            estimate = fit(rng.normal(0.0, 3.0, 500) % 360.0, 0.4, topology)
            calls.clear()
            band_masses(estimate, (first, *edges[1:]))
            assert len(calls) == len(edges) * _image_shifts(estimate).size - saved


def _reference_grid_cv_scores(arr, grid, folds):
    # The grid search before its exponent clamp and its row blocks: exp of
    # every float32 exponent, subnormal results included, into a new array
    # per grid point, with each fold's test rows in one block.
    order = np.random.default_rng(0).permutation(arr.size)
    scores = np.zeros(grid.size)
    log_norms = np.log(grid * math.sqrt(2.0 * math.pi))
    for test_idx in np.array_split(order, folds):
        mask = np.ones(arr.size, dtype=bool)
        mask[test_idx] = False
        train = arr[mask]
        test = arr[test_idx]
        fold_scores = np.zeros(grid.size)
        d_sq = (test[:, None] - train[None, :]) ** 2
        row_min = d_sq.min(axis=1, keepdims=True)
        d_sq -= row_min
        row_min = row_min[:, 0]
        shifted = d_sq.astype(np.float32)
        for gi, h in enumerate(grid):
            inv = -0.5 / (h * h)
            z = shifted * np.float32(inv)
            np.exp(z, out=z)
            ll = np.log(z.sum(axis=1, dtype=np.float64)) + row_min * inv
            fold_scores[gi] = float(np.sum(ll))
        scores += fold_scores / test.size - math.log(train.size) - log_norms
    return scores / folds


def _grid_cv_samples(shape, n, rng):
    if shape == "gauss":
        return rng.standard_normal(n)
    if shape == "cauchy":
        return rng.standard_cauchy(n)
    if shape == "clusters":
        return rng.standard_normal(n) + 1e4 * rng.integers(0, 2, n)
    return np.round(rng.standard_normal(n), 1)  # ties


@st.composite
def _grid_cv_cases(draw, shape):
    folds = draw(st.integers(2, 6))
    n = draw(st.integers(max(5, folds), 2500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    samples = scale * _grid_cv_samples(shape, n, rng)
    # From far below the sample spacing, where most kernel terms are clamped
    # (subnormal or 0.0 without the clamp), up to a few spreads.
    lo = scale * 10.0 ** draw(st.floats(-3.0, 0.0))
    step = lo * draw(st.floats(0.1, 2.0))
    hi = lo + step * draw(st.integers(0, 9))
    return samples, lo, hi, step, folds


class TestGridCv:
    def test_exponent_clamp_keeps_exp_normal(self):
        # bandwidth_grid_cv clamps each float32 exponent at -87 so that exp
        # never returns a subnormal; a numpy release that breaks this fails here.
        tiny = np.finfo(np.float32).tiny
        assert np.exp(np.float32(-87.0)) >= tiny
        assert -87.0 > math.log(tiny)

    @pytest.mark.parametrize("shape", ["gauss", "cauchy", "clusters", "rounded"])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_equals_unclamped_reference(self, shape, data):
        samples, lo, hi, step, folds = data.draw(_grid_cv_cases(shape))
        grid = np.arange(lo, hi + 0.5 * step, step)
        want = _reference_grid_cv_scores(samples, grid, folds)
        assert np.array_equal(_grid_cv_scores(samples, grid, folds), want)
        assert bandwidth_grid_cv(samples, lo, hi, step, folds) == grid[np.argmax(want)]

    @pytest.mark.parametrize("rows", ["one", "seven", "whole fold"])
    def test_scores_independent_of_block_size(self, monkeypatch, rows):
        # Blocks of one row, of about seven rows and of the whole fold (the
        # 4M-element budget once used) give the same bits.  The small grid
        # start clamps most kernel terms.
        rng = np.random.default_rng(48)
        x = np.concatenate([rng.standard_normal(450), 1e3 + rng.standard_cauchy(153)])
        grid = np.arange(0.002, 0.6, 0.06)
        train_size = x.size - np.array_split(np.arange(x.size), 5)[0].size
        budget = {"one": 1, "seven": 7 * train_size, "whole fold": 4_000_000}[rows]
        monkeypatch.setattr(density_module, "_CHUNK_BUDGET", budget)
        got = _grid_cv_scores(x, grid, 5)
        assert np.array_equal(got, _reference_grid_cv_scores(x, grid, 5))

    def test_single_candidate(self):
        rng = np.random.default_rng(45)
        x = rng.standard_normal(300)
        assert bandwidth_grid_cv(x, 0.4, 0.4, 1.0) == 0.4

    def test_reproducible(self):
        rng = np.random.default_rng(46)
        x = rng.standard_normal(600)
        a = bandwidth_grid_cv(x, 0.05, 1.0, 0.05, folds=4)
        b = bandwidth_grid_cv(x, 0.05, 1.0, 0.05, folds=4)
        assert a == b

    def test_consistent_with_silverman_on_gaussian(self):
        # Cross-validation is only stable enough for the 30%-of-Silverman
        # consistency bound with ample data; the grid spans the optimum.
        rng = np.random.default_rng(47)
        x = rng.standard_normal(10_000)
        h_cv = bandwidth_grid_cv(x, 0.01, 0.40, 0.01, folds=5)
        h_silv = bandwidth_silverman(x)
        assert abs(h_cv - h_silv) / h_silv <= 0.30

    def test_overflowing_distances_raise(self):
        # The DCPA buffer of `analyze --bearings 0 --range 1.8e157 --samples 5
        # --bandwidth grid`: squared distances overflow, every score is NaN,
        # and the search used to return its first candidate.
        x = np.array([1.74e155, 7.32e155, 7.25e155, 2.38e155, 5.29e154])
        with np.errstate(all="ignore"):  # the squares overflow
            pilot = bandwidth_silverman(x)
            lo, hi, step = pilot / 20.0, 1.5 * pilot, pilot / 20.0
            scores = _grid_cv_scores(x, np.arange(lo, hi + 0.5 * step, step), 5)
        assert not np.isfinite(scores).any()
        with pytest.raises(FloatingPointError, match="not finite"):
            bandwidth_grid_cv(x, lo, hi, step, 5)

    def test_validation_errors(self):
        x = np.arange(100.0)
        with pytest.raises(ValueError, match=r"no candidates in \[2.0, 1.0\] with step 0.5"):
            bandwidth_grid_cv(x, 2.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            bandwidth_grid_cv(x, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            bandwidth_grid_cv(x, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            bandwidth_grid_cv(x, 0.5, 1.0, 0.1, folds=1)

    @pytest.mark.parametrize("lo, hi, step, bound", [
        # -0.5 / lo**2 overflows float32: every score was NaN and the first
        # candidate came back.
        (1e-30, 3e-30, 1e-30, "lower bound"),
        (1e-200, 1.0, 0.5, "lower bound"),
        (math.nan, 1.0, 0.5, "lower bound"),
        (math.inf, 1.0, 0.5, "lower bound"),
        # These reached np.arange and failed there.
        (0.5, math.nan, 0.1, "upper bound"),
        (0.5, math.inf, 0.1, "upper bound"),
        (0.5, 1.0, math.inf, "step"),
    ])
    def test_nonfinite_or_overflowing_bounds_rejected(self, lo, hi, step, bound):
        with pytest.raises(ValueError, match=bound):
            bandwidth_grid_cv(np.arange(100.0), lo, hi, step)

    def test_smallest_bandwidth_with_a_finite_exponent(self):
        # Its exponents overflow to -inf, which the clamp takes without a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bandwidth_grid_cv(np.arange(100.0), 1e-19, 1e-19, 1.0) == 1e-19

    @pytest.mark.filterwarnings("ignore:overflow encountered in scalar multiply")
    def test_bandwidth_whose_square_overflows(self):
        # lo * lo is inf here and the exponents are -0.0: a valid, flat grid.
        assert bandwidth_grid_cv(np.arange(100.0), 1e200, 1e200, 1e200) == 1e200


class TestKsNormality:
    def test_minimum_count(self):
        with pytest.raises(TooFewSamples):
            ks_normality(np.arange(7.0))

    def test_identical_samples_have_no_dispersion(self):
        with pytest.raises(ZeroDispersion, match="samples have no dispersion"):
            ks_normality([2.5] * 8)

    def test_calibration_on_normal_data(self):
        passes = 0
        for seed in range(100):
            x = np.random.default_rng(1000 + seed).standard_normal(10_000)
            _, p = ks_normality(x)
            if p > 0.001:
                passes += 1
        assert passes >= 99

    def test_statistic_small_for_matched_normal(self):
        x = np.random.default_rng(48).standard_normal(10_000)
        stat, _ = ks_normality(x)
        assert stat < 0.02

    def test_rejects_folded_data(self):
        x = np.abs(np.random.default_rng(49).standard_normal(10_000))
        _, p = ks_normality(x)
        assert p < 1e-4

    def test_overflowing_variance_is_floating_point_error(self):
        # The variance overflows; an infinite sd used to zero every z-score
        # and return a made-up (0.5, 1.1e-13) with numpy's overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="standard deviation is not finite"):
                ks_normality([0.0] * 60 + [1e160])

    def test_large_finite_spread_keeps_the_scale_free_answer(self):
        # The statistic ignores scale, so an outlier at 1e150 (variance
        # about 1.6e298, still finite) gives the answer an outlier at 1 gives.
        assert ks_normality([0.0] * 60 + [1e150]) == ks_normality([0.0] * 60 + [1.0])
