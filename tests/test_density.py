import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from colreg_risk.density import (
    _CHUNK_BUDGET,
    FixedPointFailure,
    TooFewSamples,
    ZeroDispersion,
    _NDTR_ONE_AT,
    _NDTR_ZERO_AT,
    _derivative_norm,
    _grid_cv_scores,
    _stage_tables,
    band_masses,
)


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
        circle = fit([0.0, 90.0, 350.0], 5.0, Topology.CIRCLE360)
        assert integrate(circle, -inf, 10.0) == pytest.approx(1.0, abs=1e-9)

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
        import colreg_risk.density as density_module

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

    @pytest.mark.parametrize("n", [2, 49])
    def test_fallback_on_too_few_samples(self, n):
        x = np.random.default_rng(45).standard_normal(n)
        with pytest.warns(RuntimeWarning, match="at least 50 samples"):
            h = select_bandwidth(x)
        assert h == bandwidth_silverman(x)


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


def _reference_shifts(estimate):
    if estimate.topology is Topology.LINE:
        return np.zeros(1)
    periods = max(1, int(math.ceil(8.0 * estimate.bandwidth / 360.0)))
    return 360.0 * np.arange(-periods, periods + 1, dtype=float)


def _unblocked_evaluate(estimate, xs):
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
        tables = _stage_tables(i_sq, a_sq)
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
    spread = 10.0 ** draw(st.floats(-3.0, 0.3 if topology is Topology.CIRCLE360 else 3.0))
    centre = draw(st.floats(-1e3, 1e3))
    h = spread * 10.0 ** draw(st.floats(-3.0, 3.0))
    samples = centre + spread * np.random.default_rng(seed).standard_normal(n)
    estimate = fit(samples, h, topology)
    data = estimate.samples
    # Edges at a sample plus a few bandwidths (inside, at and past the ndtr
    # window), far outside the data, and infinite.
    near = st.builds(lambda i, k: float(data[i] + k * h),
                     st.integers(0, n - 1), st.floats(-60.0, 60.0))
    far = st.floats(-1e6, 1e6)
    edges = draw(st.lists(near | far | st.sampled_from([-math.inf, math.inf]),
                          min_size=2, max_size=6))
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

    @settings(database=None, derandomize=True, deadline=None, max_examples=300)
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


def _reference_grid_cv_scores(arr, grid, folds):
    # The grid search before its exponent clamp: exp of every float32
    # exponent, subnormal results included, into a new array per grid point.
    order = np.random.default_rng(0).permutation(arr.size)
    scores = np.zeros(grid.size)
    log_norms = np.log(grid * math.sqrt(2.0 * math.pi))
    for test_idx in np.array_split(order, folds):
        mask = np.ones(arr.size, dtype=bool)
        mask[test_idx] = False
        train = arr[mask]
        test = arr[test_idx]
        fold_scores = np.zeros(grid.size)
        chunk = max(1, _CHUNK_BUDGET // max(1, train.size))
        for start in range(0, test.size, chunk):
            d_sq = (test[start : start + chunk, None] - train[None, :]) ** 2
            row_min = d_sq.min(axis=1, keepdims=True)
            d_sq -= row_min
            row_min = row_min[:, 0]
            shifted = d_sq.astype(np.float32)
            for gi, h in enumerate(grid):
                inv = -0.5 / (h * h)
                z = shifted * np.float32(inv)
                np.exp(z, out=z)
                ll = np.log(z.sum(axis=1, dtype=np.float64)) + row_min * inv
                fold_scores[gi] += float(np.sum(ll))
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
    @settings(database=None, derandomize=True, deadline=None, max_examples=10)
    @given(data=st.data())
    def test_equals_unclamped_reference(self, shape, data):
        samples, lo, hi, step, folds = data.draw(_grid_cv_cases(shape))
        grid = np.arange(lo, hi + 0.5 * step, step)
        want = _reference_grid_cv_scores(samples, grid, folds)
        assert np.array_equal(_grid_cv_scores(samples, grid, folds), want)
        assert bandwidth_grid_cv(samples, lo, hi, step, folds) == grid[np.argmax(want)]

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
