"""Acceptance suite: one test per release criterion, at stated tolerances.

The scenario-table criteria check every reference cell of the three
benchmark encounters at N = 100,000 samples per uncertainty scale.  All
tests print a PASS line when green; a red criterion fails its assertion
with the offending cells listed.
"""

import math
import time

import numpy as np
import pytest

from colreg_risk import (
    Rule,
    StateUncertainty,
    VesselState,
    assess_des,
    assess_kde,
    bandwidth_grid_cv,
    bandwidth_isj,
    bandwidth_silverman,
    classify_pair,
    cpa,
    encounter_buffers,
    estimate_behavioral_relation,
    fit,
    indicator,
    integrate,
    ks_normality,
    make_uncertainty,
    propagation_study,
    run_once,
    run_trace,
)
from colreg_risk import Obligation, Topology, evaluate
from colreg_risk.automaton import STATES
from colreg_risk.cli import bundled_config_path, load_config, main
from colreg_risk.sampling import draw_pair

from scenarios import DIAG, N_FULL, PAIRS, SEED, ZONE

EXACT = StateUncertainty(0.0, 0.0, 0.0, 0.0)
ALPHAS = (0.1, 0.5, 1.0, 1.5, 2.0, 5.0)

# Reference probability tables for the three scenarios: per alpha,
# (kde, des) tuples of (p_risk, p_R0, p_R13, p_R14, p_R15, p_give_way).
REFERENCE = {
    1: {
        0.1: ((0.052, 0.000, 0.000, 0.000, 1.000, 0.052),
              (0.051, 0.000, 0.000, 0.000, 1.000, 0.051)),
        0.5: ((0.371, 0.000, 0.000, 0.000, 1.000, 0.371),
              (0.371, 0.000, 0.000, 0.000, 1.000, 0.371)),
        1.0: ((0.395, 0.000, 0.000, 0.000, 1.000, 0.395),
              (0.394, 0.000, 0.000, 0.000, 1.000, 0.394)),
        1.5: ((0.331, 0.000, 0.000, 0.000, 1.000, 0.331),
              (0.333, 0.000, 0.000, 0.000, 1.000, 0.333)),
        2.0: ((0.274, 0.000, 0.000, 0.000, 1.000, 0.273),
              (0.275, 0.000, 0.000, 0.000, 1.000, 0.275)),
        5.0: ((0.129, 0.000, 0.000, 0.000, 1.000, 0.129),
              (0.130, 0.000, 0.000, 0.000, 1.000, 0.130)),
    },
    2: {
        0.1: ((1.000, 0.000, 0.000, 0.006, 0.994, 0.006),
              (1.000, 0.000, 0.000, 0.006, 0.994, 0.006)),
        0.5: ((1.000, 0.000, 0.000, 0.337, 0.663, 0.337),
              (1.000, 0.000, 0.000, 0.336, 0.664, 0.336)),
        1.0: ((0.999, 0.002, 0.000, 0.512, 0.485, 0.516),
              (1.000, 0.000, 0.000, 0.514, 0.486, 0.514)),
        1.5: ((0.998, 0.012, 0.000, 0.557, 0.430, 0.587),
              (1.000, 0.000, 0.000, 0.566, 0.434, 0.566)),
        2.0: ((0.993, 0.023, 0.000, 0.551, 0.425, 0.610),
              (0.994, 0.003, 0.000, 0.569, 0.428, 0.570)),
        5.0: ((0.750, 0.079, 0.000, 0.360, 0.561, 0.426),
              (0.748, 0.088, 0.000, 0.385, 0.528, 0.400)),
    },
    3: {
        0.1: ((0.999, 0.000, 0.075, 0.000, 0.925, 0.075),
              (1.000, 0.000, 0.078, 0.000, 0.922, 0.078)),
        0.5: ((0.999, 0.000, 0.388, 0.000, 0.611, 0.388),
              (1.000, 0.000, 0.385, 0.000, 0.615, 0.385)),
        1.0: ((0.996, 0.000, 0.460, 0.000, 0.558, 0.440),
              (0.997, 0.000, 0.444, 0.000, 0.556, 0.442)),
        1.5: ((0.966, 0.000, 0.460, 0.000, 0.540, 0.444),
              (0.967, 0.000, 0.463, 0.000, 0.537, 0.448)),
        2.0: ((0.909, 0.000, 0.475, 0.000, 0.525, 0.432),
              (0.913, 0.000, 0.470, 0.000, 0.529, 0.429)),
        5.0: ((0.625, 0.001, 0.489, 0.000, 0.510, 0.306),
              (0.624, 0.000, 0.488, 0.000, 0.512, 0.304)),
    },
}

COLUMNS = ("p_risk", "p_R0", "p_R13", "p_R14", "p_R15", "p_give_way")


def columns_of(assessment):
    return (
        assessment.p_risk,
        assessment.p_rule[Rule.R0],
        assessment.p_rule[Rule.R13],
        assessment.p_rule[Rule.R14],
        assessment.p_rule[Rule.R15],
        assessment.p_give_way,
    )


@pytest.fixture(scope="module")
def scenario_tables():
    """All 36 full-size assessments plus per-scenario wall time."""
    results = {}
    elapsed = {}
    for sid, (own, target) in PAIRS.items():
        start = time.time()
        for alpha in ALPHAS:
            unc = make_uncertainty(DIAG, alpha)
            results[(sid, alpha, "kde")] = assess_kde(
                own, EXACT, target, unc, ZONE, N_FULL, SEED
            )
            results[(sid, alpha, "des")] = assess_des(
                own, EXACT, target, unc, ZONE, N_FULL, SEED
            )
        elapsed[sid] = time.time() - start
    return results, elapsed


def check_table(sid, tables, tolerance_for):
    results, _ = tables
    failures = []
    for alpha in ALPHAS:
        for mi, method in enumerate(("kde", "des")):
            reference = REFERENCE[sid][alpha][mi]
            got = columns_of(results[(sid, alpha, method)])
            for column, value, expected in zip(COLUMNS, got, reference):
                tol = tolerance_for(alpha, column)
                if abs(value - expected) > tol:
                    failures.append(
                        f"scenario {sid} alpha={alpha} {method} {column}: "
                        f"{value:.3f} vs {expected:.3f} (tol {tol})"
                    )
    return failures


class TestCriterion01DeterministicGeometry:
    def test_reference_cpa_distances(self):
        own1, target1 = PAIRS[1]
        assert cpa(own1, target1).dcpa == pytest.approx(176.78, abs=0.01)
        own2, target2 = PAIRS[2]
        assert cpa(own2, target2).dcpa == pytest.approx(47.98, abs=0.01)
        # The bundled configs encode the same geometry.
        cfg2 = load_config(bundled_config_path("scenario2"))
        assert cpa(cfg2.own_ship, cfg2.target).dcpa == pytest.approx(47.98, abs=0.01)
        print("ACCEPTANCE 1 deterministic geometry: PASS")


class TestCriterion02Scenario1:
    def test_table(self, scenario_tables):
        def tol(alpha, column):
            return 0.02 if column in ("p_risk", "p_R15", "p_give_way") else 0.005

        failures = check_table(1, scenario_tables, tol)
        assert not failures, "\n".join(failures)
        print("ACCEPTANCE 2 scenario-1 table: PASS")

    def test_runtime(self, scenario_tables):
        _, elapsed = scenario_tables
        assert elapsed[1] <= 60.0, f"scenario 1 took {elapsed[1]:.1f}s"
        print(f"ACCEPTANCE 2 scenario-1 runtime {elapsed[1]:.1f}s <= 60s: PASS")


class TestCriterion03Scenario2:
    def test_table(self, scenario_tables):
        def tol(alpha, column):
            return 0.04 if alpha == 5.0 else 0.025

        failures = check_table(2, scenario_tables, tol)
        assert not failures, "\n".join(failures)
        print("ACCEPTANCE 3 scenario-2 table: PASS")

    def test_checkpoints(self, scenario_tables):
        results, _ = scenario_tables
        kde_01 = results[(2, 0.1, "kde")]
        assert kde_01.p_rule[Rule.R14] == pytest.approx(0.006, abs=0.004)
        assert kde_01.p_rule[Rule.R15] == pytest.approx(0.994, abs=0.004)
        kde_10 = results[(2, 1.0, "kde")]
        assert 0.512 - 0.025 <= kde_10.p_rule[Rule.R14] <= 0.516 + 0.025
        print("ACCEPTANCE 3 scenario-2 checkpoints: PASS")


class TestCriterion04Scenario3:
    def test_table(self, scenario_tables):
        failures = check_table(3, scenario_tables, lambda alpha, column: 0.025)
        assert not failures, "\n".join(failures)
        print("ACCEPTANCE 4 scenario-3 table: PASS")


class TestCriterion05MethodAgreement:
    def test_kde_vs_des(self, scenario_tables):
        results, _ = scenario_tables
        failures = []
        for sid in PAIRS:
            for alpha in ALPHAS:
                kde = columns_of(results[(sid, alpha, "kde")])
                des = columns_of(results[(sid, alpha, "des")])
                for column, a, b in zip(COLUMNS, kde, des):
                    if abs(a - b) > 0.03:
                        failures.append(
                            f"scenario {sid} alpha={alpha} {column}: "
                            f"kde={a:.3f} des={b:.3f} gap={abs(a - b):.3f}"
                        )
        assert not failures, "\n".join(failures)
        print("ACCEPTANCE 5 method agreement: PASS")


class TestCriterion06DensityCorrectness:
    def test_normalisation_and_quadrature(self):
        unc = make_uncertainty(DIAG, 1.0)
        own, target = PAIRS[1]
        buffers = encounter_buffers(draw_pair(own, EXACT, target, unc, 20_000, SEED))

        line = fit(buffers.dcpa, bandwidth_isj(buffers.dcpa))
        assert integrate(line, -math.inf, math.inf) == pytest.approx(1.0, abs=1e-6)
        xs = np.linspace(0.0, 150.0, 10_000)
        quad = float(np.trapezoid(evaluate(line, xs), xs))
        assert integrate(line, 0.0, 150.0) == pytest.approx(quad, abs=1e-4)

        circle = fit(buffers.bearing_kj, 2.0, Topology.CIRCLE360)
        assert integrate(circle, 0.0, 360.0) == pytest.approx(1.0, abs=1e-6)
        arc = integrate(circle, 355.0, 5.0)
        assert arc + integrate(circle, 5.0, 355.0) == pytest.approx(1.0, abs=1e-9)

        tcpa = fit(buffers.tcpa, bandwidth_isj(buffers.tcpa))
        assert integrate(tcpa, -math.inf, math.inf) == pytest.approx(1.0, abs=1e-6)
        print("ACCEPTANCE 6 density correctness: PASS")


class TestCriterion07BandwidthSelectors:
    def test_gaussian_agreement(self):
        x = np.random.default_rng(SEED).standard_normal(100_000)
        h_isj, h_silv = bandwidth_isj(x), bandwidth_silverman(x)
        assert abs(h_isj - h_silv) / h_silv <= 0.25
        print(f"ACCEPTANCE 7a gaussian isj/silverman = {h_isj / h_silv:.3f}: PASS")

    def test_bimodal_ordering(self):
        rng = np.random.default_rng(SEED + 1)
        x = np.concatenate([rng.standard_normal(50_000), rng.standard_normal(50_000) + 10])
        assert bandwidth_isj(x) < bandwidth_silverman(x)
        print("ACCEPTANCE 7b bimodal ordering: PASS")

    def test_skewed_dcpa_ordering(self):
        # Head-on placement piles closest-approach distances onto zero,
        # the shape that separates the three selectors.
        study = propagation_study([0.0], 1000.0, 100_000, SEED + 2)
        samples = study[0.0].dcpa[:4000]
        h_isj = bandwidth_isj(samples)
        h_grid = bandwidth_grid_cv(samples, 0.25, 12.0, 0.25, folds=5)
        h_silv = bandwidth_silverman(samples)
        assert h_isj < h_grid < h_silv, (h_isj, h_grid, h_silv)
        print(
            f"ACCEPTANCE 7c skewed ordering isj={h_isj:.3f} < grid={h_grid:.3f} "
            f"< silverman={h_silv:.3f}: PASS"
        )


class TestCriterion08KsDiagnostic:
    def test_scenario1_dcpa_rejects_normality(self):
        unc = make_uncertainty(DIAG, 1.0)
        own, target = PAIRS[1]
        buffers = encounter_buffers(draw_pair(own, EXACT, target, unc, 10_000, SEED))
        _, p = ks_normality(buffers.dcpa)
        assert p < 1e-4
        print(f"ACCEPTANCE 8 non-normal DCPA p={p:.2e}: PASS")

    def test_calibration_on_normal_data(self):
        passes = sum(
            ks_normality(np.random.default_rng(2000 + i).standard_normal(10_000))[1] > 0.001
            for i in range(100)
        )
        assert passes >= 99
        print(f"ACCEPTANCE 8 calibration {passes}/100: PASS")


class TestCriterion09AutomatonConsistency:
    def test_agreement_partition_and_sums(self):
        rng = np.random.default_rng(SEED + 3)
        cfg = ZONE
        events = [
            (Rule.R0, Obligation.GIVE_WAY), (Rule.R13, Obligation.STAND_ON),
            (Rule.R13, Obligation.GIVE_WAY), (Rule.R14, Obligation.GIVE_WAY),
            (Rule.R15, Obligation.STAND_ON), (Rule.R15, Obligation.GIVE_WAY),
        ]
        agree = 0
        n_pairs = 10_000
        for _ in range(n_pairs):
            a = VesselState(float(rng.uniform(-3000, 3000)), float(rng.uniform(-3000, 3000)),
                            float(rng.uniform(0, 360)) % 360.0, float(rng.uniform(0.5, 20)))
            b = VesselState(float(rng.uniform(-3000, 3000)), float(rng.uniform(-3000, 3000)),
                            float(rng.uniform(0, 360)) % 360.0, float(rng.uniform(0.5, 20)))
            s = run_once(a, b, cfg)
            _, _, outcome = classify_pair(a, b)
            dcpa = cpa(a, b).dcpa
            word_ok = ("u15" in s) == (dcpa <= cfg.d_act)
            situation_ok = indicator(s, (outcome.rule, outcome.obligation)) == 1
            fired = sum(indicator(s, event) for event in events)
            if word_ok and situation_ok and fired == 1:
                agree += 1
        assert agree == n_pairs
        print(f"ACCEPTANCE 9 agreement {agree}/{n_pairs}: PASS")

    def test_behavioral_relation_row_sums(self):
        rng = np.random.default_rng(SEED + 4)
        cfg = ZONE
        runs = []
        for _ in range(500):
            a = VesselState(float(rng.uniform(-3000, 3000)), float(rng.uniform(-3000, 3000)),
                            float(rng.uniform(0, 360)) % 360.0, float(rng.uniform(0.5, 20)))
            b = VesselState(float(rng.uniform(-3000, 3000)), float(rng.uniform(-3000, 3000)),
                            float(rng.uniform(0, 360)) % 360.0, float(rng.uniform(0.5, 20)))
            runs.append(run_trace(a, b, cfg))
        relation = estimate_behavioral_relation(runs)
        for state in STATES:
            assert relation.outgoing_mass(state) == 1.0
        print("ACCEPTANCE 9 behavioral relation unit sums: PASS")


class TestCriterion10Determinism:
    def test_byte_identical_csv_across_thread_counts(self, tmp_path, monkeypatch):
        config = bundled_config_path("scenario1")
        outputs = []
        for threads in ("1", "8"):
            monkeypatch.setenv("COLREG_RISK_THREADS", threads)
            csv_path = tmp_path / f"rows_{threads}.csv"
            code = main(["run", "--config", str(config), "--samples", "5000",
                         "--csv", str(csv_path)])
            assert code == 0
            outputs.append(csv_path.read_bytes())
        assert outputs[0] == outputs[1]
        print("ACCEPTANCE 10 thread-count determinism: PASS")


class TestCriterion11PropagationReproduction:
    def test_analyze_defaults(self, tmp_path):
        out_dir = tmp_path / "analysis"
        start = time.time()
        code = main(["analyze", "--out", str(out_dir)])
        elapsed = time.time() - start
        assert code == 0

        failures = []
        if elapsed > 30.0:
            failures.append(f"runtime {elapsed:.1f}s exceeds 30s")

        # Head-on at bearing 0: TCPA ~ R / v with closing speed
        # v ~ N(mu, sigma^2), mu = 10 + 10 m/s and sigma^2 = 2^2 + 2^2 from
        # the two vessels' speed errors.  The inverse moment
        # E[1/v] = (1/mu)(1 + c + 3c^2 + ...), c = sigma^2/mu^2, puts the mean
        # ~2% above the first-order closure time R/mu = 50 s.  Position errors
        # are zero-mean and the 2-degree course terms cancel to below 0.01 s.
        range_m, speed, sigma_speed = 1000.0, 10.0, 2.0
        closing = 2.0 * speed
        c = 2.0 * sigma_speed**2 / closing**2
        oracle0 = range_m / closing * (1.0 + c + 3.0 * c**2)
        tcpa0 = np.loadtxt(out_dir / "tcpa_0.csv", skiprows=1)
        mean0 = float(np.mean(tcpa0))
        if abs(mean0 - oracle0) > 1.0:
            failures.append(
                f"bearing-0 TCPA sample mean {mean0:.3f} outside {oracle0:.2f} +/- 1 s"
            )

        tcpa180 = np.loadtxt(out_dir / "tcpa_180.csv", skiprows=1)
        negative_fraction = float(np.mean(tcpa180 < 0.0))
        if not negative_fraction > 0.5:
            failures.append(
                f"bearing-180 negative TCPA fraction {negative_fraction:.3f} not > 0.5"
            )

        # Exported densities are normalised: rebuild each estimate from the
        # emitted buffer and selected bandwidth and integrate it.
        with open(out_dir / "bandwidths.csv", "r", encoding="utf-8") as fh:
            rows = [line.strip().split(",") for line in fh][1:]
        for quantity, bearing, _hs, _hi, _hg, selected in rows:
            values = np.loadtxt(out_dir / f"{quantity}_{bearing}.csv", skiprows=1)
            topology = Topology.CIRCLE360 if quantity == "bearing" else Topology.LINE
            estimate = fit(values, float(selected), topology)
            if topology is Topology.CIRCLE360:
                mass = integrate(estimate, 0.0, 360.0)
            else:
                mass = integrate(estimate, -math.inf, math.inf)
            if abs(mass - 1.0) > 1e-6:
                failures.append(f"{quantity}_{bearing} density mass {mass}")

        assert not failures, "\n".join(failures)
        print(
            f"ACCEPTANCE 11 propagation defaults (runtime {elapsed:.1f}s, "
            f"bearing-0 mean {mean0:.2f}s, oracle {oracle0:.2f} +/- 1 s): PASS"
        )
