"""Command-line front end: scenario tables, propagation analysis, selftest.

Subcommands:

* ``run`` evaluates a JSON scenario config for every configured
  uncertainty scale and method, printing an aligned probability table and
  optionally writing a full-precision CSV.
* ``analyze`` samples the CPA/bearing transformations for a ring of target
  placements and dumps raw buffers plus fitted density curves as CSV.
* ``selftest`` runs the embedded deterministic invariants.

Exit codes: 0 success, 1 failed selftest, 2 config error, 3 numeric
failure, 4 output I/O failure.  ``COLREG_RISK_THREADS`` caps the worker
count for scenario evaluation (0 or unset = auto); results are assembled
in a fixed order so the output is byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .assessment import Method, RiskAssessment
from .automaton import AutomatonConfig
from .colregs import (
    ComfortZone,
    Obligation,
    Region,
    Rule,
    SituationOutcome,
    bearing_region,
    classify_sample,
    give_way_pairs,
    mutual_situation,
)
from .density import (
    BandwidthReport,
    FixedPointFailure,
    TooFewSamples,
    Topology,
    ZeroDispersion,
    bandwidth_grid_cv,
    bandwidth_isj,
    bandwidth_silverman,
    evaluate,
    fit,
)
from .estimator import assess_des, assess_kde, propagation_study
from .kinematics import VesselState, cpa, relative_bearing
from .sampling import Spread, StateUncertainty, make_uncertainty

_RULE_COLUMNS = (Rule.R0, Rule.R13, Rule.R14, Rule.R15)


class ConfigError(ValueError):
    """Invalid or unparsable scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    own_ship: VesselState
    own_diag: tuple[float, float, float, float]
    target: VesselState
    diag: tuple[float, float, float, float]
    alpha_list: tuple[float, ...]
    interpretation: Spread
    d_act_m: float
    t_aware_s: float
    t_act_s: float
    n_samples: int
    seed: int
    methods: tuple[Method, ...]


@dataclass(frozen=True)
class ResultRow:
    alpha: float
    method: Method
    p_risk: float
    p_r0: float
    p_r13: float
    p_r14: float
    p_r15: float
    p_give_way: float


def _require(mapping: dict, field: str, context: str):
    if field not in mapping:
        raise ConfigError(f"{context}: missing required field {field!r}")
    return mapping[field]


def _check_unknown(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown field(s) {sorted(unknown)}")


def _parse_state(mapping: dict, context: str) -> VesselState:
    _check_unknown(mapping, {"north_m", "east_m", "course_deg", "speed_mps"}, context)
    try:
        return VesselState(
            float(_require(mapping, "north_m", context)),
            float(_require(mapping, "east_m", context)),
            float(_require(mapping, "course_deg", context)),
            float(_require(mapping, "speed_mps", context)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_target(mapping: dict, own: VesselState, context: str) -> VesselState:
    if "bearing_deg" in mapping:
        _check_unknown(
            mapping, {"bearing_deg", "range_m", "course_deg", "speed_mps"}, context
        )
        bearing = float(_require(mapping, "bearing_deg", context))
        range_m = float(_require(mapping, "range_m", context))
        if range_m <= 0.0:
            raise ConfigError(f"{context}: range_m must be positive, got {range_m}")
        # Relative placement: bearing measured clockwise from own course.
        theta = math.radians(own.course + bearing)
        try:
            return VesselState(
                own.north + range_m * math.cos(theta),
                own.east + range_m * math.sin(theta),
                float(_require(mapping, "course_deg", context)),
                float(_require(mapping, "speed_mps", context)),
            )
        except ValueError as exc:
            raise ConfigError(f"{context}: {exc}") from exc
    return _parse_state(mapping, context)


def _parse_diag(value, context: str) -> tuple[float, float, float, float]:
    try:
        entries = tuple(float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: expected 4 numbers") from exc
    if len(entries) != 4:
        raise ConfigError(f"{context}: expected 4 entries, got {len(entries)}")
    if not all(math.isfinite(v) for v in entries):
        raise ConfigError(f"{context}: entries must be finite")
    if any(v < 0 for v in entries):
        raise ConfigError(f"{context}: entries must be >= 0")
    return entries


_CONFIG_FIELDS = {
    "own_ship", "own_diag", "target", "diag", "alpha_list", "interpretation",
    "d_act_m", "t_aware_s", "t_act_s", "n_samples", "seed", "methods",
}


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a scenario config mapping; rejects unknown fields."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_unknown(raw, _CONFIG_FIELDS, "config")

    own = _parse_state(_require(raw, "own_ship", "config"), "own_ship")
    target = _parse_target(_require(raw, "target", "config"), own, "target")
    diag = _parse_diag(_require(raw, "diag", "config"), "diag")
    own_diag = _parse_diag(raw.get("own_diag", (0.0, 0.0, 0.0, 0.0)), "own_diag")

    try:
        alpha_list = tuple(float(a) for a in _require(raw, "alpha_list", "config"))
    except (TypeError, ValueError) as exc:
        raise ConfigError("alpha_list: expected a list of numbers") from exc
    if not alpha_list:
        raise ConfigError("alpha_list: must not be empty")
    if not all(math.isfinite(a) for a in alpha_list):
        raise ConfigError("alpha_list: entries must be finite")
    if any(a < 0 for a in alpha_list):
        raise ConfigError("alpha_list: entries must be >= 0")

    interp_name = raw.get("interpretation", "stddev")
    try:
        interpretation = Spread(interp_name)
    except ValueError:
        raise ConfigError(
            f"interpretation: expected 'stddev' or 'variance', got {interp_name!r}"
        ) from None

    d_act = float(_require(raw, "d_act_m", "config"))
    if not (d_act > 0 and math.isfinite(d_act)):
        raise ConfigError(f"d_act_m: must be positive and finite, got {d_act}")
    t_aware = float(raw.get("t_aware_s", 600.0))
    t_act = float(raw.get("t_act_s", t_aware))
    if t_aware <= 0 or not 0 < t_act <= t_aware:
        raise ConfigError("t_aware_s/t_act_s: need 0 < t_act_s <= t_aware_s")

    n_samples = int(_require(raw, "n_samples", "config"))
    if n_samples < 1:
        raise ConfigError(f"n_samples: must be >= 1, got {n_samples}")
    seed = int(_require(raw, "seed", "config"))

    method_names = raw.get("methods", ["kde", "des"])
    if not method_names:
        raise ConfigError("methods: must not be empty")
    try:
        methods = tuple(Method(m) for m in method_names)
    except ValueError:
        raise ConfigError(f"methods: entries must be 'kde' or 'des', got {method_names!r}") from None

    return ScenarioConfig(
        own_ship=own,
        own_diag=own_diag,
        target=target,
        diag=diag,
        alpha_list=alpha_list,
        interpretation=interpretation,
        d_act_m=d_act,
        t_aware_s=t_aware,
        t_act_s=t_act,
        n_samples=n_samples,
        seed=seed,
        methods=methods,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    return parse_config(raw)


def bundled_config_path(name: str) -> Path:
    """Path of a bundled scenario config (``scenario1`` .. ``scenario3``)."""
    return Path(str(resources.files("colreg_risk").joinpath(f"configs/{name}.json")))


def _worker_count(n_tasks: int) -> int:
    raw = os.environ.get("COLREG_RISK_THREADS", "0")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count <= 0:
        count = os.cpu_count() or 1
    return max(1, min(count, n_tasks))


def _row_from(assessment: RiskAssessment, alpha: float) -> ResultRow:
    return ResultRow(
        alpha=alpha,
        method=assessment.method,
        p_risk=assessment.p_risk,
        p_r0=assessment.p_rule[Rule.R0],
        p_r13=assessment.p_rule[Rule.R13],
        p_r14=assessment.p_rule[Rule.R14],
        p_r15=assessment.p_rule[Rule.R15],
        p_give_way=assessment.p_give_way,
    )


def run_scenario(config: ScenarioConfig) -> list[ResultRow]:
    """Evaluate every (alpha, method) combination of a scenario config."""
    zone = ComfortZone(config.d_act_m, config.t_aware_s)
    auto_cfg = AutomatonConfig(
        d_act=config.d_act_m, t_aware=config.t_aware_s, t_act=config.t_act_s
    )

    def one_alpha(alpha: float) -> list[ResultRow]:
        own_unc = make_uncertainty(config.own_diag, alpha, config.interpretation)
        tgt_unc = make_uncertainty(config.diag, alpha, config.interpretation)
        rows = []
        for method in config.methods:
            if method is Method.KDE:
                assessment = assess_kde(
                    config.own_ship, own_unc, config.target, tgt_unc,
                    zone, config.n_samples, config.seed,
                )
            else:
                assessment = assess_des(
                    config.own_ship, own_unc, config.target, tgt_unc,
                    zone, config.n_samples, config.seed, cfg=auto_cfg,
                )
            rows.append(_row_from(assessment, alpha))
        return rows

    workers = _worker_count(len(config.alpha_list))
    if workers == 1:
        chunks = [one_alpha(alpha) for alpha in config.alpha_list]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(one_alpha, config.alpha_list))
    return [row for chunk in chunks for row in chunk]


def format_table(rows: Sequence[ResultRow]) -> str:
    header = (
        f"{'alpha':>6}  {'method':>6}  {'p_risk':>7}  {'p_R0':>6}  "
        f"{'p_R13':>6}  {'p_R14':>6}  {'p_R15':>6}  {'p_give_way':>10}"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row.alpha:>6.2f}  {row.method.value:>6}  {row.p_risk:>7.3f}  "
            f"{row.p_r0:>6.3f}  {row.p_r13:>6.3f}  {row.p_r14:>6.3f}  "
            f"{row.p_r15:>6.3f}  {row.p_give_way:>10.3f}"
        )
    return "\n".join(lines)


def write_rows_csv(rows: Sequence[ResultRow], handle: IO[str]) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(
        ["alpha", "method", "p_risk", "p_R0", "p_R13", "p_R14", "p_R15", "p_give_way"]
    )
    for row in rows:
        writer.writerow(
            [repr(row.alpha), row.method.value]
            + [repr(v) for v in (row.p_risk, row.p_r0, row.p_r13, row.p_r14, row.p_r15, row.p_give_way)]
        )


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = _replace(config, seed=int(args.seed))
        if args.samples is not None:
            if args.samples < 1:
                raise ConfigError("--samples must be >= 1")
            config = _replace(config, n_samples=int(args.samples))
        if args.method != "both":
            config = _replace(config, methods=(Method(args.method),))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        rows = run_scenario(config)
    except TooFewSamples as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ZeroDispersion, FixedPointFailure, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3

    print(format_table(rows))
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as handle:
                write_rows_csv(rows, handle)
        except OSError as exc:
            print(f"cannot write CSV: {exc}", file=sys.stderr)
            return 4
    return 0


def _replace(config: ScenarioConfig, **changes) -> ScenarioConfig:
    from dataclasses import replace

    return replace(config, **changes)


def _format_bearing(bearing: float) -> str:
    return str(int(bearing)) if float(bearing).is_integer() else str(bearing)


def _write_column_csv(path: Path, name: str, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([name])
        for v in values:
            writer.writerow([repr(float(v))])


def _write_curve_csv(path: Path, xs: np.ndarray, ys: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x", "f_hat"])
        for x, y in zip(xs, ys):
            writer.writerow([repr(float(x)), repr(float(y))])


def _density_outputs(
    values: np.ndarray, topology: Topology, selector: str, cv_cap: int = 2000
):
    """Bandwidth report plus a sampled density curve for one buffer."""
    h_silverman = bandwidth_silverman(values)
    try:
        h_isj = bandwidth_isj(values, topology)
    except (FixedPointFailure, TooFewSamples):
        # The plug-in selector is data-hungry; small studies fall back to
        # the rule of thumb so the export always succeeds.
        h_isj = h_silverman
    h_grid = None
    if selector == "grid":
        # Cross-validation cost is quadratic: cap the sample count and span
        # a bracket around the pilot bandwidth.
        capped = values[:cv_cap] if values.size > cv_cap else values
        pilot = bandwidth_silverman(capped)
        h_grid = bandwidth_grid_cv(capped, pilot / 20.0, 1.5 * pilot, pilot / 20.0)
    selected = {"isj": h_isj, "silverman": h_silverman, "grid": h_grid}[selector]
    report = BandwidthReport(h_silverman, h_isj, selected, h_grid)
    estimate = fit(values, report.selected, topology)
    if topology is Topology.CIRCLE360:
        xs = np.linspace(0.0, 360.0, 721)[:-1]
    else:
        pad = 4.0 * report.selected
        xs = np.linspace(values.min() - pad, values.max() + pad, 512)
    ys = np.asarray(evaluate(estimate, xs))
    return report, xs, ys


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        bearings = [float(b) for b in args.bearings.split(",") if b.strip() != ""]
    except ValueError:
        print(f"invalid --bearings value: {args.bearings!r}", file=sys.stderr)
        return 2
    if not bearings:
        print("no bearings given", file=sys.stderr)
        return 2
    if args.samples < 2:
        print("--samples must be >= 2", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        print(f"output directory not writable: {exc}", file=sys.stderr)
        return 4

    study = propagation_study(bearings, args.range, args.samples, args.seed)

    try:
        bandwidth_rows = []
        for bearing in bearings:
            buffers = study[bearing]
            tag = _format_bearing(bearing)
            for name, values, topology in (
                ("tcpa", buffers.tcpa[np.isfinite(buffers.tcpa)], Topology.LINE),
                ("dcpa", buffers.dcpa, Topology.LINE),
                ("bearing", buffers.bearing_jk, Topology.CIRCLE360),
            ):
                _write_column_csv(out_dir / f"{name}_{tag}.csv", name, values)
                report, xs, ys = _density_outputs(values, topology, args.bandwidth)
                _write_curve_csv(out_dir / f"kde_{name}_{tag}.csv", xs, ys)
                bandwidth_rows.append(
                    [name, tag, repr(report.h_silverman), repr(report.h_isj),
                     "" if report.h_grid is None else repr(report.h_grid),
                     repr(report.selected)]
                )
        with open(out_dir / "bandwidths.csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["quantity", "bearing", "h_silverman", "h_isj", "h_grid", "selected"])
            writer.writerows(bandwidth_rows)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 4
    except (ZeroDispersion, FixedPointFailure, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3

    print(f"wrote {3 * len(bearings)} buffer files, {3 * len(bearings)} density files, "
          f"and bandwidths.csv to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Selftest.
# ---------------------------------------------------------------------------


def _expected_situation_table() -> dict[tuple[Region, Region], SituationOutcome]:
    R, O = Rule, Obligation
    HO, SB, OT, PS = Region.HEAD_ON, Region.STARBOARD, Region.OVERTAKING, Region.PORT
    return {
        (HO, HO): SituationOutcome(R.R14, O.GIVE_WAY),
        (HO, SB): SituationOutcome(R.R15, O.STAND_ON),
        (HO, OT): SituationOutcome(R.R13, O.GIVE_WAY),
        (HO, PS): SituationOutcome(R.R15, O.GIVE_WAY),
        (SB, HO): SituationOutcome(R.R15, O.GIVE_WAY),
        (SB, SB): SituationOutcome(R.R0, O.GIVE_WAY),
        (SB, OT): SituationOutcome(R.R13, O.GIVE_WAY),
        (SB, PS): SituationOutcome(R.R15, O.GIVE_WAY),
        (OT, HO): SituationOutcome(R.R13, O.STAND_ON),
        (OT, SB): SituationOutcome(R.R13, O.STAND_ON),
        (OT, OT): SituationOutcome(R.R0, O.GIVE_WAY),
        (OT, PS): SituationOutcome(R.R13, O.STAND_ON),
        (PS, HO): SituationOutcome(R.R15, O.STAND_ON),
        (PS, SB): SituationOutcome(R.R15, O.STAND_ON),
        (PS, OT): SituationOutcome(R.R13, O.GIVE_WAY),
        (PS, PS): SituationOutcome(R.R0, O.GIVE_WAY),
    }


def _selftest_checks() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    own1 = VesselState(0.0, 0.0, 0.0, 10.0)
    tgt1 = VesselState(1250.0, 1000.0, 270.0, 10.0)
    r1 = cpa(own1, tgt1)
    checks.append(
        ("scenario1 DCPA = 176.78 m", abs(r1.dcpa - 176.78) <= 0.01, f"DCPA(scenario 1) = {r1.dcpa:.2f}")
    )
    checks.append(
        ("scenario1 TCPA = 112.5 s", abs(r1.tcpa - 112.5) <= 1e-6, f"TCPA(scenario 1) = {r1.tcpa:.2f}")
    )

    cfg2 = load_config(bundled_config_path("scenario2"))
    r2 = cpa(cfg2.own_ship, cfg2.target)
    checks.append(
        ("scenario2 DCPA = 47.98 m", abs(r2.dcpa - 47.98) <= 0.01, f"DCPA(scenario 2) = {r2.dcpa:.2f}")
    )
    beta2 = relative_bearing(cfg2.own_ship, cfg2.target)
    checks.append(
        ("scenario2 bearing = 354.5 deg", abs(beta2 - 354.5) <= 0.01, f"bearing = {beta2:.2f}")
    )

    cfg3 = load_config(bundled_config_path("scenario3"))
    beta3 = relative_bearing(cfg3.target, cfg3.own_ship)
    checks.append(
        ("scenario3 target-view bearing = 112.0 deg", abs(beta3 - 112.0) <= 0.01, f"bearing = {beta3:.2f}")
    )

    expected = _expected_situation_table()
    table_ok = all(mutual_situation(a, t) == out for (a, t), out in expected.items())
    checks.append(("situation table (16 cells)", table_ok, "exhaustive"))

    expected_gw = frozenset(pair for pair, out in expected.items() if out.obligation is Obligation.GIVE_WAY)
    checks.append(
        ("give-way set derivation", give_way_pairs() == expected_gw, f"{len(expected_gw)} pairs")
    )

    boundary_ok = (
        bearing_region(5.0, 0.0, 90.0) is Region.HEAD_ON
        and bearing_region(112.5, 0.0, 90.0) is Region.STARBOARD
        and bearing_region(247.5, 0.0, 90.0) is Region.OVERTAKING
        and bearing_region(355.0, 0.0, 90.0) is Region.PORT
    )
    checks.append(("region band boundaries", boundary_ok, "5/112.5/247.5/355"))

    zone = ComfortZone(150.0, 600.0)
    risk1, out1 = classify_sample(own1, tgt1, zone)
    risk2, out2 = classify_sample(cfg2.own_ship, cfg2.target, zone)
    checks.append(
        (
            "nominal classifications",
            (not risk1)
            and out1 == SituationOutcome(Rule.R15, Obligation.GIVE_WAY)
            and risk2
            and out2 == SituationOutcome(Rule.R15, Obligation.STAND_ON),
            "scenario 1 and 2",
        )
    )

    # The tables are insensitive to the awareness horizon: risk binds on
    # d_act only, so doubling t_aware must not move any probability.
    probe = make_uncertainty((10.0, 10.0, 2.0, 2.0), 1.0)
    a_short = assess_des(own1, StateUncertainty(0, 0, 0, 0), tgt1, probe,
                         ComfortZone(150.0, 600.0), 2000, 7)
    a_long = assess_des(own1, StateUncertainty(0, 0, 0, 0), tgt1, probe,
                        ComfortZone(150.0, 1e6), 2000, 7)
    insensitive = a_short.p_risk == a_long.p_risk and all(
        a_short.p_rule[r] == a_long.p_rule[r] for r in Rule
    )
    checks.append(("t_aware insensitivity", insensitive, "d_act-bound risk"))

    return checks


def _cmd_selftest(_args: argparse.Namespace) -> int:
    failures = 0
    for name, passed, detail in _selftest_checks():
        status = "ok" if passed else "FAIL"
        print(f"[{status}] {name} ({detail})")
        if not passed:
            failures += 1
    if failures:
        print(f"{failures} selftest check(s) failed")
        return 1
    print("all selftest checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colreg-risk",
        description="Probabilistic COLREGs encounter evaluation under tracker uncertainty",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate a scenario config")
    p_run.add_argument("--config", required=True, help="path to a scenario JSON config")
    p_run.add_argument("--csv", help="also write the result rows to this CSV path")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--samples", type=int, default=None, help="override the sample count")
    p_run.add_argument(
        "--method", choices=["kde", "des", "both"], default="both",
        help="restrict to one pipeline (default: both)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="uncertainty propagation study exports")
    p_an.add_argument(
        "--bearings", default="0,30,60,90,120,150,180",
        help="comma-separated placement bearings in degrees",
    )
    p_an.add_argument("--range", type=float, default=1000.0, help="placement range in meters")
    p_an.add_argument("--samples", type=int, default=10000, help="samples per bearing")
    p_an.add_argument("--out", default="analysis_out", help="output directory")
    p_an.add_argument(
        "--bandwidth", choices=["isj", "silverman", "grid"], default="isj",
        help="bandwidth selector for the exported density curves",
    )
    p_an.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_an.set_defaults(func=_cmd_analyze)

    p_self = sub.add_parser("selftest", help="run embedded deterministic checks")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
