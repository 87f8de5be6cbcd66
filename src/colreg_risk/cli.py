"""Command-line front end: scenario tables, propagation analysis, selftest.

Subcommands:

* ``run`` evaluates a JSON scenario config for every configured
  uncertainty scale and method, printing an aligned probability table and
  optionally writing a full-precision CSV.
* ``analyze`` samples the CPA/bearing transformations for a ring of target
  placements and dumps raw buffers plus fitted density curves as CSV.
* ``selftest`` runs the embedded deterministic invariants.

Exit codes: 0 success, 1 failed selftest, 2 config error (``ConfigError``),
3 numeric failure (``ZeroDispersion``, ``FixedPointFailure``,
``FloatingPointError``, ``MemoryError``), 4 output I/O failure
(``OSError``).  The commands raise; ``main`` alone maps an
exception to its exit code and its one stderr line.
``COLREG_RISK_THREADS`` caps the worker threads of ``run`` (one task per
alpha) and of ``analyze`` (one task per exported buffer); 0 or unset means
one per CPU, and anything but a non-negative integer is a config error.
Results are assembled in input order, so the output is byte-identical for
any worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .assessment import Method, RiskAssessment
from .colregs import (
    ComfortZone,
    Obligation,
    Region,
    Rule,
    SituationOutcome,
    bearing_region,
    classify_pair,
    give_way_pairs,
    mutual_situation,
)
from .density import (
    FixedPointFailure,
    Topology,
    ZeroDispersion,
    bandwidth_grid_cv,
    bandwidth_isj,  # not called here; perfbench's tracer wraps it in this namespace
    bandwidth_silverman,
    evaluate,
    fit,
    select_bandwidth,
)
from .estimator import (
    assess,
    assess_des,
    assess_kde,  # not called here; perfbench's tracer wraps it in this namespace
    propagation_study,
)
from .kinematics import CoincidentPositions, VesselState, place_target, relative_bearing
from .sampling import StateUncertainty, TooFewSamples, make_uncertainty


class ConfigError(ValueError):
    """Invalid or unparsable scenario configuration."""


# Largest sample count numpy can make a float64 column of; a larger one is
# a config error.  A count below it that the host cannot allocate is a
# MemoryError, which ``main`` reports as a numeric failure.
_MAX_COUNT = int(np.iinfo(np.intp).max) // np.dtype(np.float64).itemsize


@dataclass(frozen=True)
class ScenarioConfig:
    """A checked scenario; ``uncertainties`` holds (alpha, own, target) per alpha_list entry."""

    own_ship: VesselState
    target: VesselState
    zone: ComfortZone
    uncertainties: tuple[tuple[float, StateUncertainty, StateUncertainty], ...]
    n_samples: int
    seed: int
    methods: tuple[Method, ...]


def _require(mapping: dict, field: str, context: str):
    if field not in mapping:
        raise ConfigError(f"{context}: missing required field {field!r}")
    return mapping[field]


def _check_object(value, context: str) -> None:
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: expected a JSON object, got {value!r:.60}")


def _check_unknown(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown field(s) {sorted(unknown)}")


def _number(value, context: str, integer: bool = False) -> float | int:
    """One numeric config entry: a float, or an int for counts and seeds.

    JSON numbers only; booleans, null, strings and fractional counts raise
    ConfigError.  Range and finiteness checks stay with the caller.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}: expected a number, got {value!r}")
    if integer and not (isinstance(value, int) or value.is_integer()):
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    try:
        return int(value) if integer else float(value)
    except OverflowError:
        raise ConfigError(f"{context}: {value!r:.60} is out of range") from None


def _numbers(mapping: dict, fields: tuple[str, ...], context: str) -> list[float]:
    return [_number(_require(mapping, f, context), f"{context}.{f}") for f in fields]


def _number_list(value, context: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{context}: expected a list of numbers")
    return tuple(_number(v, context) for v in value)


def _checked(field: str, build: Callable, *args):
    """``build(*args)``, whose ValueError becomes a ConfigError naming ``field``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _parse_state(mapping: dict, context: str) -> VesselState:
    _check_object(mapping, context)
    fields = ("north_m", "east_m", "course_deg", "speed_mps")
    _check_unknown(mapping, set(fields), context)
    return _checked(context, VesselState, *_numbers(mapping, fields, context))


def _parse_target(mapping: dict, own: VesselState, context: str) -> VesselState:
    _check_object(mapping, context)
    if "bearing_deg" in mapping:
        fields = ("bearing_deg", "range_m", "course_deg", "speed_mps")
        _check_unknown(mapping, set(fields), context)
        return _checked(context, place_target, own, *_numbers(mapping, fields, context))
    return _parse_state(mapping, context)


_CONFIG_FIELDS = {
    "own_ship", "own_diag", "target", "diag", "alpha_list", "d_act_m", "t_aware_s",
    "n_samples", "seed", "methods",
}


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a scenario config mapping; rejects unknown fields.  Range
    checks are the library's own, their ValueErrors named by JSON field."""
    _check_object(raw, "config")
    _check_unknown(raw, _CONFIG_FIELDS, "config")

    own = _parse_state(_require(raw, "own_ship", "config"), "own_ship")
    target = _parse_target(_require(raw, "target", "config"), own, "target")
    try:
        relative_bearing(own, target)
    except CoincidentPositions as exc:
        raise ConfigError(f"target: at own_ship's position ({exc})") from None

    diag = _number_list(_require(raw, "diag", "config"), "diag")
    own_diag = _number_list(raw.get("own_diag", (0.0, 0.0, 0.0, 0.0)), "own_diag")
    dispersions = {"own_diag": own_diag, "diag": diag}
    # make_uncertainty's checks once per input: entries at alpha 0 here, each
    # alpha on zero entries below; a product of the two can then only overflow.
    for field, entries in dispersions.items():
        _checked(field, make_uncertainty, entries, 0.0)
    alpha_list = _number_list(_require(raw, "alpha_list", "config"), "alpha_list")
    if not alpha_list:
        raise ConfigError("alpha_list: must not be empty")
    for alpha in alpha_list:
        _checked(f"alpha_list entry {alpha}", make_uncertainty, (0.0, 0.0, 0.0, 0.0), alpha)
    uncertainties = tuple(
        (alpha, *(_checked(f"alpha_list: {alpha} times {field} overflows", make_uncertainty,
                           entries, alpha) for field, entries in dispersions.items()))
        for alpha in alpha_list)

    d_act = _number(_require(raw, "d_act_m", "config"), "d_act_m")
    t_aware = _number(raw.get("t_aware_s", 600.0), "t_aware_s")
    zone = _checked("d_act_m, t_aware_s", ComfortZone, d_act, t_aware)

    n_samples = _number(_require(raw, "n_samples", "config"), "n_samples", integer=True)
    if not 1 <= n_samples <= _MAX_COUNT:
        raise ConfigError(f"n_samples: must be >= 1 and <= {_MAX_COUNT}, got {n_samples}")
    seed = _number(_require(raw, "seed", "config"), "seed", integer=True)
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")

    method_names = raw.get("methods", ["kde", "des"])
    if not isinstance(method_names, (list, tuple)):
        raise ConfigError(
            f"methods: expected a list such as [\"kde\", \"des\"], got {method_names!r:.60}"
        )
    if not method_names:
        raise ConfigError("methods: must not be empty")
    try:
        methods = tuple(Method(m) for m in method_names)
    except ValueError:
        raise ConfigError(f"methods: entries must be 'kde' or 'des', got {method_names!r}") from None

    return ScenarioConfig(own, target, zone, uncertainties, n_samples, seed, methods)


def load_config(path: str | Path, **overrides) -> ScenarioConfig:
    """Read and validate a JSON config; ``overrides`` replace top-level
    fields before ``parse_config`` checks them."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer over Python's digit limit
        raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
    if isinstance(raw, dict):
        raw.update(overrides)
    return parse_config(raw)


def bundled_config_path(name: str) -> Path:
    """Path of a bundled scenario config (``scenario1`` .. ``scenario3``)."""
    return Path(str(resources.files("colreg_risk").joinpath(f"configs/{name}.json")))


def _worker_count(n_tasks: int) -> int:
    raw = os.environ.get("COLREG_RISK_THREADS") or "0"
    if not raw.isdecimal():
        raise ConfigError(f"COLREG_RISK_THREADS must be a non-negative integer, got {raw!r}")
    count = int(raw) or os.cpu_count() or 1
    return max(1, min(count, n_tasks))


def _pool_map(fn: Callable, items: Sequence) -> list:
    """``fn`` of each item on ``_worker_count(len(items))`` threads, in input
    order; the first item in input order whose call raised re-raises."""
    with ThreadPoolExecutor(max_workers=_worker_count(len(items))) as pool:
        return list(pool.map(fn, items))


def run_scenario(config: ScenarioConfig) -> list[tuple[float, RiskAssessment]]:
    """(alpha, assessment) rows for every (alpha, method) combination of a
    scenario config, in config order.  Each alpha draws one batch, which
    every method reads."""

    def one_alpha(entry: tuple[float, StateUncertainty, StateUncertainty]):
        alpha, own_unc, tgt_unc = entry
        results = assess(config.own_ship, own_unc, config.target, tgt_unc, config.zone,
                         config.n_samples, config.seed, config.methods)
        return [(alpha, result) for result in results]

    return [row for chunk in _pool_map(one_alpha, config.uncertainties) for row in chunk]


# Probability columns of a result row after alpha and method, with their
# table widths; the values come from ``_probabilities``.
_RESULT_COLUMNS = (
    ("p_risk", 7), ("p_R0", 6), ("p_R13", 6), ("p_R14", 6), ("p_R15", 6), ("p_give_way", 10),
)


def _probabilities(a: RiskAssessment) -> tuple[float, ...]:
    return (a.p_risk, *(a.p_rule[rule] for rule in Rule), a.p_give_way)


def format_table(rows: Sequence[tuple[float, RiskAssessment]]) -> str:
    columns = (("alpha", 6), ("method", 6), *_RESULT_COLUMNS)
    lines = ["  ".join(f"{name:>{width}}" for name, width in columns)]
    for alpha, a in rows:
        cells = [f"{alpha:>6.2f}", f"{a.method.value:>6}"] + [
            f"{value:>{width}.3f}" for value, (_, width) in zip(_probabilities(a), _RESULT_COLUMNS)
        ]
        lines.append("  ".join(cells))
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = {"seed": args.seed, "n_samples": args.samples,
                 "methods": None if args.method == "both" else [args.method]}
    config = load_config(args.config, **{k: v for k, v in overrides.items() if v is not None})
    # assess owns the density pipeline's sample floor; it raises before drawing.
    try:
        rows = run_scenario(config)
    except TooFewSamples as exc:
        raise ConfigError(f"n_samples: {exc}") from None
    print(format_table(rows))
    if args.csv:
        _write_csv(args.csv, ["alpha", "method", *(name for name, _ in _RESULT_COLUMNS)],
                   ([repr(alpha), a.method.value, *map(repr, _probabilities(a))]
                    for alpha, a in rows))
    return 0


def _format_bearing(bearing: float) -> str:
    return str(int(bearing)) if float(bearing).is_integer() else str(bearing)


def _write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Iterable[str]]) -> None:
    """One header row, then the rows, written at once.  No cell needs CSV
    quoting: each is a name, a float's repr or the blank ``h_grid``."""
    lines = [",".join(header), *map(",".join, rows)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


# Cross-validation cost is quadratic in the sample count, so the grid
# selector sees at most this many samples per buffer, in _CV_FOLDS folds.
_CV_SAMPLE_CAP = 2000
_CV_FOLDS = 5


def _density_outputs(values: np.ndarray, topology: Topology, selector: str):
    """The h_silverman, h_isj, h_grid and selected cells of bandwidths.csv,
    h_grid blank unless the grid selector runs, plus a sampled density curve
    for one buffer."""
    h_silverman = bandwidth_silverman(values, topology)
    h_isj = select_bandwidth(values, topology)
    h_grid = None
    if selector == "grid":
        # Span a bracket around the pilot bandwidth of the capped samples.
        capped = values[:_CV_SAMPLE_CAP]
        pilot = bandwidth_silverman(capped, topology)
        h_grid = bandwidth_grid_cv(capped, pilot / 20.0, 1.5 * pilot, pilot / 20.0, _CV_FOLDS,
                                   topology)
    selected = {"isj": h_isj, "silverman": h_silverman, "grid": h_grid}[selector]
    estimate = fit(values, selected, topology)
    if topology is Topology.CIRCLE360:
        xs = np.linspace(0.0, 360.0, 721)[:-1]
    else:
        pad = 4.0 * selected
        xs = np.linspace(values.min() - pad, values.max() + pad, 512)
    ys = np.asarray(evaluate(estimate, xs))
    cells = [repr(h_silverman), repr(h_isj), "" if h_grid is None else repr(h_grid), repr(selected)]
    return cells, xs, ys


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        bearings = [float(b) for b in args.bearings.split(",") if b.strip() != ""]
    except ValueError:
        raise ConfigError(f"invalid --bearings value: {args.bearings!r}") from None
    if args.bandwidth == "grid" and args.samples < _CV_FOLDS:
        raise ConfigError(f"--bandwidth grid needs at least {_CV_FOLDS} samples, "
                          f"got --samples {args.samples}")

    # Every buffer, curve and bandwidth is computed before the directory is
    # made, so a numeric failure leaves nothing behind.  The study selects no
    # bandwidth, so its ValueError is a bad flag value, never ZeroDispersion.
    study = _checked(f"--bearings {args.bearings!r}, --range {args.range}, "
                     f"--samples {args.samples}, --seed {args.seed}",
                     propagation_study, bearings, args.range, args.samples, args.seed)
    buffers = [
        (name, _format_bearing(bearing), values, topology)
        for bearing, b in study.items()
        for name, values, topology in (
            ("tcpa", b.finite_tcpa(), Topology.LINE),
            ("dcpa", b.dcpa, Topology.LINE),
            ("bearing", b.bearing_jk, Topology.CIRCLE360),
        )
    ]
    # Only the three exported columns per bearing stay live through the pool.
    del study
    # Every export needs two samples per buffer, a rule the library checks.
    try:
        outputs = _pool_map(lambda buffer: _density_outputs(*buffer[2:], args.bandwidth),
                            buffers)
    except TooFewSamples as exc:
        raise ConfigError(f"--samples {args.samples}: {exc}") from None
    files = []  # (file name, header, columns) in write order
    bandwidth_rows = []
    for (name, tag, values, _), (cells, xs, ys) in zip(buffers, outputs):
        files.append((f"{name}_{tag}.csv", [name], [values]))
        files.append((f"kde_{name}_{tag}.csv", ["x", "f_hat"], [xs, ys]))
        bandwidth_rows.append([name, tag, *cells])

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for file_name, header, columns in files:
        float_rows = zip(*(c.tolist() for c in columns))
        _write_csv(out_dir / file_name, header, (map(repr, row) for row in float_rows))
    _write_csv(out_dir / "bandwidths.csv",
               ["quantity", "bearing", "h_silverman", "h_isj", "h_grid", "selected"],
               bandwidth_rows)

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

    cfg1 = load_config(bundled_config_path("scenario1"))
    dcpa1, tcpa1, out1 = classify_pair(cfg1.own_ship, cfg1.target)
    checks.append(
        ("scenario1 DCPA = 176.78 m", abs(dcpa1 - 176.78) <= 0.01, f"DCPA(scenario 1) = {dcpa1:.2f}")
    )
    checks.append(
        ("scenario1 TCPA = 112.5 s", abs(tcpa1 - 112.5) <= 1e-6, f"TCPA(scenario 1) = {tcpa1:.2f}")
    )

    cfg2 = load_config(bundled_config_path("scenario2"))
    dcpa2, _, out2 = classify_pair(cfg2.own_ship, cfg2.target)
    checks.append(
        ("scenario2 DCPA = 47.98 m", abs(dcpa2 - 47.98) <= 0.01, f"DCPA(scenario 2) = {dcpa2:.2f}")
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

    boundary_ok = [bearing_region(b) for b in (5.0, 112.5, 247.5, 355.0)] == list(Region)
    checks.append(("region band boundaries", boundary_ok, "5/112.5/247.5/355"))

    zone = ComfortZone(150.0, 600.0)
    checks.append(
        (
            "nominal classifications",
            (not zone.at_risk(dcpa1))
            and out1 == SituationOutcome(Rule.R15, Obligation.GIVE_WAY)
            and zone.at_risk(dcpa2)
            and out2 == SituationOutcome(Rule.R15, Obligation.STAND_ON),
            "scenario 1 and 2",
        )
    )

    # The tables are insensitive to the awareness horizon: risk binds on
    # d_act only, so doubling t_aware must not move any probability.
    probe = make_uncertainty((10.0, 10.0, 2.0, 2.0), 1.0)
    a_short = assess_des(cfg1.own_ship, StateUncertainty(0, 0, 0, 0), cfg1.target, probe,
                         ComfortZone(150.0, 600.0), 2000, 7)
    a_long = assess_des(cfg1.own_ship, StateUncertainty(0, 0, 0, 0), cfg1.target, probe,
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
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ZeroDispersion, FixedPointFailure, FloatingPointError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
