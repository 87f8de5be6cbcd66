import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colreg_risk import cli
from colreg_risk.cli import (
    ConfigError,
    bundled_config_path,
    load_config,
    main,
    parse_config,
    run_scenario,
)

from scenarios import traced_peak


@pytest.fixture
def scenario1_raw():
    with open(bundled_config_path("scenario1"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


class TestConfigParsing:
    def test_bundled_configs_load(self):
        for name in ("scenario1", "scenario2", "scenario3"):
            config = load_config(bundled_config_path(name))
            assert config.n_samples == 100_000
            assert len(config.uncertainties) == 6
            assert config.zone.d_act == 150.0

    def test_relative_placement_rotates_with_own_course(self):
        raw = {
            "own_ship": {"north_m": 0, "east_m": 0, "course_deg": 90.0, "speed_mps": 10},
            "target": {"bearing_deg": 0.0, "range_m": 1000.0, "course_deg": 180.0,
                       "speed_mps": 10},
            "diag": [10, 10, 2, 2],
            "alpha_list": [1.0],
            "d_act_m": 150.0,
            "n_samples": 1000,
            "seed": 1,
        }
        config = parse_config(raw)
        # Bearing 0 relative to an east-going ship points due east.
        assert config.target.north == pytest.approx(0.0, abs=1e-9)
        assert config.target.east == pytest.approx(1000.0)

    def test_unknown_field_rejected(self, scenario1_raw):
        scenario1_raw["typo_field"] = 1
        with pytest.raises(ConfigError, match="typo_field"):
            parse_config(scenario1_raw)

    def test_unknown_nested_field_rejected(self, scenario1_raw):
        scenario1_raw["own_ship"]["heading_deg"] = 10
        with pytest.raises(ConfigError, match="heading_deg"):
            parse_config(scenario1_raw)

    def test_empty_alpha_list_rejected(self, scenario1_raw):
        scenario1_raw["alpha_list"] = []
        with pytest.raises(ConfigError, match="alpha_list"):
            parse_config(scenario1_raw)

    def test_missing_field_rejected(self, scenario1_raw):
        del scenario1_raw["d_act_m"]
        with pytest.raises(ConfigError, match="d_act_m"):
            parse_config(scenario1_raw)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["alpha_list", "diag", "own_diag", "d_act_m"])
    def test_non_finite_rejected(self, scenario1_raw, field, bad):
        if field == "d_act_m":
            scenario1_raw[field] = bad
        elif field == "alpha_list":
            scenario1_raw[field] = [1.0, bad]
        else:
            scenario1_raw[field] = [10.0, bad, 2.0, 2.0]
        with pytest.raises(ConfigError, match=field):
            parse_config(scenario1_raw)

    def test_non_numeric_alpha_rejected(self, scenario1_raw):
        scenario1_raw["alpha_list"] = [1.0, "two"]
        with pytest.raises(ConfigError, match="alpha_list"):
            parse_config(scenario1_raw)

    @pytest.mark.parametrize("field, value", [
        ("d_act_m", "x"), ("d_act_m", None), ("d_act_m", True),
        ("t_aware_s", "x"), ("t_aware_s", None),
        ("n_samples", "x"), ("n_samples", None), ("n_samples", 1.5), ("n_samples", True),
        ("seed", "x"), ("seed", None), ("seed", 1.7), ("seed", False), ("seed", -1),
        ("bearing_deg", "x"), ("bearing_deg", None), ("range_m", "x"), ("range_m", None),
    ])
    def test_bad_scalar_field_exits_2(self, tmp_path, scenario1_raw, capsys, field, value):
        if field in ("bearing_deg", "range_m"):
            scenario1_raw["target"] = {"bearing_deg": 30.0, "range_m": 1000.0,
                                       "course_deg": 270.0, "speed_mps": 10.0}
            scenario1_raw["target"][field] = value
        else:
            scenario1_raw[field] = value
        with pytest.raises(ConfigError, match=field):
            parse_config(scenario1_raw)
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("own_ship", 5), ("own_ship", None), ("own_ship", [0, 0, 0, 10]),
        ("target", 5), ("target", None), ("target", "bearing_deg"),
        ("methods", 5), ("methods", None), ("methods", {"kde": 1}), ("methods", "kde"),
    ])
    def test_section_of_wrong_type_exits_2(self, tmp_path, scenario1_raw, capsys, field, value):
        scenario1_raw[field] = value
        expected = "expected a list" if field == "methods" else "expected a JSON object"
        with pytest.raises(ConfigError, match=f"{field}: {expected}"):
            parse_config(scenario1_raw)
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("d_act_m", 10**400, f"d_act_m: {'1' + '0' * 59} is out of range"),
        ("diag", 5, "diag: expected a list of numbers"),
        ("methods", [], "methods: must not be empty"),
        ("methods", ["kde", "x"], "methods: entries must be 'kde' or 'des', got ['kde', 'x']"),
    ], ids=["integer-too-large-for-a-float", "diag-not-a-list", "methods-empty",
            "methods-unknown-entry"])
    def test_rejection_message(self, tmp_path, scenario1_raw, capsys, field, value, message):
        # The out-of-range message shows the literal's first 60 characters,
        # not all 401.
        scenario1_raw[field] = value
        with pytest.raises(ConfigError) as caught:
            parse_config(scenario1_raw)
        assert str(caught.value) == message
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]

    @pytest.mark.parametrize("content, reason", [
        (b"{nope", "Expecting property name enclosed in double quotes"),
        (b'{"seed": ' + b"1" * 5001 + b"}", "Exceeds the limit (4300 digits)"),
        (b'{"interpretation": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ], ids=["not-json", "5001-digit-integer", "not-utf-8"])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, content, reason):
        # The digit limit and the UTF-8 decoder raise ValueErrors that are
        # not JSONDecodeError; both used to end the run in a traceback.
        path = tmp_path / "config.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="is not valid UTF-8 JSON"):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: config {path} is not valid UTF-8 JSON: ")
        assert reason in err[0]

    def test_integral_float_count_accepted(self, scenario1_raw):
        scenario1_raw["n_samples"] = 2000.0
        config = parse_config(scenario1_raw)
        assert config.n_samples == 2000 and isinstance(config.n_samples, int)

    def test_large_seed_kept_exact(self, scenario1_raw):
        scenario1_raw["seed"] = 2**62 + 1
        assert parse_config(scenario1_raw).seed == 2**62 + 1

    def test_infinite_awareness_horizon_accepted(self, tmp_path, scenario1_raw):
        scenario1_raw["t_aware_s"] = float("inf")
        assert parse_config(scenario1_raw).zone.t_aware == float("inf")
        path = write_config(tmp_path, scenario1_raw)
        assert "Infinity" in path.read_text(encoding="utf-8")
        assert load_config(path).zone.t_aware == float("inf")

    @pytest.mark.parametrize("field, value", [
        ("diag", [10.0, -1.0, 2.0, 2.0]), ("diag", [10.0, float("nan"), 2.0, 2.0]),
        ("diag", [10.0, 10.0, 2.0]), ("own_diag", [0.0, -1.0, 0.0, 0.0]),
        ("own_diag", [0.0, float("nan"), 0.0, 0.0]), ("own_diag", [0.0] * 5),
        ("alpha_list", [1.0, -1.0]), ("alpha_list", [1.0, float("inf")]),
        ("d_act_m", 0), ("d_act_m", -1), ("d_act_m", float("inf")),
        ("t_aware_s", 0), ("t_aware_s", -1),
    ])
    def test_library_check_names_the_field(self, tmp_path, scenario1_raw, capsys, field,
                                           value):
        # make_uncertainty and ComfortZone make these checks; the config
        # error still names the JSON field at fault, and only a product of
        # valid entries and alpha is called an overflow.
        scenario1_raw[field] = value
        with pytest.raises(ConfigError) as caught:
            parse_config(scenario1_raw)
        named = str(caught.value).split(":")[0].replace(",", " ").split()
        assert field in named and "overflows" not in str(caught.value)
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err

    @pytest.mark.parametrize("target", [
        {"north_m": 0, "east_m": 0, "course_deg": 270.0, "speed_mps": 10},
        {"bearing_deg": 30.0, "range_m": 1e-300, "course_deg": 270.0, "speed_mps": 10},
    ])
    def test_target_at_own_position_exits_2(self, tmp_path, scenario1_raw, capsys, target):
        # The bearing to a coincident target is undefined; atan2(0, 0) = 0
        # would read it as dead ahead and print p_R14 1.000.
        scenario1_raw.update(target=target, alpha_list=[0.0], n_samples=2000)
        with pytest.raises(ConfigError, match="target: .*coincident"):
            parse_config(scenario1_raw)
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: target:")

    def test_infinite_speed_exits_2(self, tmp_path, scenario1_raw, capsys):
        # json reads Infinity; cpa used to turn it into (nan, nan), which
        # failed later as a numeric error (exit 3).
        scenario1_raw["target"]["speed_mps"] = math.inf
        path = write_config(tmp_path, scenario1_raw)
        assert '"speed_mps": Infinity' in path.read_text(encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: target:") and "finite" in err

    @pytest.mark.parametrize("count", [2**60, 2**63 - 1, 2**63, 10**30])
    def test_unindexable_sample_count_exits_2(self, tmp_path, scenario1_raw, capsys, count):
        # From 2**60 numpy refuses a float64 column of this length, and from
        # 2**63 any shape, both without allocating.
        scenario1_raw["n_samples"] = count
        with pytest.raises(ConfigError, match="n_samples"):
            parse_config(scenario1_raw)
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path)]) == 2
        scenario1_raw["n_samples"] = 1000
        path = write_config(tmp_path, scenario1_raw, "valid.json")
        assert main(["run", "--config", str(path), f"--samples={count}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("config error: n_samples") for line in err)

    def test_t_act_s_is_an_unknown_field(self, tmp_path, scenario1_raw, capsys):
        scenario1_raw["t_act_s"] = 300.0
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path)]) == 2
        assert "t_act_s" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["stddev", "sigma"])
    def test_interpretation_is_an_unknown_field(self, tmp_path, scenario1_raw, capsys, value):
        # diag entries are standard deviations; no field reads them otherwise.
        scenario1_raw["interpretation"] = value
        with pytest.raises(ConfigError, match=r"unknown field\(s\) \['interpretation'\]"):
            parse_config(scenario1_raw)
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path)]) == 2
        assert "unknown field(s) ['interpretation']" in capsys.readouterr().err

    def test_readme_config_example_parses(self):
        # The README's one JSON block documents every config field.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        blocks = re.findall(r"^```json\n(.*?)^```$", readme, re.M | re.S)
        assert len(blocks) == 1
        raw = json.loads(blocks[0])
        assert set(raw) == cli._CONFIG_FIELDS
        parse_config(raw)


class TestRunCommand:
    def test_run_small_sample(self, tmp_path, scenario1_raw, capsys):
        scenario1_raw["alpha_list"] = [0.5, 1.0]
        scenario1_raw["n_samples"] = 2000
        path = write_config(tmp_path, scenario1_raw)
        csv_path = tmp_path / "rows.csv"
        code = main(["run", "--config", str(path), "--csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "p_give_way" in out
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "alpha,method,p_risk,p_R0,p_R13,p_R14,p_R15,p_give_way"
        assert len(lines) == 1 + 2 * 2

    def test_run_rows_have_probabilities(self, scenario1_raw):
        scenario1_raw["alpha_list"] = [1.0]
        scenario1_raw["n_samples"] = 2000
        rows = run_scenario(parse_config(scenario1_raw))
        assert len(rows) == 2
        for alpha, a in rows:
            assert alpha == 1.0
            for value in (a.p_risk, *a.p_rule.values(), a.p_give_way):
                assert 0.0 <= value <= 1.0

    def test_byte_identical_across_thread_counts(self, tmp_path, scenario1_raw, monkeypatch):
        scenario1_raw["alpha_list"] = [0.5, 1.0, 2.0]
        scenario1_raw["n_samples"] = 2000
        path = write_config(tmp_path, scenario1_raw)
        outputs = []
        for threads in ("1", "8"):
            monkeypatch.setenv("COLREG_RISK_THREADS", threads)
            csv_path = tmp_path / f"rows_{threads}.csv"
            assert main(["run", "--config", str(path), "--csv", str(csv_path)]) == 0
            outputs.append(csv_path.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("methods", [["kde", "des"], ["kde"], ["des"]])
    def test_one_draw_per_alpha(self, scenario1_raw, draws, methods):
        scenario1_raw.update(alpha_list=[0.5, 1.0, 2.0], n_samples=1000, methods=methods)
        config = parse_config(scenario1_raw)
        rows = run_scenario(config)
        # One draw per alpha, each with that alpha's (own, target) uncertainties.
        assert Counter((args[1], args[3]) for args in draws) == Counter(
            (own, target) for _, own, target in config.uncertainties)
        assert [(alpha, a.method.value) for alpha, a in rows] == [
            (alpha, m) for alpha in (0.5, 1.0, 2.0) for m in methods]

    @pytest.mark.parametrize("methods", [["kde", "des"], ["des", "kde"]])
    def test_kde_sample_floor_draws_nothing(self, tmp_path, scenario1_raw, capsys, draws,
                                            methods):
        scenario1_raw["methods"] = methods
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path), "--samples", "999"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: n_samples: density pipeline needs n >= 1000")
        assert draws == []

    def test_method_restriction(self, tmp_path, scenario1_raw, capsys):
        scenario1_raw["alpha_list"] = [1.0]
        scenario1_raw["n_samples"] = 2000
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path), "--method", "des"]) == 0
        out = capsys.readouterr().out
        assert "des" in out and "kde" not in out

    def test_config_error_exit_code(self, tmp_path, scenario1_raw, capsys):
        scenario1_raw["alpha_list"] = []
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path)]) == 2
        assert "alpha_list" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("alpha_list", [float("nan")]),
                                              ("d_act_m", float("nan"))])
    def test_nan_in_config_file_exit_code(self, tmp_path, scenario1_raw, capsys, field, value):
        # json writes and reads NaN, so such a file reaches parse_config.
        scenario1_raw[field] = value
        path = write_config(tmp_path, scenario1_raw)
        assert "NaN" in path.read_text(encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2

    def test_seed_and_samples_override(self, tmp_path, scenario1_raw, capsys):
        # The flags replace the config fields: same bytes as the edited file.
        scenario1_raw["alpha_list"] = [0.5, 1.0]
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path), "--samples", "1500", "--seed", "5",
                     "--method", "des", "--csv", str(tmp_path / "flags.csv")]) == 0
        scenario1_raw.update(seed=5, n_samples=1500, methods=["des"])
        edited = write_config(tmp_path, scenario1_raw, "edited.json")
        assert main(["run", "--config", str(edited), "--csv", str(tmp_path / "edited.csv")]) == 0
        flags = (tmp_path / "flags.csv").read_bytes()
        assert flags == (tmp_path / "edited.csv").read_bytes()
        assert flags.count(b",des,") == 2 and b"kde" not in flags

    @pytest.mark.parametrize("flag, value, field", [("--seed", "-1", "seed"),
                                                    ("--samples", "0", "n_samples")])
    def test_bad_override_exits_2(self, tmp_path, scenario1_raw, capsys, flag, value, field):
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path), f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err

    def test_few_finite_tcpa_samples_run(self, tmp_path, capsys):
        # Matched mean velocities: about 30 of 2000 TCPA samples are finite,
        # too few for the plug-in selector, so KDE falls back to Silverman.
        raw = {
            "own_ship": {"north_m": 0, "east_m": 0, "course_deg": 0, "speed_mps": 10},
            "target": {"north_m": 500, "east_m": 500, "course_deg": 0, "speed_mps": 10},
            "diag": [10, 10, 0, 1.3e-5], "alpha_list": [1.0], "d_act_m": 150,
            "n_samples": 2000, "seed": 1,
        }
        path = write_config(tmp_path, raw)
        with pytest.warns(RuntimeWarning, match="Silverman"):
            assert main(["run", "--config", str(path)]) == 0
        assert "kde" in capsys.readouterr().out


    def test_overflowing_uncertainty_exits_3(self, tmp_path, scenario1_raw, capsys):
        # alpha = 1e300 overflows the CPA geometry: a numeric failure, not a
        # traceback from the density fit.
        scenario1_raw["alpha_list"] = [1e300]
        path = write_config(tmp_path, scenario1_raw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy overflow
            assert main(["run", "--config", str(path), "--samples", "2000"]) == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("speed", [1e160, 1e300])
    def test_overflowing_relative_speed_exits_3(self, tmp_path, speed, capsys):
        # |dv|^2 overflows: TCPA used to collapse to 0 and DCPA to the current
        # separation, so both methods printed p_risk 0.000 and exit 0.
        raw = _raw("scenario2")
        raw["target"]["speed_mps"] = speed
        path = write_config(tmp_path, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy overflow
            assert main(["run", "--config", str(path), "--samples", "2000"]) == 3
        assert "numeric failure" in capsys.readouterr().err

    # The first two ids are the ones pytest made from these cases' values.
    @pytest.mark.parametrize("name, edits", [
        pytest.param("scenario2", {("target", "speed_mps"): 1e160},  # |dv|^2 overflows
                     id="scenario2-target-speed_mps-1e+160"),
        pytest.param("scenario1", {(None, "alpha_list"): [1e300]},  # dp . dv overflows in TCPA
                     id="scenario1-None-alpha_list-value1"),
        # The position offsets overflow in the bearings and the CPA.
        pytest.param("scenario1", {("own_ship", "north_m"): 1e308, ("target", "north_m"): -1e308,
                                   ("target", "east_m"): 0.0, ("target", "course_deg"): 180.0,
                                   (None, "methods"): ["des"]},
                     id="scenario1-positions-2e308-apart"),
    ])
    def test_overflow_prints_only_the_failure_line(self, tmp_path, capfd, name, edits):
        # A subprocess, so numpy's overflow warnings would reach stderr as
        # they do for a user, not pytest's warning capture.
        raw = _raw(name)
        for (section, field), value in edits.items():
            (raw if section is None else raw[section])[field] = value
        path = write_config(tmp_path, raw)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        env.pop("PYTHONWARNINGS", None)
        result = subprocess.run([sys.executable, "-m", "colreg_risk.cli", "run", "--config",
                                 str(path), "--samples", "2000"], env=env, check=False)
        assert result.returncode == 3
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure:")

    def test_unallocatable_sample_count_exits_3(self, tmp_path, scenario1_raw, capsys):
        # 2**60 - 1 float64 samples are 8 EiB, which malloc refuses at once.
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path), f"--samples={2**60 - 1}",
                     "--method", "des"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure:")

    def test_exact_bearing_on_band_edge_counted_once(self, tmp_path, capsys):
        # Own course 5 deg with the target due north: the bearing is exactly
        # 355 deg, the port band's upper edge.  Without tracker error KDE
        # must print the DES answer, not count the edge in two regions.
        raw = {
            "own_ship": {"north_m": 0, "east_m": 0, "course_deg": 5, "speed_mps": 10},
            "target": {"north_m": 1000, "east_m": 0, "course_deg": 100, "speed_mps": 10},
            "diag": [10, 10, 2, 2], "alpha_list": [0.0], "d_act_m": 150,
            "n_samples": 2000, "seed": 1,
        }
        path = write_config(tmp_path, raw)
        assert main(["run", "--config", str(path)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        columns = header.split()
        printed = {row.split()[1]: row.split() for row in rows}
        assert printed["kde"][columns.index("p_R15")] == "1.000"
        assert printed["kde"] == printed["des"][:1] + ["kde"] + printed["des"][2:]

    def test_overflowing_scaled_diag_is_config_error(self, tmp_path, scenario1_raw, capsys):
        # Finite alpha and diag entries whose product is not a finite sigma.
        scenario1_raw["alpha_list"] = [1.0, 1e300]
        scenario1_raw["own_diag"] = [1e10, 0.0, 0.0, 0.0]
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path)]) == 2
        assert "alpha_list: 1e+300 times own_diag overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("field, minus, plus", [
        ("alpha_list", [-0.0], [0.0]),
        ("own_diag", [0.0, -0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]),
        ("diag", [10.0, 10.0, -0.0, 2.0], [10.0, 10.0, 0.0, 2.0]),
    ])
    def test_minus_zero_dispersion_runs_as_plus_zero(self, tmp_path, scenario1_raw, field,
                                                     minus, plus):
        # numpy rejects a -0.0 scale; a -0.0 sigma used to crash a worker.
        scenario1_raw.update(alpha_list=[1.0], n_samples=2000)
        probabilities = []
        for values in (minus, plus):
            scenario1_raw[field] = values
            csv_path = tmp_path / "rows.csv"
            assert main(["run", "--config", str(write_config(tmp_path, scenario1_raw)),
                         "--csv", str(csv_path)]) == 0
            rows = csv_path.read_text(encoding="utf-8").splitlines()
            probabilities.append([row.split(",")[1:] for row in rows])
        assert probabilities[0] == probabilities[1]


def _raw(name):
    with open(bundled_config_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


MAX_FLOAT = sys.float_info.max
magnitudes = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-9, 10.0, 1e10, 1e154, 1e160, 1e300, MAX_FLOAT]),
    st.floats(0.0, MAX_FLOAT),
)
signed = st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]), magnitudes)


def _fail_on_warnings_but_fallback():
    """Inside ``catch_warnings``: any RuntimeWarning, numpy's overflow ones
    included, raises, except the library's Silverman fallback notice."""
    warnings.simplefilter("error", RuntimeWarning)
    warnings.filterwarnings("ignore", "plug-in bandwidth unavailable", RuntimeWarning)


class TestRunFuzz:
    """``run`` on scenario-2 configs with extreme values ends in a documented
    exit code with one stderr line, never a traceback, and exit 0 means
    every printed probability is finite and in [0, 1]."""

    # Each field keeps its scenario-2 value (None) or takes an extreme one.
    FIELDS = {
        ("own_ship", "north_m"): signed, ("own_ship", "east_m"): signed,
        ("own_ship", "speed_mps"): magnitudes, ("target", "range_m"): magnitudes,
        ("target", "speed_mps"): magnitudes,
    }

    @settings(max_examples=80)
    @given(values=st.tuples(*(st.none() | field for field in FIELDS.values())),
           diag=st.none() | st.lists(magnitudes, min_size=4, max_size=4),
           alpha=st.sampled_from([0.0, 1.0, 5.0]) | magnitudes)
    def test_extreme_configs_exit_cleanly(self, tmp_path_factory, values, diag, alpha):
        raw = _raw("scenario2")
        for (section, field), value in zip(self.FIELDS, values):
            if value is not None:
                raw[section][field] = value
        if diag is not None:
            raw["diag"] = diag
        raw.update(alpha_list=[alpha], n_samples=1000)
        out = tmp_path_factory.mktemp("fuzz")
        path = write_config(out, raw)
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            _fail_on_warnings_but_fallback()
            code = main(["run", "--config", str(path), "--csv", str(out / "rows.csv")])
        assert code in (0, 2, 3, 4)
        if code == 0:
            with open(out / "rows.csv", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
            assert [row["method"] for row in rows] == ["kde", "des"]
            for row in rows:
                for column in ("p_risk", "p_R0", "p_R13", "p_R14", "p_R15", "p_give_way"):
                    assert 0.0 <= float(row[column]) <= 1.0, (column, row)

    # Signed zeros, subnormals, huge, negative and non-finite values, each
    # put in place of one scenario-2 entry: (section or None, field, index).
    edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e154, 1e300, MAX_FLOAT,
                            -1.0, -MAX_FLOAT, math.nan, math.inf, -math.inf])
    ENTRIES = [(None, "alpha_list", 0), (None, "d_act_m", None),
               ("target", "range_m", None), ("target", "bearing_deg", None),
               *((None, field, i) for field in ("diag", "own_diag") for i in range(4))]

    @settings(max_examples=100)
    @given(edits=st.lists(st.tuples(st.sampled_from(ENTRIES), edge), min_size=1, max_size=3),
           method=st.sampled_from([("des", 64), ("des", 64), ("des", 64), ("kde", 1000)]))
    def test_edge_values_exit_cleanly(self, tmp_path_factory, edits, method):
        raw = _raw("scenario2")
        raw.update(alpha_list=[1.0], own_diag=[0.0] * 4, methods=[method[0]],
                   n_samples=method[1])
        for (section, field, index), value in edits:
            mapping = raw if section is None else raw[section]
            if index is None:
                mapping[field] = value
            else:
                mapping[field][index] = value
        path = write_config(tmp_path_factory.mktemp("fuzz"), raw)
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            _fail_on_warnings_but_fallback()
            code = main(["run", "--config", str(path)])
        assert code in (0, 2, 3)
        err = stderr.getvalue().splitlines()
        if code:
            assert len(err) == 1
            assert err[0].startswith(("config error:", "numeric failure:")), err
            assert "math domain error" not in err[0]

    @pytest.mark.parametrize("bearing", [math.nan, math.inf, -math.inf])
    def test_nonfinite_bearing_is_named(self, tmp_path, capsys, bearing):
        # An infinite bearing used to exit 2 with "target: math domain error".
        raw = _raw("scenario2")
        raw["target"]["bearing_deg"] = bearing
        assert main(["run", "--config", str(write_config(tmp_path, raw))]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: target: bearing must be finite, got {bearing}"]


def _bandwidth_rows(out_dir):
    with open(out_dir / "bandwidths.csv", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


class TestAnalyzeCommand:
    def test_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "study"
        code = main([
            "analyze", "--bearings", "0,90", "--samples", "400",
            "--out", str(out_dir), "--seed", "3",
        ])
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        expected = {"bandwidths.csv"}
        for tag in ("0", "90"):
            for q in ("tcpa", "dcpa", "bearing"):
                expected.add(f"{q}_{tag}.csv")
                expected.add(f"kde_{q}_{tag}.csv")
        assert set(names) == expected

        # Buffer files carry one finite value per line.
        tcpa_lines = (out_dir / "tcpa_0.csv").read_text().splitlines()
        assert tcpa_lines[0] == "tcpa"
        values = np.array([float(v) for v in tcpa_lines[1:]])
        assert values.size == 400 and np.all(np.isfinite(values))

        # Exported curves are normalised (trapezoid over the padded range).
        curve = np.loadtxt(out_dir / "kde_dcpa_0.csv", delimiter=",", skiprows=1)
        mass = float(np.trapezoid(curve[:, 1], curve[:, 0]))
        assert mass == pytest.approx(1.0, abs=5e-3)

    def test_bearing_just_above_180_writes_every_file(self, tmp_path):
        # Its mirrored course rounds to 360.0 unless wrapped.
        bearing = repr(math.nextafter(180.0, 360.0))
        out_dir = tmp_path / "study"
        assert main(["analyze", "--bearings", bearing, "--samples", "100",
                     "--out", str(out_dir)]) == 0
        expected = {"bandwidths.csv"} | {
            f"{prefix}{q}_{bearing}.csv" for prefix in ("", "kde_") for q in ("tcpa", "dcpa", "bearing")
        }
        assert {p.name for p in out_dir.iterdir()} == expected

    def test_deterministic_outputs(self, tmp_path):
        dirs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            assert main(["analyze", "--bearings", "30", "--samples", "300",
                         "--out", str(out_dir), "--seed", "11"]) == 0
            dirs.append(out_dir)
        for name in sorted(p.name for p in dirs[0].iterdir()):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory", encoding="utf-8")
        assert main(["analyze", "--samples", "300", "--out", str(blocker)]) == 4

    def test_bad_bearings(self, capsys, tmp_path):
        assert main(["analyze", "--bearings", "abc", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("arg", ["--bearings=400", "--bearings=-10", "--bearings=nan",
                                     "--bearings=0,360", "--bearings=inf", "--range=nan",
                                     "--range=inf", "--range=0", "--range=-5", "--seed=-1",
                                     "--bearings=0,0", "--bearings=0,-0", "--bearings="])
    def test_bad_placement_exits_2(self, capsys, tmp_path, arg):
        out_dir = tmp_path / "x"
        assert main(["analyze", arg, "--samples", "300", "--out", str(out_dir)]) == 2
        assert arg.split("=")[0] in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("samples", ["0", "1", "-3"])
    def test_too_few_samples_exit_2(self, capsys, tmp_path, samples):
        # draw needs one sample; Silverman's rule, which every export runs,
        # needs two.
        out_dir = tmp_path / "x"
        assert main(["analyze", "--bearings", "0", f"--samples={samples}",
                     "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert f"--samples {samples}" in err[0]
        assert not out_dir.exists()

    def test_working_set_on_two_threads(self, tmp_path, monkeypatch, capsys):
        # The propagation-study run: default bearings and samples, grid
        # bandwidths, two workers.  Measured 4.26 MB (numpy 2.4.6, scipy
        # 1.17.1): the 21 exported columns (1.68 MB) and two workers' grid
        # search or plug-in scratch.  Holding the whole study through the
        # pool, with fresh grid blocks per fold and the plug-in's binning
        # arrays kept through its root solve, it reached 8.86 MB.  The bound
        # leaves about one worker's grid search of margin.
        monkeypatch.setenv("COLREG_RISK_THREADS", "2")
        out_dir = tmp_path / "study"
        code, peak = traced_peak(main, ["analyze", "--bandwidth", "grid", "--out", str(out_dir)])
        assert code == 0 and len(list(out_dir.iterdir())) == 43
        assert peak <= 5.5e6, f"{peak / 1e6:.2f} MB"

    def test_tiny_sample_count_still_normalised(self, tmp_path):
        # The plug-in selector cannot run on ten samples; the export falls
        # back to the rule of thumb and the curves stay normalised.
        out_dir = tmp_path / "tiny"
        with pytest.warns(RuntimeWarning, match="Silverman"):
            assert main(["analyze", "--bearings", "0", "--samples", "10",
                         "--out", str(out_dir), "--seed", "2"]) == 0
        curve = np.loadtxt(out_dir / "kde_tcpa_0.csv", delimiter=",", skiprows=1)
        mass = float(np.trapezoid(curve[:, 1], curve[:, 0]))
        assert mass == pytest.approx(1.0, abs=5e-3)

    def test_tiny_sample_count_falls_back_with_warning(self, tmp_path):
        # Ten samples are too few for the plug-in selector: the export takes
        # Silverman's rule and says so, by the same rule as ``run``.
        out_dir = tmp_path / "tiny"
        with pytest.warns(RuntimeWarning, match="Silverman"):
            assert main(["analyze", "--bearings", "0,45", "--samples", "10",
                         "--out", str(out_dir), "--seed", "2"]) == 0
        rows = _bandwidth_rows(out_dir)
        assert len(rows) == 6
        for row in rows:
            assert float(row["h_isj"]) == float(row["h_silverman"]) > 0.0
            assert row["selected"] == row["h_isj"]

    @pytest.mark.parametrize("selector", ["isj", "silverman", "grid"])
    def test_bandwidths_csv_records_the_selection(self, tmp_path, selector):
        out_dir = tmp_path / selector
        assert main(["analyze", "--bearings", "0,90", "--samples", "400",
                     "--out", str(out_dir), "--seed", "5", "--bandwidth", selector]) == 0
        rows = _bandwidth_rows(out_dir)
        assert [(r["quantity"], r["bearing"]) for r in rows] == [
            (q, b) for b in ("0", "90") for q in ("tcpa", "dcpa", "bearing")
        ]
        column = {"isj": "h_isj", "silverman": "h_silverman", "grid": "h_grid"}[selector]
        for row in rows:
            assert float(row["h_silverman"]) > 0.0 and float(row["h_isj"]) > 0.0
            # The grid search runs only when it is the selector.
            if selector == "grid":
                assert float(row["h_grid"]) > 0.0
            else:
                assert row["h_grid"] == ""
            assert row["selected"] == row[column]
        curves = sorted(out_dir.glob("kde_*.csv"))
        assert len(curves) == 6
        for path in curves:
            assert path.read_text(encoding="utf-8").split("\n", 1)[0] == "x,f_hat"

    def test_grid_bandwidths_keep_their_bits(self, tmp_path):
        # The picks of the grid search before its exponent clamp, in file
        # order: tcpa, dcpa, bearing at 0, then at 90.  The bearing picks
        # are those of the samples recentred on their circular mean; read
        # on the line, the cluster at 0/360 gave 1.7539833386235142.
        out_dir = tmp_path / "grid"
        assert main(["analyze", "--bandwidth", "grid", "--samples", "2000",
                     "--bearings", "0,90", "--seed", "1", "--out", str(out_dir)]) == 0
        assert [float(row["h_grid"]) for row in _bandwidth_rows(out_dir)] == [
            2.0442042816430934, 0.8485645333593582, 0.612059583814744,
            3.0412583052487796, 30.515330977056596, 0.6183184104981481,
        ]

    def test_overflowing_range_exits_3(self, tmp_path, capsys):
        # A finite but huge range overflows the CPA geometry of the study,
        # which fails before the output directory is made.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy overflow
            assert main(["analyze", "--bearings", "0", "--range", "1e308",
                         "--samples", "300", "--out", str(tmp_path / "x")]) == 3
        assert "numeric failure" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_overflowing_grid_distances_exit_3(self, tmp_path, capsys):
        # Samples about 1e155 apart overflow the grid search's squared
        # distances; it used to return its first candidate with exit 0.
        out_dir = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # Silverman fallback
            assert main(["analyze", "--bearings", "0", "--range", "1.8e157", "--samples", "5",
                         "--bandwidth", "grid", "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure:")
        assert not out_dir.exists()

    def test_kde_sample_floor_reported_as_config_error(self, tmp_path, scenario1_raw, capsys):
        scenario1_raw["alpha_list"] = [1.0]
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path), "--samples", "500",
                     "--method", "kde"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: n_samples:") and "1000" in err

    @pytest.mark.parametrize("samples", ["3", "4"])
    def test_grid_sample_floor_is_config_error(self, tmp_path, capsys, samples):
        # Five cross-validation folds need five samples; the flag checks
        # reject fewer before the output directory is made.
        out_dir = tmp_path / "x"
        assert main(["analyze", "--bearings", "0", "--samples", samples, "--bandwidth", "grid",
                     "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "5 samples" in err
        assert "--samples" in err and "--bandwidth grid" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("count", [2**60, 2**63 - 1, 2**63, 10**30])
    def test_unindexable_sample_count_exits_2(self, tmp_path, capsys, count):
        # From 2**60 numpy refuses a float64 column of this length, and from
        # 2**63 any shape, both without allocating.
        out_dir = tmp_path / "x"
        assert main(["analyze", "--bearings", "0", f"--samples={count}",
                     "--out", str(out_dir)]) == 2
        assert "--samples" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unallocatable_sample_count_exits_3(self, tmp_path, capsys):
        # 2**60 - 1 float64 samples are 8 EiB, which malloc refuses at once.
        out_dir = tmp_path / "x"
        assert main(["analyze", "--bearings", "0", f"--samples={2**60 - 1}",
                     "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure:")
        assert not out_dir.exists()

    def test_grid_selector(self, tmp_path):
        out_dir = tmp_path / "grid"
        assert main(["analyze", "--bearings", "0", "--samples", "400",
                     "--out", str(out_dir), "--seed", "5",
                     "--bandwidth", "grid"]) == 0
        rows = (out_dir / "bandwidths.csv").read_text().splitlines()
        header = rows[0].split(",")
        first = rows[1].split(",")
        h_grid = float(first[header.index("h_grid")])
        assert h_grid > 0.0


class TestWorkerThreads:
    """``COLREG_RISK_THREADS`` sizes the pools of ``run`` and ``analyze``."""

    def test_analyze_byte_identical_across_thread_counts(self, tmp_path, monkeypatch):
        outputs = []
        for threads in ("1", "8"):
            monkeypatch.setenv("COLREG_RISK_THREADS", threads)
            out_dir = tmp_path / threads
            assert main(["analyze", "--bandwidth", "grid", "--bearings", "0,90,180",
                         "--samples", "2000", "--out", str(out_dir)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        assert len(outputs[0]) == 19
        assert outputs[0] == outputs[1]

    def test_overflow_on_two_threads_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLREG_RISK_THREADS", "2")
        out_dir = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # Silverman fallback
            assert main(["analyze", "--bearings", "0", "--range", "1.8e157", "--samples", "5",
                         "--bandwidth", "grid", "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure:")
        assert not out_dir.exists()

    def test_fallback_warning_from_a_worker_reaches_the_caller(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COLREG_RISK_THREADS", "2")
        threads = []
        real = cli.select_bandwidth

        def recorded(*args):
            threads.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(cli, "select_bandwidth", recorded)
        with pytest.warns(RuntimeWarning, match="Silverman") as record:
            assert main(["analyze", "--bearings", "0,45", "--samples", "10",
                         "--out", str(tmp_path / "tiny"), "--seed", "2"]) == 0
        assert len(threads) == 6 and threading.get_ident() not in threads
        assert sum("Silverman" in str(w.message) for w in record) == 6

    @pytest.mark.parametrize("value", ["two", "2.5", "-3", "1e3", "auto"])
    @pytest.mark.parametrize("command", ["run", "analyze"])
    def test_malformed_count_exits_2(self, tmp_path, scenario1_raw, capsys, monkeypatch,
                                     command, value):
        monkeypatch.setenv("COLREG_RISK_THREADS", value)
        scenario1_raw["n_samples"] = 200
        argv = {"run": ["run", "--config", str(write_config(tmp_path, scenario1_raw)),
                        "--method", "des"],
                "analyze": ["analyze", "--bearings", "0", "--samples", "300",
                            "--out", str(tmp_path / "x")]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "COLREG_RISK_THREADS" in err
        assert repr(value) in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", [None, "", "0"])
    def test_zero_or_unset_is_one_per_cpu(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("COLREG_RISK_THREADS", raising=False)
        else:
            monkeypatch.setenv("COLREG_RISK_THREADS", value)
        assert cli._worker_count(1000) == (os.cpu_count() or 1)
        assert cli._worker_count(1) == 1


class TestAnalyzeFuzz:
    """``analyze`` over any bearings, range, sample count, seed and selector
    ends in exit 0, 2 or 3, never a traceback; exit 0 writes every file of
    every bearing once."""

    # Distinct in-range bearings plus, in some examples, one extra entry: a
    # repeat (0 and -0 included), an out-of-range or non-finite value, or a
    # valid one.  Valid inputs are drawn more often, so that most examples
    # get past the input checks.
    extra_bearing = st.none() | st.none() | st.sampled_from(
        ["0", "-0", "359.99", "1e-320", "360", "-10", "nan", "inf"]) | st.floats(-10.0, 370.0)
    range_m = st.one_of(
        st.floats(1.0, 1e5),
        st.sampled_from([5e-324, 1e-9, 1e13, 1e154, 1.8e157, 1e308]),
        st.sampled_from([0.0, -5.0]) | st.floats(),
    )

    @settings(max_examples=60)
    @given(bearings=st.lists(st.floats(0.0, 359.99), min_size=1, max_size=3, unique=True),
           extra=extra_bearing, range_m=range_m,
           samples=st.integers(5, 300) | st.integers(0, 300),
           seed=st.integers(0, 3) | st.integers(-3, 3),
           selector=st.sampled_from(["isj", "silverman", "grid"]))
    def test_any_input_exits_cleanly(self, tmp_path_factory, bearings, extra, range_m, samples,
                                     seed, selector):
        bearings = [repr(b) for b in bearings] + ([] if extra is None else [str(extra)])
        out = tmp_path_factory.mktemp("fuzz") / "out"
        argv = ["analyze", f"--bearings={','.join(bearings)}", f"--range={range_m!r}",
                f"--samples={samples}", f"--seed={seed}", f"--bandwidth={selector}",
                f"--out={out}"]
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            _fail_on_warnings_but_fallback()
            code = main(argv)
        assert code in (0, 2, 3)
        if code == 0:
            assert len({float(b) for b in bearings}) == len(bearings)
            files = {p.name for p in out.iterdir()}
            assert len(files) == 1 + 6 * len(bearings)
            assert len(_bandwidth_rows(out)) == 3 * len(bearings)


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "DCPA(scenario 1) = 176.78" in out
        assert "all selftest checks passed" in out

    def test_detects_tampered_situation_table(self, capsys, monkeypatch):
        import colreg_risk.cli as cli_module
        from colreg_risk import Obligation, Rule, SituationOutcome

        def corrupted(own_region, other_region):
            return SituationOutcome(Rule.R0, Obligation.STAND_ON)

        monkeypatch.setattr(cli_module, "mutual_situation", corrupted)
        assert main(["selftest"]) == 1
        assert "FAIL" in capsys.readouterr().out
