import json
import os

import numpy as np
import pytest

from colreg_risk.cli import (
    ConfigError,
    bundled_config_path,
    load_config,
    main,
    parse_config,
    run_scenario,
)


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
            assert len(config.alpha_list) == 6
            assert config.d_act_m == 150.0

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

    def test_bad_interpretation_rejected(self, scenario1_raw):
        scenario1_raw["interpretation"] = "sigma"
        with pytest.raises(ConfigError, match="interpretation"):
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
        for row in rows:
            for value in (row.p_risk, row.p_r0, row.p_r13, row.p_r14, row.p_r15,
                          row.p_give_way):
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
        scenario1_raw["alpha_list"] = [1.0]
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path), "--samples", "1500",
                     "--seed", "5", "--method", "des"]) == 0


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

    def test_tiny_sample_count_still_normalised(self, tmp_path):
        # The plug-in selector cannot run on ten samples; the export falls
        # back to the rule of thumb and the curves stay normalised.
        out_dir = tmp_path / "tiny"
        assert main(["analyze", "--bearings", "0", "--samples", "10",
                     "--out", str(out_dir), "--seed", "2"]) == 0
        curve = np.loadtxt(out_dir / "kde_tcpa_0.csv", delimiter=",", skiprows=1)
        mass = float(np.trapezoid(curve[:, 1], curve[:, 0]))
        assert mass == pytest.approx(1.0, abs=5e-3)

    def test_kde_sample_floor_reported_as_config_error(self, tmp_path, scenario1_raw, capsys):
        scenario1_raw["alpha_list"] = [1.0]
        path = write_config(tmp_path, scenario1_raw)
        assert main(["run", "--config", str(path), "--samples", "500",
                     "--method", "kde"]) == 2
        assert "1000" in capsys.readouterr().err

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
