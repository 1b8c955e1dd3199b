"""CLI contract tests: schemas, determinism, exit codes, config files."""

import json
import math

import pytest

from catruler.cli import main
from catruler.physical_realization import RealizationParams, measurement_probabilities, output_state

pytestmark = pytest.mark.filterwarnings("ignore::catruler.errors.ApproximationRegimeWarning")


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, header, rows


class TestFringeCommand:
    def test_writes_schema_and_columns(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "fringe", "--alpha", "5", "--points", "11"]) == 0
        comments, header, rows = read_csv(tmp_path / "fringe_alpha5.csv")
        assert comments[0] == "# schema=1"
        assert header == ["theta", "p_plus", "p_minus", "fringe", "fringe_complement", "leakage"]
        assert len(rows) == 11

    def test_minimal_two_point_scan(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "fringe", "--alpha", "5", "--points", "2"]) == 0
        _, _, rows = read_csv(tmp_path / "fringe_alpha5.csv")
        assert len(rows) == 2

    def test_one_file_per_alpha(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "fringe",
                     "--alpha", "5,10", "--points", "5"]) == 0
        assert (tmp_path / "fringe_alpha5.csv").exists()
        assert (tmp_path / "fringe_alpha10.csv").exists()

    def test_auto_span_covers_three_periods(self, tmp_path):
        alpha = 10.0
        assert main(["--out", str(tmp_path), "--quiet", "fringe", "--alpha", "10", "--points", "3"]) == 0
        _, _, rows = read_csv(tmp_path / "fringe_alpha10.csv")
        period = 2 * math.pi / alpha**2
        assert rows[0][0] == pytest.approx(-3 * period, rel=1e-9)
        assert rows[-1][0] == pytest.approx(3 * period, rel=1e-9)

    def test_deterministic_output(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["--out", str(tmp_path / sub), "--quiet", "fringe",
                         "--alpha", "5", "--points", "7"]) == 0
        assert (tmp_path / "a" / "fringe_alpha5.csv").read_bytes() == \
               (tmp_path / "b" / "fringe_alpha5.csv").read_bytes()

    def test_null_phase_row_matches_library_bit_for_bit(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "fringe", "--alpha", "5", "--points", "3"]) == 0
        _, _, rows = read_csv(tmp_path / "fringe_alpha5.csv")
        center = rows[1]
        assert center[0] == 0.0
        p_plus, p_minus = measurement_probabilities(RealizationParams(alpha=5.0))
        assert center[1] == float(f"{p_plus:.12g}")
        assert center[2] == float(f"{p_minus:.12g}")
        assert center[5] == float(f"{output_state(RealizationParams(alpha=5.0)).leakage:.12g}")

    def test_explicit_span(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "fringe", "--alpha", "5",
                     "--points", "3", "--theta-span=-0.01:0.01"]) == 0
        _, _, rows = read_csv(tmp_path / "fringe_alpha5.csv")
        assert rows[0][0] == -0.01 and rows[-1][0] == 0.01

    def test_bad_span_is_usage_error(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "fringe", "--alpha", "5",
                     "--theta-span", "oops"]) == 2

    def test_missing_alpha_is_usage_error(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "fringe"]) == 2

    def test_joint_normalization_flag(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "--normalization", "joint",
                     "fringe", "--alpha", "5", "--points", "3"]) == 0
        comments, _, rows = read_csv(tmp_path / "fringe_alpha5.csv")
        assert "# normalization=joint" in comments
        joint = measurement_probabilities(RealizationParams(alpha=5.0), mode="joint")
        assert rows[1][1] == float(f"{joint[0]:.12g}")


class TestConfigFile:
    def test_config_supplies_sweep_defaults(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "alphas": [5.0],
            "theta_span": "auto",
            "n_points": 5,
            "normalization_mode": "conditional",
            "output_path": str(tmp_path / "from_config"),
        }))
        assert main(["--config", str(cfg), "--quiet", "fringe"]) == 0
        assert (tmp_path / "from_config" / "fringe_alpha5.csv").exists()

    def test_cli_flags_override_config(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"alphas": [5.0], "n_points": 5}))
        assert main(["--config", str(cfg), "--out", str(tmp_path), "--quiet",
                     "fringe", "--points", "3"]) == 0
        _, _, rows = read_csv(tmp_path / "fringe_alpha5.csv")
        assert len(rows) == 3

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"alpha_values": [5.0]}))
        assert main(["--config", str(cfg), "--quiet", "fringe"]) == 2

    def test_missing_config_file_rejected(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "--quiet",
                     "fringe", "--alpha", "5"]) == 2


class TestWidthScaling:
    def test_report_contents(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "width-scaling",
                     "--alpha", "5,10", "--points", "241"]) == 0
        report = json.loads((tmp_path / "width_scaling.json").read_text())
        assert set(report["widths"]) == {"5", "10"}
        assert report["ratios"]["5/10"] == pytest.approx(4.0, abs=0.4)
        assert -2.2 <= report["exponent"] <= -1.8

    @pytest.mark.parametrize("command", [
        ["width-scaling", "--alpha", "0,5"],
        ["width-scaling", "--alpha", "5,nan"],
        ["fringe", "--alpha", "inf", "--points", "5"],
        ["ruler", "--alpha", "-1", "--wavelength", "1e-6"],
    ])
    def test_bad_alpha_is_usage_error(self, tmp_path, command):
        assert main(["--out", str(tmp_path), "--quiet"] + command) == 2

    def test_single_alpha_has_no_ratios(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "width-scaling",
                     "--alpha", "5", "--points", "121"]) == 0
        report = json.loads((tmp_path / "width_scaling.json").read_text())
        assert "ratios" not in report and "exponent" not in report
        assert "5" in report["widths"]


class TestSnrCommand:
    def test_columns_and_values(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "snr",
                     "--n-bar", "200", "--v-theta", "1e-4"]) == 0
        comments, header, rows = read_csv(tmp_path / "snr.csv")
        assert header == ["n_bar", "snr_ideal", "snr_squeezed", "ratio", "resource_adjusted_ratio"]
        n_bar, ideal, squeezed, ratio, adjusted = rows[0]
        assert ideal == pytest.approx(1e-4 * 200**2, rel=1e-9)
        assert 3.8 <= ratio <= 4.2
        assert 0.95 <= adjusted <= 1.05

    def test_zero_fluctuation_power_zeroes_all_columns(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "snr",
                     "--n-bar", "50,200", "--v-theta", "0"]) == 0
        _, _, rows = read_csv(tmp_path / "snr.csv")
        for row in rows:
            assert row[1:] == [0.0, 0.0, 0.0, 0.0]


class TestRulerCommand:
    def test_worked_example(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "ruler",
                     "--alpha", "20", "--wavelength", "1e-6", "--points", "801"]) == 0
        report = json.loads((tmp_path / "ruler.json").read_text())
        assert report["analytic_spacing"] == pytest.approx(1.25e-9, rel=1e-12)
        assert report["half_wavelength"] == pytest.approx(5e-7, rel=1e-12)
        assert report["relative_deviation"] < 0.05

    def test_alpha_one_closed_form(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "ruler",
                     "--alpha", "1", "--wavelength", "1e-6", "--points", "241"]) == 0
        report = json.loads((tmp_path / "ruler.json").read_text())
        assert report["analytic_spacing"] == pytest.approx(5e-7, rel=1e-12)


class TestOracleCommand:
    def test_default_checks_pass(self, tmp_path):
        assert main(["--out", str(tmp_path), "--seed", "5", "--quiet", "oracle",
                     "--cases", "4", "--max-alpha", "2.5"]) == 0
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["all_pass"] is True
        assert report["checks"]["probability_agreement"]["value"] < 1e-6
        assert report["checks"]["weight_closure"]["value"] < 1e-9

    def test_injected_bug_fails(self, tmp_path):
        assert main(["--out", str(tmp_path), "--seed", "5", "--quiet", "oracle",
                     "--cases", "2", "--max-alpha", "2.5", "--inject-bug"]) == 3
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["all_pass"] is False

    def test_empty_case_list_is_usage_error(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "oracle", "--cases", "0"]) == 2


class TestPhaseErrorCommand:
    def test_grid_rows(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "phase-error",
                     "--alpha", "1,5", "--theta-max", "0.002", "--theta-points", "3"]) == 0
        comments, header, rows = read_csv(tmp_path / "phase_error.csv")
        assert comments[0] == "# schema=1"
        assert header == ["theta", "alpha", "error", "theta_sq_alpha_sq"]
        assert len(rows) == 6
        for theta, alpha, error, bound in rows:
            assert error <= max(bound, 1e-15)

    def test_bad_grid_is_usage_error(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "phase-error",
                     "--alpha", "1", "--theta-max", "-1"]) == 2


class TestTopLevel:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "catruler" in capsys.readouterr().out

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        main(["--out", str(tmp_path), "--quiet", "fringe", "--alpha", "5", "--points", "2"])
        assert capsys.readouterr().out == ""

    def test_unquiet_reports_files(self, tmp_path, capsys):
        main(["--out", str(tmp_path), "fringe", "--alpha", "5", "--points", "2"])
        assert "fringe_alpha5.csv" in capsys.readouterr().out
