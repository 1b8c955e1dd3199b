"""CLI contract tests: schemas, determinism, exit codes."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from catruler import cli, fock_oracle, physical_realization
from catruler.cli import main
from catruler.physical_realization import RealizationParams, measurement_probabilities, output_state
from readme_commands import readme_argv

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

    def test_bad_span_creates_no_directory(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "fringe", "--alpha", "5",
                     "--theta-span", "oops"]) == 2
        assert not out.exists()

    def test_span_wider_than_the_float_range_is_usage_error(self, tmp_path, capsys):
        # both bounds are finite, but theta_max - theta_min overflows
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "fringe", "--alpha", "5", "--points", "3",
                     "--theta-span=-1e308:1e308"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "-1e+308:1e+308" in err
        assert not out.exists()

    def test_zero_points_is_usage_error(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "fringe", "--alpha", "5", "--points", "0"]) == 2
        assert not out.exists()

    def test_missing_alpha_is_usage_error(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "fringe"]) == 2

    def test_cancelled_outcome_weight_is_numerical_failure(self, tmp_path, capsys):
        # at alpha = 0.5 the mixing angle is 2 pi: the minus weight is exactly
        # 0 at theta = 2 pi k, and the kernel computes it as rounding noise
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "fringe", "--alpha", "0.5"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "theta = " in err
        assert not out.exists()

    def test_several_alphas_name_the_failing_one(self, tmp_path, capsys):
        # one kernel evaluation covers both alphas; the failure names its point
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "fringe", "--alpha", "2,0.5",
                     "--points", "11"]) == 3
        assert "at alpha = 0.5, theta = " in capsys.readouterr().err
        assert not out.exists()

    def test_batched_alphas_write_the_single_alpha_bytes(self, tmp_path):
        assert main(["--out", str(tmp_path / "all"), "--quiet", "fringe",
                     "--alpha", "5,10,20", "--points", "41"]) == 0
        for alpha in ("5", "10", "20"):
            single = tmp_path / alpha
            assert main(["--out", str(single), "--quiet", "fringe",
                         "--alpha", alpha, "--points", "41"]) == 0
            name = f"fringe_alpha{alpha}.csv"
            assert (tmp_path / "all" / name).read_bytes() == (single / name).read_bytes()

    def test_tiny_alpha_ends_without_a_traceback(self, tmp_path, capsys):
        # the minus-cat norm 2 - 2 exp(-alpha^2/2) cancelled to 0 at alpha =
        # 1e-9 and the command died with ZeroDivisionError
        code = main(["--out", str(tmp_path), "--quiet", "fringe", "--alpha", "1e-9",
                     "--points", "5", "--theta-span=-1:1"])
        assert code in (0, 3)
        if code == 3:
            assert capsys.readouterr().err.startswith("numerical failure:")


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
        # finite, but alpha^2 overflows
        ["fringe", "--alpha", "1e200", "--points", "5"],
        ["ruler", "--alpha", "1e200", "--wavelength", "1e-6"],
        ["snr", "--n-bar", "1e200", "--v-theta", "1e-4"],
        # finite square, but the mixing angle pi / (2 alpha^2) is subnormal
        ["fringe", "--alpha", "1.2e154", "--points", "5"],
        # an explicit span takes no alpha, so fringe_scan is the one check
        ["fringe", "--alpha", "nan", "--points", "5", "--theta-span=-0.1:0.1"],
        ["fringe", "--alpha", "1e200", "--points", "5", "--theta-span=-0.1:0.1"],
        ["fringe", "--alpha", "1.2e154", "--points", "5", "--theta-span=-0.1:0.1"],
    ])
    def test_bad_alpha_is_usage_error(self, tmp_path, command):
        assert main(["--out", str(tmp_path), "--quiet"] + command) == 2
        assert not any(tmp_path.iterdir())

    def test_subnormal_mixing_angle_names_alpha_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "fringe", "--alpha", "1.2e154",
                     "--points", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "alpha" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        # pi / (2 alpha^2) is finite, but its square overflows
        ["fringe", "--alpha", "1e-100", "--points", "5", "--theta-span=-1:1"],
        ["ruler", "--alpha", "1e-100", "--wavelength", "1e-6"],
        # alpha^2 underflows to 0
        ["fringe", "--alpha", "1e-170", "--points", "5", "--theta-span=-1:1"],
        ["width-scaling", "--alpha", "1e-170,5"],
        # alpha^2 is normal, but the auto span 2 pi / alpha^2 overflows
        ["fringe", "--alpha", "1.6e-154"],
        ["width-scaling", "--alpha", "1.6e-154,5"],
        ["ruler", "--alpha", "1.6e-154", "--wavelength", "1e-6"],
    ])
    def test_tiny_alpha_is_a_one_line_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet"] + command) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "alpha" in err and err.count("\n") == 1
        assert not out.exists()

    def test_large_alphas_keep_the_inverse_square_law(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "width-scaling",
                     "--alpha", "1e3,1e4"]) == 0
        report = json.loads((tmp_path / "width_scaling.json").read_text())
        assert report["exponent"] == pytest.approx(-2.0, abs=1e-6)

    @pytest.mark.parametrize("alphas", ["5,5", "5,10,5"])
    def test_repeated_alpha_is_usage_error(self, tmp_path, capsys, alphas):
        # the exponent would be fitted through fewer distinct points than given
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "width-scaling", "--alpha", alphas]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "alpha" in err
        assert not out.exists()

    def test_alphas_sharing_a_report_key_are_usage_error(self, tmp_path, capsys):
        # distinct floats, one 12-digit key: their widths would merge into one entry
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "width-scaling",
                     "--alpha", "5,5.000000000000001"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "5.0 and 5.000000000000001" in err
        assert not out.exists()

    @pytest.mark.parametrize("alphas, pair", [
        ("5,5", "5.0 and 5.0"),
        ("5,5.000000000000001", "5.0 and 5.000000000000001"),
    ])
    def test_alphas_sharing_a_fringe_file_name_are_usage_error(self, tmp_path, capsys, alphas, pair):
        # both scans would be written to fringe_alpha5.csv, the second over the first
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "fringe", "--alpha", alphas, "--points", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: fringe needs distinct alpha values") and err.count("\n") == 1
        assert pair in err
        assert not out.exists()

    @staticmethod
    def exponent_and_polyfit(out, alphas):
        assert main(["--out", str(out), "--quiet", "width-scaling",
                     "--alpha", ",".join(map(repr, alphas)), "--points", "25"]) == 0
        report = json.loads((out / "width_scaling.json").read_text())
        widths = [report["widths"][cli._fmt(a)] for a in report["alphas"]]
        return report["exponent"], float(np.polyfit(np.log(report["alphas"]), np.log(widths), 1)[0])

    @pytest.mark.parametrize("alphas", [[5.0, 10.0, 20.0], [1e3, 1e4]])
    def test_exponent_equals_polyfit(self, tmp_path, alphas):
        exponent, fitted = self.exponent_and_polyfit(tmp_path, alphas)
        assert exponent == pytest.approx(fitted, rel=1e-12, abs=0.0)

    # at least 1 % apart: through nearly coincident points the slope is
    # ill-conditioned, and either fit's rounding of the logs would decide it
    @given(st.lists(st.floats(2.0, 1e6), min_size=2, max_size=4).filter(
        lambda a: all(y / x >= 1.01 for x, y in zip(sorted(a), sorted(a)[1:]))))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_drawn_exponent_equals_polyfit(self, tmp_path, alphas):
        exponent, fitted = self.exponent_and_polyfit(tmp_path, alphas)
        assert exponent == pytest.approx(fitted, rel=1e-12, abs=0.0)

    def test_batched_alphas_give_the_single_alpha_widths(self, tmp_path):
        assert main(["--out", str(tmp_path / "all"), "--quiet", "width-scaling",
                     "--alpha", "5,10,20", "--points", "25"]) == 0
        widths = json.loads((tmp_path / "all" / "width_scaling.json").read_text())["widths"]
        for alpha in ("5", "10", "20"):
            single = tmp_path / alpha
            assert main(["--out", str(single), "--quiet", "width-scaling",
                         "--alpha", alpha, "--points", "25"]) == 0
            report = json.loads((single / "width_scaling.json").read_text())
            assert report["widths"] == {alpha: widths[alpha]}

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

    def test_finite_product_past_the_square_limit(self, tmp_path):
        # nbar^2 overflows at n_bar = 1e300, but v_theta nbar^2 does not
        assert main(["--out", str(tmp_path), "--quiet", "snr",
                     "--n-bar", "1e300", "--v-theta", "1e-300"]) == 0
        _, _, rows = read_csv(tmp_path / "snr.csv")
        assert rows == [[1e300, pytest.approx(1e300, rel=1e-12), 2.5e299, 4.0, 1.0]]

    # the last three pass the n-bar check, but alpha = sqrt(2 n_bar)
    # overflows, has a subnormal square, or overflows v_theta nbar^2
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "1e308", "1e-320", "5e307"])
    def test_bad_n_bar_is_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "snr", "--n-bar", value,
                     "--v-theta", "1e-4"]) == 2
        err = capsys.readouterr().err
        assert "n-bar" in err and repr(float(value)) in err
        assert not out.exists()

    def test_bad_v_theta_is_not_blamed_on_an_n_bar(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "snr", "--n-bar", "200",
                     "--v-theta", "nan"]) == 2
        assert capsys.readouterr().err == "usage error: v_theta must be nonnegative and finite\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("alpha, wavelength", [
        ("0.52", "1e308"), ("0.6", "1.7e308"),  # the spacing overflows
        ("20", "1e-320"), ("20", "1e-322"),  # subnormal, or underflowed to 0
    ])
    def test_spacing_outside_the_normal_range_is_usage_error(self, tmp_path, capsys, alpha, wavelength):
        # finite inputs whose tick spacing wavelength / (2 alpha^2) is not a normal double
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "ruler",
                     "--alpha", alpha, "--wavelength", wavelength]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "spacing" in err
        assert not out.exists()

    def test_scan_without_two_extrema_is_numerical_failure(self, tmp_path, capsys):
        # three points over six fringe periods resolve no spacing
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "ruler", "--alpha", "20",
                     "--wavelength", "1e-6", "--points", "3"]) == 3
        assert capsys.readouterr().err == "numerical failure: need at least two extrema to measure a spacing\n"
        assert not out.exists()


class TestOracleCommand:
    def test_default_checks_pass(self, tmp_path):
        # seed 2 draws alpha = 9.58, whose oracle case needs N = 193 per mode
        for seed, cases, max_alpha in (("5", "4", "2.5"), ("2", "1", "10")):
            out = tmp_path / seed
            assert main(["--out", str(out), "--seed", seed, "--quiet", "oracle",
                         "--cases", cases, "--max-alpha", max_alpha]) == 0
            report = json.loads((out / "oracle_report.json").read_text())
            assert report["all_pass"] is True
            assert report["checks"]["probability_agreement"]["value"] < 1e-6
            assert report["checks"]["weight_closure"]["value"] < 1e-9

    def test_shared_series_stay_within_the_cap(self, tmp_path, monkeypatch):
        # a series runs over at most GROUP_ENTRIES packed entries, unless it
        # is one larger case running alone
        sizes, vectors = [], []
        packed, series = fock_oracle._packed, fock_oracle._chebyshev_series

        def spy_packed(*args):
            rung, case = packed(*args)
            sizes.append(case.start.size)
            return rung, case

        def spy_series(start, link, coefficients):
            vectors.append(start.size - 1)  # the entries after the leading zero
            return series(start, link, coefficients)

        monkeypatch.setattr(fock_oracle, "_packed", spy_packed)
        monkeypatch.setattr(fock_oracle, "_chebyshev_series", spy_series)
        # seed 2 draws alpha = 9.58 first, a case larger than the cap
        for seed, cases, max_alpha in (("0", "50", "3"), ("2", "2", "10")):
            assert main(["--out", str(tmp_path / seed), "--seed", seed, "--quiet", "oracle",
                         "--cases", cases, "--max-alpha", max_alpha]) == 0
        cap = fock_oracle.GROUP_ENTRIES
        large = sorted(size for size in sizes if size > cap)
        assert large and len(vectors) < len(sizes)
        assert sorted(size for size in vectors if size > cap) == large

    def test_injected_bug_fails(self, tmp_path):
        assert main(["--out", str(tmp_path), "--seed", "5", "--quiet", "oracle",
                     "--cases", "2", "--max-alpha", "2.5", "--inject-bug"]) == 3
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["all_pass"] is False

    def test_empty_case_list_is_usage_error(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "--quiet", "oracle", "--cases", "0"]) == 2
        assert capsys.readouterr().err == "usage error: --cases must be positive\n"

    @pytest.mark.parametrize("value", ["0.1", "0.4", "-inf", "inf", "nan", "20.5", "100"])
    def test_bad_max_alpha_is_usage_error(self, tmp_path, capsys, value):
        # cases draw alpha from [0.4, max-alpha), which needs a bound above 0.4; the
        # oracle's grid grows as alpha^4 (1.75 GiB at alpha = 100), so 20 caps the bound
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "oracle", "--max-alpha", value]) == 2
        assert "--max-alpha" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--seed", "-1", "--quiet", "oracle", "--cases", "2"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_weight_closure_reports_the_two_mode_norm(self, tmp_path, monkeypatch):
        kernel = physical_realization._conditional_batch

        def drifting(*args):
            batch = kernel(*args)
            return batch._replace(norm=batch.norm + 1e-8)

        monkeypatch.setattr(physical_realization, "_conditional_batch", drifting)
        assert main(["--out", str(tmp_path), "--seed", "5", "--quiet", "oracle",
                     "--cases", "2", "--max-alpha", "2.5"]) == 3
        closure = json.loads((tmp_path / "oracle_report.json").read_text())["checks"]["weight_closure"]
        assert closure["pass"] is False
        assert closure["value"] == pytest.approx(1e-8, rel=1e-6)


class TestOracleLoopReference:
    """The oracle command's randomized checks against the per-case loop
    they replaced, which called the scan kernel once per case."""

    @staticmethod
    def loop_checks(max_alpha, cases, seed, inject_bug):
        worst_dp = worst_dl = worst_norm = 0.0
        for index, (alpha, theta) in enumerate(cli._oracle_draws(seed, max_alpha, cases)):
            oracle = fock_oracle.end_to_end_oracle(RealizationParams(alpha=alpha, theta=theta))
            batch = physical_realization._conditional_batch(alpha, np.array([theta]))
            p_plus, p_minus = batch.conditional[0]
            if inject_bug and index == 0:
                p_plus += 1e-4
            worst_dp = max(worst_dp, abs(p_plus - oracle.p_plus), abs(p_minus - oracle.p_minus))
            worst_dl = max(worst_dl, abs(batch.leakage[0] - oracle.leakage))
            worst_norm = max(worst_norm, abs(batch.norm[0] - 1.0))
        return {
            "probability_agreement": cli._check(worst_dp, 1e-6),
            "leakage_agreement": cli._check(worst_dl, 1e-6),
            "weight_closure": cli._check(worst_norm, 1e-9),
        }

    @pytest.mark.parametrize("max_alpha, cases, seed, inject_bug", [
        (3.0, 12, 0, False), (3.0, 5, 3, True), (6.0, 4, 11, False), (0.9, 6, 2, False),
    ])
    def test_checks_equal_the_per_case_loop(self, max_alpha, cases, seed, inject_bug):
        got = cli._oracle_checks(max_alpha, cases, seed, inject_bug)
        want = self.loop_checks(max_alpha, cases, seed, inject_bug)
        assert {name: got[name] for name in want} == want
        assert got["probability_agreement"]["pass"] is not inject_bug


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

    @pytest.mark.parametrize("flags", [
        ["--alpha", "nan"],
        ["--alpha", "inf"],
        ["--alpha", "1e200"],  # finite, but its square overflows
        ["--alpha", "1", "--theta-max", "inf"],
        # finite, but (theta_max * alpha)^2 overflows
        ["--alpha", "1", "--theta-max", "1e308", "--theta-points", "3"],
        # theta_max and each alpha have finite squares, but the largest
        # alpha's (theta_max * alpha)^2 overflows
        ["--alpha", "1,1e10", "--theta-max", "1e150", "--theta-points", "3"],
    ])
    def test_non_finite_input_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "phase-error"] + flags) == 2
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()


class TestTopLevel:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "catruler" in capsys.readouterr().out

    def test_parser_keeps_no_state_between_calls(self, tmp_path):
        fringe = ["fringe", "--alpha", "5", "--points", "3"]
        assert main(["--out", str(tmp_path / "a"), "--quiet", *fringe]) == 0
        assert main(["--out", str(tmp_path / "s"), "--quiet", *fringe, "--theta-span=-0.1:0.1"]) == 0
        assert main(["--quiet", "fringe", "--bogus"]) == 2
        assert main(["--out", str(tmp_path / "b"), "--quiet", *fringe]) == 0
        first, after = (tmp_path / d / "fringe_alpha5.csv" for d in ("a", "b"))
        assert after.read_bytes() == first.read_bytes()
        # the explicit span of the middle call did not become the default
        assert read_csv(after)[2][0][0] == pytest.approx(-3 * 2 * math.pi / 25, rel=1e-9)

    @pytest.mark.parametrize("command, message", [
        (["fringe", "--alpha", "abc"], "could not parse alpha list 'abc'"),
        (["fringe", "--alpha", ","], "alpha list is empty"),
        (["phase-error", "--alpha", "1", "--theta-points", "1"], "--theta-points must be at least 2"),
    ])
    def test_unusable_list_or_grid_is_a_named_usage_error(self, tmp_path, capsys, command, message):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", *command]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    def test_allocation_failure_is_a_one_line_usage_error(self, tmp_path, capsys, monkeypatch):
        # 1e12 points would ask numpy for 8 TB; the stand-in refuses the
        # theta grid as numpy would, without requesting any memory
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

        monkeypatch.setattr(np, "linspace", refuse)
        out = tmp_path / "out"
        assert main(["--out", str(out), "--quiet", "fringe", "--alpha", "5",
                     "--points", "1000000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "7.28 TiB" in err and err.count("\n") == 1
        assert not out.exists()

    def test_unwritable_out_is_usage_error_naming_the_path(self, tmp_path, capsys):
        (tmp_path / "f").touch()
        out = str(tmp_path / "f" / "sub")
        assert main(["--out", out, "snr", "--n-bar", "2", "--v-theta", "1e-4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert out in err

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        main(["--out", str(tmp_path), "--quiet", "fringe", "--alpha", "5", "--points", "2"])
        assert capsys.readouterr().out == ""

    def test_unquiet_reports_files(self, tmp_path, capsys):
        main(["--out", str(tmp_path), "fringe", "--alpha", "5", "--points", "2"])
        assert "fringe_alpha5.csv" in capsys.readouterr().out


class TestReadme:
    def test_cli_block_commands_run(self, tmp_path):
        commands = readme_argv(tmp_path)
        assert len(commands) == 6
        for argv in commands:
            assert main(argv) == 0, argv
