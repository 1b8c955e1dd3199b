"""Tests for the exact two-cat realization.

The frozen conditional probabilities below were verified against the
independent truncated-Fock pipeline (agreement at 1e-15 for alpha <= 3,
1e-6-level for alpha = 5 and 10 where the brute-force grid is the
limit); they double as regression anchors for the analytic path.
"""

import math

import numpy as np
import pytest

from catruler.coherent_algebra import norm_squared, overlap
from catruler.errors import ApproximationRegimeWarning, IntegrationError, WidthUndefinedError
from catruler.physical_realization import (
    ConditionalOutput,
    FringeCurve,
    RealizationParams,
    cat_coefficients,
    central_fringe_width,
    composite_coefficient_discrepancy,
    extremum_spacing,
    fringe_complement,
    fringe_function,
    fringe_period,
    fringe_phase_offset,
    fringe_scan,
    fringe_spacing_physical,
    measurement_probabilities,
    output_state,
    scan_extracted_spacing,
)

pytestmark = pytest.mark.filterwarnings("ignore::catruler.errors.ApproximationRegimeWarning")

# (alpha, p_plus, p_minus, plus_weight, minus_weight, leakage) at theta = 0,
# conditional normalization, default mixing angle; tests/test_fock_oracle.py
# checks the pipeline against the Fock oracle at the alpha = 2 and 5 rows.
NULL_PHASE_TABLE = [
    (2.0, 0.9062246296421743, 0.18847677471701202,
     0.4942590059721143, 0.30964611502320877, 0.19609487900467687),
    (5.0, 0.9781566067711842, 0.02647036894740002,
     0.49885017673319054, 0.4541713817234815, 0.046978441543327976),
    (10.0, 0.9940183656226071, 0.0062822684693739405,
     0.4999249364213575, 0.4878892538695475, 0.012185809709094997),
    (20.0, 0.9984697119540947, 0.001549254524786634,
     0.4999952597946881, 0.49692998580977993, 0.003074754395531898),
]


class TestRealizationParams:
    def test_default_mixing_angle(self):
        p = RealizationParams(alpha=8.0)
        assert p.phi == pytest.approx(math.pi / 128, abs=1e-15)
        assert p.gate_phase == pytest.approx(math.pi / 2, abs=1e-12)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            RealizationParams(alpha=0.0)
        with pytest.raises(ValueError):
            RealizationParams(alpha=-2.0)

    def test_warns_when_weak_mixing_violated(self):
        with pytest.warns(ApproximationRegimeWarning):
            RealizationParams(alpha=4.0)

    def test_no_warning_at_alpha_five(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", ApproximationRegimeWarning)
            RealizationParams(alpha=5.0)  # phi^2 alpha^2 = 0.0987 < 0.1


class TestOutputState:
    @pytest.mark.parametrize("alpha,pp,pm,wp,wm,leak", NULL_PHASE_TABLE)
    def test_null_phase_frozen_values(self, alpha, pp, pm, wp, wm, leak):
        out = output_state(RealizationParams(alpha=alpha))
        assert out.plus_weight == pytest.approx(wp, abs=1e-10)
        assert out.minus_weight == pytest.approx(wm, abs=1e-10)
        assert out.leakage == pytest.approx(leak, abs=1e-10)

    def test_conditional_states_normalized(self):
        out = output_state(RealizationParams(alpha=5.0, theta=0.37))
        assert norm_squared(out.plus_state) == pytest.approx(1.0, abs=1e-10)
        assert norm_squared(out.minus_state) == pytest.approx(1.0, abs=1e-10)

    def test_plus_outcome_near_vacuum_at_null_phase(self):
        # the heralded gate carries an intrinsic error of order
        # (phi alpha)^2 ~ pi^2/(4 alpha^2), so the vacuum fidelity at
        # alpha = 5 sits near 0.955 and climbs toward 1 with alpha
        expectations = {5.0: 0.9546400979021373, 10.0: 0.9879249311026533}
        for alpha, frozen in expectations.items():
            out = output_state(RealizationParams(alpha=alpha))
            amp = sum(c * overlap(0.0, g) for c, g in out.plus_state.terms)
            assert abs(amp) ** 2 == pytest.approx(frozen, abs=1e-9)

    def test_minus_outcome_near_flipped_state_at_null_phase(self):
        expectations = {5.0: 0.9500370201174505, 10.0: 0.9876246582824103}
        for alpha, frozen in expectations.items():
            out = output_state(RealizationParams(alpha=alpha))
            amp = sum(c * overlap(alpha, g) for c, g in out.minus_state.terms)
            assert abs(amp) ** 2 == pytest.approx(frozen, abs=1e-9)

    def test_vacuum_fidelity_improves_with_alpha(self):
        fidelities = []
        for alpha in (5.0, 10.0, 20.0):
            out = output_state(RealizationParams(alpha=alpha))
            amp = sum(c * overlap(0.0, g) for c, g in out.plus_state.terms)
            fidelities.append(abs(amp) ** 2)
        assert fidelities[0] < fidelities[1] < fidelities[2]

    def test_leakage_decreases_with_alpha(self):
        leaks = [output_state(RealizationParams(alpha=a)).leakage for a in (5.0, 10.0, 20.0)]
        assert leaks[0] < 0.05
        assert leaks[0] > leaks[1] > leaks[2] > 0.0

    def test_weight_closure_random_parameters(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = RealizationParams(alpha=float(rng.uniform(0.5, 12)), theta=float(rng.uniform(0, 2 * np.pi)))
            out = output_state(p)
            assert out.plus_weight + out.minus_weight + out.leakage == pytest.approx(1.0, abs=1e-9)
            assert out.plus_weight >= 0.0 and out.minus_weight >= 0.0

    def test_two_pi_periodicity(self):
        for theta in (0.0, 0.21):
            a = output_state(RealizationParams(alpha=6.0, theta=theta))
            b = output_state(RealizationParams(alpha=6.0, theta=theta + 2 * math.pi))
            assert a.plus_weight == pytest.approx(b.plus_weight, abs=1e-12)
            assert a.minus_weight == pytest.approx(b.minus_weight, abs=1e-12)
            for (ca, ga), (cb, gb) in zip(a.plus_state.terms, b.plus_state.terms):
                assert ca == pytest.approx(cb, abs=1e-12)
                assert ga == pytest.approx(gb, abs=1e-12)

    def test_closure_validation_in_type(self):
        out = output_state(RealizationParams(alpha=5.0))
        with pytest.raises(ValueError):
            ConditionalOutput(out.plus_state, out.minus_state, 0.6, 0.6, 0.6)

    def test_type_rejects_non_finite_weights(self):
        out = output_state(RealizationParams(alpha=5.0))
        with pytest.raises(ValueError):
            ConditionalOutput(out.plus_state, out.minus_state, math.nan, 0.5, 0.5)
        with pytest.raises(ValueError):
            ConditionalOutput(out.plus_state, out.minus_state, 0.5, 0.5, math.nan)


class TestCatCoefficients:
    def test_vacuum_projection_closed_form(self):
        # <cat+|0> = (1 + e^{-a^2/2}) / sqrt(2 + 2 e^{-a^2/2}) = sqrt((1+e^{-a^2/2})/2)
        proj = cat_coefficients(RealizationParams(alpha=2.0))
        assert proj.plus[0] == pytest.approx(math.sqrt((1 + math.exp(-2.0)) / 2), abs=1e-12)
        assert proj.minus[0] == pytest.approx(math.sqrt((1 - math.exp(-2.0)) / 2), abs=1e-12)

    def test_limits_to_inverse_sqrt_two(self):
        proj = cat_coefficients(RealizationParams(alpha=12.0))
        assert proj.plus[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert proj.minus[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_all_coefficients_bounded(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = RealizationParams(alpha=float(rng.uniform(0.5, 10)), theta=float(rng.uniform(0, 2 * np.pi)))
            proj = cat_coefficients(p)
            for value in proj.plus + proj.minus:
                assert abs(value) <= 1.0 + 1e-12

    def test_full_period_returns_coefficients(self):
        a = cat_coefficients(RealizationParams(alpha=3.0, theta=0.0))
        b = cat_coefficients(RealizationParams(alpha=3.0, theta=2 * math.pi))
        for x, y in zip(a.plus + a.minus, b.plus + b.minus):
            assert x == pytest.approx(y, abs=1e-12)

    def test_beamsplitter_pairing_structure(self):
        # signal transmits to the measured port with cos(phi) and the
        # path phase; its homodyne-port partner carries i sin(phi) e^{i t}
        p = RealizationParams(alpha=4.0, theta=0.6)
        proj = cat_coefficients(p)
        a, phi, theta = p.alpha, p.phi, p.theta
        e = np.exp(1j * theta)
        assert proj.measured_amplitudes[2] == pytest.approx(a * math.cos(phi) * e, abs=1e-12)
        assert proj.output_amplitudes[2] == pytest.approx(1j * a * math.sin(phi) * e, abs=1e-12)
        assert proj.measured_amplitudes[1] == pytest.approx(1j * a * math.sin(phi), abs=1e-12)
        assert proj.output_amplitudes[1] == pytest.approx(a * math.cos(phi), abs=1e-12)
        # the composite term conserves the energy of both inputs
        gc, gd = proj.measured_amplitudes[3], proj.output_amplitudes[3]
        assert abs(gc) ** 2 + abs(gd) ** 2 == pytest.approx(2 * a**2, rel=1e-12)

    def test_composite_discrepancy_vanishes_only_at_null_phase(self):
        assert composite_coefficient_discrepancy(RealizationParams(alpha=2.0)) == pytest.approx(0.0, abs=1e-15)
        assert composite_coefficient_discrepancy(RealizationParams(alpha=2.0, theta=2 * math.pi)) == pytest.approx(0.0, abs=1e-12)
        assert composite_coefficient_discrepancy(RealizationParams(alpha=2.0, theta=1.0)) > 0.1


class TestMeasurementProbabilities:
    @pytest.mark.parametrize("alpha,pp,pm,wp,wm,leak", NULL_PHASE_TABLE)
    def test_null_phase_frozen_values(self, alpha, pp, pm, wp, wm, leak):
        got_pp, got_pm = measurement_probabilities(RealizationParams(alpha=alpha), method="erf")
        assert got_pp == pytest.approx(pp, abs=1e-10)
        assert got_pm == pytest.approx(pm, abs=1e-10)

    def test_quad_and_erf_paths_agree(self):
        p = RealizationParams(alpha=5.0, theta=0.02)
        a = measurement_probabilities(p, method="quad")
        b = measurement_probabilities(p, method="erf")
        assert a[0] == pytest.approx(b[0], abs=1e-8)
        assert a[1] == pytest.approx(b[1], abs=1e-8)

    def test_joint_mode_scales_by_weights(self):
        p = RealizationParams(alpha=5.0, theta=0.01)
        cond = measurement_probabilities(p, mode="conditional", method="erf")
        joint = measurement_probabilities(p, mode="joint", method="erf")
        out = output_state(p)
        assert joint[0] == pytest.approx(cond[0] * out.plus_weight, abs=1e-12)
        assert joint[1] == pytest.approx(cond[1] * out.minus_weight, abs=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            measurement_probabilities(RealizationParams(alpha=5.0), mode="bayesian")


class TestFringeFunction:
    def test_endpoints(self):
        assert fringe_function(1.0, 0.0) == 0.0
        assert fringe_function(0.0, 1.0) == 1.0

    def test_symmetry(self):
        for x in (0.0, 0.3, 0.77, 1.0):
            assert fringe_function(x, x) == pytest.approx(0.5, abs=1e-15)

    def test_complement(self):
        assert fringe_complement(0.2, 0.9) == pytest.approx(1.0 - fringe_function(0.2, 0.9), abs=1e-15)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            fringe_function(-0.1, 0.5)
        with pytest.raises(ValueError):
            fringe_function(0.5, 1.2)


def small_scan(alpha, periods=3.0, n_points=241, **kw):
    period = 2 * math.pi / alpha**2
    return fringe_scan(alpha, -periods * period, periods * period, n_points, **kw)


class TestFringeScan:
    def test_validation(self):
        with pytest.raises(ValueError):
            fringe_scan(5.0, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            fringe_scan(5.0, 1.0, 0.0, 10)

    def test_columns_consistent(self):
        curve = small_scan(5.0, n_points=61)
        assert len(curve) == 61
        assert np.all(np.diff(curve.theta) > 0)
        recomputed = (curve.p_minus - curve.p_plus + 1) / 2
        assert curve.fringe == pytest.approx(recomputed, abs=1e-15)
        assert curve.fringe_complement == pytest.approx(1 - recomputed, abs=1e-15)
        assert curve.fringe.min() >= 0.0 and curve.fringe.max() <= 1.0

    def test_single_dominant_central_extremum_at_alpha_five(self):
        # side fringes at alpha = 5 are strongly damped: the central
        # trough reaches much closer to zero than any neighbor
        from catruler.physical_realization import _local_extrema

        curve = small_scan(5.0, periods=1.5, n_points=301)
        positions, values = _local_extrema(curve.theta, curve.fringe)
        period = 2 * math.pi / 25
        central = values[np.argmin(np.abs(positions))]
        assert abs(positions[np.argmin(values)]) < period / 10  # deepest dip is central
        side_minima = [v for p, v in zip(positions, values) if abs(p) > period / 2 and v < 0.5]
        assert central < 0.03
        assert min(side_minima) > 3 * central

    def test_multiple_high_visibility_fringes_at_alpha_twenty(self):
        curve = small_scan(20.0, periods=3.0, n_points=481)
        f = curve.fringe
        # count deep oscillations: crossings of the halfway level
        half = 0.5 * (f.max() + f.min())
        crossings = np.sum(np.diff(np.sign(f - half)) != 0)
        assert crossings >= 10
        assert f.max() - f.min() > 0.9

    def test_fringe_period_matches_phase_gate_factor(self):
        for alpha in (5.0, 10.0):
            curve = small_scan(alpha)
            expected = 2 * math.pi / alpha**2
            assert fringe_period(curve) == pytest.approx(expected, rel=0.03)

    def test_per_point_failure_identifies_theta(self, monkeypatch):
        from catruler import physical_realization as pr

        kernel_erf = pr._threshold_kernel_erf

        def corrupt_one_point(amps, threshold, s):
            gram, kernel = kernel_erf(amps, threshold, s)
            kernel[3, 1, 2] = complex("nan")
            return gram, kernel

        monkeypatch.setattr(pr, "_threshold_kernel_erf", corrupt_one_point)
        thetas = np.linspace(-0.1, 0.1, 5)
        with pytest.raises(IntegrationError, match=f"theta = {float(thetas[3])!r}"):
            pr.fringe_scan(5.0, -0.1, 0.1, 5)

    def test_non_finite_bounds_rejected(self):
        with pytest.raises(ValueError):
            fringe_scan(5.0, -math.inf, 0.1, 5)
        with pytest.raises(ValueError):
            fringe_scan(5.0, -0.1, math.nan, 5)

    def test_warns_once_per_scan(self):
        import warnings as _warnings

        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always", ApproximationRegimeWarning)
            fringe_scan(4.0, -0.1, 0.1, 9)
        assert len([w for w in caught if w.category is ApproximationRegimeWarning]) == 1

    @pytest.mark.parametrize("alpha", [5.0, 10.0, 20.0])
    def test_batched_scan_matches_per_point_quadrature(self, alpha):
        period = 2 * math.pi / alpha**2
        curve = fringe_scan(alpha, -3 * period, 3 * period, 61)
        for i in (0, 17, 30, 44):
            p = RealizationParams(alpha=alpha, theta=float(curve.theta[i]))
            p_plus, p_minus = measurement_probabilities(p, method="quad")
            assert abs(curve.p_plus[i] - p_plus) <= 1e-8
            assert abs(curve.p_minus[i] - p_minus) <= 1e-8

    def test_batched_scan_matches_fock_oracle_at_alpha_five(self):
        from catruler.fock_oracle import end_to_end_oracle

        curve = fringe_scan(5.0, -0.3, 0.3, 7)
        for i in (1, 4):
            oracle = end_to_end_oracle(RealizationParams(alpha=5.0, theta=float(curve.theta[i])))
            assert abs(curve.p_plus[i] - oracle.p_plus) <= 1e-6
            assert abs(curve.p_minus[i] - oracle.p_minus) <= 1e-6
            assert abs(curve.leakage[i] - oracle.leakage) <= 1e-6

    def test_curve_type_validation(self):
        with pytest.raises(ValueError):
            FringeCurve(
                alpha=5.0,
                theta=np.array([0.0, 0.0, 1.0]),
                p_plus=np.zeros(3), p_minus=np.zeros(3),
                fringe=np.zeros(3), fringe_complement=np.ones(3),
                leakage=np.zeros(3),
            )
        with pytest.raises(ValueError):
            FringeCurve(
                alpha=5.0,
                theta=np.array([0.0, 1.0]),
                p_plus=np.array([0.0, 1.5]), p_minus=np.zeros(2),
                fringe=np.zeros(2), fringe_complement=np.ones(2),
                leakage=np.zeros(2),
            )

    @pytest.mark.parametrize("column", ["theta", "p_plus", "fringe", "leakage"])
    def test_curve_rejects_non_finite_columns(self, column):
        columns = dict(
            theta=np.array([0.0, 1.0, 2.0]),
            p_plus=np.zeros(3), p_minus=np.zeros(3),
            fringe=np.zeros(3), fringe_complement=np.ones(3),
            leakage=np.zeros(3),
        )
        columns[column] = columns[column].copy()
        columns[column][1 if column != "theta" else 2] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            FringeCurve(alpha=5.0, **columns)


class TestWidths:
    def test_width_ratio_follows_inverse_square_law(self):
        w5 = central_fringe_width(small_scan(5.0))
        w10 = central_fringe_width(small_scan(10.0))
        assert 3.6 <= w5 / w10 <= 4.4

    def test_window_must_bracket_zero(self):
        curve = fringe_scan(5.0, 0.01, 0.3, 41)
        with pytest.raises(WidthUndefinedError):
            central_fringe_width(curve)

    def test_flat_curve_has_no_width(self):
        theta = np.linspace(-1, 1, 11)
        flat = FringeCurve(
            alpha=5.0, theta=theta,
            p_plus=np.full(11, 0.5), p_minus=np.full(11, 0.5),
            fringe=np.full(11, 0.5), fringe_complement=np.full(11, 0.5),
            leakage=np.zeros(11),
        )
        with pytest.raises(WidthUndefinedError):
            central_fringe_width(flat)

    def test_rescaled_curves_collapse_near_origin(self):
        # theta * alpha^2 rescaling collapses the central fringe
        widths = {a: central_fringe_width(small_scan(a)) for a in (5.0, 10.0, 20.0)}
        scaled = [w * a**2 for a, w in widths.items()]
        assert max(scaled) / min(scaled) < 1.05


class TestRuler:
    def test_worked_example(self):
        assert fringe_spacing_physical(20.0, 1e-6) == pytest.approx(1.25e-9, rel=1e-12)

    def test_alpha_one_recovers_half_wavelength(self):
        assert fringe_spacing_physical(1.0, 1e-6) == pytest.approx(5e-7, rel=1e-12)

    def test_scan_extraction_consistent(self):
        curve = small_scan(10.0)
        wavelength = 1e-6
        measured = scan_extracted_spacing(curve, wavelength)
        assert measured == pytest.approx(fringe_spacing_physical(10.0, wavelength), rel=0.05)

    def test_extremum_spacing_is_half_period(self):
        curve = small_scan(10.0)
        assert extremum_spacing(curve) == pytest.approx(math.pi / 100, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            fringe_spacing_physical(-1.0, 1e-6)
        with pytest.raises(ValueError):
            fringe_spacing_physical(10.0, 0.0)


class TestPhaseOffset:
    def test_conditional_fringes_are_antiphase(self):
        # P+ and P- oscillate in antiphase: the bit-flip-corrected sum
        # P+ + P- stays near 1 and the correlation peak sits at half the
        # fringe period (not a quarter)
        alpha = 10.0
        period = 2 * math.pi / alpha**2
        curve = fringe_scan(alpha, 0.0, 2 * period, 241)
        offset = fringe_phase_offset(curve)
        assert offset == pytest.approx(period / 2, rel=0.1)
        mid = np.abs(curve.p_plus + curve.p_minus - 1.0)
        assert mid.max() < 0.06
