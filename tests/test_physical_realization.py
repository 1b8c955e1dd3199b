"""Tests for the exact two-cat realization.

The frozen conditional probabilities below were verified against the
independent number-basis pipeline of fock_oracle, which agrees with the
closed form to about 1e-14 at alpha = 5, 10 and 20; they double as
regression anchors for the analytic path.  The tests here check the scan
kernel against closed forms, against adaptive quadrature of the same
states and against the oracle at 1e-6, and check that each failed
kernel check names the theta at which it failed.
"""

import math

import numpy as np
import pytest

from catruler.coherent_algebra import norm_squared, overlap
from catruler.errors import ApproximationRegimeWarning, IntegrationError, WidthUndefinedError
from catruler.physical_realization import (
    FringeCurve,
    RealizationParams,
    cat_coefficients,
    central_fringe_width,
    extremum_spacing,
    fringe_scan,
    fringe_scans,
    fringe_spacing_physical,
    measurement_probabilities,
    output_state,
    scan_extracted_spacing,
)

import offset_reference
import quad_reference

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
        assert p.phi * p.alpha**2 == pytest.approx(math.pi / 2, abs=1e-12)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            RealizationParams(alpha=0.0)
        with pytest.raises(ValueError):
            RealizationParams(alpha=-2.0)

    def test_rejects_alpha_whose_mixing_angle_is_not_normal(self):
        RealizationParams(alpha=8e153)  # pi / (2 alpha^2) is still a normal double
        with pytest.raises(ValueError, match="alpha"):
            RealizationParams(alpha=1.2e154)

    def test_warns_when_weak_mixing_violated(self):
        with pytest.warns(ApproximationRegimeWarning) as caught:
            RealizationParams(alpha=4.0)
        # reported at the caller's line, not in the generated __init__
        assert caught[0].filename == __file__

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


class TestCatCoefficients:
    def test_vacuum_projection_closed_form(self):
        # <cat+|0> = (1 + e^{-a^2/2}) / sqrt(2 + 2 e^{-a^2/2}) = sqrt((1+e^{-a^2/2})/2)
        _, _, cats = cat_coefficients(RealizationParams(alpha=2.0))
        assert cats[0, 0] == pytest.approx(math.sqrt((1 + math.exp(-2.0)) / 2), abs=1e-12)
        assert cats[1, 0] == pytest.approx(math.sqrt((1 - math.exp(-2.0)) / 2), abs=1e-12)

    def test_limits_to_inverse_sqrt_two(self):
        _, _, cats = cat_coefficients(RealizationParams(alpha=12.0))
        assert cats[0, 0] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert cats[1, 0] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_all_coefficients_bounded(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = RealizationParams(alpha=float(rng.uniform(0.5, 10)), theta=float(rng.uniform(0, 2 * np.pi)))
            _, _, cats = cat_coefficients(p)
            assert cats.shape == (2, 4)
            for value in cats.ravel():
                assert abs(value) <= 1.0 + 1e-12

    def test_full_period_returns_coefficients(self):
        _, _, a = cat_coefficients(RealizationParams(alpha=3.0, theta=0.0))
        _, _, b = cat_coefficients(RealizationParams(alpha=3.0, theta=2 * math.pi))
        for x, y in zip(a.ravel(), b.ravel()):
            assert x == pytest.approx(y, abs=1e-12)

    def test_beamsplitter_pairing_structure(self):
        # signal transmits to the measured port with cos(phi) and the
        # path phase; its homodyne-port partner carries i sin(phi) e^{i t}
        p = RealizationParams(alpha=4.0, theta=0.6)
        measured, output, _ = cat_coefficients(p)
        a, phi, theta = p.alpha, p.phi, p.theta
        e = np.exp(1j * theta)
        assert measured[2] == pytest.approx(a * math.cos(phi) * e, abs=1e-12)
        assert output[2] == pytest.approx(1j * a * math.sin(phi) * e, abs=1e-12)
        assert measured[1] == pytest.approx(1j * a * math.sin(phi), abs=1e-12)
        assert output[1] == pytest.approx(a * math.cos(phi), abs=1e-12)
        # the composite term conserves the energy of both inputs
        gc, gd = measured[3], output[3]
        assert abs(gc) ** 2 + abs(gd) ** 2 == pytest.approx(2 * a**2, rel=1e-12)


def quad_probabilities(p):
    """(P_+, P_-) from the adaptive-quadrature reference (quad_reference) on
    the output_state states."""
    out = output_state(p)
    return tuple(quad_reference.threshold_probability(state, p.alpha / 2)
                 for state in (out.plus_state, out.minus_state))


class TestMeasurementProbabilities:
    @pytest.mark.parametrize("alpha,pp,pm,wp,wm,leak", NULL_PHASE_TABLE)
    def test_null_phase_frozen_values(self, alpha, pp, pm, wp, wm, leak):
        got_pp, got_pm = measurement_probabilities(RealizationParams(alpha=alpha))
        assert got_pp == pytest.approx(pp, abs=1e-10)
        assert got_pm == pytest.approx(pm, abs=1e-10)

    def test_quad_and_erf_paths_agree(self):
        p = RealizationParams(alpha=5.0, theta=0.02)
        a = quad_probabilities(p)
        b = measurement_probabilities(p)
        assert a[0] == pytest.approx(b[0], abs=1e-8)
        assert a[1] == pytest.approx(b[1], abs=1e-8)


def curve_from(p_plus, p_minus):
    """A FringeCurve with the given probability columns."""
    n = len(p_plus)
    return FringeCurve(
        theta=np.arange(n, dtype=float),
        p_plus=np.array(p_plus, dtype=float), p_minus=np.array(p_minus, dtype=float),
        leakage=np.zeros(n),
    )


class TestFringeFunction:
    """The fringe (P_- - P_+ + 1)/2 as FringeCurve derives it."""

    def test_endpoints(self):
        assert list(curve_from([1.0, 0.0], [0.0, 1.0]).fringe) == [0.0, 1.0]

    def test_symmetry(self):
        x = [0.0, 0.3, 0.77, 1.0]
        assert curve_from(x, x).fringe == pytest.approx(0.5, abs=1e-15)

    def test_complement(self):
        assert curve_from([0.2], [0.9]).fringe_complement == pytest.approx((0.2 - 0.9 + 1) / 2, abs=1e-15)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            curve_from([-0.1], [0.5])
        with pytest.raises(ValueError):
            curve_from([0.5], [1.2])


def small_scan(alpha, periods=3.0, n_points=241):
    period = 2 * math.pi / alpha**2
    return fringe_scan(alpha, -periods * period, periods * period, n_points)


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

    def test_per_point_failure_identifies_theta(self, monkeypatch):
        from catruler import physical_realization as pr

        kernel_erf = pr._threshold_kernel_erf

        def corrupt_one_point(amps, threshold):
            gram, kernel = kernel_erf(amps, threshold)
            kernel[3, 1, 2] = complex("nan")
            return gram, kernel

        monkeypatch.setattr(pr, "_threshold_kernel_erf", corrupt_one_point)
        thetas = np.linspace(-0.1, 0.1, 5)
        with pytest.raises(IntegrationError, match=f"theta = {float(thetas[3])!r}"):
            pr.fringe_scan(5.0, -0.1, 0.1, 5)

    def test_port_swap_slip_fails_the_norm_check(self, monkeypatch):
        # the composite-term slip of the module docstring: the cats are
        # projected on the homodyne-port composite amplitude instead of the
        # measured-port one.  Leakage still closes the outcome weights to 1,
        # but the two-mode norm of the product terms no longer is 1.
        from catruler import physical_realization as pr

        projections = pr._cat_projections

        def slipped(table, thetas):
            measured, output, _, _ = projections(table, thetas)
            measured = measured.copy()
            measured[:, 3] = output[:, 3]
            alpha = float(table[0][0])
            on_vacuum = np.exp(-np.abs(measured) ** 2 / 2)
            on_alpha = np.exp(-(alpha**2 + np.abs(measured) ** 2) / 2 + alpha * measured)
            n_plus, n_minus = pr._cat_norms(alpha)
            plus, minus = n_plus * (on_vacuum + on_alpha), n_minus * (on_vacuum - on_alpha)
            gram = np.exp(pr._log_overlap(measured[..., :, None], measured[..., None, :]))
            return measured, output, np.stack([plus, minus], axis=-2), gram

        monkeypatch.setattr(pr, "_cat_projections", slipped)
        with pytest.raises(IntegrationError, match=r"theta = .*two-mode norm"):
            pr.fringe_scan(5.0, -0.3, 0.3, 7)

    def test_zero_outcome_weight_names_theta(self):
        # at alpha = 1/sqrt(8) the mixing angle is 4 pi, so the beamsplitter
        # does nothing and at theta = -48 pi the measured port is exactly
        # the plus cat: the minus outcome has weight 0
        alpha = 1 / math.sqrt(8)
        period = 2 * math.pi / alpha**2
        assert -3 * period == pytest.approx(-48 * math.pi, rel=1e-15)
        with pytest.raises(IntegrationError, match=rf"theta = {-3 * period!r}: outcome weight"):
            small_scan(alpha)

    def test_cancelled_outcome_weight_names_theta(self):
        # at alpha = 1/sqrt(8), theta = 1e-6 the true minus weight is 3.3e-14,
        # but the kernel takes it from terms 2.4e11 times larger, and P- came
        # out as 0.50001305 where the Fock oracle gives 0.4999999990
        p = RealizationParams(alpha=1 / math.sqrt(8), theta=1e-6)
        with pytest.raises(IntegrationError, match=r"theta = 1e-06: outcome weight"):
            measurement_probabilities(p)

    @pytest.mark.parametrize("alpha", [0.4, 2.0, 5.0, 20.0])
    def test_joint_is_conditional_times_weight(self, alpha):
        from catruler.physical_realization import _conditional_batch

        period = 2 * math.pi / alpha**2
        batch = _conditional_batch(alpha, np.linspace(-3 * period, 3 * period, 241))
        product = batch.conditional * batch.weights
        assert product == pytest.approx(batch.joint, rel=4e-16, abs=1e-300)

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

    @pytest.mark.parametrize("alpha", [3000.0, 1e4, 1e5])
    def test_large_alpha_null_phase_follows_the_gate_error_law(self, alpha):
        # the overlap exponent holds no alpha^2-sized terms whose rounding
        # would trip the norm check or swamp deficits of order 1/alpha^2
        period = 2 * math.pi / alpha**2
        curve = fringe_scan(alpha, -3 * period, 3 * period, 801)
        null = len(curve) // 2
        assert curve.theta[null] == 0.0
        law = math.pi**2 / (16 * alpha**2)
        assert 1.0 - curve.p_plus[null] == pytest.approx(law, rel=1e-4)
        assert curve.p_minus[null] == pytest.approx(law, rel=1e-4)

    @pytest.mark.parametrize("alpha", [5.0, 10.0, 20.0])
    def test_batched_scan_matches_per_point_quadrature(self, alpha):
        period = 2 * math.pi / alpha**2
        curve = fringe_scan(alpha, -3 * period, 3 * period, 61)
        for i in (0, 17, 30, 44):
            p = RealizationParams(alpha=alpha, theta=float(curve.theta[i]))
            p_plus, p_minus = quad_probabilities(p)
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
                theta=np.array([0.0, 0.0, 1.0]),
                p_plus=np.zeros(3), p_minus=np.zeros(3),
                leakage=np.zeros(3),
            )
        with pytest.raises(ValueError):
            FringeCurve(
                theta=np.array([0.0, 1.0]),
                p_plus=np.array([0.0, 1.5]), p_minus=np.zeros(2),
                leakage=np.zeros(2),
            )

    @pytest.mark.parametrize("column", ["theta", "p_plus", "leakage"])
    def test_curve_rejects_non_finite_columns(self, column):
        columns = dict(
            theta=np.array([0.0, 1.0, 2.0]),
            p_plus=np.zeros(3), p_minus=np.zeros(3),
            leakage=np.zeros(3),
        )
        columns[column] = columns[column].copy()
        columns[column][1 if column != "theta" else 2] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            FringeCurve(**columns)

    def test_unequal_lengths_are_reported_before_values(self):
        # 16 values in all, which would pass for four columns of four, and
        # a NaN, which the length check reports first
        with pytest.raises(ValueError, match="all fringe-curve columns must have equal length"):
            FringeCurve(theta=[0.0, 1.0, 2.0], p_plus=[0.5] * 3, p_minus=[0.5] * 3,
                        leakage=[math.nan] * 7)


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
            theta=theta,
            p_plus=np.full(11, 0.5), p_minus=np.full(11, 0.5),
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

    @pytest.mark.parametrize("alpha", [5.0, 10.0])
    def test_extremum_spacing_is_half_period(self, alpha):
        # half the fringe period 2 pi / alpha^2 that the phase gate sets
        curve = small_scan(alpha)
        assert extremum_spacing(curve) == pytest.approx(math.pi / alpha**2, rel=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            fringe_spacing_physical(-1.0, 1e-6)
        with pytest.raises(ValueError):
            fringe_spacing_physical(10.0, 0.0)


class TestBatchedKernel:
    """_conditional_batch over per-point alphas: each point gets the bits
    of a one-alpha call, in chunks of at most SCAN_CHUNK_POINTS."""

    ALPHAS = (0.4, 0.8, 5.0, 20.0, 3000.0)  # 0.4 and 0.8 mix past a quarter turn

    @staticmethod
    def grid(alpha, n_points):
        period = 2 * math.pi / alpha**2
        return np.linspace(-3 * period, 3 * period, n_points)

    @pytest.mark.parametrize("n_points", [1, 25, 801])
    def test_per_point_alphas_equal_per_alpha_calls_bit_for_bit(self, n_points):
        from catruler.physical_realization import SCAN_CHUNK_POINTS, _conditional_batch

        grids = [self.grid(a, n_points) if n_points > 1 else np.array([0.7]) for a in self.ALPHAS]
        singles = [_conditional_batch(a, t) for a, t in zip(self.ALPHAS, grids)]
        alphas = np.repeat(self.ALPHAS, n_points)
        thetas = np.concatenate(grids)
        # in grid order and shuffled, so that chunks mix the alphas
        order = np.random.default_rng(n_points).permutation(alphas.size)
        for index in (np.arange(alphas.size), order):
            batch = _conditional_batch(alphas[index], thetas[index])
            for field in ("joint", "weights", "leakage", "norm"):
                want = np.concatenate([getattr(b, field) for b in singles])[index]
                assert np.array_equal(getattr(batch, field), want), field
        assert (alphas.size > SCAN_CHUNK_POINTS) == (n_points == 801)

    def test_chunks_stay_within_the_cap(self, monkeypatch):
        from catruler import physical_realization as pr

        sizes = []
        chunk = pr._conditional_chunk

        def counting(alpha, thetas):
            sizes.append(len(thetas))
            return chunk(alpha, thetas)

        monkeypatch.setattr(pr, "_conditional_chunk", counting)
        spans = [(-0.1, 0.1)] * 3
        fringe_scans([5.0, 10.0, 20.0], spans, 801)
        assert sizes == [801, 801, 801]
        sizes.clear()
        fringe_scans([5.0, 10.0, 20.0], spans, 25)
        assert sizes == [75]
        sizes.clear()
        fringe_scan(20.0, -0.1, 0.1, pr.SCAN_CHUNK_POINTS)
        assert sizes == [pr.SCAN_CHUNK_POINTS]
        sizes.clear()
        # split evenly: two full chunks of 1201 take 2402 points, one more makes three
        pr._conditional_batch(np.full(2403, 5.0), np.linspace(-0.1, 0.1, 2403))
        assert sizes == [801, 801, 801]

    def test_scans_equal_one_scan_per_alpha(self):
        alphas = [2.0, 5.0, 20.0]
        spans = [(-0.3, 0.2), (-0.1, 0.1), (0.0, 0.05)]
        curves = fringe_scans(alphas, spans, 41)
        for alpha, (lo, hi), curve in zip(alphas, spans, curves):
            single = fringe_scan(alpha, lo, hi, 41)
            for field in ("theta", "p_plus", "p_minus", "leakage"):
                assert np.array_equal(getattr(curve, field), getattr(single, field))

    def test_every_setting_is_checked_before_the_kernel_runs(self):
        # alpha = 0.5 fails in the kernel (exit 3), but the later span is
        # a usage error and is found first
        with pytest.raises(ValueError, match="theta_min must be below theta_max"):
            fringe_scans([0.5, 5.0], [(-1.0, 1.0), (0.1, -0.1)], 11)
        with pytest.raises(ValueError):  # one span per alpha
            fringe_scans([5.0, 5.0], [(-0.1, 0.1)], 11)

    def test_failure_names_alpha_and_theta(self, monkeypatch):
        from catruler import physical_realization as pr

        kernel_erf = pr._threshold_kernel_erf

        def corrupt_one_point(amps, threshold):
            gram, kernel = kernel_erf(amps, threshold)
            kernel[7, 1, 2] = complex("nan")
            return gram, kernel

        monkeypatch.setattr(pr, "_threshold_kernel_erf", corrupt_one_point)
        spans = [(-0.1, 0.1), (-0.05, 0.05)]
        theta = float(np.linspace(-0.05, 0.05, 5)[2])  # point 7 is alpha 10's third
        with pytest.raises(IntegrationError, match=rf"alpha = 10.0, theta = {theta!r}: threshold"):
            fringe_scans([5.0, 10.0], spans, 5)

    # alpha 10's points are 5 to 9 of the batch, at theta = -0.05 ... 0.05
    SPANS = [(-0.1, 0.1), (-0.05, 0.05), (-0.025, 0.025)]

    @pytest.mark.parametrize("factor, message", [
        (math.nan, "outcome weight is not finite or carries an imaginary residue"),
        # the minus weight comes out 2.25 times too large, and leakage negative
        (1.5, "outcome weights exceed the two-mode norm"),
    ])
    def test_bad_minus_cat_norm_names_alpha_and_theta(self, monkeypatch, factor, message):
        from catruler import physical_realization as pr

        cat_norms = pr._cat_norms

        def faulty(alpha):
            n_plus, n_minus = cat_norms(alpha)
            return n_plus, n_minus * factor if alpha == 10.0 else n_minus

        monkeypatch.setattr(pr, "_cat_norms", faulty)
        with pytest.raises(IntegrationError, match=rf"alpha = 10\.0, theta = -0\.05: {message}"):
            fringe_scans([5.0, 10.0, 20.0], self.SPANS, 5)

    @pytest.mark.parametrize("plus, minus, message", [
        # a NaN plus-cat normalization breaks the two-mode norm and the weights
        (math.nan, 1.0, "two-mode norm differs"),
        # a minus weight 2.25 times too large makes leakage negative, and the
        # NaN threshold kernel breaks the joint, at the same points
        (1.0, 1.5, "outcome weights exceed the two-mode norm"),
    ])
    def test_the_earlier_of_two_failed_checks_is_named(self, monkeypatch, plus, minus, message):
        from catruler import physical_realization as pr

        cat_norms, kernel_erf = pr._cat_norms, pr._threshold_kernel_erf

        def faulty(alpha):
            n_plus, n_minus = cat_norms(alpha)
            return (plus * n_plus, minus * n_minus) if alpha == 10.0 else (n_plus, n_minus)

        def nan_at_alpha_ten(amps, threshold):
            gram, kernel = kernel_erf(amps, threshold)
            kernel[5:10] = math.nan
            return gram, kernel

        monkeypatch.setattr(pr, "_cat_norms", faulty)
        monkeypatch.setattr(pr, "_threshold_kernel_erf", nan_at_alpha_ten)
        with pytest.raises(IntegrationError, match=rf"alpha = 10\.0, theta = -0\.05: {message}"):
            fringe_scans([5.0, 10.0, 20.0], self.SPANS, 5)

    @pytest.mark.parametrize("factor", [-1e-13, 1.0 + 5e-10])
    def test_joint_is_clamped_into_the_weight(self, monkeypatch, factor):
        # the kernel of a threshold past every amplitude (the Gram matrix)
        # scaled just past either end of [0, 1], within the range check's
        # slack: every conditional probability reads that end exactly
        from catruler import physical_realization as pr

        kernel_erf = pr._threshold_kernel_erf

        def scaled_gram(amps, threshold):
            gram, _ = kernel_erf(amps, threshold)
            return gram, factor * gram

        monkeypatch.setattr(pr, "_threshold_kernel_erf", scaled_gram)
        curve = fringe_scan(5.0, -0.3, 0.3, 25)
        end = 0.0 if factor < 0 else 1.0
        assert np.all(curve.p_plus == end) and np.all(curve.p_minus == end)

    def test_weight_residue_is_judged_at_the_state_scale(self, monkeypatch):
        # 1.5e-9j on the diagonal of the homodyne Gram leaves each outcome
        # weight an imaginary residue of 1.5e-9 sum_k |raw_k|^2, and that sum
        # is 0.37 to 0.48 here: above the limit at its own scale, below it at
        # 1.  The residue also moves the two-mode norm by about 1.5e-9, so
        # the closure tolerance is widened to let the weight check speak
        from catruler import physical_realization as pr

        kernel_erf = pr._threshold_kernel_erf

        def residue_gram(amps, threshold):
            gram, kernel = kernel_erf(amps, threshold)
            return gram + 1.5e-9j * np.eye(4), kernel

        monkeypatch.setattr(pr, "_threshold_kernel_erf", residue_gram)
        monkeypatch.setattr(pr, "WEIGHT_CLOSURE_TOL", 1e-6)
        with pytest.raises(IntegrationError, match="outcome weight is not finite or carries an "
                           "imaginary residue"):
            pr._conditional_batch(5.0, np.linspace(-0.3, 0.3, 25))

    def test_conditional_above_one_names_alpha_and_theta(self, monkeypatch):
        # the threshold kernel (not the Gram) 1.5 times too large at alpha
        # 10's third point, theta = 0, where P+ is 0.994
        from catruler import physical_realization as pr

        kernel_erf = pr._threshold_kernel_erf

        def scaled_at_one_point(amps, threshold):
            gram, kernel = kernel_erf(amps, threshold)
            kernel[7] *= 1.5
            return gram, kernel

        monkeypatch.setattr(pr, "_threshold_kernel_erf", scaled_at_one_point)
        with pytest.raises(IntegrationError, match=r"alpha = 10\.0, theta = 0\.0: conditional "
                           "threshold probability escaped"):
            fringe_scans([5.0, 10.0, 20.0], self.SPANS, 5)


class TestPhaseOffset:
    def test_conditional_fringes_are_antiphase(self):
        # P+ and P- oscillate in antiphase: the bit-flip-corrected sum
        # P+ + P- stays near 1 and the correlation peak sits at half the
        # fringe period (not a quarter)
        alpha = 10.0
        period = 2 * math.pi / alpha**2
        curve = fringe_scan(alpha, 0.0, 2 * period, 241)
        offset = offset_reference.phase_offset(curve)
        assert offset == pytest.approx(period / 2, rel=0.1)
        mid = np.abs(curve.p_plus + curve.p_minus - 1.0)
        assert mid.max() < 0.06


class TestLoopReferences:
    """The vectorised helpers against the per-index loops they replaced:
    extremum search and half-level crossing walk."""

    @staticmethod
    def loop_extrema(theta, values):
        d = np.diff(values)
        positions, refined = [], []
        h = theta[1] - theta[0]
        for i in range(1, len(values) - 1):
            if d[i - 1] * d[i] >= 0:
                continue
            denom = values[i + 1] - 2.0 * values[i] + values[i - 1]
            if denom == 0.0:
                positions.append(theta[i])
                refined.append(values[i])
                continue
            shift = 0.5 * (values[i - 1] - values[i + 1]) / denom
            positions.append(theta[i] + shift * h)
            refined.append(values[i] - 0.25 * (values[i - 1] - values[i + 1]) * shift)
        return np.asarray(positions), np.asarray(refined)

    @classmethod
    def loop_width(cls, curve):
        theta, f = curve.theta, curve.fringe
        if not (theta[0] < 0.0 < theta[-1]):
            raise WidthUndefinedError("scan window must bracket theta = 0")
        half = 0.5 * (f.max() + f.min())
        positions, _ = cls.loop_extrema(theta, f)
        center = positions[np.argmin(np.abs(positions))] if positions.size else 0.0
        i0 = int(np.argmin(np.abs(theta - center)))

        def crossing(direction):
            i = i0
            while 0 <= i + direction < len(theta):
                j = i + direction
                if (f[i] - half) * (f[j] - half) <= 0.0 and f[i] != f[j]:
                    frac = (half - f[i]) / (f[j] - f[i])
                    return float(theta[i] + frac * (theta[j] - theta[i]))
                i = j
            raise WidthUndefinedError(
                "no half-amplitude crossing on "
                + ("the right" if direction > 0 else "the left")
                + " of the central extremum"
            )

        return crossing(+1) - crossing(-1)

    def test_width_equals_the_crossing_walk(self):
        # spans in fringe periods, two of them leaving one side of the
        # central extremum without a crossing
        spans = [(-3.0, 3.0), (-0.6, 0.6), (-0.1, 2.0), (-2.0, 0.08), (-0.04, 0.03)]
        outcomes = []
        for alpha in (0.8, 2.0, 5.0, 20.0, 300.0, 3000.0):
            period = 2 * math.pi / alpha**2
            for n_points in (5, 25, 101, 801):
                for lo, hi in spans:
                    curve = fringe_scan(alpha, lo * period, hi * period, n_points)
                    try:
                        want = self.loop_width(curve)
                    except WidthUndefinedError as exc:
                        with pytest.raises(WidthUndefinedError) as got:
                            central_fringe_width(curve)
                        assert str(got.value) == str(exc)
                        outcomes.append(str(exc))
                        continue
                    assert central_fringe_width(curve) == want
                    outcomes.append("width")
        assert "width" in outcomes
        assert any("on the right" in o for o in outcomes)
        assert any("on the left" in o for o in outcomes)

    @pytest.mark.parametrize("alpha", [5.0, 10.0, 20.0])
    def test_extrema_equal_the_loop(self, alpha):
        from catruler.physical_realization import _local_extrema

        curve = small_scan(alpha, n_points=301)
        rng = np.random.default_rng(int(alpha))
        noisy = curve.fringe + rng.normal(0.0, 1e-3, curve.fringe.size)
        for values in (curve.fringe, noisy):
            got = _local_extrema(curve.theta, values)
            want = self.loop_extrema(curve.theta, values)
            assert got[0].size > 0
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
