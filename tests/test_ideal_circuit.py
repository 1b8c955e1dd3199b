"""Tests for the idealized circuit: closed-form output, phase gate, SNR law."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from catruler.ideal_circuit import (
    cat_mean_photon_number,
    detection_probabilities,
    ideal_output,
    phase_gate_error,
    snr_ideal,
    v_theta_from_length_power,
)
from catruler.squeezed_baseline import equal_power_params, snr_squeezed

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


class TestPhaseGateError:
    def test_zero_phase(self):
        assert phase_gate_error(10.0, 0.0) == 0.0

    def test_small_phase_example(self):
        # beta = 10, theta = 1e-3: overlap magnitude e^{-beta^2(1-cos t)}
        err = phase_gate_error(10.0, 1e-3)
        magnitude = math.exp(-100 * (1 - math.cos(1e-3)))
        assert magnitude == pytest.approx(math.exp(-5e-5), abs=1e-9)
        assert err < 1e-4

    def test_working_point(self):
        # theta beta^2 = pi/2, the control-gate operating point
        err = phase_gate_error(10.0, math.pi / 200)
        assert err < 0.05

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            beta = rng.uniform(0, 20)
            theta = rng.uniform(-0.05, 0.05)
            exact = cmath.exp(-beta**2 * (1 - math.cos(theta) - 1j * math.sin(theta)))
            approx = cmath.exp(1j * theta * beta**2)
            assert phase_gate_error(beta, theta) == pytest.approx(abs(exact - approx), abs=1e-14)

    def test_matches_mpmath_to_rounding(self):
        # the README grid (phase-error --alpha 1,2,5,10 --theta-max 0.01)
        # and seeded points; subtracting the two exponentials, as the
        # definition reads, reached 1.2e-9 relative here
        readme = np.linspace(0.0, 0.01, 26)
        rng = np.random.default_rng(11)
        seeded = [(rng.uniform(0, 20), rng.uniform(-0.05, 0.05)) for _ in range(300)]
        points = [(b, t) for b in (1.0, 2.0, 5.0, 10.0) for t in readme] + seeded
        worst = 0.0
        with mpmath.workdps(60):
            for beta, theta in points:
                b, t = mpmath.mpf(beta), mpmath.mpf(theta)
                exact = mpmath.exp(-b**2 * (1 - mpmath.cos(t) - 1j * mpmath.sin(t)))
                want = abs(exact - mpmath.exp(1j * t * b**2))
                got = phase_gate_error(beta, theta)
                worst = max(worst, float(abs(got - want) / want) if want else got)
        assert worst <= 2e-15

    def test_broadcasts_over_theta(self):
        thetas = np.linspace(-0.03, 0.03, 12).reshape(3, 4)
        errors = phase_gate_error(5.0, thetas)
        assert errors.shape == (3, 4)
        assert [phase_gate_error(5.0, t) for t in thetas.ravel()] == list(errors.ravel())
        assert isinstance(phase_gate_error(5.0, 0.01), float)

    def test_overflowing_phase_difference_is_finite(self):
        # theta beta^2 is finite, beta^2 (sin theta - theta) is not: the
        # magnitude exp(x/2) underflows to 0 and the error is 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phase_gate_error(6.6e153, 4.0) == 1.0

    def test_quadratic_bound_in_weak_regime(self):
        # error <= C * theta^2 beta^2 with C <= 1 wherever theta^2 beta^2 <= 0.01
        worst_ratio = 0.0
        for beta in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
            for x in np.linspace(1e-4, 0.01, 25):  # x = theta^2 beta^2
                theta = math.sqrt(x) / beta
                ratio = phase_gate_error(beta, theta) / x
                worst_ratio = max(worst_ratio, ratio)
        assert worst_ratio <= 1.0
        # the empirical constant sits near 1/2
        assert 0.4 < worst_ratio < 0.6


class TestIdealOutput:
    def test_zero_phase_gives_vacuum(self):
        c0, c1 = ideal_output(5.0, 0.0)
        assert abs(c0) == pytest.approx(1.0, abs=1e-15)
        assert abs(c1) == pytest.approx(0.0, abs=1e-15)

    def test_pi_over_alpha_squared_flips(self):
        alpha = 5.0
        c0, c1 = ideal_output(alpha, math.pi / alpha**2)
        assert abs(c0) < 1e-12
        assert abs(c1) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_point(self):
        alpha = 3.0
        c0, c1 = ideal_output(alpha, math.pi / (2 * alpha**2))
        assert abs(c0) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(c1) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_fringe_periodicity(self):
        alpha = 7.0
        period = 2 * math.pi / alpha**2
        thetas = np.array([0.0, 0.1, 1.0])
        a0, a1 = ideal_output(alpha, thetas)
        b0, b1 = ideal_output(alpha, thetas + period)
        np.testing.assert_allclose(a0, b0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a1, b1, rtol=0, atol=1e-12)

    def test_broadcasts_over_theta(self):
        thetas = np.linspace(-0.2, 0.2, 12).reshape(3, 4)
        c0, c1 = ideal_output(2.0, thetas)
        assert c0.shape == c1.shape == (3, 4)
        for theta, a0, a1 in zip(thetas.ravel(), c0.ravel(), c1.ravel()):
            s0, s1 = ideal_output(2.0, theta)
            assert (a0, a1) == (s0, s1)

    def test_matches_hadamard_phase_hadamard_matrices(self):
        # H diag(1, e^{i theta alpha^2}) H (1, 0), one 2 x 2 product per theta
        alpha = 2.5
        thetas = np.linspace(-2 * math.pi / alpha**2, 2 * math.pi / alpha**2, 41)
        c0, c1 = ideal_output(alpha, thetas)
        for theta, a0, a1 in zip(thetas, c0, c1):
            gate = np.diag([1.0, cmath.exp(1j * theta * alpha**2)])
            expected = HADAMARD @ gate @ HADAMARD @ np.array([1.0, 0.0])
            np.testing.assert_allclose([a0, a1], expected, rtol=0, atol=1e-15)


class TestSnrIdeal:
    def test_zero_fluctuations(self):
        assert snr_ideal(0.0, 10.0) == 0.0

    def test_direct_substitution(self):
        assert snr_ideal(1e-4, 10.0) == pytest.approx(0.25, abs=1e-15)

    def test_quadrature_agreement(self):
        # E[P(|1>) / P(|0>)] of the exact circuit over theta ~ N(0, v_theta),
        # by 20-node Gauss-Hermite quadrature (40 and 80 nodes agree to
        # rounding).  The ratio is tan^2(nbar theta); its small-phase
        # asymptotic series in s = v_theta nbar^2 reads
        # s (1 + 2 s + 17/3 s^2) + 20.7 s^4 + ...  The Gaussian mean itself
        # diverges at the poles of tan, which the quadrature nodes stay far from.
        nodes, weights = hermgauss(20)
        for alpha, v_theta in [(20.0, 1e-8), (10.0, 1e-6)]:
            p_one, p_zero = detection_probabilities(alpha, math.sqrt(2.0 * v_theta) * nodes)
            average = weights @ (p_one / p_zero) / math.sqrt(math.pi)
            s = snr_ideal(v_theta, alpha)
            assert average == pytest.approx(s * (1 + 2 * s + 17 / 3 * s**2), rel=25 * s**3)

    @pytest.mark.parametrize("v_theta", [-1.0, math.nan, math.inf])
    def test_rejects_bad_fluctuation_power(self, v_theta):
        with pytest.raises(ValueError, match="v_theta must be nonnegative and finite"):
            snr_ideal(v_theta, 2.0)

    def test_finite_product_past_the_square_limits(self):
        # nbar = 1e300 squares past the float range, nbar = 5e-301 below it,
        # yet v_theta nbar^2 is a finite double at both
        assert snr_ideal(1e-300, math.sqrt(2e300)) == pytest.approx(1e300, rel=1e-12)
        assert snr_ideal(1e300, 1e-150) == pytest.approx(2.5e-301, rel=1e-12, abs=0)

    def test_four_times_squeezed_benchmark_asymptotically(self):
        n_bar = 1e4
        v_theta = 1e-6
        ratio = snr_ideal(v_theta, math.sqrt(2 * n_bar)) / snr_squeezed(
            equal_power_params(n_bar, v_theta)
        )
        assert ratio == pytest.approx(4.0, rel=0.01)

    def test_mean_photon_number(self):
        assert cat_mean_photon_number(4.0) == 8.0
        exact = cat_mean_photon_number(2.0, exact=True)
        assert exact == pytest.approx(4.0 / (2 + 2 * math.exp(-2.0)), abs=1e-12)


class TestDetectionProbabilities:
    def test_orthogonal_limit(self):
        # at alpha = 10 the overlap e^{-alpha^2/2} is 2e-22, far below the tolerance
        alpha, thetas = 10.0, np.array([0.0, 0.01, 0.02])
        c0, c1 = ideal_output(alpha, thetas)
        p1, p0 = detection_probabilities(alpha, thetas)
        np.testing.assert_allclose(p1, abs(c1) ** 2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(p0, abs(c0) ** 2, rtol=0, atol=1e-15)
        np.testing.assert_allclose(p0 + p1, 1.0, rtol=0, atol=1e-12)

    def test_exact_overlap_correction_small_alpha(self):
        c0, c1 = ideal_output(1.0, 0.3)
        p1, p0 = detection_probabilities(1.0, 0.3)
        eps = math.exp(-0.5)
        assert p1 == pytest.approx(abs(c0 * eps + c1) ** 2, abs=1e-15)
        assert p1 != pytest.approx(abs(c1) ** 2, abs=1e-6)
        assert p0 == pytest.approx(abs(c0 + c1 * eps) ** 2, abs=1e-15)


class TestPropagationSetting:
    """A path-length setting at a wavelength, seen as a phase."""

    def test_length_power_conversion(self):
        wavelength = 1e-6
        v_delta = 1e-18
        expected = (2 * math.pi / wavelength) ** 2 * v_delta
        assert v_theta_from_length_power(v_delta, wavelength) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(ValueError):
            v_theta_from_length_power(-1.0, wavelength)

    def test_length_power_conversion_at_the_float_limits(self):
        # 2 pi / wavelength is inf at 5e-324, and its square overflows at
        # 1e-200, but (2 pi / wavelength)^2 v_delta is finite at both
        assert v_theta_from_length_power(0.0, 5e-324) == 0.0
        expected = float((2 * mpmath.pi / mpmath.mpf(1e-200)) ** 2 * mpmath.mpf(1e-300))
        assert v_theta_from_length_power(1e-300, 1e-200) == pytest.approx(expected, rel=1e-12)
