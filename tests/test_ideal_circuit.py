"""Tests for the idealized circuit: Hadamards, phase gate, SNR law."""

import cmath
import math

import numpy as np
import pytest

from catruler.coherent_algebra import CoherentSuperposition, norm_squared
from catruler.ideal_circuit import (
    LogicalQubit,
    PropagationSetting,
    cat_mean_photon_number,
    detection_probabilities,
    hadamard,
    ideal_output,
    phase_gate_error,
    prepare_plus_cat,
    propagate_exact,
    snr_ideal,
    snr_monte_carlo,
    v_theta_from_length_power,
)
from catruler.squeezed_baseline import equal_power_params, snr_squeezed


def random_qubit(rng, alpha=5.0):
    c0 = complex(rng.normal(), rng.normal())
    c1 = complex(rng.normal(), rng.normal())
    n = math.sqrt(abs(c0) ** 2 + abs(c1) ** 2)
    return LogicalQubit(c0 / n, c1 / n, alpha)


class TestHadamard:
    def test_basis_actions(self):
        zero = LogicalQubit(1.0, 0.0, 4.0)
        one = LogicalQubit(0.0, 1.0, 4.0)
        r = math.sqrt(0.5)
        h0 = hadamard(zero)
        assert (h0.c0, h0.c1) == pytest.approx((r, r))
        h1 = hadamard(one)
        assert (h1.c0, h1.c1) == pytest.approx((r, -r))

    def test_involution(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            q = random_qubit(rng)
            back = hadamard(hadamard(q))
            assert back.c0 == pytest.approx(q.c0, abs=1e-15)
            assert back.c1 == pytest.approx(q.c1, abs=1e-15)

    def test_norm_invariant_enforced(self):
        with pytest.raises(ValueError):
            LogicalQubit(1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            LogicalQubit(1.0, 0.0, -1.0)

    def test_as_superposition_bridges_to_optical_state(self):
        alpha = 3.0
        q = ideal_output(alpha, 0.07)
        s = q.as_superposition()
        # norm includes the finite <0|alpha> interference the logical
        # layer neglects
        eps = math.exp(-(alpha**2) / 2)
        expected = 1.0 + 2 * (np.conj(q.c0) * q.c1).real * eps
        assert norm_squared(s) == pytest.approx(expected, abs=1e-12)


class TestPreparePlusCat:
    def test_exact_normalization(self):
        s = prepare_plus_cat(2.0, exact_norm=True)
        assert norm_squared(s) == pytest.approx(1.0, abs=1e-12)

    def test_equal_weight_norm(self):
        s = prepare_plus_cat(2.0)
        assert norm_squared(s) == pytest.approx(1 + math.exp(-2.0), abs=1e-12)

    def test_variants_converge_at_large_alpha(self):
        a = prepare_plus_cat(6.0)
        b = prepare_plus_cat(6.0, exact_norm=True)
        diff = max(abs(ca - cb) for (ca, _), (cb, _) in zip(a.terms, b.terms))
        assert diff < 1e-8


class TestPropagation:
    def test_zero_is_identity(self):
        s = prepare_plus_cat(3.0)
        assert propagate_exact(s, 0.0).terms == s.terms

    def test_quarter_turn(self):
        s = CoherentSuperposition.single(2.0)
        out = propagate_exact(s, math.pi / 2)
        assert out.amplitudes[0] == pytest.approx(2j, abs=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        s = CoherentSuperposition(
            tuple((complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())) for _ in range(4))
        )
        assert norm_squared(propagate_exact(s, 1.234)) == pytest.approx(norm_squared(s), abs=1e-11)

    def test_composition(self):
        s = CoherentSuperposition.single(1.0 - 0.5j)
        a = propagate_exact(propagate_exact(s, 0.3), 0.4)
        b = propagate_exact(s, 0.7)
        assert a.amplitudes[0] == pytest.approx(b.amplitudes[0], abs=1e-14)


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
        q = ideal_output(5.0, 0.0)
        assert abs(q.c0) == pytest.approx(1.0, abs=1e-15)
        assert abs(q.c1) == pytest.approx(0.0, abs=1e-15)

    def test_pi_over_alpha_squared_flips(self):
        alpha = 5.0
        q = ideal_output(alpha, math.pi / alpha**2)
        assert abs(q.c0) < 1e-12
        assert abs(q.c1) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_point(self):
        alpha = 3.0
        q = ideal_output(alpha, math.pi / (2 * alpha**2))
        assert abs(q.c0) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(q.c1) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_fringe_periodicity(self):
        alpha = 7.0
        period = 2 * math.pi / alpha**2
        for theta in (0.0, 0.1, 1.0):
            a = ideal_output(alpha, theta)
            b = ideal_output(alpha, theta + period)
            assert a.c0 == pytest.approx(b.c0, abs=1e-12)
            assert a.c1 == pytest.approx(b.c1, abs=1e-12)


class TestSnrIdeal:
    def test_zero_fluctuations(self):
        assert snr_ideal(0.0, 10.0) == 0.0

    def test_direct_substitution(self):
        assert snr_ideal(1e-4, 10.0) == pytest.approx(0.25, abs=1e-15)

    def test_monte_carlo_agreement(self):
        alpha, v_theta = 20.0, 1e-8
        mc = snr_monte_carlo(alpha, v_theta, n_samples=20000, rng_seed=0)
        assert mc == pytest.approx(snr_ideal(v_theta, alpha), rel=0.05)

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
        q = ideal_output(6.0, 0.01)
        p1, p0 = detection_probabilities(q)
        assert p1 == pytest.approx(abs(q.c1) ** 2, abs=1e-15)
        assert p0 == pytest.approx(abs(q.c0) ** 2, abs=1e-15)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_exact_overlap_correction_small_alpha(self):
        q = ideal_output(1.0, 0.3)
        p1_exact, p0_exact = detection_probabilities(q, exact_overlaps=True)
        p1_orth, p0_orth = detection_probabilities(q)
        eps = math.exp(-0.5)
        assert p1_exact == pytest.approx(abs(q.c0 * eps + q.c1) ** 2, abs=1e-15)
        assert p1_exact != pytest.approx(p1_orth, abs=1e-6)
        assert p0_exact == pytest.approx(abs(q.c0 + q.c1 * eps) ** 2, abs=1e-15)


class TestPropagationSetting:
    def test_from_lengths(self):
        setting = PropagationSetting(2.5e-7, 1e-6)
        assert setting.theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_from_phase_roundtrip(self):
        setting = PropagationSetting.from_phase(0.1, 1.55e-6)
        assert setting.delta == pytest.approx(0.1 * 1.55e-6 / (2 * math.pi), abs=1e-20)

    def test_length_power_conversion(self):
        wavelength = 1e-6
        v_delta = 1e-18
        expected = (2 * math.pi / wavelength) ** 2 * v_delta
        assert v_theta_from_length_power(v_delta, wavelength) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(ValueError):
            v_theta_from_length_power(-1.0, wavelength)
