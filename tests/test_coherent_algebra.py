"""Tests for the closed-form coherent-state algebra.

Derived expectations are computed here by independent routes: truncated
number-basis series built inline with numpy, and direct adaptive
quadrature of the wave functions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from catruler.coherent_algebra import (
    CANONICAL_CONVENTION,
    CoherentSuperposition,
    QuadratureConvention,
    _hermitian_value,
    beamsplitter,
    displace,
    norm_squared,
    overlap,
    quadrature_wavefunction,
    threshold_probability,
)
from catruler.errors import CatRulerError, IntegrationError, NormalizationError

TIGHT = 1e-12
SELF_CONSISTENCY_TOL = 1e-8


def fock_series(gamma, n_max=60):
    """Independent number-basis expansion of |gamma> (test-local oracle)."""
    coeffs = np.empty(n_max + 1, dtype=complex)
    coeffs[0] = np.exp(-abs(gamma) ** 2 / 2)
    for n in range(1, n_max + 1):
        coeffs[n] = coeffs[n - 1] * gamma / np.sqrt(n)
    return coeffs


class TestOverlap:
    def test_identity(self):
        for gamma in (0.0, 2.0, 1 + 1j, -3.5j):
            assert overlap(gamma, gamma) == pytest.approx(1.0, abs=TIGHT)

    def test_vacuum_with_real_amplitude_matches_fock_series(self):
        by_series = np.vdot(fock_series(0.0), fock_series(2.0))
        assert overlap(0.0, 2.0) == pytest.approx(by_series, abs=1e-12)
        assert overlap(0.0, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_imaginary_with_real_matches_fock_series(self):
        by_series = np.vdot(fock_series(1j), fock_series(1.0))
        value = overlap(1j, 1.0)
        assert value == pytest.approx(by_series, abs=1e-12)
        assert value == pytest.approx(np.exp(-1 - 1j), abs=1e-12)
        assert abs(value) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            t = complex(rng.normal(scale=2), rng.normal(scale=2))
            g = complex(rng.normal(scale=2), rng.normal(scale=2))
            assert overlap(t, g) == pytest.approx(np.conj(overlap(g, t)), abs=TIGHT)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = complex(rng.normal(scale=3), rng.normal(scale=3))
            g = complex(rng.normal(scale=3), rng.normal(scale=3))
            mag = abs(overlap(t, g))
            assert mag <= 1.0 + TIGHT
            if t != g:
                assert mag < 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            overlap(float("nan"), 1.0)
        with pytest.raises(ValueError):
            overlap(1.0, complex(float("inf"), 0))


class TestNormSquared:
    def test_single_term(self):
        for gamma in (0.0, 2.0, 1 - 2j):
            assert norm_squared(CoherentSuperposition.single(gamma)) == pytest.approx(1.0, abs=TIGHT)

    def test_unnormalized_cat_matches_fock_series(self):
        s = CoherentSuperposition(((1.0, 0.0), (1.0, 2.0)))
        vec = fock_series(0.0) + fock_series(2.0)
        expected = float(np.vdot(vec, vec).real)
        assert norm_squared(s) == pytest.approx(expected, abs=1e-10)
        assert norm_squared(s) == pytest.approx(2 + 2 * math.exp(-2.0), abs=1e-12)

    def test_exact_cancellation(self):
        s = CoherentSuperposition(((1.0, 0.0), (-1.0, 0.0)))
        assert norm_squared(s) == 0.0

    def test_near_cancellation_clamps_to_zero(self):
        s = CoherentSuperposition(((1.0, 1.0), (-1.0, 1.0 + 1e-10)))
        assert norm_squared(s) >= 0.0

    def test_corrupted_quadratic_form_raises(self):
        # non-Hermitian kernel stands in for corrupted coefficients
        kernel = np.array([[1.0, 1j], [0.0, 1.0]])
        with pytest.raises(NormalizationError):
            _hermitian_value(np.array([1.0, 1.0], dtype=complex), kernel, "test form")

    def test_non_finite_quadratic_form_raises(self):
        kernel = np.array([[1.0, complex("nan")], [complex("nan"), 1.0]])
        with pytest.raises(NormalizationError):
            _hermitian_value(np.array([1.0, 1.0], dtype=complex), kernel, "test form")

    def test_cat_orthogonality(self):
        # normalized plus and minus cats are exactly orthogonal
        for alpha in (0.5, 1.0, 2.0, 5.0):
            eps = math.exp(-(alpha**2) / 2)
            n_plus = 1 / math.sqrt(2 + 2 * eps)
            n_minus = 1 / math.sqrt(2 - 2 * eps)
            plus = CoherentSuperposition(((n_plus, 0.0), (n_plus, alpha)))
            minus = CoherentSuperposition(((n_minus, 0.0), (-n_minus, alpha)))
            inner = sum(
                np.conj(cp) * cm * overlap(gp, gm)
                for cp, gp in plus.terms
                for cm, gm in minus.terms
            )
            assert abs(inner) < TIGHT


class TestDisplace:
    def test_cat_basis_transformation(self):
        # (|0> +- |a>)/sqrt2 displaced by -a/2 -> (|-a/2> +- |a/2>)/sqrt2
        alpha = 2.0
        w = math.sqrt(0.5)
        for sign in (+1.0, -1.0):
            cat = CoherentSuperposition(((w, 0.0), (sign * w, alpha)))
            moved = displace(cat, -alpha / 2)
            assert moved.amplitudes == pytest.approx([-alpha / 2, alpha / 2])
            # real displacement of real amplitudes: no phase factors
            assert moved.coefficients == pytest.approx([w, sign * w], abs=TIGHT)

    def test_zero_displacement_is_identity(self):
        s = CoherentSuperposition(((0.3 + 0.1j, 1.5), (0.7, -2j)))
        assert displace(s, 0.0).terms == s.terms

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = CoherentSuperposition(
                tuple(
                    (complex(rng.normal(), rng.normal()), complex(rng.normal(scale=2), rng.normal(scale=2)))
                    for _ in range(3)
                )
            )
            d = complex(rng.normal(), rng.normal())
            assert norm_squared(displace(s, d)) == pytest.approx(norm_squared(s), abs=1e-11)

    def test_composition_up_to_global_phase(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = CoherentSuperposition(
                tuple((complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())) for _ in range(2))
            )
            d1 = complex(rng.normal(), rng.normal())
            d2 = complex(rng.normal(), rng.normal())
            two_step = displace(displace(s, d1), d2)
            one_step = displace(s, d1 + d2)
            n_two, n_one = norm_squared(two_step), norm_squared(one_step)
            assert n_two == pytest.approx(n_one, abs=1e-12)
            inner = sum(
                np.conj(ca) * cb * overlap(ga, gb)
                for ca, ga in two_step.terms
                for cb, gb in one_step.terms
            )
            assert abs(inner) == pytest.approx(math.sqrt(n_two * n_one), abs=1e-10)


class TestBeamsplitter:
    def test_zero_angle_identity(self):
        assert beamsplitter(1.5 - 0.5j, 2j, 0.0) == (1.5 - 0.5j, 2j)

    def test_vacuum_second_port(self):
        g, phi = 2.0 + 1j, 0.7
        out_a, out_b = beamsplitter(g, 0.0, phi)
        assert out_a == pytest.approx(g * math.cos(phi))
        assert out_b == pytest.approx(1j * g * math.sin(phi))

    def test_symmetric_point(self):
        out_a, out_b = beamsplitter(2.0, 1.0, math.pi / 4)
        r = math.sqrt(0.5)
        assert out_a == pytest.approx((2 + 1j) * r, abs=TIGHT)
        assert out_b == pytest.approx((1 + 2j) * r, abs=TIGHT)

    def test_energy_conservation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = complex(rng.normal(scale=3), rng.normal(scale=3))
            b = complex(rng.normal(scale=3), rng.normal(scale=3))
            phi = rng.uniform(-np.pi, np.pi)
            out_a, out_b = beamsplitter(a, b, phi)
            assert abs(out_a) ** 2 + abs(out_b) ** 2 == pytest.approx(
                abs(a) ** 2 + abs(b) ** 2, abs=1e-12 * (1 + abs(a) ** 2 + abs(b) ** 2)
            )


class TestQuadratureWavefunction:
    def test_vacuum_peaks_at_origin(self):
        x = np.linspace(-3, 3, 601)
        density = np.abs(quadrature_wavefunction(0.0, x)) ** 2
        assert x[np.argmax(density)] == pytest.approx(0.0, abs=0.02)

    def test_unit_norm_by_quadrature(self):
        gamma = 3 + 2j
        total = quad(lambda x: abs(quadrature_wavefunction(gamma, x)) ** 2, -20, 30, limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_alpha_cross_integral(self):
        alpha = 2.0
        re = quad(lambda x: (np.conj(quadrature_wavefunction(0.0, x)) * quadrature_wavefunction(alpha, x)).real, -15, 15, limit=200)[0]
        im = quad(lambda x: (np.conj(quadrature_wavefunction(0.0, x)) * quadrature_wavefunction(alpha, x)).imag, -15, 15, limit=200)[0]
        assert re + 1j * im == pytest.approx(math.exp(-(alpha**2) / 2), abs=1e-9)

    def test_mean_and_variance_follow_convention(self):
        gamma = 1.5 - 0.8j
        mean = quad(lambda x: x * abs(quadrature_wavefunction(gamma, x)) ** 2, -15, 15, limit=200)[0]
        assert mean == pytest.approx(gamma.real, abs=1e-9)
        var = quad(
            lambda x: (x - gamma.real) ** 2 * abs(quadrature_wavefunction(gamma, x)) ** 2,
            -15, 15, limit=200,
        )[0]
        assert var == pytest.approx(CANONICAL_CONVENTION.variance, abs=1e-9)

    def test_overlap_self_consistency_property(self):
        # the convention must reproduce <t|g> for arbitrary pairs
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            t = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            g = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            re = quad(lambda x: (np.conj(quadrature_wavefunction(t, x)) * quadrature_wavefunction(g, x)).real, -30, 30, limit=300)[0]
            im = quad(lambda x: (np.conj(quadrature_wavefunction(t, x)) * quadrature_wavefunction(g, x)).imag, -30, 30, limit=300)[0]
            worst = max(worst, abs(re + 1j * im - overlap(t, g)))
        assert worst < SELF_CONSISTENCY_TOL

    def test_inconsistent_convention_rejected(self):
        bad = QuadratureConvention(mean_scale=1.0, variance=0.5)
        with pytest.raises(ValueError, match="inconsistent"):
            quadrature_wavefunction(1.0, 0.0, bad)

    def test_rescaled_convention_is_consistent(self):
        conv = QuadratureConvention(mean_scale=2.0, variance=1.0)
        gamma = 1.2 + 0.3j
        total = quad(lambda x: abs(quadrature_wavefunction(gamma, x, conv)) ** 2, -20, 25, limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-9)
        mean = quad(lambda x: x * abs(quadrature_wavefunction(gamma, x, conv)) ** 2, -20, 25, limit=200)[0]
        assert mean == pytest.approx(2.0 * gamma.real, abs=1e-9)


class TestThresholdProbability:
    def test_coherent_at_own_mean_is_half(self):
        s = CoherentSuperposition.single(3.0)
        for method in ("quad", "erf"):
            assert threshold_probability(s, 3.0, method=method) == pytest.approx(0.5, abs=1e-9)

    def test_vacuum_below_distant_threshold(self):
        # threshold at the mean of |alpha/2> with alpha = 5
        s = CoherentSuperposition.single(0.0)
        p = threshold_probability(s, 2.5)
        assert p >= 1 - 1e-3
        # erf-based expectation: Phi(2.5 / 0.5)
        expected = 0.5 * (1 + math.erf(2.5 / (0.5 * math.sqrt(2))))
        assert p == pytest.approx(expected, abs=1e-9)

    def test_plus_cat_against_fock_oracle(self):
        from catruler import fock_oracle

        alpha = 2.0
        w = 1 / math.sqrt(2 + 2 * math.exp(-(alpha**2) / 2))
        s = CoherentSuperposition(((w, 0.0), (w, alpha)))
        analytic = threshold_probability(s, alpha / 2)
        by_fock = fock_oracle.quadrature_cdf_fock(
            fock_oracle.superposition_to_fock(s, 60), alpha / 2
        )
        assert abs(analytic - by_fock) < 1e-6

    def test_quad_and_erf_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            terms = tuple(
                (complex(rng.normal(), rng.normal()), complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
                for _ in range(3)
            )
            s = CoherentSuperposition(terms)
            threshold = rng.uniform(-4, 4)
            a = threshold_probability(s, threshold, method="quad")
            b = threshold_probability(s, threshold, method="erf")
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))

    def test_checked_method_runs(self):
        s = CoherentSuperposition.single(1.0)
        assert threshold_probability(s, 1.0, method="checked") == pytest.approx(0.5, abs=1e-9)

    def test_unreachable_tolerance_raises(self):
        # widely separated peaks cannot be resolved with one subdivision
        s = CoherentSuperposition(((0.5, -8.0), (0.5, 8.0)))
        with pytest.raises(IntegrationError):
            threshold_probability(s, 10.0, method="quad", quad_limit=1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            threshold_probability(CoherentSuperposition.single(0.0), 0.0, method="simpson")

    def test_wide_imaginary_separation_is_finite(self):
        # an underflowing overlap times an overflowing complex erf used to
        # give NaN here; the Faddeeva form keeps the product finite
        s = CoherentSuperposition(((1, 20j), (1, -20j))).normalized()
        exact = threshold_probability(s, 0.3, method="erf")
        assert exact == pytest.approx(0.71815, abs=1e-5)
        assert abs(exact - threshold_probability(s, 0.3, method="quad")) <= 1e-8

    def test_far_lower_tail_keeps_relative_precision(self):
        # below every mean the kernel takes the exp(-z^2) w(-iz) branch,
        # which neither cancels against 2 nor overflows
        s = CoherentSuperposition.single(0.0)
        for threshold in (-3.0, -8.0, -30.0):
            expected = 0.5 * math.erfc(-threshold / (0.5 * math.sqrt(2)))
            assert threshold_probability(s, threshold) == pytest.approx(expected, rel=1e-12, abs=0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        separation=st.floats(0.0, 100.0),
        shift=st.floats(-3.0, 3.0),
        offset=st.floats(-2.0, 2.0),
        phase=st.floats(0.0, 2 * math.pi),
        threshold=st.floats(-3.0, 3.0),
    )
    def test_erf_matches_quad_at_wide_separations(
        self, separation, shift, offset, phase, threshold
    ):
        s = CoherentSuperposition((
            (1.0, complex(shift, separation / 2)),
            (complex(math.cos(phase), math.sin(phase)), complex(shift + offset, -separation / 2)),
            (0.5, complex(-shift, 0.3 * separation)),
        )).normalized()
        exact = threshold_probability(s, threshold, method="erf")
        assert abs(exact - threshold_probability(s, threshold, method="quad")) <= 1e-8

    def test_nan_from_quadrature_fails_the_range_guard(self, monkeypatch):
        from catruler import coherent_algebra as ca

        monkeypatch.setattr(ca, "_threshold_quad", lambda *args: math.nan)
        with pytest.raises(IntegrationError, match="escaped"):
            threshold_probability(CoherentSuperposition.single(0.0), 0.0, method="quad")

    def test_checked_path_rejects_nan_closed_form(self, monkeypatch):
        from catruler import coherent_algebra as ca

        kernel_erf = ca._threshold_kernel_erf

        def nan_kernel(amps, threshold, s):
            gram, kernel = kernel_erf(amps, threshold, s)
            return gram, np.full_like(kernel, complex("nan"))

        monkeypatch.setattr(ca, "_threshold_kernel_erf", nan_kernel)
        with pytest.raises(CatRulerError):
            threshold_probability(CoherentSuperposition.single(1.0), 1.0, method="checked")

    def test_result_bounded_by_norm(self):
        s = CoherentSuperposition(((1.0, 0.0), (1.0, 2.0)))  # norm^2 = 2 + 2e^-2
        p = threshold_probability(s, 50.0)
        assert p == pytest.approx(norm_squared(s), rel=1e-9)


class TestSuperpositionType:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CoherentSuperposition(())

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            CoherentSuperposition(((complex("nan"), 0.0),))

    def test_normalized(self):
        s = CoherentSuperposition(((2.0, 0.5), (1j, -0.5))).normalized()
        assert norm_squared(s) == pytest.approx(1.0, abs=1e-12)

    def test_normalize_zero_raises(self):
        s = CoherentSuperposition(((1.0, 0.0), (-1.0, 0.0)))
        with pytest.raises(NormalizationError):
            s.normalized()

    def test_convention_validation(self):
        with pytest.raises(ValueError):
            QuadratureConvention(mean_scale=0.0)
        with pytest.raises(ValueError):
            QuadratureConvention(variance=-1.0)
