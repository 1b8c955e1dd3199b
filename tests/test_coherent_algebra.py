"""Tests for the closed-form coherent-state algebra.

Derived expectations are computed here by independent routes: truncated
number-basis series built inline with numpy, direct adaptive quadrature
of the wave functions (quad_reference), scipy's and mpmath's Faddeeva
function, and the FFT derivation of the Faddeeva coefficient table
(faddeeva_reference).
"""

import importlib.util
import math
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import wofz

from catruler import coherent_algebra
from catruler.coherent_algebra import (
    _FADDEEVA_COEFFS,
    MAX_AMPLITUDE,
    CoherentSuperposition,
    _checked_form,
    _half_faddeeva,
    beamsplitter,
    cat_norm_squared,
    norm_squared,
    overlap,
    threshold_probability,
)
from catruler.errors import IntegrationError, NormalizationError

import quad_reference
from faddeeva_reference import faddeeva_coefficients
from quad_reference import quadrature_wavefunction

TIGHT = 1e-12
SELF_CONSISTENCY_TOL = 1e-8


def equal_weights(*amplitudes) -> CoherentSuperposition:
    """sum_k |g_k> with unit coefficients."""
    return CoherentSuperposition(tuple((1, g) for g in amplitudes))


def checked_norm(coeffs, kernel) -> float:
    """The squared norm of coeffs under kernel, checked as norm_squared checks it."""
    return _checked_form(coeffs, kernel, math.inf, "norm^2", NormalizationError)


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

    def test_near_huge_amplitudes_keep_the_overlap_phase(self):
        # |tau|^2 = 1e306 would swamp the exponent -|tau - gamma|^2 / 2 if
        # it were formed as -(|tau|^2 + |gamma|^2) / 2 + Re conj(tau) gamma
        near = CoherentSuperposition(((1, 1e153), (1, 1e153 + 5j)))
        cross = 2.0 * math.exp(-12.5) * math.cos(1e153 * 5)  # 2 Re <tau|gamma>
        assert norm_squared(near) == pytest.approx(2.0 + cross, rel=1e-12)

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
        with pytest.raises(NormalizationError,
                           match=r"^norm\^2 \(2\+1j\) is not finite or carries an imaginary residue$"):
            checked_norm(np.array([1.0, 1.0], dtype=complex), kernel)

    def test_residue_is_judged_at_the_coefficient_scale(self):
        # 1e-5j on the diagonal of a Gram matrix leaves an imaginary residue
        # of 1e-5 sum |c_k|^2 = 2e-11: far above 1e-9 of that sum, the
        # rounding bound of a form whose entries are at most 1, though
        # below 1e-9 itself
        amps = [0.3, 1.0 + 1.0j]
        gram = np.array([[overlap(a, b) for b in amps] for a in amps])
        with pytest.raises(NormalizationError, match="imaginary residue"):
            checked_norm(np.array([1e-3, 1e-3j]), gram + 1e-5j * np.eye(2))

    def test_negative_quadratic_form_raises(self):
        # an indefinite kernel stands in for a Gram matrix that lost its
        # positivity: c^dag K c = 2 - 4, which would clamp to 0
        kernel = np.array([[1.0, -2.0], [-2.0, 1.0]], dtype=complex)
        with pytest.raises(NormalizationError, match=r"^norm\^2 -2\.0 escaped \[0, inf\]$"):
            checked_norm(np.array([1.0, 1.0], dtype=complex), kernel)

    def test_small_negative_quadratic_form_clamps_to_zero(self):
        # an indefinite kernel whose form, 1 - (1 + 1e-13), is negative
        # within NORM_CLAMP: the squared norm reads exactly 0
        kernel = np.diag([1.0, -1.0 - 1e-13]).astype(complex)
        assert checked_norm(np.array([1.0, 1.0], dtype=complex), kernel) == 0.0

    def test_non_finite_quadratic_form_raises(self):
        kernel = np.array([[1.0, complex("nan")], [complex("nan"), 1.0]])
        with pytest.raises(NormalizationError):
            checked_norm(np.array([1.0, 1.0], dtype=complex), kernel)

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


class TestCatNormSquared:
    @pytest.mark.parametrize("alpha", [1e-9, 1e-5, 1e-3, 0.1, 1.0, 5.0, 40.0])
    def test_matches_mpmath_for_both_signs(self, alpha):
        for sign in (1, -1):
            a = mpmath.mpf(alpha)
            with mpmath.workdps(50):
                want = float(2 + 2 * sign * mpmath.exp(-a**2 / 2))
            assert cat_norm_squared(alpha, sign) == pytest.approx(want, rel=4e-16)

    def test_minus_cat_keeps_a_positive_norm_for_small_alpha(self):
        # 2 - 2 exp(-alpha^2/2) cancels to 0 here; the norm is alpha^2
        assert cat_norm_squared(1e-9, -1) == pytest.approx(1e-18, rel=1e-15)


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
        assert var == pytest.approx(0.25, abs=1e-9)

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


class TestThresholdProbability:
    def test_coherent_at_own_mean_is_half(self):
        s = CoherentSuperposition.single(3.0)
        for probability in (quad_reference.threshold_probability, threshold_probability):
            assert probability(s, 3.0) == pytest.approx(0.5, abs=1e-9)

    def test_vacuum_below_distant_threshold(self):
        # threshold at the mean of |alpha/2> with alpha = 5
        s = CoherentSuperposition.single(0.0)
        p = threshold_probability(s, 2.5)
        assert p >= 1 - 1e-3
        # erf-based expectation: Phi(2.5 / 0.5)
        expected = 0.5 * (1 + math.erf(2.5 / (0.5 * math.sqrt(2))))
        assert p == pytest.approx(expected, abs=1e-9)

    def test_quad_and_erf_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            terms = tuple(
                (complex(rng.normal(), rng.normal()), complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
                for _ in range(3)
            )
            s = CoherentSuperposition(terms)
            threshold = rng.uniform(-4, 4)
            a = quad_reference.threshold_probability(s, threshold)
            b = threshold_probability(s, threshold, method="erf")
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))

    def test_unreachable_tolerance_raises(self, monkeypatch):
        # widely separated peaks cannot be resolved with one subdivision
        monkeypatch.setattr(quad_reference, "QUAD_LIMIT", 1)
        s = CoherentSuperposition(((0.5, -8.0), (0.5, 8.0)))
        with pytest.raises(IntegrationError):
            quad_reference.threshold_probability(s, 10.0)

    def test_probability_above_the_norm_raises(self, monkeypatch):
        # a doubled threshold kernel stands in for a faulty one: far above
        # the mean the probability reads 2, which would clamp to the norm
        exact = coherent_algebra._threshold_kernel_erf

        def doubled(amplitudes, threshold):
            gram, kernel = exact(amplitudes, threshold)
            return gram, 2.0 * kernel

        monkeypatch.setattr(coherent_algebra, "_threshold_kernel_erf", doubled)
        with pytest.raises(IntegrationError, match="escaped"):
            threshold_probability(CoherentSuperposition.single(0.0), 3.0)

    @staticmethod
    def scaled_gram(monkeypatch, factor):
        """Make the threshold kernel the Gram matrix (the kernel of a
        threshold past every amplitude) times factor."""
        exact = coherent_algebra._threshold_kernel_erf

        def scaled(amplitudes, threshold):
            gram, _ = exact(amplitudes, threshold)
            return gram, factor * gram

        monkeypatch.setattr(coherent_algebra, "_threshold_kernel_erf", scaled)

    @pytest.mark.parametrize("factor", [-1e-13, 1.0 + 1e-13])
    def test_probability_is_clamped_into_its_bound(self, monkeypatch, factor):
        # the form just past either end of [0, n2], within the range
        # check's slack of NORM_CLAMP sum |c_k|^2 (sum |c_k|^2 = 0.65 here):
        # the probability reads that end exactly
        s = equal_weights(0.0, 1.0 + 0.5j).normalized()
        n2 = norm_squared(s)
        self.scaled_gram(monkeypatch, factor)
        assert threshold_probability(s, 0.0) == (0.0 if factor < 0 else n2)

    def test_probability_past_its_slack_raises(self, monkeypatch):
        # 1e-9 of n2 above the norm is far past the slack of 1e-12 sum |c_k|^2
        s = equal_weights(0.0, 1.0 + 0.5j).normalized()
        n2 = norm_squared(s)
        self.scaled_gram(monkeypatch, 1.0 + 1e-9)
        with pytest.raises(IntegrationError, match=rf"^threshold probability 1\.0000000\d+ "
                           rf"escaped \[0, {re.escape(repr(n2))}\]$"):
            threshold_probability(s, 0.0)

    def test_result_is_capped_at_the_norm(self):
        # a seeded normalized state whose form rounds one ulp above its
        # norm^2 = 1.0 at this threshold, past every amplitude's real part
        rng = np.random.default_rng(133)
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps = rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4)
        s = CoherentSuperposition(tuple(zip(coeffs.tolist(), amps.tolist()))).normalized()
        assert norm_squared(s) == 1.0
        assert threshold_probability(s, 5.560230278421259) == 1.0

    def test_unknown_method_rejected(self):
        # the adaptive-quadrature reference lives with the tests, not behind "quad"
        for method in ("simpson", "quad"):
            with pytest.raises(ValueError, match="unknown method"):
                threshold_probability(CoherentSuperposition.single(0.0), 0.0, method=method)

    def test_wide_imaginary_separation_is_finite(self):
        # an underflowing overlap times an overflowing complex erf used to
        # give NaN here; the Faddeeva form keeps the product finite
        s = CoherentSuperposition(((1, 20j), (1, -20j))).normalized()
        exact = threshold_probability(s, 0.3, method="erf")
        assert exact == pytest.approx(0.71815, abs=1e-5)
        assert abs(exact - quad_reference.threshold_probability(s, 0.3)) <= 1e-8

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
        assert abs(exact - quad_reference.threshold_probability(s, threshold)) <= 1e-8

    def test_nan_from_quadrature_fails_the_range_guard(self, monkeypatch):
        monkeypatch.setattr(quad_reference, "_threshold_quad", lambda *args: math.nan)
        with pytest.raises(IntegrationError, match="escaped"):
            quad_reference.threshold_probability(CoherentSuperposition.single(0.0), 0.0)

    def test_quad_reference_never_calls_the_closed_form_kernel(self, monkeypatch):
        from catruler import coherent_algebra as ca

        states = [
            CoherentSuperposition(((1, 20j), (1, -20j))).normalized(),
            CoherentSuperposition(((0.3 - 1j, 1.5 + 2j), (1.2, -0.4), (0.7j, 2.5 - 1j))),
        ]
        want = [quad_reference.threshold_probability(s, 0.3) for s in states]

        def refuse(amps, threshold):
            raise AssertionError("the quad reference called _threshold_kernel_erf")

        monkeypatch.setattr(ca, "_threshold_kernel_erf", refuse)
        assert [quad_reference.threshold_probability(s, 0.3) for s in states] == want

    def test_checked_path_rejects_nan_closed_form(self, monkeypatch):
        from catruler import coherent_algebra as ca

        kernel_erf = ca._threshold_kernel_erf

        def nan_kernel(amps, threshold):
            gram, kernel = kernel_erf(amps, threshold)
            return gram, np.full_like(kernel, complex("nan"))

        monkeypatch.setattr(ca, "_threshold_kernel_erf", nan_kernel)
        # the message carries the value that failed the check
        with pytest.raises(IntegrationError, match=r"^threshold probability \(nan\+nanj\) is not finite "
                           r"or carries an imaginary residue$"):
            threshold_probability(CoherentSuperposition.single(1.0), 1.0, method="erf")

    @pytest.mark.parametrize("fault, terms", [
        pytest.param("nan-entry", ((1, 0.3 + 2j), (0.5j, -1 - 1j)), id="nan-entry"),
        pytest.param("antisymmetric-pair", ((1, 0.3 + 2j), (0.5j, -1 - 1j)), id="antisymmetric-pair"),
        pytest.param("imaginary-diagonal", ((1, 0.5), (1, 0.5 + 1e-4j)), id="imaginary-diagonal"),
    ])
    def test_faulty_kernel_fails_the_form_check(self, monkeypatch, fault, terms):
        # a NaN entry would otherwise reach the range check, and a real
        # antisymmetric perturbation, whose form is purely imaginary, would
        # pass silently as 0.5231...  1.5e-9j on the diagonal leaves a
        # residue of 1.5e-9 sum |c_k|^2, above the limit at that scale but
        # not at the squared norm of these near-parallel terms, about twice it
        kernel_erf = coherent_algebra._threshold_kernel_erf

        def faulty(amps, threshold):
            gram, kernel = kernel_erf(amps, threshold)
            if fault == "nan-entry":
                kernel[0, 1] = complex("nan")
            elif fault == "antisymmetric-pair":
                kernel[0, 1] += 1e-6
                kernel[1, 0] -= 1e-6
            else:
                kernel += 1.5e-9j * np.eye(len(amps))
            return gram, kernel

        monkeypatch.setattr(coherent_algebra, "_threshold_kernel_erf", faulty)
        s = CoherentSuperposition(terms)
        with pytest.raises(IntegrationError, match="not finite or carries an imaginary residue"):
            threshold_probability(s, 0.2)

    # the one range rule of the per-state closed forms, |T| + max |g| <=
    # MAX_AMPLITUDE / 2 (T = 0 for overlap and norm_squared)
    @pytest.mark.parametrize("form,args", [
        (threshold_probability, (equal_weights(1e200j, 1e200), 0.0)),
        (threshold_probability, (equal_weights(1e154), 0.0)),
        (threshold_probability, (equal_weights(0.5), 1e300)),
        (threshold_probability, (equal_weights(1.7e308 + 1.7e308j), 0.0)),
        (norm_squared, (equal_weights(1e200j, 1e200),)),
        (norm_squared, (equal_weights(1.7e308, -1.7e308),)),
        (norm_squared, (equal_weights(1e200, 1e200 + 5j),)),
        (norm_squared, (equal_weights(0.0, 1e154),)),
        (overlap, (1e154, -1e154)),
        (overlap, (1e154j, 1e155)),
        (overlap, (1.7e308, -1.7e308)),
        (overlap, (1e200j, 1e200)),
        (overlap, (0.0, 1e154)),
    ], ids=lambda v: v.__name__ if callable(v) else None)
    def test_rejects_amplitudes_past_half_the_square_root_range(self, form, args):
        with pytest.raises(ValueError, match="^threshold and amplitudes must stay within MAX_AMPLITUDE / 2$"):
            form(*args)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_amplitudes_at_half_the_square_root_range(self):
        half = MAX_AMPLITUDE / 2
        assert threshold_probability(CoherentSuperposition.single(half), 0.0) == 0.0
        assert threshold_probability(CoherentSuperposition.single(-half), 0.0) == 1.0
        s = CoherentSuperposition(((1, half), (1, -1j * half)))
        assert threshold_probability(s, 0.0) == 0.5
        # |h - (-h)|^2 = MAX_AMPLITUDE^2 is still finite
        assert overlap(half, -half) == 0
        assert overlap(half, half) == 1
        assert norm_squared(equal_weights(half, -half)) == 2.0

    def test_result_bounded_by_norm(self):
        s = CoherentSuperposition(((1.0, 0.0), (1.0, 2.0)))  # norm^2 = 2 + 2e^-2
        p = threshold_probability(s, 50.0)
        assert p == pytest.approx(norm_squared(s), rel=1e-9)


def _threshold_workload_wide_members():
    """WIDE_MEMBERS of the benchmark's threshold workload; bench/workloads.py
    is loaded by path and only read."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WIDE_MEMBERS


def faddeeva(z):
    """w(z) for Im z >= 0 from the kernel's w(-i s) / 2 at s = i z."""
    return 2.0 * _half_faddeeva(1j * np.asarray(z, dtype=complex))


def mpmath_faddeeva(z: complex) -> complex:
    with mpmath.workdps(30):
        z = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.exp(-(z**2)) * mpmath.erfc(-1j * z))


def faddeeva_points() -> np.ndarray:
    """Seeded |Re z|, Im z <= 300, the near-real band Im z <= 1e-3, z = 0,
    and the arguments -i s of the threshold kernel on the workload's wide
    members."""
    rng = np.random.default_rng(1994)
    grid = rng.uniform(-300.0, 300.0, 4000) + 1j * rng.uniform(0.0, 300.0, 4000)
    band = rng.uniform(-300.0, 300.0, 2000) + 1j * rng.uniform(0.0, 1e-3, 2000)
    wide = []
    for _, amps, threshold in _threshold_workload_wide_members():
        g = np.array(amps, dtype=complex)
        z = math.sqrt(2.0) * (threshold - (np.conj(g)[:, None] + g[None, :]) / 2.0)
        wide.append(-1j * np.where(z.real < 0.0, z, -z).ravel())
    return np.concatenate([grid, band, [0j], *wide])


FADDEEVA_RTOL = 5e-14


class TestFaddeeva:
    def test_table_equals_its_fft_derivation(self):
        derived = faddeeva_coefficients()
        assert _FADDEEVA_COEFFS.shape == derived.shape == (4, 10)
        if int(np.__version__.split(".")[0]) >= 2:
            # the FFT that wrote the table: not one bit may differ
            assert np.array_equal(_FADDEEVA_COEFFS, derived)
        else:
            # numpy 1.x has another pocketfft, whose sums may round the
            # last bit the other way
            np.testing.assert_allclose(_FADDEEVA_COEFFS, derived, rtol=0.0, atol=8 * np.finfo(float).eps)

    def test_matches_scipy(self):
        z = faddeeva_points()
        ref = wofz(z)
        assert np.max(np.abs(faddeeva(z) - ref) / np.abs(ref)) <= FADDEEVA_RTOL

    def test_matches_mpmath(self):
        z = faddeeva_points()[::25]
        ref = np.array([mpmath_faddeeva(v) for v in z])
        assert np.max(np.abs(faddeeva(z) - ref) / np.abs(ref)) <= FADDEEVA_RTOL

    @pytest.mark.parametrize("size", [1e160, 1e300])
    def test_huge_arguments_reach_the_asymptote(self, size):
        s = size * np.array([-1.0, -1.0 + 1.0j, -1.0 - 1.0j, 1.0j, -1.0j, -1e-3 + 1.0j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            half = _half_faddeeva(s)
        asymptote = -1.0 / (2.0 * math.sqrt(math.pi) * s)
        assert np.max(np.abs(half - asymptote) / np.abs(asymptote)) <= 1e-14


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
