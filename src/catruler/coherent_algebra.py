"""Exact closed-form algebra for coherent states of a single optical mode.

A coherent state |g> of complex amplitude g has mean photon number |g|^2
and overlaps

    <t|g> = exp[-(|t|^2 + |g|^2)/2 + conj(t) g]

with any other coherent state.  Everything in this module is built from
that one identity: norms of finite superpositions sum_k c_k |g_k> come
from the Gram matrix, displacements act term by term, and homodyne
threshold probabilities reduce to Gaussian integrals of pairwise terms.

Quadrature convention
---------------------
The amplitude quadrature x is fixed so that <x> for |g> equals
mean_scale * Re(g).  Requiring the position-space wave functions to be
normalized *and* to reproduce the overlap identity through
integral(conj(psi_t) psi_g) forces the vacuum variance to equal
mean_scale^2 / 4; the convention is unique up to a global phase.  With
the canonical mean_scale = 1 the wave function is

    psi_g(x) = (2/pi)^(1/4) exp(-x^2 + 2 g x - g^2/2 - |g|^2/2)

whose modulus squared is a Gaussian of mean Re(g) and variance 1/4.
Fringe positions and widths depend only on means and relative phases, so
results are invariant under the admissible rescalings of mean_scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import wofz

from .errors import IntegrationError, NormalizationError

# Imaginary residue of a Hermitian quadratic form above this (relative)
# level signals corrupted coefficients rather than rounding noise.
IMAG_RESIDUE_LIMIT = 1e-9
# Norm^2 values in [-NORM_CLAMP, 0) clamp to 0; anything more negative is
# an error.  Gram matrices of near-parallel coherent states are
# ill-conditioned, so small negatives are expected.
NORM_CLAMP = 1e-12
# The two threshold-probability evaluation paths must agree to this.
DUAL_PATH_TOLERANCE = 1e-8


def _require_finite_complex(value: complex, name: str) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class QuadratureConvention:
    """Scaling of the amplitude quadrature.

    mean_scale: <x> for |g> is mean_scale * Re(g).
    variance:   vacuum variance of x; self-consistency with the coherent
                overlap formula forces variance == mean_scale^2 / 4.
    """

    mean_scale: float = 1.0
    variance: float = 0.25

    def __post_init__(self):
        if not (self.mean_scale > 0 and math.isfinite(self.mean_scale)):
            raise ValueError("mean_scale must be positive and finite")
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise ValueError("variance must be positive and finite")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)

    def require_self_consistent(self) -> None:
        """Reject conventions that cannot reproduce the overlap identity."""
        forced = self.mean_scale**2 / 4.0
        if abs(self.variance - forced) > 1e-12 * max(1.0, forced):
            raise ValueError(
                "inconsistent quadrature convention: variance must equal "
                f"mean_scale^2/4 = {forced!r}, got {self.variance!r}"
            )


CANONICAL_CONVENTION = QuadratureConvention()


@dataclass(frozen=True)
class CoherentSuperposition:
    """Finite weighted sum of coherent states, sum_k c_k |g_k>.

    terms holds (coefficient, amplitude) pairs.  The state is immutable;
    all operations return new instances.
    """

    terms: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        if len(self.terms) == 0:
            raise ValueError("superposition must contain at least one term")
        cleaned = []
        for k, (c, g) in enumerate(self.terms):
            c = _require_finite_complex(c, f"coefficient[{k}]")
            g = _require_finite_complex(g, f"amplitude[{k}]")
            cleaned.append((c, g))
        object.__setattr__(self, "terms", tuple(cleaned))

    @classmethod
    def single(cls, gamma: complex, coefficient: complex = 1.0) -> "CoherentSuperposition":
        return cls(((coefficient, gamma),))

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([c for c, _ in self.terms], dtype=complex)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([g for _, g in self.terms], dtype=complex)

    def scaled(self, factor: complex) -> "CoherentSuperposition":
        return CoherentSuperposition(tuple((c * factor, g) for c, g in self.terms))

    def normalized(self) -> "CoherentSuperposition":
        n2 = norm_squared(self)
        if n2 <= 0.0:
            raise NormalizationError("cannot normalize a zero-norm superposition")
        return self.scaled(1.0 / math.sqrt(n2))


def _log_overlap(tau, gamma):
    """log <tau|gamma>, elementwise over broadcast amplitude arrays."""
    return -0.5 * (np.abs(tau) ** 2 + np.abs(gamma) ** 2) + np.conj(tau) * gamma


def overlap(tau: complex, gamma: complex) -> complex:
    """Coherent-state overlap <tau|gamma>; |result| <= 1 always."""
    tau = _require_finite_complex(tau, "tau")
    gamma = _require_finite_complex(gamma, "gamma")
    return complex(np.exp(_log_overlap(tau, gamma)))


def _log_overlap_matrix(amps: np.ndarray) -> np.ndarray:
    """log <g_k|g_l> over the last axis of amps, broadcast over leading axes."""
    return _log_overlap(amps[..., :, None], amps[..., None, :])


def _overlap_matrix(amps: np.ndarray) -> np.ndarray:
    """Gram matrix <g_k|g_l>: shape (..., k) -> (..., k, k)."""
    return np.exp(_log_overlap_matrix(amps))


def _hermitian_form(coeffs: np.ndarray, kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """conj(c) . K . c for Hermitian K, over any leading axes of c and K.

    Returns the complex values and a mask that is False wherever a value
    is not finite or its imaginary residue exceeds IMAG_RESIDUE_LIMIT
    times the coefficient scale max(1, sum |c_k|^2).
    """
    value = np.einsum("...k,...kl,...l->...", np.conj(coeffs), kernel, coeffs)
    scale = np.maximum(1.0, (np.abs(coeffs) ** 2).sum(axis=-1))
    return value, np.isfinite(value) & (np.abs(value.imag) <= IMAG_RESIDUE_LIMIT * scale)


def _hermitian_value(coeffs: np.ndarray, kernel: np.ndarray, what: str) -> float:
    """conj(c) . K . c of one state, rejecting non-finite or complex values."""
    value, ok = _hermitian_form(coeffs, kernel)
    if not ok:
        raise NormalizationError(
            f"{what} = {complex(value)!r} is not finite or carries an imaginary "
            "residue; coefficients look corrupted"
        )
    return float(value.real)


def _clamped_norm(coeffs: np.ndarray, gram: np.ndarray) -> float:
    """Squared norm from a Gram matrix; tiny negatives clamp to zero."""
    value = _hermitian_value(coeffs, gram, "norm^2")
    scale = max(1.0, float((np.abs(coeffs) ** 2).sum()))
    if value < -NORM_CLAMP * scale:
        raise NormalizationError(f"norm^2 = {value!r} is negative beyond tolerance")
    return max(value, 0.0)


def norm_squared(s: CoherentSuperposition) -> float:
    """<s|s> via the Gram matrix; tiny negatives clamp to zero."""
    return _clamped_norm(s.coefficients, _overlap_matrix(s.amplitudes))


def displace(s: CoherentSuperposition, d: complex) -> CoherentSuperposition:
    """Phase-space displacement by d: each |g> -> e^{i Im(d conj(g))} |g + d>.

    Unitary, so the norm is preserved exactly; for real d and g the phase
    factor is identically 1.
    """
    d = _require_finite_complex(d, "d")
    terms = []
    for c, g in s.terms:
        # (d conj(g) - conj(d) g)/2 is purely imaginary; build it as such
        # so real-amplitude displacements pick up no spurious phase.
        phase = 1j * (d * np.conj(g)).imag
        terms.append((c * complex(np.exp(phase)), g + d))
    return CoherentSuperposition(tuple(terms))


def beamsplitter(gamma_a: complex, gamma_b: complex, mix_angle: float) -> tuple[complex, complex]:
    """Two-mode beamsplitter action on coherent amplitudes.

    |g>_a |b>_b -> |cos(t) g + i sin(t) b>_a |cos(t) b + i sin(t) g>_b,
    which conserves |g|^2 + |b|^2.
    """
    gamma_a = _require_finite_complex(gamma_a, "gamma_a")
    gamma_b = _require_finite_complex(gamma_b, "gamma_b")
    if not math.isfinite(mix_angle):
        raise ValueError("mix_angle must be finite")
    c, s = math.cos(mix_angle), math.sin(mix_angle)
    return (c * gamma_a + 1j * s * gamma_b, c * gamma_b + 1j * s * gamma_a)


def quadrature_wavefunction(gamma, x, conv: QuadratureConvention = CANONICAL_CONVENTION):
    """Complex position-space amplitude psi_g(x) in the given convention.

    |psi_g(x)|^2 is Gaussian with mean mean_scale*Re(g) and variance
    conv.variance, and integral(conj(psi_t) psi_g) = overlap(t, g)
    exactly.  x may be a scalar or an ndarray.
    """
    conv.require_self_consistent()
    gamma = _require_finite_complex(gamma, "gamma")
    s = conv.mean_scale
    u = np.asarray(x, dtype=float) / s
    psi = (2.0 / np.pi) ** 0.25 / math.sqrt(s) * np.exp(
        -(u**2) + 2.0 * gamma * u - gamma**2 / 2.0 - abs(gamma) ** 2 / 2.0
    )
    if np.isscalar(x):
        return complex(psi)
    return psi


def _threshold_kernel_erf(
    amps: np.ndarray, threshold: float, s: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and pairwise integrals int_{-inf}^{T} conj(psi_k) psi_l dx,
    closed form, over the last axis of amps and broadcast over leading axes.

    Each pair evaluates to <g_k|g_l> (1 + erf(z_kl))/2 with
    z_kl = sqrt(2) (T/s - (conj(g_k) + g_l)/2).  For complex z, erf(z)
    overflows where the overlap underflows, so the overlap exponent is
    folded into the Faddeeva function w (scipy.special.wofz), which stays
    bounded in the upper half plane:
        1 + erf(z) = exp(-z^2) w(-iz)       for Re z < 0,
        1 + erf(z) = 2 - exp(-z^2) w(iz)    for Re z >= 0.
    """
    log_gram = _log_overlap_matrix(amps)
    gram = np.exp(log_gram)
    z = math.sqrt(2.0) * (threshold / s - (np.conj(amps)[..., :, None] + amps[..., None, :]) / 2.0)
    lower = z.real < 0.0
    tail = 0.5 * np.exp(log_gram - z**2) * wofz(np.where(lower, -1j * z, 1j * z))
    return gram, np.where(lower, tail, gram - tail)


def _threshold_quad(
    s_state: CoherentSuperposition,
    threshold: float,
    conv: QuadratureConvention,
    rtol: float,
    quad_limit: int,
) -> float:
    coeffs = s_state.coefficients
    amps = s_state.amplitudes
    means = conv.mean_scale * amps.real
    lower = min(float(means.min()), threshold) - 12.0 * conv.sigma

    def integrand(x: float) -> float:
        total = 0j
        for c, g in zip(coeffs, amps):
            total += c * quadrature_wavefunction(g, x, conv)
        return abs(total) ** 2

    result = quad(
        integrand, lower, threshold, epsabs=1e-14, epsrel=rtol,
        limit=quad_limit, full_output=1,
    )
    if len(result) == 4:  # quad appends an explanation string on failure
        raise IntegrationError(f"adaptive quadrature failed: {result[3].strip()}")
    value, abserr = result[0], result[1]
    if abserr > max(rtol * abs(value), 1e-12):
        raise IntegrationError(
            f"adaptive quadrature reached error {abserr:.3e} for value {value:.6e}, "
            f"worse than relative tolerance {rtol:.1e}"
        )
    return value


def threshold_probability(
    s: CoherentSuperposition,
    threshold: float,
    conv: QuadratureConvention = CANONICAL_CONVENTION,
    method: str = "erf",
    rtol: float = 1e-9,
    quad_limit: int = 200,
) -> float:
    """Probability that the amplitude quadrature lies at or below threshold.

    Returns int_{-inf}^{T} |sum_k c_k psi_{g_k}(x)|^2 dx, where T is the
    threshold expressed in the convention's quadrature units.  For a
    normalized state this is a probability; for an unnormalized one it
    carries the state's squared norm.

    method selects the evaluation path: "erf" (exact closed form via the
    Faddeeva function, the production path), "quad" (adaptive quadrature
    over [mu_min - 12 sigma, T], an independent reference), or "checked"
    (both, raising IntegrationError if they disagree beyond 1e-8).
    """
    conv.require_self_consistent()
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    if method not in ("erf", "quad", "checked"):
        raise ValueError(f"unknown method {method!r}; use 'erf', 'quad' or 'checked'")
    coeffs = s.coefficients
    # every path takes its [0, norm^2] bound from the kernel's Gram matrix
    gram, kernel = _threshold_kernel_erf(s.amplitudes, threshold, conv.mean_scale)
    if method == "erf":
        value = _hermitian_value(coeffs, kernel, "threshold probability")
    else:
        value = _threshold_quad(s, threshold, conv, rtol, quad_limit)
    if method == "checked":
        exact = _hermitian_value(coeffs, kernel, "threshold probability")
        if not abs(value - exact) <= DUAL_PATH_TOLERANCE * max(1.0, abs(exact)):
            raise IntegrationError(
                f"quadrature ({value!r}) and closed-form ({exact!r}) threshold "
                "probabilities disagree beyond 1e-8"
            )

    bound = _clamped_norm(coeffs, gram) * (1.0 + 1e-9)
    if not -NORM_CLAMP <= value <= bound + NORM_CLAMP:
        raise IntegrationError(
            f"threshold probability {value!r} escaped [0, {bound!r}]"
        )
    return min(max(value, 0.0), bound)
