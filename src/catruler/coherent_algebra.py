"""Exact closed-form algebra for coherent states of a single optical mode.

A coherent state |g> of complex amplitude g has mean photon number |g|^2
and overlaps

    <t|g> = exp[-(|t|^2 + |g|^2)/2 + conj(t) g]

with any other coherent state.  Everything in this module is built from
that one identity: norms of finite superpositions sum_k c_k |g_k> come
from the Gram matrix, beamsplitters act on the amplitudes, and homodyne
threshold probabilities reduce to Gaussian integrals of pairwise terms.

Quadrature units
----------------
The amplitude quadrature x is fixed so that <x> for |g> equals Re(g).
Requiring the position-space wave functions to be normalized *and* to
reproduce the overlap identity through integral(conj(psi_t) psi_g) then
forces the vacuum variance to 1/4; the wave function is unique up to a
global phase.  These are the only quadrature units in the package, and
every threshold is given in them; fringe positions and widths depend
only on means and relative phases, so no rescaling would change them.
The wave function is

    psi_g(x) = (2/pi)^(1/4) exp(-x^2 + 2 g x - g^2/2 - |g|^2/2)

whose modulus squared is a Gaussian of mean Re(g) and variance 1/4.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, NormalizationError

# Imaginary residue of a Hermitian quadratic form above this (relative)
# level signals corrupted coefficients rather than rounding noise.
IMAG_RESIDUE_LIMIT = 1e-9
# A form c^dag K c that leaves its range [0, high] by at most NORM_CLAMP
# sum_k |c_k|^2 is rounding (each |K_kl| <= 1, so the form rounds by a few
# ulps of that sum per entry) and clamps into it; further out is an error.
NORM_CLAMP = 1e-12
# Largest amplitude whose square is a finite double.
MAX_AMPLITUDE = math.sqrt(sys.float_info.max)


def _require_finite_complex(value: complex, name: str) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_in_range(amplitudes, threshold: float = 0.0) -> None:
    """Reject |threshold| + max |g| above MAX_AMPLITUDE / 2, past which
    |g_k - g_l|^2 and the threshold kernel's z^2 would overflow."""
    # hypot, unlike abs of a complex, returns inf rather than raising
    if abs(threshold) + max(math.hypot(g.real, g.imag) for g in amplitudes) > MAX_AMPLITUDE / 2:
        raise ValueError("threshold and amplitudes must stay within MAX_AMPLITUDE / 2")


def _require_alpha(alpha: float, name: str = "alpha") -> float:
    """Reject a cat amplitude that is not positive or whose square (which
    every alpha formula of the package takes) overflows or underflows."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"{name} must be positive and finite, got {alpha!r}")
    if alpha > MAX_AMPLITUDE:
        raise ValueError(f"{name} must have a finite square, got {alpha!r}")
    if alpha * alpha < sys.float_info.min:
        raise ValueError(f"{name} must have a square that is a normal double, got {alpha!r}")
    return alpha


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
    def single(cls, gamma: complex) -> "CoherentSuperposition":
        return cls(((1.0, gamma),))

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([c for c, _ in self.terms], dtype=complex)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([g for _, g in self.terms], dtype=complex)

    def normalized(self) -> "CoherentSuperposition":
        n2 = norm_squared(self)
        if n2 <= 0.0:
            raise NormalizationError("cannot normalize a zero-norm superposition")
        return CoherentSuperposition(tuple((c * (1.0 / math.sqrt(n2)), g) for c, g in self.terms))


def _log_overlap(tau, gamma):
    """log <tau|gamma>, elementwise over broadcast amplitude arrays.

    Written as -|tau - gamma|^2 / 2 + i Im(conj(tau) gamma), which equals
    -(|tau|^2 + |gamma|^2)/2 + conj(tau) gamma without subtracting terms
    of size |tau|^2 whose rounding would swamp the result at large
    amplitudes.  The imaginary part is formed on its own, so the real
    part of conj(tau) gamma, which it discards, cannot overflow.  Both
    parts are written into the array of tau - gamma.
    """
    log = np.asarray(tau - gamma)
    distance = np.abs(log)
    distance *= distance
    distance *= -0.5
    phase = tau.real * gamma.imag
    phase -= tau.imag * gamma.real
    log.real, log.imag = distance, phase
    return log


def overlap(tau: complex, gamma: complex) -> complex:
    """Coherent-state overlap <tau|gamma>; |result| <= 1 always.  Refuses
    (ValueError) |tau| or |gamma| above MAX_AMPLITUDE / 2."""
    tau = _require_finite_complex(tau, "tau")
    gamma = _require_finite_complex(gamma, "gamma")
    _require_in_range((tau, gamma))
    return complex(np.exp(_log_overlap(tau, gamma)))


def cat_norm_squared(alpha: float, sign: int = 1) -> float:
    """Squared norm 2 + 2 sign e^{-alpha^2/2} of the unnormalized cat
    |0> + sign |alpha>; sign = 1 gives the plus cat, sign = -1 the minus cat.
    The minus cat's norm is taken as -2 expm1(-alpha^2/2), which keeps its
    precision (and stays positive) where 2 - 2 e^{-alpha^2/2} cancels."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    _require_alpha(alpha)
    if sign < 0:
        return -2.0 * math.expm1(-(alpha**2) / 2.0)
    return 2.0 + 2.0 * math.exp(-(alpha**2) / 2.0)


def _state_form(coeffs: np.ndarray, kernel: np.ndarray) -> tuple[complex, float, bool]:
    """Hermitian form conj(c) . K . c of one state as a Python complex, its
    scale sum |c_k|^2, and whether it is finite with an imaginary residue of
    at most IMAG_RESIDUE_LIMIT * scale: each |K_kl| <= 1, an inner product of
    normalized wave functions, so the form rounds by ulps of the scale."""
    value = complex(np.vdot(coeffs, kernel @ coeffs))
    scale = float(np.vdot(coeffs, coeffs).real)
    finite = math.isfinite(value.real) and math.isfinite(value.imag)
    return value, scale, finite and abs(value.imag) <= IMAG_RESIDUE_LIMIT * scale


def _clamped_norm(coeffs: np.ndarray, gram: np.ndarray) -> float:
    """Squared norm from a Gram matrix, rejecting a non-finite or complex
    value; tiny negatives clamp to zero."""
    value, scale, ok = _state_form(coeffs, gram)
    if not ok:
        raise NormalizationError(
            f"norm^2 = {value!r} is not finite or carries an imaginary "
            "residue; coefficients look corrupted"
        )
    if value.real < -NORM_CLAMP * scale:
        raise NormalizationError(f"norm^2 = {value.real!r} is negative beyond tolerance")
    return max(value.real, 0.0)


def norm_squared(s: CoherentSuperposition) -> float:
    """<s|s> via the Gram matrix; tiny negatives clamp to zero.  Refuses
    (ValueError) an amplitude |g| above MAX_AMPLITUDE / 2."""
    _require_in_range(g for _, g in s.terms)
    amps = s.amplitudes
    return _clamped_norm(s.coefficients, np.exp(_log_overlap(amps[:, None], amps[None, :])))


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


# Weideman's rational series for the Faddeeva function w (J. A. C. Weideman,
# SIAM J. Numer. Anal. 31, 1497 (1994)) with N = 40 terms.  L = 4 is near
# Weideman's sqrt(N / sqrt(2)) = 5.3 and as accurate, and a power of two,
# so that 1 / L is exact.
_FADDEEVA_L = 4.0
# v_0 .. v_39 of _half_faddeeva, v_{10j+i} at row j, column i; derived by
# one FFT in tests/faddeeva_reference.py, which the tests match bit for bit
_FADDEEVA_COEFFS = np.array([
    [2.9040043389995085, 1.9274556099186266, 1.1542469076533894, 0.6133930763401529,
     0.28254148846214716, 0.1085305512222723, 0.03214903631271314, 0.005778982971187655,
     -0.00033307268008257284, -0.0006140315325913327],
    [-0.00015897889111713873, 1.783384375349914e-05, 2.146926333171474e-05, 2.608715457281756e-06,
     -2.086636719134926e-06, -6.633282355329988e-07, 1.8521510966697617e-07, 1.111638663202404e-07,
     -1.680194895825351e-08, -1.7426608106179245e-08],
    [1.8436058159010508e-09, 2.769818124486745e-09, -2.9934388676973727e-10, -4.5327800543336625e-10,
     6.868647280334764e-11, 7.505167283706763e-11, -1.788506879872861e-11, -1.2029669300128689e-11,
     4.634822708415895e-12, 1.704877533048629e-12],
    [-1.135539257612864e-12, -1.5967542342784416e-13, 2.5450495016234314e-13, -1.4384589616036026e-14,
     -4.992308543567949e-14, 1.3485795866219511e-14, 7.537882466043444e-15, -4.805448411830083e-15,
     -5.717377244621437e-16, 1.0711982880081166e-15],
])
# L and L / 2 as complex 0-d arrays: added to a complex array they need
# no float-to-complex cast, which on a threshold-sized grid costs as much
# as the addition itself
_L = np.array(complex(_FADDEEVA_L))
_HALF_L = np.array(complex(_FADDEEVA_L / 2.0))


def _half_faddeeva(s: np.ndarray) -> np.ndarray:
    """w(-i s) / 2 elementwise over an array with Re s <= 0, i.e. w in the
    closed upper half plane, within about 2e-14 relative of w.

    Evaluated as r (L / 2 + s r v(zeta)) (derived in tests/faddeeva_reference.py):
    zeta lies in the closed unit disc and |s r| <= 1, and at s = 0 the
    value is 1/2 exactly.  No square of s or of L - s is formed, so an
    |s| up to 1e300 gives the asymptote -1 / (2 sqrt(pi) s) without
    overflow.
    """
    r = np.subtract(_L, s)
    np.reciprocal(r, out=r)
    # zeta^0 .. zeta^9 as products of lower powers, the power axis first
    # so that each product runs over the whole grid
    low = np.empty((10,) + s.shape, dtype=complex)
    low[0] = 1.0
    zeta = np.add(_L, s, out=low[1])
    zeta *= r
    np.multiply(zeta, zeta, out=low[2])
    np.multiply(low[1:3], low[2], out=low[3:5])
    np.multiply(low[1:5], low[4], out=low[5:9])
    np.multiply(low[8], zeta, out=low[9])
    # real coefficients act on real and imaginary parts alike, so the
    # ten-term sums are one real matrix product on the float view
    rows = _FADDEEVA_COEFFS.dot(low.reshape(10, -1).view(float)).view(complex)
    rows.shape = (4,) + s.shape
    # Horner's rule in zeta^10 over the four sums, in place in the last
    # sum; zeta^10 and s r take the places of powers the product has used
    step = np.multiply(low[5], low[5], out=low[0])
    series = rows[3]
    series *= step
    for row in rows[2:0:-1]:
        series += row
        series *= step
    series += rows[0]
    series *= np.multiply(s, r, out=low[1])
    series += _HALF_L
    series *= r
    return series


def _threshold_kernel_erf(amps: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and pairwise integrals int_{-inf}^{T} conj(psi_k) psi_l dx,
    closed form, over the last axis of amps and broadcast over leading axes.

    Each pair evaluates to <g_k|g_l> (1 + erf(z_kl))/2 with
    z_kl = sqrt(2) (T - (conj(g_k) + g_l)/2).  For complex z, erf(z)
    overflows where the overlap underflows, so the overlap exponent is
    folded into the Faddeeva function w (_half_faddeeva, Weideman's
    series), which stays bounded in the upper half plane:
        1 + erf(z) = exp(-z^2) w(-iz)       for Re z < 0,
        1 + erf(z) = 2 - exp(-z^2) w(iz)    for Re z >= 0.
    """
    log_gram = _log_overlap(amps[..., :, None], amps[..., None, :])
    gram = np.exp(log_gram)
    z = np.conj(amps)[..., :, None] + amps[..., None, :]
    z *= 0.5
    np.subtract(threshold, z, out=z)
    z *= math.sqrt(2.0)
    upper = z.real >= 0.0
    # s = -z where Re z >= 0; z^2 = s^2 to the bit, so z is not kept
    s = np.negative(z, out=z, where=upper)
    log_gram -= np.square(s)
    tail = np.exp(log_gram, out=log_gram)
    tail *= _half_faddeeva(s)
    kernel = np.subtract(gram, tail, out=tail, where=upper)
    return gram, kernel


def threshold_probability(
    s: CoherentSuperposition,
    threshold: float,
    method: str = "erf",
) -> float:
    """Probability that the amplitude quadrature lies at or below threshold.

    Returns int_{-inf}^{T} |sum_k c_k psi_{g_k}(x)|^2 dx, in the
    module's quadrature units (<x> = Re g, vacuum variance 1/4).  For a
    normalized state this is a probability; for an unnormalized one it
    carries the state's squared norm.  Refuses (ValueError) a threshold
    that is not finite, and |T| + max |g| above MAX_AMPLITUDE / 2.

    The value is the exact closed form of _threshold_kernel_erf (the
    Faddeeva function), clamped into [0, norm^2], with norm^2 from the
    same kernel's Gram matrix.  method accepts only "erf", and any other
    value raises ValueError: the keyword stays only because the
    benchmark's threshold workload passes method="erf", and it goes when
    that call drops it.  The adaptive-quadrature reference that the
    tests compare with lives in tests/quad_reference.py.
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    _require_in_range((g for _, g in s.terms), threshold)
    if method != "erf":
        raise ValueError(f"unknown method {method!r}; the only method is 'erf'")
    coeffs = s.coefficients
    gram, kernel = _threshold_kernel_erf(s.amplitudes, threshold)
    n2 = _clamped_norm(coeffs, gram)
    value, scale, ok = _state_form(coeffs, kernel)
    if not ok:
        raise IntegrationError("threshold probability is not finite or carries an imaginary residue")
    value = value.real
    if not -NORM_CLAMP * scale <= value <= n2 + NORM_CLAMP * scale:
        raise IntegrationError(f"threshold probability {value!r} escaped [0, {n2!r}]")
    return min(max(value, 0.0), n2)
