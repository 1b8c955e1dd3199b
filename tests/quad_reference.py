"""Adaptive-quadrature reference for threshold probabilities.

An independent route to coherent_algebra.threshold_probability: it
integrates |sum_k c_k psi_{g_k}(x)|^2 with scipy.integrate.quad over
[mu_min - 12 sigma, T], in the package's quadrature units (<x> = Re g,
vacuum variance 1/4), and takes its [0, norm^2] bound from
norm_squared, the Gram matrix of overlaps.  It never calls the Faddeeva
kernel it is compared with.  The tests import it; the package does not,
so scipy is needed only by the test suite.
"""

import math

import numpy as np
from scipy.integrate import quad

from catruler.coherent_algebra import (
    NORM_CLAMP,
    CoherentSuperposition,
    _require_finite_complex,
    norm_squared,
)
from catruler.errors import IntegrationError

# relative tolerance and subinterval limit of the adaptive quadrature
QUAD_RTOL = 1e-9
QUAD_LIMIT = 200


def _wavefunction(gamma, x):
    """psi_g(x), elementwise over broadcast amplitude and position arrays."""
    return (2.0 / np.pi) ** 0.25 * np.exp(
        -(x**2) + 2.0 * gamma * x - gamma**2 / 2.0 - np.abs(gamma) ** 2 / 2.0
    )


def quadrature_wavefunction(gamma, x):
    """Complex position-space amplitude psi_g(x).

    |psi_g(x)|^2 is Gaussian with mean Re(g) and variance 1/4, and
    integral(conj(psi_t) psi_g) = overlap(t, g) exactly.  x may be a
    scalar or an ndarray.
    """
    gamma = _require_finite_complex(gamma, "gamma")
    psi = _wavefunction(gamma, np.asarray(x, dtype=float))
    if np.isscalar(x):
        return complex(psi)
    return psi


def _threshold_quad(s_state: CoherentSuperposition, threshold: float) -> float:
    coeffs = s_state.coefficients
    amps = s_state.amplitudes
    # 12 vacuum standard deviations (1/2 each) below the lowest mean
    lower = min(float(amps.real.min()), threshold) - 6.0

    def integrand(x: float) -> float:
        return abs(coeffs @ _wavefunction(amps, x)) ** 2

    result = quad(
        integrand, lower, threshold, epsabs=1e-14, epsrel=QUAD_RTOL,
        limit=QUAD_LIMIT, full_output=1,
    )
    if len(result) == 4:  # quad appends an explanation string on failure
        raise IntegrationError(f"adaptive quadrature failed: {result[3].strip()}")
    value, abserr = result[0], result[1]
    if abserr > max(QUAD_RTOL * abs(value), 1e-12):
        raise IntegrationError(
            f"adaptive quadrature reached error {abserr:.3e} for value {value:.6e}, "
            f"worse than relative tolerance {QUAD_RTOL:.1e}"
        )
    return value


def threshold_probability(s: CoherentSuperposition, threshold: float) -> float:
    """int_{-inf}^{T} |sum_k c_k psi_{g_k}(x)|^2 dx by adaptive quadrature,
    clamped to [0, norm^2 (1 + 1e-9)] like the package's closed form; a
    value outside that range by more than NORM_CLAMP, NaN included,
    raises IntegrationError."""
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    n2, value = norm_squared(s), _threshold_quad(s, threshold)
    bound = n2 * (1.0 + 1e-9)
    # written so that NaN fails it
    if not -NORM_CLAMP <= value <= bound + NORM_CLAMP:
        raise IntegrationError(
            f"threshold probability {value!r} escaped [0, {bound!r}]"
        )
    return min(max(value, 0.0), bound)
