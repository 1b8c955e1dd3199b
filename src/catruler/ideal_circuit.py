"""Idealized Hadamard - phase - Hadamard circuit in the coherent-state encoding.

Logical qubits use |0>_L = vacuum and |1>_L = |alpha> with real alpha.
The circuit acting on |0>_L comes down to one closed form over theta,
((1 + e^{i theta alpha^2}) |0>_L + (1 - e^{i theta alpha^2}) |1>_L) / 2,
in the orthogonal-basis convention (exact only as alpha -> infinity,
since <0|alpha> = e^{-alpha^2/2}); detection_probabilities keeps that
overlap, and the full finite-alpha physics lives in the
physical-realization pipeline.

Free propagation over a distance D imprints U(theta) = exp(i theta n)
with theta = 2 pi D / wavelength; on |alpha> this acts as a phase gate
exp(i theta alpha^2) up to an error that vanishes when
theta^2 alpha^2 << 1.
"""

from __future__ import annotations

import math

import numpy as np

from .coherent_algebra import MAX_AMPLITUDE, _require_alpha, cat_norm_squared


def v_theta_from_length_power(v_delta: float, wavelength: float) -> float:
    """Convert length-fluctuation power (length^2) to phase power (rad^2)."""
    if not (v_delta >= 0 and math.isfinite(v_delta)):
        raise ValueError("fluctuation power must be nonnegative and finite")
    if not (wavelength > 0 and math.isfinite(wavelength)):
        raise ValueError("wavelength must be positive and finite")
    # (2 pi / wavelength)^2 alone may overflow, or be inf times a zero v_delta,
    # where the result is finite; its root overflows only when the result does
    root = 2.0 * math.pi * math.sqrt(v_delta) / wavelength
    v_theta = root * root
    if not math.isfinite(v_theta):
        raise ValueError(
            f"(2 pi / wavelength)^2 v_delta overflows at v_delta = {v_delta!r}, wavelength = {wavelength!r}"
        )
    return v_theta


def _gate_phase(amplitude: float, theta, name: str) -> np.ndarray:
    """theta amplitude^2 over a theta array, refused unless finite everywhere."""
    with np.errstate(over="ignore"):  # an overflowing product is refused below
        gate = np.asarray(theta, dtype=float) * amplitude**2
    if not np.all(np.isfinite(gate)):
        raise ValueError(f"theta {name}^2 is not finite for some theta at {name} = {amplitude!r}")
    return gate


def phase_gate_error(beta: float, theta: float | np.ndarray) -> float | np.ndarray:
    """Distance between exact propagation and the phase-gate approximation,
    |exp[-b^2 (1 - cos t - i sin t)] - exp[i t b^2]| = |e^{x + iy} - 1| with
    x = -2 b^2 sin^2(t/2) and y = b^2 (sin t - t), broadcast over theta (a
    float for a scalar theta).  Evaluated as hypot(expm1(x), 2 e^{x/2} sin(y/2)),
    which cancels nothing, it is accurate to about 1e-15 relative.  It
    vanishes at theta = 0 and stays below theta^2 beta^2 wherever
    theta^2 beta^2 <= 0.01.
    """
    if not 0 <= beta <= MAX_AMPLITUDE:
        raise ValueError(f"beta must be nonnegative with a finite square, got {beta!r}")
    theta = np.asarray(theta, dtype=float)
    _gate_phase(beta, theta, "beta")  # refuses a non-finite theta at beta = 0 too
    # x/2 and y/2 stay below |theta| beta^2 in size, so neither overflows
    half_x = -((beta * np.sin(theta / 2.0)) ** 2)
    half_y = beta**2 * ((np.sin(theta) - theta) / 2.0)
    return np.hypot(np.expm1(2.0 * half_x), 2.0 * np.exp(half_x) * np.sin(half_y))[()]


def ideal_output(alpha: float, theta: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logical amplitudes (c0, c1) after Hadamard, phase gate, Hadamard
    on |0>_L, broadcast over theta.

    c0 = (1 + e^{i theta alpha^2}) / 2 and c1 = (1 - e^{i theta alpha^2}) / 2,
    which are 2 pi / alpha^2 periodic in theta: raising the photon number
    compresses the fringes exactly like raising the optical frequency.
    """
    phase = np.exp(1j * _gate_phase(_require_alpha(alpha), theta, "alpha"))
    return (1.0 + phase) / 2.0, (1.0 - phase) / 2.0


def detection_probabilities(alpha: float, theta: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P(detect |1>_L), P(detect |0>_L)) of the circuit output, over theta.

    Keeps the finite overlap <0|alpha> = e^{-alpha^2/2}:
    P1 = |c0 e^{-a^2/2} + c1|^2 and P0 = |c0 + c1 e^{-a^2/2}|^2.  The
    orthogonal limit |c1|^2, |c0|^2 is reached as alpha grows.
    """
    c0, c1 = ideal_output(alpha, theta)
    eps = math.exp(-(alpha**2) / 2.0)
    return np.abs(c0 * eps + c1) ** 2, np.abs(c0 + c1 * eps) ** 2


def cat_mean_photon_number(alpha: float, exact: bool = False) -> float:
    """Mean photon number of (|0> + |alpha>)/w: alpha^2/2, or the exact
    value alpha^2 / (2 + 2 e^{-alpha^2/2})."""
    _require_alpha(alpha)
    if exact:
        return alpha**2 / cat_norm_squared(alpha)
    return alpha**2 / 2.0


def _require_v_theta(v_theta: float) -> None:
    if not (v_theta >= 0 and math.isfinite(v_theta)):
        raise ValueError("v_theta must be nonnegative and finite")


def snr_ideal(v_theta: float, alpha: float) -> float:
    """Signal-to-noise for small phase fluctuations of power v_theta.

    Detecting |1>_L is the signal, obtaining |0>_L regardless is the
    noise; averaging over theta ~ N(0, v_theta) gives
    v_theta alpha^4 / 4 = v_theta nbar^2 with nbar = alpha^2/2.
    """
    _require_v_theta(v_theta)
    nbar = _require_alpha(alpha) ** 2 / 2.0
    # v_theta nbar lies between v_theta and the result: no early overflow
    snr = v_theta * nbar * nbar
    if not math.isfinite(snr):
        raise ValueError(f"v_theta nbar^2 overflows at alpha = {alpha!r}")
    return snr

