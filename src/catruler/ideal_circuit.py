"""Idealized Hadamard - phase - Hadamard circuit in the coherent-state encoding.

Logical qubits use |0>_L = vacuum and |1>_L = |alpha> with real alpha.
The logical layer treats the two basis states as orthogonal (exact only
as alpha -> infinity, since <0|alpha> = e^{-alpha^2/2}); finite-alpha
corrections are available through detection_probabilities(exact=True)
and live fully in the physical-realization pipeline.

Free propagation over a distance D imprints U(theta) = exp(i theta n)
with theta = 2 pi D / wavelength; on |alpha> this acts as a phase gate
exp(i theta alpha^2) up to an error that vanishes when
theta^2 alpha^2 << 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent_algebra import MAX_AMPLITUDE, CoherentSuperposition, _require_alpha, cat_norm_squared

QUBIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class LogicalQubit:
    """State c0 |0>_L + c1 |1>_L under the orthogonal-basis convention."""

    c0: complex
    c1: complex
    alpha: float

    def __post_init__(self):
        _require_alpha(self.alpha)
        object.__setattr__(self, "c0", complex(self.c0))
        object.__setattr__(self, "c1", complex(self.c1))
        n2 = abs(self.c0) ** 2 + abs(self.c1) ** 2
        if not abs(n2 - 1.0) <= QUBIT_NORM_TOL:
            raise ValueError(f"|c0|^2 + |c1|^2 = {n2!r} is not 1 within {QUBIT_NORM_TOL}")

    def as_superposition(self) -> CoherentSuperposition:
        """The underlying optical state c0 |0> + c1 |alpha>."""
        return CoherentSuperposition(((self.c0, 0.0), (self.c1, complex(self.alpha))))


@dataclass(frozen=True)
class PropagationSetting:
    """Path-length difference delta at a wavelength, and the path phase
    theta = 2 pi delta / wavelength it imprints."""

    delta: float
    wavelength: float

    def __post_init__(self):
        if not (self.wavelength > 0 and math.isfinite(self.wavelength)):
            raise ValueError("wavelength must be positive and finite")
        if not math.isfinite(self.theta):
            raise ValueError(f"delta = {self.delta!r} must be finite, with a finite phase")

    @property
    def theta(self) -> float:
        return 2.0 * math.pi * self.delta / self.wavelength

    @classmethod
    def from_phase(cls, theta: float, wavelength: float) -> "PropagationSetting":
        return cls(theta * wavelength / (2.0 * math.pi), wavelength)


def v_theta_from_length_power(v_delta: float, wavelength: float) -> float:
    """Convert length-fluctuation power (length^2) to phase power (rad^2)."""
    if not (v_delta >= 0 and math.isfinite(v_delta)):
        raise ValueError("fluctuation power must be nonnegative and finite")
    if not (wavelength > 0 and math.isfinite(wavelength)):
        raise ValueError("wavelength must be positive and finite")
    return (2.0 * math.pi / wavelength) ** 2 * v_delta


def hadamard(q: LogicalQubit) -> LogicalQubit:
    """Logical Hadamard: |0> -> (|0>+|1>)/sqrt2, |1> -> (|0>-|1>)/sqrt2."""
    r = math.sqrt(0.5)
    return LogicalQubit((q.c0 + q.c1) * r, (q.c0 - q.c1) * r, q.alpha)


def prepare_plus_cat(alpha: float, exact_norm: bool = False) -> CoherentSuperposition:
    """The state after the first Hadamard on |0>_L: (|0> + |alpha>) / w.

    With exact_norm=False both coefficients are 1/sqrt(2) (unit norm only
    in the orthogonal large-alpha limit); with exact_norm=True they are
    1/sqrt(2 + 2 e^{-alpha^2/2}) and the norm is exactly 1.
    """
    _require_alpha(alpha)
    if exact_norm:
        w = 1.0 / math.sqrt(cat_norm_squared(alpha))
    else:
        w = math.sqrt(0.5)
    return CoherentSuperposition(((w, 0.0), (w, complex(alpha))))


def propagate_exact(s: CoherentSuperposition, theta: float) -> CoherentSuperposition:
    """Free propagation exp(i theta n): each amplitude g -> g e^{i theta}."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    rot = complex(np.exp(1j * theta))
    return CoherentSuperposition(tuple((c, g * rot) for c, g in s.terms))


def phase_gate_error(beta: float, theta: float) -> float:
    """Distance between exact propagation and the phase-gate approximation.

    |<b| U(theta) |b>| differs from the pure phase e^{i theta b^2}; the
    returned value is |exp[-b^2 (1 - cos t - i sin t)] - exp[i t b^2]|.
    It vanishes at theta = 0 and stays below theta^2 beta^2 throughout
    the weak-phase regime theta^2 beta^2 <= 0.01.
    """
    # beta^2 must be finite too, or the exponents below overflow
    if not 0 <= beta <= MAX_AMPLITUDE:
        raise ValueError(f"beta must be nonnegative with a finite square, got {beta!r}")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    exact = np.exp(-(beta**2) * (1.0 - math.cos(theta) - 1j * math.sin(theta)))
    approx = np.exp(1j * theta * beta**2)
    return float(abs(exact - approx))


def ideal_output(alpha: float, theta: float) -> LogicalQubit:
    """Output of Hadamard, phase gate, Hadamard applied to |0>_L.

    Equals ((1 + e^{i theta alpha^2})|0>_L + (1 - e^{i theta alpha^2})|1>_L)/2,
    which is 2 pi / alpha^2 periodic in theta: raising the photon number
    compresses the fringes exactly like raising the optical frequency.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    gate = theta * _require_alpha(alpha) ** 2
    if not math.isfinite(gate):
        raise ValueError(f"theta alpha^2 overflows at theta = {theta!r}, alpha = {alpha!r}")
    phase = complex(np.exp(1j * gate))
    return LogicalQubit((1.0 + phase) / 2.0, (1.0 - phase) / 2.0, alpha)


def detection_probabilities(q: LogicalQubit, exact_overlaps: bool = False) -> tuple[float, float]:
    """(P(detect |1>_L), P(detect |0>_L)) for a logical state.

    The orthogonal-limit values are |c1|^2 and |c0|^2.  With
    exact_overlaps=True the finite <0|alpha> = e^{-alpha^2/2} is kept:
    P1 = |c0 e^{-a^2/2} + c1|^2 and P0 = |c0 + c1 e^{-a^2/2}|^2.
    """
    if not exact_overlaps:
        return abs(q.c1) ** 2, abs(q.c0) ** 2
    eps = math.exp(-(q.alpha**2) / 2.0)
    p_one = abs(q.c0 * eps + q.c1) ** 2
    p_zero = abs(q.c0 + q.c1 * eps) ** 2
    return p_one, p_zero


def cat_mean_photon_number(alpha: float, exact: bool = False) -> float:
    """Mean photon number of (|0> + |alpha>)/w: alpha^2/2, or the exact
    value alpha^2 / (2 + 2 e^{-alpha^2/2})."""
    _require_alpha(alpha)
    if exact:
        return alpha**2 / cat_norm_squared(alpha)
    return alpha**2 / 2.0


def snr_ideal(v_theta: float, alpha: float) -> float:
    """Signal-to-noise for small phase fluctuations of power v_theta.

    Detecting |1>_L is the signal, obtaining |0>_L regardless is the
    noise; averaging over theta ~ N(0, v_theta) gives
    v_theta alpha^4 / 4 = v_theta nbar^2 with nbar = alpha^2/2.
    """
    if not (v_theta >= 0 and math.isfinite(v_theta)):
        raise ValueError("v_theta must be nonnegative and finite")
    nbar = _require_alpha(alpha) ** 2 / 2.0
    # nbar^2 raises OverflowError past MAX_AMPLITUDE; below it the product may still reach inf
    snr = v_theta * nbar**2 if nbar <= MAX_AMPLITUDE else math.inf
    if not math.isfinite(snr):
        raise ValueError(f"v_theta nbar^2 overflows at alpha = {alpha!r}")
    return snr


def snr_monte_carlo(
    alpha: float,
    v_theta: float,
    n_samples: int = 20000,
    rng_seed: int = 0,
) -> float:
    """Monte Carlo estimate of snr_ideal from the exact circuit output.

    Draws theta ~ N(0, v_theta) and averages the per-draw detection
    ratio P(|1>)/P(|0>), keeping the exact coherent overlaps so the
    finite-alpha correction is visible.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(rng_seed)
    thetas = rng.normal(0.0, math.sqrt(v_theta), n_samples)
    ratios = np.empty(n_samples)
    for i, theta in enumerate(thetas):
        p_one, p_zero = detection_probabilities(ideal_output(alpha, theta), exact_overlaps=True)
        ratios[i] = p_one / p_zero
    return float(ratios.mean())
