"""Squeezed-vacuum interferometer benchmark (linearized homodyne model).

A coherent beam of real amplitude beta enters one port of a balanced
interferometer, phase-squeezed vacuum the other.  Small path-length
fluctuations couple into the phase quadrature of the null output port:

    X_out ~= X_a^+ * theta / 2 + X_b^-

where X_a^+ is the amplitude quadrature of the coherent input and X_b^-
the squeezed quadrature of the vacuum port.

Quadrature normalization: vacuum quadrature variance is 1, so a coherent
amplitude beta gives X^+ mean 2*beta.  This is the convention under
which the closed-form signal-to-noise

    S/N = (beta^2 + 1) V_theta / (4 V_b^-)

follows from the output model: the signal term (2 beta * theta/2)^2 plus
the coherent beam's unit vacuum noise form the numerator, referenced to
the squeezed noise floor through the same theta/2 coupling.  A pure
squeezed vacuum with photon number sinh^2(r) has V_b^- = e^{-2r}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherent_algebra import MAX_AMPLITUDE


@dataclass(frozen=True)
class SqueezedBaselineParams:
    """beta: coherent input amplitude (real, >= 0)
    v_b_minus: squeezed-quadrature noise power, in (0, 1]
    v_theta: power of the phase fluctuations being sensed (rad^2)
    """

    beta: float
    v_b_minus: float
    v_theta: float = 0.0

    def __post_init__(self):
        if not 0 <= self.beta <= MAX_AMPLITUDE:
            raise ValueError(f"beta must be nonnegative with a finite square, got {self.beta!r}")
        if not (0.0 < self.v_b_minus <= 1.0):
            raise ValueError("v_b_minus must lie in (0, 1]")
        if not (self.v_theta >= 0 and math.isfinite(self.v_theta)):
            raise ValueError("v_theta must be nonnegative and finite")


def homodyne_samples(
    p: SqueezedBaselineParams, theta: float, n_samples: int, rng_seed: int
) -> np.ndarray:
    """Draw homodyne outcomes X_a^+ * theta/2 + X_b^- at a fixed phase.

    X_a^+ ~ N(2 beta, 1) and X_b^- ~ N(0, v_b_minus); deterministic for a
    fixed seed (X_a^+ drawn first, then X_b^-).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(rng_seed)
    x_a = rng.normal(2.0 * p.beta, 1.0, n_samples)
    x_b = rng.normal(0.0, math.sqrt(p.v_b_minus), n_samples)
    # a non-finite theta, or a finite one whose product overflows
    with np.errstate(over="ignore", invalid="ignore"):
        samples = x_a * (theta / 2.0) + x_b
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"homodyne samples are not finite at theta = {theta!r}")
    return samples


def snr_squeezed(p: SqueezedBaselineParams) -> float:
    """Closed-form signal-to-noise (beta^2 + 1) v_theta / (4 v_b_minus)."""
    snr = (p.beta**2 + 1.0) * p.v_theta / (4.0 * p.v_b_minus)
    if not math.isfinite(snr):
        raise ValueError(f"the signal-to-noise ratio overflows for {p!r}")
    return snr


def equal_power_params(n_bar: float, v_theta: float = 0.0) -> SqueezedBaselineParams:
    """Split a photon budget n_bar equally between the two inputs.

    beta^2 = n_bar/2 and the squeezed vacuum carries sinh^2(r) = n_bar/2
    photons with V_b^- = e^{-2r}.  In the strong-squeezing limit
    V_b^- -> 1/(2 n_bar), which drives the closed form toward
    v_theta * n_bar^2 / 4.
    """
    if not (n_bar > 0 and math.isfinite(n_bar)):
        raise ValueError("n_bar must be positive and finite")
    beta = math.sqrt(n_bar / 2.0)
    r = math.asinh(math.sqrt(n_bar / 2.0))
    return SqueezedBaselineParams(beta=beta, v_b_minus=math.exp(-2.0 * r), v_theta=v_theta)


def snr_monte_carlo(
    p: SqueezedBaselineParams,
    theta_probe: float,
    n_samples: int = 1_000_000,
    rng_seed: int = 0,
) -> float:
    """Sample-based signal-to-noise estimate.

    Calibrates the signal power from the squared mean response at a probe
    phase, beta_hat^2 = (mean / theta_probe)^2, and the noise floor from
    the sample variance at theta = 0, then forms
    beta_hat^2 * v_theta / (4 * var_hat).  This recovers the carrier term
    of the closed form but not its +1 vacuum correction, so agreement
    with snr_squeezed is capped at beta^2/(beta^2+1); within 5 percent
    for beta >= 5.
    """
    if not (theta_probe != 0.0 and math.isfinite(theta_probe)):
        raise ValueError(f"theta_probe must be nonzero and finite, got {theta_probe!r}")
    rng = np.random.default_rng(rng_seed)
    signal = homodyne_samples(p, theta_probe, n_samples, int(rng.integers(2**63)))
    noise = homodyne_samples(p, 0.0, n_samples, int(rng.integers(2**63)))
    # a single sample has no variance, and a tiny probe can overflow the
    # calibration: both leave a non-finite estimate, refused below
    with np.errstate(all="ignore"):
        beta_sq_hat = (signal.mean() / theta_probe) ** 2
        snr = float(beta_sq_hat * p.v_theta / (4.0 * noise.var()))
    if not math.isfinite(snr):
        raise ValueError(f"the estimate is not finite at theta_probe = {theta_probe!r}")
    return snr
