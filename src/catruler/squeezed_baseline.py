"""Squeezed-vacuum interferometer benchmark (linearized homodyne model).

A coherent beam of real amplitude beta enters one port of a balanced
interferometer, phase-squeezed vacuum the other (Caves, Phys. Rev. D 23,
1693 (1981)).  Small path-length fluctuations couple into the phase
quadrature of the null output port:

    X_out ~= X_a^+ * theta / 2 + X_b^-

where X_a^+ is the amplitude quadrature of the coherent input and X_b^-
the squeezed quadrature of the vacuum port.  Quadrature normalization:
vacuum quadrature variance is 1, so X_a^+ ~ N(2 beta, 1), and
X_b^- ~ N(0, V_b^-).  A pure squeezed vacuum with photon number
sinh^2(r) has V_b^- = e^{-2r}.

The benchmark's signal-to-noise is the closed form

    S/N = (beta^2 + 1) V_theta / (4 V_b^-)

Its carrier beta^2 V_theta / (4 V_b^-) is the model's: the mean response
per unit theta is beta, and the noise at theta = 0 is V_b^-.  Its +1,
the coherent beam's vacuum noise, is the closed form's convention, not a
consequence of the model.  For theta ~ N(0, V_theta) the model's
theta-driven power is E[(X_a^+ theta/2)^2] = (4 beta^2 + 1) V_theta / 4,
so on the carrier's scale its vacuum term is 1/4, not 1; at beta^2 = 100
the two differ by 0.75 % of the S/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def snr_squeezed(p: SqueezedBaselineParams) -> float:
    """Closed-form signal-to-noise (beta^2 + 1) v_theta / (4 v_b_minus).

    The +1 is the closed form's vacuum convention; the output model puts
    1/4 there (see the module docstring).
    """
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
