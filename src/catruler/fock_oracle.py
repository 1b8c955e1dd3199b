"""Independent ground-truth engine in a truncated number basis.

Everything the analytic modules compute in closed form is recomputed
here by brute force: coherent states expand as
c_n = e^{-|g|^2/2} g^n / sqrt(n!), beamsplitters act through the matrix
exponential of the two-mode mixing generator, cat-basis outcomes are
projections, and quadrature statistics come from the harmonic-oscillator
eigenfunctions, in the fixed quadrature units of coherent_algebra
(<x> = Re g, vacuum variance 1/4).  Agreement between the two routes at
small amplitude is what licenses trusting the closed forms at large
amplitude, so nothing in this module reuses the analytic formulas beyond
the bare overlap definition in the tests; in particular the cat
normalization is written out here rather than taken from
coherent_algebra.cat_norm_squared.

Truncations follow N = max(30, ceil(|g|^2 + 8 |g| + 20)) per mode
(a Poisson-tail bound), and every constructor or unitary verifies the
realized tail mass / norm loss rather than assuming the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from .coherent_algebra import CoherentSuperposition
from .coherent_algebra import norm_squared as _gram_norm_squared
from .errors import GridResolutionError, TruncationError
from .physical_realization import RealizationParams, _check_mode

DEFAULT_TAIL_TOL = 1e-8
UNITARY_NORM_TOL = 1e-8


def default_truncation(max_abs_amplitude: float) -> int:
    """Per-mode truncation for amplitudes up to |g|: max(30, |g|^2 + 8|g| + 20)."""
    g = abs(max_abs_amplitude)
    return max(30, math.ceil(g**2 + 8.0 * g + 20.0))


@dataclass(frozen=True)
class FockVector:
    """Single-mode state as number-basis coefficients c_0 .. c_N.

    tail_mass estimates the probability the intended (untruncated) state
    carries beyond the truncation.
    """

    coefficients: np.ndarray
    truncation: int
    tail_mass: float = 0.0

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex).copy()
        if coeffs.ndim != 1 or coeffs.size != self.truncation + 1:
            raise ValueError("coefficients must be one-dimensional with length truncation + 1")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        if self.norm_squared > 1.0 + 1e-9:
            raise ValueError(f"norm^2 = {self.norm_squared!r} exceeds 1")

    @property
    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))

    def normalized(self) -> "FockVector":
        n2 = self.norm_squared
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero vector")
        return FockVector(self.coefficients / math.sqrt(n2), self.truncation, self.tail_mass)


@dataclass(frozen=True)
class TwoModeFockTensor:
    """Two-mode state as an (N+1) x (N+1) coefficient grid (mode a, mode b)."""

    coefficients: np.ndarray
    truncation: int
    tail_mass: float = 0.0

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex).copy()
        n = self.truncation + 1
        if coeffs.shape != (n, n):
            raise ValueError(f"coefficients must have shape {(n, n)}, got {coeffs.shape}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))


def coherent_to_fock(
    gamma: complex, truncation: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL
) -> FockVector:
    """|gamma> in the number basis, built by the stable ratio recurrence
    c_n = c_{n-1} gamma / sqrt(n) from c_0 = e^{-|gamma|^2/2}."""
    gamma = complex(gamma)
    if truncation is None:
        truncation = default_truncation(abs(gamma))
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    coeffs = np.empty(truncation + 1, dtype=complex)
    coeffs[0] = math.exp(-abs(gamma) ** 2 / 2.0)
    for n in range(1, truncation + 1):
        coeffs[n] = coeffs[n - 1] * gamma / math.sqrt(n)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(coeffs) ** 2)))
    if tail > tail_tol:
        raise TruncationError(
            f"coherent state |{gamma}| leaves tail mass {tail:.3e} beyond N = {truncation}"
        )
    return FockVector(coeffs, truncation, tail)


def superposition_to_fock(
    s: CoherentSuperposition, truncation: int | None = None, tail_tol: float = DEFAULT_TAIL_TOL
) -> FockVector:
    """Represent sum_k c_k |g_k> in the number basis, scaled to unit norm.

    The scale divides out the exact Gram-matrix norm of s, so passing an
    already normalized superposition reproduces it coefficient for
    coefficient.
    """
    if truncation is None:
        truncation = default_truncation(float(np.max(np.abs(s.amplitudes))))
    total = np.zeros(truncation + 1, dtype=complex)
    for c, g in s.terms:
        total += c * coherent_to_fock(g, truncation, tail_tol).coefficients
    exact = _gram_norm_squared(s)
    if exact <= 0.0:
        raise ValueError("cannot represent a zero-norm superposition")
    realized = float(np.sum(np.abs(total) ** 2))
    tail = max(0.0, (exact - realized) / exact)
    if tail > tail_tol:
        raise TruncationError(
            f"superposition leaves tail fraction {tail:.3e} beyond N = {truncation}"
        )
    return FockVector(total / math.sqrt(exact), truncation, tail)


def two_mode_product(mode_a: FockVector, mode_b: FockVector) -> TwoModeFockTensor:
    if mode_a.truncation != mode_b.truncation:
        raise ValueError("both modes must share one truncation")
    return TwoModeFockTensor(
        np.outer(mode_a.coefficients, mode_b.coefficients),
        mode_a.truncation,
        mode_a.tail_mass + mode_b.tail_mass,
    )


def phase_rotate(state: FockVector, theta: float) -> FockVector:
    """Apply exp(i theta n): coefficient c_n picks up e^{i n theta}."""
    phases = np.exp(1j * theta * np.arange(state.truncation + 1))
    return FockVector(state.coefficients * phases, state.truncation, state.tail_mass)


def _mixing_generator(truncation: int) -> sparse.csc_matrix:
    """a^dag b + a b^dag on the flattened two-mode space."""
    d = truncation + 1
    lowering = sparse.diags(np.sqrt(np.arange(1.0, d)), 1)
    raising = lowering.T
    return (sparse.kron(raising, lowering) + sparse.kron(lowering, raising)).tocsc()


def beamsplitter_fock(
    state: TwoModeFockTensor, mix_angle: float, norm_tol: float = UNITARY_NORM_TOL
) -> TwoModeFockTensor:
    """exp[i t (a^dag b + a b^dag)], the unitary whose coherent-amplitude
    action is |g>|b> -> |cos t g + i sin t b>|cos t b + i sin t g>.

    Evaluated by scaling-and-squaring-type action of the matrix
    exponential on the state.  The truncated generator is Hermitian, so
    the evolution is exactly unitary and norm loss cannot witness an
    undersized truncation; instead, probability reaching the occupation
    cutoff (where the truncated dynamics diverge from the untruncated
    ones) raises a truncation error.
    """
    if not math.isfinite(mix_angle):
        raise ValueError("mix_angle must be finite")
    d = state.truncation + 1
    flat = state.coefficients.reshape(-1)
    before = float(np.vdot(flat, flat).real)
    out = expm_multiply(1j * mix_angle * _mixing_generator(state.truncation), flat)
    after = float(np.vdot(out, out).real)
    if abs(after - before) > norm_tol * max(1.0, before):
        raise TruncationError(
            f"beamsplitter norm drift {after - before:.3e} exceeds {norm_tol:.1e}"
        )
    grid = out.reshape(d, d)
    boundary = (
        float(np.sum(np.abs(grid[-1, :]) ** 2))
        + float(np.sum(np.abs(grid[:, -1]) ** 2))
        - float(np.abs(grid[-1, -1]) ** 2)
    )
    if boundary > norm_tol * max(1.0, before):
        raise TruncationError(
            f"occupation mass {boundary:.3e} reached the cutoff N = {state.truncation}; "
            "increase the truncation"
        )
    return TwoModeFockTensor(grid, state.truncation, state.tail_mass)


def parity_distribution(state: FockVector, norm_tol: float = 1e-6) -> tuple[float, float]:
    """(p_even, p_odd) photon-number parity masses of a normalized state."""
    n2 = state.norm_squared
    if abs(n2 - 1.0) > norm_tol:
        raise ValueError(f"state norm^2 = {n2!r}; parity needs a normalized state")
    probs = np.abs(state.coefficients) ** 2 / n2
    p_even = float(np.sum(probs[0::2]))
    return p_even, 1.0 - p_even


def _eigenfunction_table(truncation: int, x: np.ndarray) -> np.ndarray:
    """psi_n(x) for n = 0..N by upward recurrence with underflow guards.

    Units: <x>_g = Re(g), vacuum variance 1/4 (as in coherent_algebra).
    The recurrence on normalized eigenfunctions is stable pointwise; a
    per-point power-of-two rescaling keeps deep-tail values representable
    and is undone on accumulation.
    """
    xi = math.sqrt(2.0) * x
    table = np.zeros((truncation + 1, x.size))
    scale_pow = np.zeros(x.size)  # log2 of the factor applied to the running pair
    prev = np.zeros(x.size)
    curr = (2.0 / np.pi) ** 0.25 * np.exp(-(x**2))
    table[0] = curr
    for n in range(truncation):
        nxt = math.sqrt(2.0 / (n + 1)) * xi * curr - math.sqrt(n / (n + 1.0)) * prev
        prev, curr = curr, nxt
        # rescale points whose running values risk underflow
        small = (np.abs(curr) < 1e-280) & (np.abs(prev) < 1e-280) & ((np.abs(curr) > 0) | (np.abs(prev) > 0))
        if np.any(small):
            prev[small] *= 2.0**900
            curr[small] *= 2.0**900
            scale_pow[small] -= 900
        table[n + 1] = curr * 2.0**scale_pow
    return table


def _gauss_panel_rule(lower: float, upper: float, n_panels: int, order: int = 16):
    """Composite Gauss-Legendre nodes and weights on [lower, upper]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lower, upper, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).reshape(-1)
    w = (half[:, None] * weights[None, :]).reshape(-1)
    return x, w


def quadrature_cdf_fock(
    state: FockVector,
    threshold: float,
    rtol: float = 1e-9,
    base_panels: int | None = None,
    max_refinements: int = 4,
) -> float:
    """Probability of a quadrature outcome at or below threshold.

    Expands the state in the oscillator eigenbasis (<x>_g = Re(g), vacuum
    variance 1/4) and integrates |psi(x)|^2 by composite Gauss-Legendre
    panels, doubling the panel count until two successive refinements
    agree to rtol.
    """
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    n2 = state.norm_squared
    if abs(n2 - 1.0) > 1e-6:
        raise ValueError("quadrature CDF expects a normalized state")
    # support of every basis state up to N ends near the classical
    # turning point; pad well beyond it
    turning = math.sqrt((2.0 * state.truncation + 1.0) / 2.0)
    lower = -(turning + 8.0)
    if threshold <= lower:
        return 0.0
    if base_panels is None:
        # several panels per oscillation of the highest basis state
        shortest = math.pi / math.sqrt(2.0 * state.truncation + 1.0)
        base_panels = max(32, math.ceil(2.0 * (threshold - lower) / shortest))

    def evaluate(n_panels: int) -> float:
        x, w = _gauss_panel_rule(lower, threshold, n_panels)
        table = _eigenfunction_table(state.truncation, x)
        amplitude = state.coefficients @ table.astype(complex)
        return float(np.sum(w * np.abs(amplitude) ** 2))

    panels = base_panels
    previous = evaluate(panels)
    delta = math.inf
    for _ in range(max_refinements):
        panels *= 2
        current = evaluate(panels)
        delta = abs(current - previous)
        if delta <= max(rtol * abs(current), 1e-12):
            return min(max(current, 0.0), 1.0 + 1e-9)
        previous = current
    raise GridResolutionError(
        f"quadrature grid did not converge to rtol = {rtol:.1e} within "
        f"{max_refinements} refinements (last delta {delta:.3e})"
    )


class OracleProbabilities(NamedTuple):
    p_plus: float
    p_minus: float
    leakage: float


def end_to_end_oracle(
    p: RealizationParams,
    truncation: int | None = None,
    mode: str = "conditional",
    rtol: float = 1e-9,
) -> OracleProbabilities:
    """Full pipeline in Fock space: cat x cat, path phase, beamsplitter,
    cat projection of the measured mode, threshold statistics of the
    homodyne mode.

    Intended for alpha <= 3 or so; the cost grows with the truncation,
    which must cover per-mode amplitudes up to about alpha sqrt(2).
    """
    _check_mode(mode)
    alpha = p.alpha
    if truncation is None:
        reach = alpha * (math.cos(p.phi) + math.sin(p.phi))
        truncation = default_truncation(reach)

    norm = 1.0 / math.sqrt(2.0 + 2.0 * math.exp(-(alpha**2) / 2.0))
    vac = coherent_to_fock(0.0, truncation)
    amp = coherent_to_fock(alpha, truncation)
    plus_cat = FockVector((vac.coefficients + amp.coefficients) * norm, truncation)
    minus_norm = 1.0 / math.sqrt(2.0 - 2.0 * math.exp(-(alpha**2) / 2.0))
    minus_cat = FockVector((vac.coefficients - amp.coefficients) * minus_norm, truncation)

    signal = phase_rotate(plus_cat, p.theta)
    joint = two_mode_product(signal, plus_cat)
    mixed = beamsplitter_fock(joint, p.phi)

    conditional_plus = np.conj(plus_cat.coefficients) @ mixed.coefficients
    conditional_minus = np.conj(minus_cat.coefficients) @ mixed.coefficients
    w_plus = float(np.vdot(conditional_plus, conditional_plus).real)
    w_minus = float(np.vdot(conditional_minus, conditional_minus).real)
    leakage = 1.0 - w_plus - w_minus

    threshold = alpha / 2.0
    p_plus = quadrature_cdf_fock(
        FockVector(conditional_plus / math.sqrt(w_plus), truncation), threshold, rtol
    )
    p_minus = quadrature_cdf_fock(
        FockVector(conditional_minus / math.sqrt(w_minus), truncation), threshold, rtol
    )
    if mode == "joint":
        p_plus *= w_plus
        p_minus *= w_minus
    return OracleProbabilities(p_plus, p_minus, leakage)
