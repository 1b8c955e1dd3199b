"""Exact conditional optics of the two-cat interferometer.

The measurement path carries a cat state (|0> + |alpha> exactly
normalized) whose |alpha> component picks up the path phase theta.  At a
highly reflective beamsplitter of mixing angle phi (reflectivity
cos^2 phi, default phi = pi / (2 alpha^2) so that phi * alpha^2 = pi/2)
it meets a second, identical cat.  Expanding both cats and applying the
beamsplitter relation term by term leaves four two-mode product terms;
projecting the measured port onto the exactly orthonormal plus/minus
cats (|0> +- |alpha>, normalized) conditions the homodyne port on the
cat-basis outcome.

Everything here is computed from the overlap formula with no large-alpha
approximation.  The two-outcome projection is not complete: the measured
port has support outside the two-cat span, and that probability mass is
reported as `leakage` instead of being silently renormalized.

The conditional-output coefficients are derived from first principles.
When written out by hand, the composite-term overlap invites a
port-swap slip (evaluating it against the homodyne-port composite
amplitude instead of the measured-port one); the two readings agree
only at theta = 0 mod 2 pi, and composite_coefficient_discrepancy
quantifies the difference for cross-checking derivations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coherent_algebra import (
    CANONICAL_CONVENTION,
    NORM_CLAMP,
    CoherentSuperposition,
    QuadratureConvention,
    _hermitian_form,
    _log_overlap,
    _threshold_kernel_erf,
    overlap,
    threshold_probability,
)
from .errors import (
    ApproximationRegimeWarning,
    IntegrationError,
    WidthUndefinedError,
)

NORMALIZATION_MODES = ("conditional", "joint")
WEIGHT_CLOSURE_TOL = 1e-9
# Above this value of phi^2 alpha^2 the weak-mixing picture degrades.
APPROXIMATION_WARNING_LEVEL = 0.1


def _check_mode(mode: str) -> str:
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"normalization mode must be one of {NORMALIZATION_MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class RealizationParams:
    """alpha: cat amplitude (> 0); theta: path phase (rad);
    phi: beamsplitter mixing angle, default pi / (2 alpha^2)."""

    alpha: float
    theta: float = 0.0
    phi: float | None = None

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive and finite")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.phi is None:
            object.__setattr__(self, "phi", math.pi / (2.0 * self.alpha**2))
        elif not (0 <= self.phi and math.isfinite(self.phi)):
            raise ValueError("phi must be nonnegative and finite")
        if self.approximation_parameter > APPROXIMATION_WARNING_LEVEL:
            warnings.warn(
                f"phi^2 alpha^2 = {self.approximation_parameter:.3g} exceeds "
                f"{APPROXIMATION_WARNING_LEVEL}; the weak-mixing regime is violated",
                category=ApproximationRegimeWarning,
                stacklevel=2,
            )

    @property
    def gate_phase(self) -> float:
        """phi * alpha^2; pi/2 at the default mixing angle."""
        return self.phi * self.alpha**2

    @property
    def approximation_parameter(self) -> float:
        """phi^2 * alpha^2, the weak-mixing control parameter."""
        return self.phi**2 * self.alpha**2


@dataclass(frozen=True)
class ConditionalOutput:
    """Conditional homodyne-port states and cat-outcome statistics.

    plus_state / minus_state are normalized; plus_weight / minus_weight
    are the outcome probabilities and leakage the mass of the measured
    port outside the two-cat span.  The three sum to 1.
    """

    plus_state: CoherentSuperposition
    minus_state: CoherentSuperposition
    plus_weight: float
    minus_weight: float
    leakage: float

    def __post_init__(self):
        for name in ("plus_weight", "minus_weight"):
            w = getattr(self, name)
            if not w >= -NORM_CLAMP:
                raise ValueError(f"{name} = {w!r} is negative or not finite")
            object.__setattr__(self, name, max(w, 0.0))
        closure = self.plus_weight + self.minus_weight + self.leakage
        if not abs(closure - 1.0) <= WEIGHT_CLOSURE_TOL:
            raise ValueError(f"weights + leakage = {closure!r}, not 1 within {WEIGHT_CLOSURE_TOL}")


@dataclass(frozen=True)
class FringeCurve:
    """Uniform scan of the conditional probabilities over theta."""

    alpha: float
    theta: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    fringe: np.ndarray
    fringe_complement: np.ndarray
    leakage: np.ndarray
    normalization_mode: str = "conditional"

    def __post_init__(self):
        _check_mode(self.normalization_mode)
        arrays = {}
        n = None
        for name in ("theta", "p_plus", "p_minus", "fringe", "fringe_complement", "leakage"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            arrays[name] = arr
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise ValueError("all fringe-curve columns must have equal length")
            object.__setattr__(self, name, arr)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} holds non-finite values")
        if np.any(np.diff(arrays["theta"]) <= 0):
            raise ValueError("theta samples must be strictly increasing")
        for name in ("p_plus", "p_minus", "fringe", "fringe_complement"):
            arr = arrays[name]
            if not (-1e-9 <= arr.min() and arr.max() <= 1.0 + 1e-9):
                raise ValueError(f"{name} leaves [0, 1]: range [{arr.min()!r}, {arr.max()!r}]")

    def __len__(self) -> int:
        return self.theta.size


class CatProjections(NamedTuple):
    """Projection data of the measured port onto the plus/minus cats.

    measured_amplitudes / output_amplitudes list the four coherent
    components per beamsplitter product term, ordered as
    (vacuum term, reference-transmission term, signal-transmission term,
    composite term); plus / minus hold <cat_+-|component> for the four
    measured-port components in the same order.
    """

    measured_amplitudes: tuple[complex, complex, complex, complex]
    output_amplitudes: tuple[complex, complex, complex, complex]
    plus: tuple[complex, complex, complex, complex]
    minus: tuple[complex, complex, complex, complex]


def _cat_norms(alpha: float) -> tuple[float, float]:
    eps = math.exp(-(alpha**2) / 2.0)
    return 1.0 / math.sqrt(2.0 + 2.0 * eps), 1.0 / math.sqrt(2.0 - 2.0 * eps)


def _cat_projections(
    alpha: float, phi: float, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Beamsplitter expansion of cat(theta) x cat at every theta of a grid.

    Returns the measured-port and homodyne-port amplitudes of the four
    product terms, each of shape (n, 4), and the overlaps of the
    normalized plus / minus cats with the measured-port components,
    shape (n, 2, 4).  All of them are closed-form in e^{i theta}.
    """
    transmitted, reflected = alpha * math.cos(phi), 1j * alpha * math.sin(phi)
    e = np.exp(1j * thetas)
    zero = np.zeros_like(e)
    measured = np.stack(
        [zero, zero + reflected, transmitted * e, transmitted * e + reflected], axis=-1
    )
    output = np.stack(
        [zero, zero + transmitted, reflected * e, transmitted + reflected * e], axis=-1
    )
    on_vacuum = np.exp(_log_overlap(0.0, measured))
    on_alpha = np.exp(_log_overlap(alpha, measured))
    n_plus, n_minus = _cat_norms(alpha)
    cats = np.stack([n_plus * (on_vacuum + on_alpha), n_minus * (on_vacuum - on_alpha)], axis=-2)
    return measured, output, cats


def cat_coefficients(p: RealizationParams) -> CatProjections:
    """Overlaps of the normalized plus/minus cats with the four measured-port
    coherent components, derived from the beamsplitter expansion."""
    measured, output, cats = _cat_projections(p.alpha, p.phi, np.array([p.theta]))
    rows = (measured[0], output[0], cats[0, 0], cats[0, 1])
    return CatProjections(*(tuple(complex(v) for v in row) for row in rows))


def composite_coefficient_discrepancy(p: RealizationParams) -> float:
    """Largest deviation between the derived composite-term coefficients and
    the variant that evaluates them against the homodyne-port composite
    amplitude.

    The first three coefficient pairs are identical under both readings;
    only the composite term differs (the two ports carry e^{i theta} on
    different quadrature components), so the discrepancy vanishes at
    theta = 0 mod 2 pi and is otherwise nonzero.
    """
    proj = cat_coefficients(p)
    n_plus, n_minus = _cat_norms(p.alpha)
    g_out = proj.output_amplitudes[3]
    variant_plus = n_plus * (overlap(0.0, g_out) + overlap(p.alpha, g_out))
    variant_minus = n_minus * (overlap(0.0, g_out) - overlap(p.alpha, g_out))
    return max(abs(proj.plus[3] - variant_plus), abs(proj.minus[3] - variant_minus))


class _ConditionalBatch(NamedTuple):
    """Conditional outputs over a theta grid; axis 1 of the (n, 2, ...)
    arrays runs over the (plus, minus) cat outcome."""

    output_amplitudes: np.ndarray  # (n, 4) homodyne-port amplitudes
    coefficients: np.ndarray  # (n, 2, 4) normalized conditional states
    weights: np.ndarray  # (n, 2) outcome probabilities
    leakage: np.ndarray  # (n,) measured-port mass outside the two-cat span
    conditional: np.ndarray  # (n, 2) below-threshold probabilities per outcome

    def probabilities(self, mode: str) -> np.ndarray:
        """(n, 2) P_+, P_- in the given normalization mode."""
        return self.conditional * self.weights if mode == "joint" else self.conditional


def _require(ok: np.ndarray, thetas: np.ndarray, message: str) -> None:
    """Raise IntegrationError naming the first theta at which ok fails."""
    ok = np.asarray(ok).reshape(len(thetas), -1).all(axis=1)
    if not ok.all():
        theta = float(thetas[np.argmin(ok)])
        raise IntegrationError(f"conditional output failed at theta = {theta!r}: {message}")


def _conditional_batch(
    alpha: float, phi: float, thetas: np.ndarray, conv: QuadratureConvention
) -> _ConditionalBatch:
    """Conditional homodyne-port states, weights, leakage and threshold
    probabilities at every theta of a grid, in one batched evaluation.

    Exactly normalized cat x cat input with the path phase on the measured
    beam, beamsplitter relation applied to each of the four product terms,
    projection of the measured port onto the orthonormal plus/minus cats,
    then the closed-form threshold kernel at the midpoint alpha/2 between
    the |0> and |alpha> quadrature means.  Every check of the per-state
    path is made on the whole grid and names the first failing theta.
    """
    conv.require_self_consistent()
    _, output, cats = _cat_projections(alpha, phi, thetas)
    # both input cats carry the plus-cat normalization
    raw = _cat_norms(alpha)[0] ** 2 * cats
    gram, kernel = _threshold_kernel_erf(output, conv.mean_scale * alpha / 2.0, conv.mean_scale)
    gram, kernel = gram[:, None], kernel[:, None]  # broadcast over the outcome axis

    weights, ok = _hermitian_form(raw, gram)
    _require(ok, thetas, "outcome weight is not finite or carries an imaginary residue")
    weights = weights.real
    _require(weights >= -NORM_CLAMP, thetas, "outcome weight is negative beyond tolerance")
    weights = np.maximum(weights, 0.0)
    leakage = 1.0 - weights[:, 0] - weights[:, 1]
    closure = weights[:, 0] + weights[:, 1] + leakage
    _require(np.abs(closure - 1.0) <= WEIGHT_CLOSURE_TOL, thetas,
             f"weights + leakage differ from 1 by more than {WEIGHT_CLOSURE_TOL}")

    coefficients = raw * (1.0 / np.sqrt(weights))[..., None]
    norms, ok = _hermitian_form(coefficients, gram)
    _require(ok & (norms.real >= -NORM_CLAMP), thetas, "conditional state norm is corrupted")
    bound = np.maximum(norms.real, 0.0) * (1.0 + 1e-9)
    value, ok = _hermitian_form(coefficients, kernel)
    _require(ok, thetas, "threshold probability is not finite or carries an imaginary residue")
    value = value.real
    _require((-NORM_CLAMP <= value) & (value <= bound + NORM_CLAMP), thetas,
             "threshold probability escaped [0, norm^2]")
    conditional = np.minimum(np.maximum(value, 0.0), bound)
    return _ConditionalBatch(output, coefficients, weights, leakage, conditional)


def output_state(p: RealizationParams) -> ConditionalOutput:
    """Conditional homodyne-port states after the cat-basis measurement.

    Built from first principles: exactly normalized cat x cat input with
    the path phase on the measured beam, beamsplitter relation applied to
    each of the four product terms, then projection of the measured port
    onto the orthonormal plus/minus cats.  This is the one-point case of
    the batched scan kernel.
    """
    b = _conditional_batch(p.alpha, p.phi, np.array([p.theta]), CANONICAL_CONVENTION)
    amps = b.output_amplitudes[0]
    plus, minus = (CoherentSuperposition(tuple(zip(c, amps))) for c in b.coefficients[0])
    return ConditionalOutput(
        plus_state=plus,
        minus_state=minus,
        plus_weight=float(b.weights[0, 0]),
        minus_weight=float(b.weights[0, 1]),
        leakage=float(b.leakage[0]),
    )


def measurement_probabilities(
    p: RealizationParams,
    conv: QuadratureConvention = CANONICAL_CONVENTION,
    mode: str = "conditional",
    method: str = "erf",
) -> tuple[float, float]:
    """(P_+, P_-): probability of a quadrature outcome at or below the
    threshold midway between the |0> and |alpha> means, conditioned on
    the plus / minus cat outcome.

    mode "conditional" normalizes each outcome state first (fringes span
    [0, 1]); mode "joint" scales by the outcome weights instead, giving
    the unconditioned probabilities of (outcome, below-threshold).

    method "erf" is the one-point case of the batched scan kernel, so a
    scan point and this call agree bit for bit; "quad" and "checked" run
    threshold_probability's reference paths on the output_state states.
    """
    _check_mode(mode)
    if method == "erf":
        b = _conditional_batch(p.alpha, p.phi, np.array([p.theta]), conv)
        p_plus, p_minus = b.probabilities(mode)[0]
        return float(p_plus), float(p_minus)
    out = output_state(p)
    threshold = conv.mean_scale * p.alpha / 2.0
    p_plus = threshold_probability(out.plus_state, threshold, conv, method=method)
    p_minus = threshold_probability(out.minus_state, threshold, conv, method=method)
    if mode == "joint":
        p_plus *= out.plus_weight
        p_minus *= out.minus_weight
    return p_plus, p_minus


def fringe_function(p_plus: float, p_minus: float) -> float:
    """Bit-flip-corrected fringe value (P_- - P_+ + 1)/2, in [0, 1]."""
    if not (0.0 <= p_plus <= 1.0 and 0.0 <= p_minus <= 1.0):
        raise ValueError("fringe inputs must lie in [0, 1]")
    return (p_minus - p_plus + 1.0) / 2.0


def fringe_complement(p_plus: float, p_minus: float) -> float:
    """The complementary combination (P_+ - P_- + 1)/2."""
    return 1.0 - fringe_function(p_plus, p_minus)


def fringe_scan(
    alpha: float,
    theta_min: float,
    theta_max: float,
    n_points: int,
    conv: QuadratureConvention = CANONICAL_CONVENTION,
    mode: str = "conditional",
    phi: float | None = None,
) -> FringeCurve:
    """Uniformly sampled fringe curve over [theta_min, theta_max].

    The whole grid is one batched closed-form evaluation; a failed check
    raises IntegrationError naming the first offending theta.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if not (math.isfinite(theta_min) and math.isfinite(theta_max)):
        raise ValueError("theta_min and theta_max must be finite")
    if not theta_min < theta_max:
        raise ValueError("theta_min must be below theta_max")
    _check_mode(mode)
    params = RealizationParams(alpha=alpha, phi=phi)
    thetas = np.linspace(theta_min, theta_max, n_points)
    batch = _conditional_batch(params.alpha, params.phi, thetas, conv)
    p_plus, p_minus = batch.probabilities(mode).T
    fringe = (p_minus - p_plus + 1.0) / 2.0
    return FringeCurve(
        alpha=alpha,
        theta=thetas,
        p_plus=p_plus,
        p_minus=p_minus,
        fringe=fringe,
        fringe_complement=1.0 - fringe,
        leakage=batch.leakage,
        normalization_mode=mode,
    )


def _local_extrema(theta: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior local extrema with parabolic refinement.

    Returns (positions, refined values), ordered by theta.
    """
    d = np.diff(values)
    idx = [i for i in range(1, len(values) - 1) if d[i - 1] * d[i] < 0]
    positions, refined = [], []
    h = theta[1] - theta[0]
    for i in idx:
        denom = values[i + 1] - 2.0 * values[i] + values[i - 1]
        if denom == 0.0:
            positions.append(theta[i])
            refined.append(values[i])
            continue
        shift = 0.5 * (values[i - 1] - values[i + 1]) / denom
        positions.append(theta[i] + shift * h)
        refined.append(values[i] - 0.25 * (values[i - 1] - values[i + 1]) * shift)
    return np.asarray(positions), np.asarray(refined)


def central_fringe_width(curve: FringeCurve) -> float:
    """Full width of the central fringe at half the peak-to-trough amplitude.

    The extremum nearest theta = 0 anchors the fringe; the width is the
    distance between the two crossings (one on each side, located by
    linear interpolation) of the level halfway between the curve's
    extreme values.
    """
    theta, f = curve.theta, curve.fringe
    if not (theta[0] < 0.0 < theta[-1]):
        raise WidthUndefinedError("scan window must bracket theta = 0")
    half = 0.5 * (f.max() + f.min())
    positions, _ = _local_extrema(theta, f)
    if positions.size:
        center = positions[np.argmin(np.abs(positions))]
    else:
        center = 0.0
    i0 = int(np.argmin(np.abs(theta - center)))

    def crossing(direction: int) -> float:
        i = i0
        while 0 <= i + direction < len(theta):
            j = i + direction
            if (f[i] - half) * (f[j] - half) <= 0.0 and f[i] != f[j]:
                frac = (half - f[i]) / (f[j] - f[i])
                return float(theta[i] + frac * (theta[j] - theta[i]))
            i = j
        raise WidthUndefinedError(
            "no half-amplitude crossing on "
            + ("the right" if direction > 0 else "the left")
            + " of the central extremum"
        )

    return crossing(+1) - crossing(-1)


def fringe_period(curve: FringeCurve) -> float:
    """Mean spacing between consecutive fringe maxima (about 2 pi / alpha^2)."""
    positions, values = _local_extrema(curve.theta, curve.fringe)
    if positions.size < 2:
        raise WidthUndefinedError("need at least two extrema to measure a period")
    mid = 0.5 * (curve.fringe.max() + curve.fringe.min())
    maxima = positions[values > mid]
    if maxima.size < 2:
        raise WidthUndefinedError("need at least two maxima to measure a period")
    return float(np.diff(maxima).mean())


def extremum_spacing(curve: FringeCurve) -> float:
    """Mean spacing between adjacent extrema, the resolvable tick interval.

    Bright and dark fringes alternate every half oscillation, so this is
    about pi / alpha^2 in theta.
    """
    positions, _ = _local_extrema(curve.theta, curve.fringe)
    if positions.size < 2:
        raise WidthUndefinedError("need at least two extrema to measure a spacing")
    return float(np.diff(positions).mean())


def fringe_spacing_physical(alpha: float, wavelength: float) -> float:
    """Length interval between adjacent fringe ticks: wavelength / (2 alpha^2).

    At alpha = 1 this is the standard interferometer's wavelength/2; the
    cat state compresses it by alpha^2.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError("alpha must be positive and finite")
    if not (wavelength > 0 and math.isfinite(wavelength)):
        raise ValueError("wavelength must be positive and finite")
    return wavelength / (2.0 * alpha**2)


def scan_extracted_spacing(curve: FringeCurve, wavelength: float) -> float:
    """Physical tick spacing measured from a scan: adjacent-extremum
    spacing in theta converted through delta = theta * wavelength / (2 pi)."""
    if not (wavelength > 0 and math.isfinite(wavelength)):
        raise ValueError("wavelength must be positive and finite")
    return extremum_spacing(curve) * wavelength / (2.0 * math.pi)


def fringe_phase_offset(curve: FringeCurve, max_lag_fraction: float = 0.6) -> float:
    """Lag (in theta) at which the P_+ / P_- cross-correlation peaks.

    Uses mean-removed, overlap-averaged correlation over lags up to
    max_lag_fraction of the scan window, with parabolic refinement of the
    peak.  For the exact pipeline the two conditional fringe patterns are
    antiphase, so the offset lands at half the fringe period.
    """
    if not 0.0 < max_lag_fraction <= 1.0:
        raise ValueError("max_lag_fraction must lie in (0, 1]")
    a = curve.p_plus - curve.p_plus.mean()
    b = curve.p_minus - curve.p_minus.mean()
    n = len(a)
    max_lag = int(n * max_lag_fraction)
    if max_lag < 2:
        raise WidthUndefinedError("scan too short for a cross-correlation offset")
    cc = np.array([np.mean(a[: n - j] * b[j:]) for j in range(max_lag)])
    j = int(np.argmax(cc))
    h = curve.theta[1] - curve.theta[0]
    if 0 < j < max_lag - 1:
        denom = cc[j + 1] - 2.0 * cc[j] + cc[j - 1]
        if denom != 0.0:
            j = j + 0.5 * (cc[j - 1] - cc[j + 1]) / denom
    return float(j * h)
