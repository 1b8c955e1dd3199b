"""Exact conditional optics of the two-cat interferometer.

The measurement path carries a cat state (|0> + |alpha> exactly
normalized) whose |alpha> component picks up the path phase theta.  At a
highly reflective beamsplitter of mixing angle phi (reflectivity
cos^2 phi) it meets a second, identical cat.  phi is fixed at
pi / (2 alpha^2), not a parameter: the gate phase phi * alpha^2 = pi/2 is
what makes the cat-basis measurement act as the ruler's phase gate.
Expanding both cats and applying the beamsplitter relation term by term
leaves four two-mode product terms; projecting the measured port onto
the exactly orthonormal plus/minus cats (|0> +- |alpha>, normalized)
conditions the homodyne port on the cat-basis outcome.

Everything here is computed from the overlap formula with no large-alpha
approximation.  The two-outcome projection is not complete: the measured
port has support outside the two-cat span, and that probability mass is
reported as `leakage` instead of being silently renormalized.  The scan
kernel carries the joint distribution P(outcome, x <= alpha/2); each
conditional probability is a joint one divided by its outcome weight.

The bit-flip-corrected fringe (P_- - P_+ + 1)/2, which makes the
interferometer a ruler, is derived from the two conditional threshold
probabilities (FringeCurve.fringe) rather than stored next to them.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coherent_algebra import (
    IMAG_RESIDUE_LIMIT,
    MAX_AMPLITUDE,
    NORM_CLAMP,
    CoherentSuperposition,
    _log_overlap,
    _require_alpha,
    _threshold_kernel_erf,
    cat_norm_squared,
)
from .errors import (
    ApproximationRegimeWarning,
    IntegrationError,
    WidthUndefinedError,
)

WEIGHT_CLOSURE_TOL = 1e-9
# An outcome weight below 1/CANCELLATION_LIMIT of the sum of its squared
# projection amplitudes is cancellation noise, not a probability.
CANCELLATION_LIMIT = 1e8
# Above this value of phi^2 alpha^2 the weak-mixing picture degrades.
APPROXIMATION_WARNING_LEVEL = 0.1
# _conditional_batch evaluates at most this many points at once, so no
# command's kernel temporaries outgrow those of the ruler's default
# 1201-point scan, however many alphas and points it asks for
SCAN_CHUNK_POINTS = 1201


def _mixing_angle(alpha: float) -> float:
    """Beamsplitter mixing angle pi / (2 alpha^2): gate phase phi alpha^2 = pi/2."""
    return math.pi / (2.0 * alpha**2)


@dataclass(frozen=True)
class RealizationParams:
    """alpha: cat amplitude (> 0); theta: path phase (rad).  The
    beamsplitter mixing angle phi is fixed by alpha, not set."""

    alpha: float
    theta: float = 0.0

    def __post_init__(self):
        _require_alpha(self.alpha)
        if not self.phi >= sys.float_info.min:
            raise ValueError(
                f"alpha = {self.alpha!r} is too large: the mixing angle "
                "pi / (2 alpha^2) is not a normal double"
            )
        if not self.phi <= MAX_AMPLITUDE:
            raise ValueError(
                f"alpha = {self.alpha!r} is too small: the square of the mixing "
                "angle pi / (2 alpha^2) overflows"
            )
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.approximation_parameter > APPROXIMATION_WARNING_LEVEL:
            warnings.warn(
                f"phi^2 alpha^2 = {self.approximation_parameter:.3g} exceeds "
                f"{APPROXIMATION_WARNING_LEVEL}; the weak-mixing regime is violated",
                category=ApproximationRegimeWarning,
                stacklevel=3,
            )

    @property
    def phi(self) -> float:
        """The beamsplitter mixing angle that alpha fixes."""
        return _mixing_angle(self.alpha)

    @property
    def approximation_parameter(self) -> float:
        """phi^2 * alpha^2, the weak-mixing control parameter."""
        return self.phi**2 * self.alpha**2


class ConditionalOutput(NamedTuple):
    """Conditional homodyne-port states and cat-outcome statistics.

    plus_state / minus_state are normalized; plus_weight / minus_weight
    are the outcome probabilities and leakage the mass of the measured
    port outside the two-cat span.  The three sum to 1 by construction
    (leakage is what the weights leave of 1); every value is checked
    where the scan kernel computes it.
    """

    plus_state: CoherentSuperposition
    minus_state: CoherentSuperposition
    plus_weight: float
    minus_weight: float
    leakage: float


@dataclass(frozen=True)
class FringeCurve:
    """Uniform scan of the conditional probabilities over theta."""

    theta: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    leakage: np.ndarray

    def __post_init__(self):
        names = ("theta", "p_plus", "p_minus", "leakage")
        columns = [np.asarray(getattr(self, name), dtype=float) for name in names]
        if len({arr.size for arr in columns}) > 1:
            raise ValueError("all fringe-curve columns must have equal length")
        if columns[0].size == 0:
            raise ValueError("fringe-curve columns must not be empty")
        # the four columns, copied in one step
        data = np.concatenate(columns, axis=None).reshape(len(names), -1)
        finite = np.isfinite(data)
        if not finite.all():
            raise ValueError(f"{names[int(np.argmin(finite.all(axis=1)))]} holds non-finite values")
        data.setflags(write=False)
        for name, row in zip(names, data):
            object.__setattr__(self, name, row)
        theta = data[0]
        if (theta[1:] <= theta[:-1]).any():
            raise ValueError("theta samples must be strictly increasing")
        # exact: a joint clamped into [0, weight] puts joint / weight, and the fringe, in [0, 1]
        probabilities = data[1:3]
        for name, low, high in zip(names[1:3], probabilities.min(axis=1), probabilities.max(axis=1)):
            if not (0.0 <= low and high <= 1.0):
                raise ValueError(f"{name} leaves [0, 1]: range [{float(low)!r}, {float(high)!r}]")

    def __len__(self) -> int:
        return self.theta.size

    @property
    def fringe(self) -> np.ndarray:
        """Bit-flip-corrected fringe (P_- - P_+ + 1)/2."""
        return (self.p_minus - self.p_plus + 1.0) / 2.0

    @property
    def fringe_complement(self) -> np.ndarray:
        """The complementary combination 1 - fringe."""
        return 1.0 - self.fringe


def _cat_norms(alpha: float) -> tuple[float, float]:
    return 1.0 / math.sqrt(cat_norm_squared(alpha)), 1.0 / math.sqrt(cat_norm_squared(alpha, -1))


def _alpha_scalars(alpha: float) -> tuple:
    """The per-alpha constants of the scan kernel: alpha, the transmitted
    and reflected amplitudes of |alpha> at the mixing angle, the plus /
    minus cat normalizations n_+ and n_-, the input normalization n_+^2
    of each cat (both input cats are plus cats), its square n_+^4 (the
    two-mode norm's) and the homodyne threshold alpha/2."""
    phi = _mixing_angle(alpha)
    n_plus, n_minus = _cat_norms(alpha)
    n_plus_sq = n_plus**2
    return (alpha, alpha * math.cos(phi), 1j * alpha * math.sin(phi), n_plus, n_minus,
            n_plus_sq, n_plus_sq**2, alpha / 2.0)


def _per_alpha(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, rows) of an array of per-point alphas: rows[i] holds
    _alpha_scalars of point i's alpha, as complex numbers, in one table
    with a row of Python numbers computed with math per distinct alpha,
    gathered to the points in one step.  When every point has the same
    alpha, rows is that one row, which broadcasts over the points.  A
    point therefore gets the same bits whatever else shares its grid."""
    distinct = list(dict.fromkeys(alpha.tolist()))
    rows = np.array([_alpha_scalars(a) for a in distinct], dtype=complex)
    if len(distinct) > 1:
        # the row of each point: the place of its alpha among the distinct ones
        rows = rows.take(np.argmax(alpha[:, None] == rows[:, 0].real, axis=1), axis=0)
    return alpha, rows


def _cat_projections(table: tuple, thetas: np.ndarray) -> tuple[np.ndarray, ...]:
    """Beamsplitter expansion of cat(theta) x cat at every theta of a grid.

    table is _per_alpha of the grid's per-point alphas.  Returns the
    measured-port and homodyne-port amplitudes of the four product terms
    (vacuum, reference-transmission, signal-transmission, composite),
    each of shape (n, 4), the overlaps <cat_+-|component> of the
    normalized plus / minus cats with the measured-port components, shape
    (n, 2, 4), and the measured-port Gram <m_k|m_l>, shape (n, 4, 4).
    All of them are closed-form in e^{i theta}.
    """
    alpha, rows = table
    e = np.exp(1j * thetas)
    # per point, the measured-port amplitudes m = 0, r, t e, t e + r with
    # alpha appended, over the homodyne-port amplitudes 0, t, r e, r e + t
    ports = np.zeros((len(thetas), 2, 5), dtype=complex)
    ports[:, :, 1] = rows[:, 2:0:-1]
    np.multiply(rows[:, 1:3], e[:, None], out=ports[:, :, 2])
    np.add(ports[:, :, 2], ports[:, :, 1], out=ports[:, :, 3])
    ports[:, 0, 4] = alpha
    amps, measured = ports[:, 0], ports[:, 0, :4]
    # <g|m_l> for g = m_0 .. m_3, alpha: the Gram of m, whose row 0 is
    # <0|m_l>, and <alpha|m_l> in row 4
    gram = _log_overlap(amps[:, :, None], measured[:, None, :])
    np.exp(gram, out=gram)
    on_vacuum, on_alpha = gram[:, 0], gram[:, 4]
    cats = np.empty((len(thetas), 2, 4), dtype=complex)
    np.add(on_vacuum, on_alpha, out=cats[:, 0])
    np.subtract(on_vacuum, on_alpha, out=cats[:, 1])
    cats *= rows[:, 3:5, None]
    return measured, ports[:, 1, :4], cats, gram[:, :4]


def cat_coefficients(p: RealizationParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_cat_projections at one theta: arrays of shape (4,), (4,) and (2, 4)."""
    measured, output, cats, _ = _cat_projections(_per_alpha(np.array([p.alpha])),
                                                 np.array([p.theta]))
    return measured[0], output[0], cats[0]


class _ConditionalBatch(NamedTuple):
    """Outcome distribution over a theta grid; axis 1 of the (n, 2, ...)
    arrays runs over the (plus, minus) cat outcome."""

    output_amplitudes: np.ndarray  # (n, 4) homodyne-port amplitudes
    raw: np.ndarray  # (n, 2, 4) unnormalized conditional states, norm^2 = weight
    weights: np.ndarray  # (n, 2) outcome probabilities
    leakage: np.ndarray  # (n,) measured-port mass outside the two-cat span
    norm: np.ndarray  # (n,) complex two-mode norm, 1 for a unitary beamsplitter
    joint: np.ndarray  # (n, 2) P(outcome, x <= alpha/2)

    @property
    def conditional(self) -> np.ndarray:
        """(n, 2) P(x <= alpha/2 | outcome)."""
        return self.joint / self.weights


def _require(ok: np.ndarray, alpha: np.ndarray, thetas: np.ndarray, message: str) -> None:
    """Raise IntegrationError naming alpha and theta of the first point at
    which ok fails."""
    if ok.all():
        return
    i = int(np.argmin(ok.reshape(len(thetas), -1).all(axis=1)))
    raise IntegrationError(
        f"conditional output failed at alpha = {float(alpha[i])!r}, "
        f"theta = {float(thetas[i])!r}: {message}"
    )


def _conditional_batch(alpha, thetas: np.ndarray) -> _ConditionalBatch:
    """Joint distribution of the cat-basis outcome and the homodyne
    threshold result at every point of a grid: alpha, one float or one
    per point, is broadcast to one per point, so that scans at several
    amplitudes share one evaluation.

    The points go through _conditional_chunk in chunks of at most
    SCAN_CHUNK_POINTS (split evenly), which bounds the kernel's
    temporaries.  Each point's values are the same bits as in a
    one-alpha call.
    """
    n = len(thetas)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (n,):
        alpha = np.broadcast_to(alpha, n)
    chunks = max(1, -(-n // SCAN_CHUNK_POINTS))
    if chunks == 1:
        return _conditional_chunk(alpha, thetas)
    parts = []
    for k in range(chunks):
        chunk = slice(n * k // chunks, n * (k + 1) // chunks)
        parts.append(_conditional_chunk(alpha[chunk], thetas[chunk]))
    return _ConditionalBatch(*(np.concatenate(column) for column in zip(*parts)))


def _conditional_chunk(alpha: np.ndarray, thetas: np.ndarray) -> _ConditionalBatch:
    """One batched evaluation of _conditional_batch.

    Exactly normalized cat x cat input with the path phase on the measured
    beam, beamsplitter relation applied to each of the four product terms,
    projection of the measured port onto the orthonormal plus/minus cats,
    then the closed-form threshold kernel at the midpoint alpha/2 between
    the |0> and |alpha> quadrature means.  The projections stay
    unnormalized: their norms^2 are the outcome weights and their
    threshold forms the joint probabilities.  Every check of the per-state
    path is made on the whole grid and names the first failing point.

    The weight closure is checked on the two-mode norm of the four product
    terms, n_+^4 sum_kl <m_k|m_l><o_k|o_l> over measured-port amplitudes m
    and homodyne-port amplitudes o, which must be 1 for a unitary
    beamsplitter; leakage is what the two outcomes leave of 1, and must
    not be negative.  Each outcome weight must exceed 1/CANCELLATION_LIMIT
    of sum_k |raw_k|^2, the size of the terms it cancels from (a weight of
    rounding size would make joint / weight garbage), and each joint
    probability must lie in [0, weight] within NORM_CLAMP of that sum, and
    is clamped there.  Weights and joint probabilities are one contraction
    of raw with the homodyne-port Gram and threshold kernel.
    """
    table = _per_alpha(alpha)
    _, output, cats, measured_gram = _cat_projections(table, thetas)
    # both input cats carry the plus-cat normalization
    n_plus_sq, n_plus_4, threshold = table[1][:, 5:].real.T
    raw = n_plus_sq[:, None, None] * cats
    gram, kernel = _threshold_kernel_erf(output, threshold[:, None, None])
    norm = n_plus_4 * (measured_gram * gram).sum(axis=(-2, -1))

    forms = np.einsum("...ok,f...kl,...ol->f...o", np.conj(raw), np.array([gram, kernel]), raw)
    weights, joint = forms.real
    size = (np.abs(raw) ** 2).sum(axis=-1)
    ok = np.isfinite(forms) & (np.abs(forms.imag) <= IMAG_RESIDUE_LIMIT * size)
    _require(np.abs(norm - 1.0) <= WEIGHT_CLOSURE_TOL, alpha, thetas,
             f"two-mode norm differs from 1 by more than {WEIGHT_CLOSURE_TOL}")
    _require(ok[0], alpha, thetas, "outcome weight is not finite or carries an imaginary residue")
    _require(CANCELLATION_LIMIT * weights > size, alpha, thetas,
             f"outcome weight is below 1/{CANCELLATION_LIMIT:g} of its cancelling terms")
    leakage = 1.0 - weights[:, 0] - weights[:, 1]
    _require(leakage >= -NORM_CLAMP, alpha, thetas, "outcome weights exceed the two-mode norm")
    _require(ok[1], alpha, thetas,
             "threshold probability is not finite or carries an imaginary residue")
    slack = NORM_CLAMP * size
    _require((-slack <= joint) & (joint <= weights + slack), alpha, thetas,
             "conditional threshold probability escaped [0, 1]")
    joint = np.maximum(joint, 0.0)
    return _ConditionalBatch(output, raw, weights, leakage, norm, np.minimum(joint, weights, out=joint))


def output_state(p: RealizationParams) -> ConditionalOutput:
    """Conditional homodyne-port states after the cat-basis measurement.

    Built from first principles: exactly normalized cat x cat input with
    the path phase on the measured beam, beamsplitter relation applied to
    each of the four product terms, then projection of the measured port
    onto the orthonormal plus/minus cats.  This is the one-point case of
    the batched scan kernel, normalized here.
    """
    b = _conditional_batch(p.alpha, np.array([p.theta]))
    amps, states = b.output_amplitudes[0], b.raw[0] / np.sqrt(b.weights[0])[:, None]
    plus, minus = (CoherentSuperposition(tuple(zip(c, amps))) for c in states)
    return ConditionalOutput(
        plus_state=plus,
        minus_state=minus,
        plus_weight=float(b.weights[0, 0]),
        minus_weight=float(b.weights[0, 1]),
        leakage=float(b.leakage[0]),
    )


def measurement_probabilities(p: RealizationParams) -> tuple[float, float]:
    """(P_+, P_-): probability of a quadrature outcome at or below the
    threshold midway between the |0> and |alpha> means, conditioned on
    the plus / minus cat outcome.

    This is the one-point case of the batched scan kernel, so a scan
    point and this call agree bit for bit.
    """
    p_plus, p_minus = _conditional_batch(p.alpha, np.array([p.theta])).conditional[0]
    return float(p_plus), float(p_minus)


def fringe_scans(
    alphas: Sequence[float], spans: Sequence[tuple[float, float]], n_points: int
) -> list[FringeCurve]:
    """Uniformly sampled fringe curves, one per alpha over its span
    (theta_min, theta_max), n_points each.

    Every alpha, then its span, is checked first; then the concatenated
    grids are one batched closed-form evaluation (_conditional_batch), and
    a failed check raises IntegrationError naming alpha and theta of the
    first offending point.
    """
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points!r}")
    for alpha, (theta_min, theta_max) in zip(alphas, spans, strict=True):
        RealizationParams(alpha=alpha)  # validates alpha and warns outside the weak-mixing regime
        # a non-finite bound makes the width non-finite too
        if not math.isfinite(theta_max - theta_min):
            raise ValueError(f"theta span {theta_min!r}:{theta_max!r} must have a finite width")
        if not theta_min < theta_max:
            raise ValueError("theta_min must be below theta_max")
    thetas = np.concatenate([np.linspace(lo, hi, n_points) for lo, hi in spans])
    batch = _conditional_batch(np.repeat(np.asarray(alphas, dtype=float), n_points), thetas)
    p_plus, p_minus = batch.conditional.T
    return [
        FringeCurve(theta=thetas[k], p_plus=p_plus[k], p_minus=p_minus[k], leakage=batch.leakage[k])
        for k in (slice(i, i + n_points) for i in range(0, thetas.size, n_points))
    ]


def fringe_scan(alpha: float, theta_min: float, theta_max: float, n_points: int) -> FringeCurve:
    """Uniformly sampled fringe curve over [theta_min, theta_max]: the
    one-alpha case of fringe_scans."""
    return fringe_scans([alpha], [(theta_min, theta_max)], n_points)[0]


def _local_extrema(theta: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior local extrema with parabolic refinement.

    Returns (positions, refined values), ordered by theta.
    """
    d = np.diff(values)
    idx = np.flatnonzero(d[:-1] * d[1:] < 0) + 1
    before, at, after = values[idx - 1], values[idx], values[idx + 1]
    denom = after - 2.0 * at + before
    # where the three samples have no curvature, keep the middle one (zero shift)
    shift = np.divide(
        0.5 * (before - after), denom, out=np.zeros_like(denom), where=denom != 0.0
    )
    return theta[idx] + shift * (theta[1] - theta[0]), at - 0.25 * (before - after) * shift


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
    center = positions[np.argmin(np.abs(positions))] if positions.size else 0.0
    i0 = int(np.argmin(np.abs(theta - center)))
    # sample pairs (k, k + 1) that straddle the half level: the crossings
    # lie in the first pair at or right of i0 and the last pair left of it
    pairs = np.flatnonzero(((f[:-1] - half) * (f[1:] - half) <= 0.0) & (f[:-1] != f[1:]))
    split = int(np.searchsorted(pairs, i0))
    if split == pairs.size:
        raise WidthUndefinedError("no half-amplitude crossing on the right of the central extremum")
    if split == 0:
        raise WidthUndefinedError("no half-amplitude crossing on the left of the central extremum")
    k, m = pairs[split], pairs[split - 1] + 1
    # each crossing interpolated from its central-side sample i towards j
    right, left = (theta[i] + (half - f[i]) / (f[j] - f[i]) * (theta[j] - theta[i])
                   for i, j in ((k, k + 1), (m, m - 1)))
    return float(right) - float(left)


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
    _require_alpha(alpha)
    if not (wavelength > 0 and math.isfinite(wavelength)):
        raise ValueError("wavelength must be positive and finite")
    return _normal_spacing(wavelength / (2.0 * alpha**2), wavelength)


def scan_extracted_spacing(curve: FringeCurve, wavelength: float) -> float:
    """Physical tick spacing measured from a scan: adjacent-extremum
    spacing in theta converted through delta = theta * wavelength / (2 pi)."""
    if not (wavelength > 0 and math.isfinite(wavelength)):
        raise ValueError("wavelength must be positive and finite")
    return _normal_spacing(extremum_spacing(curve) * wavelength / (2.0 * math.pi), wavelength)


def _normal_spacing(spacing: float, wavelength: float) -> float:
    """A tick spacing, refused unless it is a normal double: past the float
    range it is inf, and below it it has lost its precision or is 0."""
    if not sys.float_info.min <= spacing <= sys.float_info.max:
        raise ValueError(
            f"the tick spacing {spacing!r} at wavelength = {wavelength!r} is not a normal double"
        )
    return spacing

