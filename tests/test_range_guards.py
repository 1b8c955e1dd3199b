"""Range guards fail on NaN and on overflow: every public entry point
below rejects a NaN amplitude, angle, threshold, length or coefficient,
an input whose formula overflows, a cat sign other than +-1, a
truncation below 1, or fringe columns that are empty, of unequal length
or, for a probability, outside [0, 1] by even 1e-12, with ValueError
instead of returning NaN or inf or raising OverflowError.
The oracle's truncation and norm checks refuse the cases in
TRUNCATION_CASES instead, with TruncationError."""

import itertools
import math

import numpy as np
import pytest

from catruler.coherent_algebra import (
    CoherentSuperposition,
    beamsplitter,
    cat_norm_squared,
    norm_squared,
    overlap,
    threshold_probability,
)
from catruler.errors import ApproximationRegimeWarning, CatRulerError, TruncationError
from catruler.fock_oracle import (
    beamsplitter_fock,
    coherent_to_fock,
    default_truncation,
    end_to_end_oracle,
    parity_distribution,
    phase_rotate,
    quadrature_cdf_fock,
)
from catruler.ideal_circuit import (
    cat_mean_photon_number,
    ideal_output,
    phase_gate_error,
    snr_ideal,
    v_theta_from_length_power,
)
from catruler.physical_realization import (
    FringeCurve,
    RealizationParams,
    fringe_scan,
    fringe_spacing_physical,
    scan_extracted_spacing,
)
from catruler.squeezed_baseline import SqueezedBaselineParams, equal_power_params, snr_squeezed

NAN = math.nan


def nan_vector() -> np.ndarray:
    return np.array([NAN, 0.0], dtype=complex)


def nan_grid() -> np.ndarray:
    """A two-mode vacuum with one NaN amplitude, which passes the square-grid check."""
    grid = np.zeros((3, 3), dtype=complex)
    grid[0, 0] = NAN
    return grid


def alpha_06_scan():
    """A finite scan over three fringe periods at alpha = 0.6."""
    period = 2 * math.pi / 0.6**2
    with pytest.warns(ApproximationRegimeWarning):
        return fringe_scan(0.6, -1.5 * period, 1.5 * period, 301)


CASES = {
    "ideal_output": lambda: ideal_output(2.0, NAN),
    "ideal_output-nan-in-array": lambda: ideal_output(2.0, np.array([0.0, NAN, 0.1])),
    "v_theta_from_length_power": lambda: v_theta_from_length_power(NAN, 1.0),
    "v_theta_from_length_power-nan-wavelength": lambda: v_theta_from_length_power(1e-12, NAN),
    # (2 pi / wavelength)^2 v_delta overflows; at 1e-160 (2 pi / wavelength)^2 alone does too
    "v_theta_from_length_power-overflow": lambda: v_theta_from_length_power(1e10, 1e-150),
    "v_theta_from_length_power-square-overflow": lambda: v_theta_from_length_power(1.0, 1e-160),
    "phase_gate_error": lambda: phase_gate_error(NAN, 0.01),
    "parity_distribution": lambda: parity_distribution(nan_vector()),
    "quadrature_cdf_fock": lambda: quadrature_cdf_fock(nan_vector(), 0.0),
    "quadrature_cdf_fock-nan-threshold": lambda: quadrature_cdf_fock(coherent_to_fock(1.0), NAN),
    "coherent_to_fock": lambda: coherent_to_fock(NAN, 10),
    "coherent_to_fock-truncation-0": lambda: coherent_to_fock(0.0, 0),
    "phase_rotate": lambda: phase_rotate(coherent_to_fock(1.0), NAN),
    "beamsplitter_fock-nan": lambda: beamsplitter_fock(nan_grid(), 0.3),
    "beamsplitter_fock-nan-angle": lambda: beamsplitter_fock(np.eye(3, dtype=complex) / math.sqrt(3), NAN),
    "beamsplitter-nan-angle": lambda: beamsplitter(1.0, 0.5, NAN),
    "threshold_probability-nan": lambda: threshold_probability(CoherentSuperposition.single(1.0), NAN),
    # |gamma| = 1e160 is finite, but |gamma|^2 is not
    "coherent_to_fock-overflow": lambda: coherent_to_fock(1e160, 10),
    "default_truncation-overflow": lambda: default_truncation(1e160),
    # finite |gamma|^2 far above the truncation
    "coherent_to_fock-1e10": lambda: coherent_to_fock(1e10, 10),
    "coherent_to_fock-1e20": lambda: coherent_to_fock(1e20, 10),
    "coherent_to_fock-1e100": lambda: coherent_to_fock(1e100, 10),
    "coherent_to_fock-1.3e154": lambda: coherent_to_fock(1.3e154, 10),
    # above the oracle's alpha ceiling, refused before any grid is sized
    "end_to_end_oracle-alpha-ceiling": lambda: end_to_end_oracle(RealizationParams(alpha=21.0)),
    "snr_ideal-nan": lambda: snr_ideal(NAN, 2.0),
    "snr_ideal-inf": lambda: snr_ideal(math.inf, 2.0),
    # alpha = 1e200 is finite, but alpha^2 is not
    "RealizationParams-overflow": lambda: RealizationParams(1e200),
    "RealizationParams-nan-theta": lambda: RealizationParams(5.0, NAN),
    "FringeCurve-unequal-columns": lambda: FringeCurve(
        theta=[0.0, 1.0], p_plus=[0.5], p_minus=[0.5, 0.5], leakage=[0.0, 0.0]
    ),
    # empty columns would otherwise reach the range check's min and max
    "FringeCurve-empty-columns": lambda: FringeCurve(theta=[], p_plus=[], p_minus=[], leakage=[]),
    # the scan kernel clamps each probability into [0, 1] exactly, so the
    # curve allows no slack
    "FringeCurve-p_plus-above-one": lambda: FringeCurve(
        theta=[0.0, 1.0], p_plus=[0.5, 1.0 + 1e-12], p_minus=[0.5, 0.5], leakage=[0.0, 0.0]
    ),
    "FringeCurve-p_plus-below-zero": lambda: FringeCurve(
        theta=[0.0, 1.0], p_plus=[0.5, -1e-12], p_minus=[0.5, 0.5], leakage=[0.0, 0.0]
    ),
    "fringe_spacing_physical-overflow": lambda: fringe_spacing_physical(1e200, 1e-6),
    "fringe_spacing_physical-nan-wavelength": lambda: fringe_spacing_physical(5.0, NAN),
    # alpha = 1e-170 is finite, but alpha^2 underflows; at 1e-100 it does not,
    # but the square of the mixing angle pi / (2 alpha^2) overflows
    "RealizationParams-underflow": lambda: RealizationParams(1e-170),
    "RealizationParams-mixing-angle-overflow": lambda: RealizationParams(1e-100),
    "fringe_spacing_physical-underflow": lambda: fringe_spacing_physical(1e-170, 1e-6),
    # finite bounds whose difference overflows
    "fringe_scan-span-overflow": lambda: fringe_scan(5.0, -1e308, 1e308, 3),
    # alpha and wavelength are finite, but wavelength / (2 alpha^2) is not a normal double
    "fringe_spacing_physical-spacing-overflow": lambda: fringe_spacing_physical(0.52, 1e308),
    "fringe_spacing_physical-spacing-underflow": lambda: fringe_spacing_physical(20.0, 1e-322),
    "scan_extracted_spacing-overflow": lambda: scan_extracted_spacing(alpha_06_scan(), 1.7e308),
    "scan_extracted_spacing-nan-wavelength": lambda: scan_extracted_spacing(alpha_06_scan(), NAN),
    "ideal_output-overflow": lambda: ideal_output(1e200, 0.1),
    "ideal_output-phase-overflow": lambda: ideal_output(1e100, 1e300),
    "cat_mean_photon_number-overflow": lambda: cat_mean_photon_number(1e200),
    "snr_ideal-overflow": lambda: snr_ideal(1e-4, 1e100),
    "snr_ideal-product-overflow": lambda: snr_ideal(1e300, 1e60),
    # theta beta^2 overflows, at a finite beta^2 and at the last finite one
    "phase_gate_error-phase-overflow": lambda: phase_gate_error(1e100, 1e300),
    "phase_gate_error-square-limit": lambda: phase_gate_error(1.3e154, 3.0),
    "cat_norm_squared-nan": lambda: cat_norm_squared(NAN),
    "cat_norm_squared-overflow": lambda: cat_norm_squared(1e200),
    "cat_norm_squared-sign": lambda: cat_norm_squared(1.0, 2),
    "snr_squeezed-overflow": lambda: snr_squeezed(SqueezedBaselineParams(1e200, 0.5, 1e-4)),
    "snr_squeezed-product-overflow": lambda: snr_squeezed(SqueezedBaselineParams(10.0, 1e-300, 1e300)),
}


TRUNCATION_CASES = {
    "beamsplitter_fock-nan",
    "coherent_to_fock-1e10",
    "coherent_to_fock-1e20",
    "coherent_to_fock-1e100",
    "coherent_to_fock-1.3e154",
}


# cases whose input a later step would refuse with a ValueError of its
# own: the message shows that the guard refused it first
MESSAGES = {
    "beamsplitter_fock-nan-angle": "mix_angle must be finite",
    "quadrature_cdf_fock-nan-threshold": "threshold must be finite",
    "scan_extracted_spacing-nan-wavelength": "wavelength must be positive and finite",
    "fringe_spacing_physical-nan-wavelength": "wavelength must be positive and finite",
    "v_theta_from_length_power": "fluctuation power must be nonnegative and finite",
    "FringeCurve-unequal-columns": "all fringe-curve columns must have equal length",
    "FringeCurve-empty-columns": "fringe-curve columns must not be empty",
    "FringeCurve-p_plus-above-one": r"^p_plus leaves \[0, 1\]: range \[0\.5, 1\.000000000001\]$",
    "FringeCurve-p_plus-below-zero": r"^p_plus leaves \[0, 1\]: range \[-1e-12, 0\.5\]$",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_nan_input_is_rejected(name):
    with pytest.raises(TruncationError if name in TRUNCATION_CASES else ValueError, match=MESSAGES.get(name)):
        CASES[name]()


# closed forms of two real inputs, each called at every pair of extreme
# finite values: each call returns finite values or is refused
EXTREMES = [0.0, 5e-324, 1e-300, 1e-160, 1e-20, 1.0, 40.0, 1e20, 1e150, 1e154, 1e160, 1e300, 1.7e308]
CLOSED_FORMS = {
    "v_theta_from_length_power": v_theta_from_length_power,
    "snr_ideal": snr_ideal,
    "phase_gate_error": phase_gate_error,
    "fringe_spacing_physical": fringe_spacing_physical,
    "snr_squeezed": lambda n_bar, v_theta: snr_squeezed(equal_power_params(n_bar, v_theta)),
    "overlap": overlap,
    "norm_squared": lambda tau, gamma: norm_squared(CoherentSuperposition(((1, tau), (1, gamma)))),
    "threshold_probability": lambda gamma, threshold: threshold_probability(
        CoherentSuperposition.single(gamma), threshold
    ),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_extreme_finite_inputs_give_finite_values_or_are_refused(name):
    unrefused = []
    for a, b in itertools.product(EXTREMES, repeat=2):
        try:
            value = CLOSED_FORMS[name](a, b)
        except (ValueError, CatRulerError):
            continue
        if not np.all(np.isfinite(value)):
            unrefused.append((a, b, value))
    assert unrefused == []
