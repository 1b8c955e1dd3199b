"""Range guards fail on NaN and on overflow: every public entry point
below rejects a NaN amplitude, angle, length or coefficient, or an input
whose formula overflows, with ValueError instead of returning NaN or inf
or raising OverflowError."""

import math

import numpy as np
import pytest

from catruler.errors import ApproximationRegimeWarning
from catruler.fock_oracle import (
    FockVector,
    coherent_to_fock,
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
    RealizationParams,
    fringe_scan,
    fringe_spacing_physical,
    scan_extracted_spacing,
)

NAN = math.nan


def nan_vector() -> FockVector:
    """A FockVector holding NaN, past the constructor's own check, so that
    the guards of the functions that take one are reached."""
    vec = FockVector(np.array([1.0, 0.0]))
    object.__setattr__(vec, "coefficients", np.array([NAN, 0.0], dtype=complex))
    return vec


def alpha_06_scan():
    """A finite scan over three fringe periods at alpha = 0.6."""
    period = 2 * math.pi / 0.6**2
    with pytest.warns(ApproximationRegimeWarning):
        return fringe_scan(0.6, -1.5 * period, 1.5 * period, 301)


CASES = {
    "ideal_output": lambda: ideal_output(2.0, NAN),
    "ideal_output-nan-in-array": lambda: ideal_output(2.0, np.array([0.0, NAN, 0.1])),
    "v_theta_from_length_power": lambda: v_theta_from_length_power(NAN, 1.0),
    "phase_gate_error": lambda: phase_gate_error(NAN, 0.01),
    "FockVector": lambda: FockVector(np.array([NAN, 0.0])),
    "parity_distribution": lambda: parity_distribution(nan_vector()),
    "quadrature_cdf_fock": lambda: quadrature_cdf_fock(nan_vector(), 0.0),
    "coherent_to_fock": lambda: coherent_to_fock(NAN, 10),
    "phase_rotate": lambda: phase_rotate(coherent_to_fock(1.0), NAN),
    "snr_ideal-nan": lambda: snr_ideal(NAN, 2.0),
    "snr_ideal-inf": lambda: snr_ideal(math.inf, 2.0),
    # alpha = 1e200 is finite, but alpha^2 is not
    "RealizationParams-overflow": lambda: RealizationParams(1e200),
    "fringe_spacing_physical-overflow": lambda: fringe_spacing_physical(1e200, 1e-6),
    # alpha and wavelength are finite, but wavelength / (2 alpha^2) is not a normal double
    "fringe_spacing_physical-spacing-overflow": lambda: fringe_spacing_physical(0.52, 1e308),
    "fringe_spacing_physical-spacing-underflow": lambda: fringe_spacing_physical(20.0, 1e-322),
    "scan_extracted_spacing-overflow": lambda: scan_extracted_spacing(alpha_06_scan(), 1.7e308),
    "ideal_output-overflow": lambda: ideal_output(1e200, 0.1),
    "ideal_output-phase-overflow": lambda: ideal_output(1e100, 1e300),
    "cat_mean_photon_number-overflow": lambda: cat_mean_photon_number(1e200),
    "snr_ideal-overflow": lambda: snr_ideal(1e-4, 1e100),
    "snr_ideal-product-overflow": lambda: snr_ideal(1e300, 1e60),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_nan_input_is_rejected(name):
    with pytest.raises(ValueError):
        CASES[name]()
