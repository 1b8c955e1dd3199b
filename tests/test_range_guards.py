"""Range guards fail on NaN: every public entry point below rejects a NaN
amplitude, angle, length or coefficient with ValueError instead of
returning NaN."""

import math

import numpy as np
import pytest

from catruler.fock_oracle import (
    FockVector,
    coherent_to_fock,
    parity_distribution,
    phase_rotate,
    quadrature_cdf_fock,
)
from catruler.ideal_circuit import (
    LogicalQubit,
    PropagationSetting,
    ideal_output,
    phase_gate_error,
    v_theta_from_length_power,
)

NAN = math.nan


def nan_vector() -> FockVector:
    """A FockVector holding NaN, past the constructor's own check, so that
    the guards of the functions that take one are reached."""
    vec = FockVector(np.array([1.0, 0.0]), 1)
    object.__setattr__(vec, "coefficients", np.array([NAN, 0.0], dtype=complex))
    return vec


CASES = {
    "LogicalQubit": lambda: LogicalQubit(NAN, 0.0, 1.0),
    "ideal_output": lambda: ideal_output(2.0, NAN),
    "PropagationSetting": lambda: PropagationSetting(NAN, 1.0, 1.0),
    "v_theta_from_length_power": lambda: v_theta_from_length_power(NAN, 1.0),
    "phase_gate_error": lambda: phase_gate_error(NAN, 0.01),
    "FockVector": lambda: FockVector(np.array([NAN, 0.0]), 1),
    "parity_distribution": lambda: parity_distribution(nan_vector()),
    "quadrature_cdf_fock": lambda: quadrature_cdf_fock(nan_vector(), 0.0),
    "coherent_to_fock": lambda: coherent_to_fock(NAN, 10),
    "phase_rotate": lambda: phase_rotate(coherent_to_fock(1.0), NAN),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_nan_input_is_rejected(name):
    with pytest.raises(ValueError):
        CASES[name]()
