"""Term-by-term reference for fock_oracle.coherent_to_fock.

The ratio recurrence c_n = c_{n-1} gamma / sqrt(n) from
c_0 = e^{-|gamma|^2/2}, run as a Python loop over n.  Past |gamma| ~ 37.6,
where c_0 underflows, the running coefficient carries a power-of-two
factor: c_0 starts multiplied by enough factors 2^900 to be
representable, a factor comes off whenever a coefficient grows past
2^900, and the stored values undo the rest.  The package computes the
same coefficients as one cumulative product; the tests compare the two.
"""

import math
import sys

import numpy as np


def coherent_to_fock_loop(gamma, truncation):
    """c_0 .. c_N of |gamma>, one ratio step at a time (no checks)."""
    gamma = complex(gamma)
    mean = abs(gamma) ** 2
    coeffs = np.empty(truncation + 1, dtype=complex)
    coeffs[0] = math.exp(-mean / 2.0)
    shifts = 0
    if coeffs[0].real < sys.float_info.min:
        shifts = math.ceil((mean / 2.0 - 640.0) / (900.0 * math.log(2.0)))
        coeffs[0] = math.exp(900.0 * shifts * math.log(2.0) - mean / 2.0)
    drops = []  # orders at which a factor 2^900 comes off
    for n in range(1, truncation + 1):
        coeffs[n] = coeffs[n - 1] * gamma / math.sqrt(n)
        if shifts and abs(coeffs[n]) > 2.0**900:
            coeffs[n] /= 2.0**900
            drops.append(n)
    if shifts:
        scales = 900 * (np.searchsorted(drops, np.arange(truncation + 1), side="right") - shifts)
        coeffs.real, coeffs.imag = np.ldexp(coeffs.real, scales), np.ldexp(coeffs.imag, scales)
    return coeffs
