"""FFT derivation of the Faddeeva series coefficients.

coherent_algebra._half_faddeeva evaluates Weideman's rational series
(J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1497 (1994)) from the
literal table coherent_algebra._FADDEEVA_COEFFS, so that no command
loads numpy.fft.  This module derives that table the way the package
once did at every import; the tests compare the two bit for bit.
"""

import math

import numpy as np

from catruler.coherent_algebra import _FADDEEVA_L

# number of terms N of the series
FADDEEVA_TERMS = 40


def faddeeva_coefficients() -> np.ndarray:
    """Coefficients v_0 .. v_{N-1} of _half_faddeeva, v_{10j+i} at row j,
    column i.

    Weideman's a_n come from one FFT of exp(-t^2) (L^2 + t^2) sampled at
    t = L tan(k pi / 2N), and give, with r = 1 / (L - s) and
    zeta = (L + s) r,
        w(-i s) / 2 = r (r sum_{n<N} a_n zeta^n + 1 / (2 sqrt(pi))) = r q(zeta),
    where q(zeta) = 1 / (2 sqrt(pi)) + (1 + zeta) sum_n a_n zeta^n / (2L),
    since r = (1 + zeta) / (2L).  Dividing out zeta - 1 = 2 s r gives
    q(zeta) = q(1) + s r v(zeta), whose v_n are twice the tail sums of
    q's coefficients; q(1) is taken as exactly L / 2, its value for
    w(0) = 1, which the sum of q's coefficients meets to rounding.
    """
    m = 2 * FADDEEVA_TERMS
    t = _FADDEEVA_L * np.tan(np.arange(1 - m, m) * (np.pi / (2 * m)))
    f = np.concatenate(([0.0], np.exp(-t * t) * (_FADDEEVA_L**2 + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real[1 : FADDEEVA_TERMS + 1] / (2 * m)
    q = (np.append(a, 0.0) + np.insert(a, 0, 0.0)) / (2.0 * _FADDEEVA_L)
    q[0] += 0.5 / math.sqrt(math.pi)
    return 2.0 * np.cumsum(q[::-1])[::-1][1:].reshape(4, 10)
