"""Cross-correlation offset of the two conditional fringes.

The lag (in theta) at which the mean-removed, overlap-averaged
correlation of P_+ and P_- peaks, with parabolic refinement of the
peak.  The exact P_+ and P_- patterns are antiphase, so the offset lands
at half the fringe period: criterion 8 of the acceptance suite checks
that.  No command reports the offset, so it lives with the tests, not in
the package.
"""

import numpy as np


def phase_offset(curve, max_lag_fraction=0.6):
    """Lag j h (h the theta step) that maximizes the mean of
    a[i] * b[i + j] over the overlap, for a and b the mean-removed P_+ and
    P_- of a FringeCurve, over lags up to max_lag_fraction of the scan."""
    a = curve.p_plus - curve.p_plus.mean()
    b = curve.p_minus - curve.p_minus.mean()
    n = len(a)
    max_lag = int(n * max_lag_fraction)
    cc = np.array([np.mean(a[: n - j] * b[j:]) for j in range(max_lag)])
    j = int(np.argmax(cc))
    if 0 < j < max_lag - 1:
        denom = cc[j + 1] - 2.0 * cc[j] + cc[j - 1]
        if denom != 0.0:
            j = j + 0.5 * (cc[j - 1] - cc[j + 1]) / denom
    return float(j * (curve.theta[1] - curve.theta[0]))
