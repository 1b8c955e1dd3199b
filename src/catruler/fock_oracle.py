"""Independent ground-truth engine in a truncated number basis.

Everything the analytic modules compute in closed form is recomputed
here in number-basis algebra: coherent states expand as
c_n = e^{-|g|^2/2} g^n / sqrt(n!), beamsplitters act through the
Chebyshev-Bessel series of exp(i t (a^dag b + a b^dag)) on the grid
packed by total photon number m + n, which the generator conserves,
cat-basis outcomes are projections, and quadrature CDFs are exact sums
over Hermite-function Wronskians at the threshold, in the fixed quadrature
units of coherent_algebra (<x> = Re g, vacuum variance 1/4).  Agreement
between the two routes is what licenses trusting the closed forms, so
nothing in this module reuses the analytic formulas: it imports nothing
from coherent_algebra, and in particular the cat normalization is
written out here rather than taken from coherent_algebra.cat_norm_squared.
Its special functions are its own as well: the Bessel coefficients come
from Miller's backward recurrence and the vacuum CDF from math.erfc, so
the module needs numpy alone.

Truncations follow N = max(30, ceil(|g|^2 + 8 |g| + 20)) per mode
(a Poisson-tail bound), and coherent_to_fock and beamsplitter_fock verify
the realized tail mass / norm loss rather than assuming the bound;
beamsplitter_fock leaves out the photon-number blocks that carry less
than BLOCK_DROP_MASS of the input norm^2 between them.  States
are plain complex arrays: a single mode is its coefficient vector
c_0 .. c_N, two modes the (N+1) x (N+1) grid (mode a, mode b).

The series scale of a beamsplitter is rounded up to a quarter-octave
rung 2^(j/4), so that its Bessel coefficients depend on the rung alone:
the grids of one _mixed call (beamsplitter_fock and _end_to_end_oracles
make one each) whose rungs coincide run as one series over their
concatenated packed entries, up to GROUP_ENTRIES of them, and each comes
out equal to its own one-grid call.  The series is a few vector operations per order on
short vectors, so sharing it saves numpy's per-call overhead.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import CatRulerError, IntegrationError, TruncationError
from .physical_realization import CANCELLATION_LIMIT, RealizationParams

# Largest tail mass a coherent-state expansion may leave beyond its truncation.
TAIL_TOL = 1e-8
# Largest norm drift, or mass at the occupation cutoff, of the beamsplitter.
UNITARY_NORM_TOL = 1e-8
# beamsplitter_fock drops the photon-number blocks above the last one whose
# tail (its mass and that of all blocks above it) exceeds this fraction of
# the input norm^2: amplitude 1e-17, the Bessel series' cut-off.
BLOCK_DROP_MASS = 1e-34
# The beamsplitter's series runs at the scale 2^(j / RUNGS_PER_OCTAVE) at or
# above |t'| (top + 1): a single grid pays at most about two orders for it.
RUNGS_PER_OCTAVE = 4
# Most packed entries one shared series runs over; a larger grid runs alone.
# An `oracle --cases 20 --max-alpha 3` operation runs within 1 % of its time
# at 16384 or 32768 and in 12 % less than at 4096, with half the vectors of 16384.
GROUP_ENTRIES = 8192
# Largest |norm^2 - 1| of a state that parity and the quadrature CDF accept.
STATE_NORM_TOL = 1e-6
# Largest alpha of end_to_end_oracle: a (N+1)^2 grid, N ~ alpha^2, is 5 MiB at 20.
ORACLE_MAX_ALPHA = 20.0


def _mean_photon_number(gamma: complex) -> float:
    """|gamma|^2; ValueError where it overflows."""
    try:
        return abs(gamma) ** 2
    except OverflowError:
        raise ValueError(f"|gamma|^2 overflows for gamma = {gamma!r}") from None


def default_truncation(max_abs_amplitude: float) -> int:
    """Per-mode truncation for amplitudes up to |g|: max(30, |g|^2 + 8|g| + 20)."""
    g = abs(max_abs_amplitude)
    return max(30, math.ceil(_mean_photon_number(g) + 8.0 * g + 20.0))


def coherent_to_fock(gamma: complex, truncation: int | None = None) -> np.ndarray:
    """|gamma> in the number basis, c_0 .. c_N, by the stable ratio
    recurrence c_n = c_{n-1} gamma / sqrt(n) from c_0 = e^{-|gamma|^2/2}:
    the even entries of the cumulative product of c_0, gamma, 1/sqrt(1),
    gamma, 1/sqrt(2), ..., which rounds as numpy's c_{n-1} * gamma / sqrt(n).

    c_0 leaves the normal floating-point range past |gamma| ~ 37.6, while
    the coefficients near n = |gamma|^2 stay of order |gamma|^(-1/2).  The
    running product then carries powers of 2^900, as in _hermite_functions:
    c_0 and the 1/sqrt(n) take those that keep each running c_n within
    [1, 2^900), and the stored values undo them.  While c_0 is a normal
    number no factor is applied.
    """
    gamma = complex(gamma)
    if not (math.isfinite(gamma.real) and math.isfinite(gamma.imag)):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    mean = _mean_photon_number(gamma)
    if truncation is None:
        truncation = default_truncation(abs(gamma))
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    # more than half the mass lies beyond N < |gamma|^2
    if truncation < mean:
        raise TruncationError(f"N = {truncation} is below |gamma|^2 = {mean:.3e}")
    factors = np.empty(2 * truncation + 1, dtype=complex)
    factors[0] = math.exp(-mean / 2.0)
    factors[1::2] = gamma
    factors[2::2] = 1.0 / np.sqrt(np.arange(1.0, truncation + 1))
    scales = 0
    if factors[0].real < sys.float_info.min:
        shifts = math.ceil((mean / 2.0 - 640.0) / (900.0 * math.log(2.0)))
        factors[0] = math.exp(900.0 * shifts * math.log(2.0) - mean / 2.0)
        drops = (np.cumsum(np.log2(np.abs(factors)))[::2] // 900.0).astype(int)
        factors[::2] = np.ldexp(factors[::2].real, -900 * np.diff(drops, prepend=0))
        scales = 900 * (drops - shifts)
    coeffs = np.cumprod(factors)[::2].copy()
    coeffs.real, coeffs.imag = np.ldexp(coeffs.real, scales), np.ldexp(coeffs.imag, scales)
    tail = 1.0 - float(np.sum(np.abs(coeffs) ** 2))
    # fails on a non-finite sum as well
    if not abs(tail) <= TAIL_TOL:
        raise TruncationError(
            f"coherent state |{gamma}| leaves tail mass {tail:.3e} beyond N = {truncation}"
        )
    return coeffs


def phase_rotate(state: np.ndarray, theta: float) -> np.ndarray:
    """Apply exp(i theta n): coefficient c_n picks up e^{i n theta}.

    A theta past pi is first reduced to its principal angle through its
    sine and cosine, which libm reduces exactly: theta n would round away
    the phase of a large theta (2 pi is not a double, so a remainder by
    it would too) and overflow past about 1e308 / n.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if abs(theta) > math.pi:
        theta = math.atan2(math.sin(theta), math.cos(theta))
    return state * np.exp(1j * theta * np.arange(state.size))


def _bessel_series(x: float) -> np.ndarray:
    """J_0(x) .. J_K(x) for x >= 0, where K is the last order with
    |J_K(x)| > 1e-17, by Miller's backward recurrence.

    J_{k-1} = (2k / x) J_k - J_{k+1} runs down from J_count = tiny and
    J_{count+1} = 0, with count past the last order above 1e-17.  Downward
    the recurrence is stable: the false start decays relative to the
    orders that matter.  The running values peak near 1.8e270, at
    x = 1e-17, and the result is normalized by J_0 + 2 sum_k J_2k = 1.
    Below x = 1e-17 every order but J_0 = 1 is below the cut-off
    (J_1 = x / 2), and 2k / x could overflow.
    """
    if x < 1e-17:
        return np.ones(1)
    # |J_k(x)| stays below 1e-17 beyond about k = x + 12 x^(1/3) + 12
    count = math.ceil(x + 15.0 * x ** (1.0 / 3.0) + 30.0)
    two_over_x = 2.0 / x
    upper, current = 0.0, 1e-300
    down = []  # J_{count-1} .. J_0, up to a common factor
    for k in range(count, 0, -1):
        upper, current = current, k * two_over_x * current - upper
        down.append(current)
    values = np.array(down[::-1])
    values /= values[0] + 2.0 * values[2::2].sum()
    return values[: np.flatnonzero(np.abs(values) > 1e-17)[-1] + 1]


def _chebyshev_step(link: np.ndarray, v: np.ndarray, w: np.ndarray, buffer: np.ndarray) -> None:
    """w <- 2 A v - w, where (2 A v)_j = link[j-1] v_{j-1} + link[j] v_{j+1}
    on vectors that start with a zero; buffer is work space."""
    np.multiply(link, v[:-1], buffer[:-1])
    np.subtract(buffer[:-1], w[1:], w[1:])
    np.multiply(link[1:], v[2:], buffer[:-2])
    np.add(w[1:-1], buffer[:-2], w[1:-1])


def _chebyshev_series(start: np.ndarray, link: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """sum_k coefficients[k] T_k(A) start for the A of _chebyshev_step,
    by T_0 = start, T_1 = A start, T_{k+1} = 2 A T_k - T_{k-1}.  Each
    step is written over the older of the two vectors it reads, start
    among them, through one buffer: no temporaries."""
    out, current, buffer = np.empty((3, start.size), dtype=complex)  # one allocation
    np.multiply(start, coefficients[0], out)
    current[:] = 0.0
    previous = start
    _chebyshev_step(link, previous, current, buffer)
    current *= 0.5
    for k, c in enumerate(coefficients[1:], start=1):
        if k > 1:
            _chebyshev_step(link, current, previous, buffer)
            previous, current = current, previous
        np.multiply(current, c, buffer)
        np.add(out, buffer, out)
    return out


def _rung(x: float) -> int:
    """j of the lowest rung 2^(j / RUNGS_PER_OCTAVE) at or above x > 0."""
    j = math.ceil(RUNGS_PER_OCTAVE * math.log2(x))
    # log2 and the power round, and the spectrum bound needs the rung >= x
    return j if _rung_scale(j) >= x else j + 1


def _rung_scale(j: int) -> float:
    return 2.0 ** (j / RUNGS_PER_OCTAVE)


class _Packed(NamedTuple):
    """One grid of a mixing call, packed by total photon number."""

    index: int  # its place in the call
    size: int  # N + 1
    before: float  # the input norm^2
    weight: float  # 2 t' / X, for a series at the scale X
    entries: np.ndarray  # where each kept entry sits in the flat grid
    start: np.ndarray  # the kept entries, whole quarter turns applied


def _packed(index: int, grid: np.ndarray, mix_angle: float) -> tuple[int | None, _Packed]:
    """The rung of the series that mixes grid by mix_angle (None when the
    angle is whole quarter turns and needs none) and the grid packed for
    it.  A non-finite grid is refused here: in a shared series, 0 x NaN
    would reach the grids beside it."""
    if not math.isfinite(mix_angle):
        raise ValueError("mix_angle must be finite")
    grid = np.asarray(grid, dtype=complex)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ValueError(f"a two-mode state is a square grid, got shape {grid.shape}")
    d = grid.shape[0]
    n_cut = d - 1
    quarter = round(mix_angle / (math.pi / 2.0))
    turn = mix_angle - quarter * (math.pi / 2.0)

    # block T holds sizes[T] entries, from packed entry ends[T] - sizes[T]
    # on, whose m run up from first[T] = max(0, T - N): m - j is constant
    # within a block, so the packed order needs no sort.  |m, T - m> is
    # entry m (N+1) + T - m = T + N m of the flat grid
    totals = np.arange(2 * n_cut + 1)
    first = np.concatenate((np.zeros(d, dtype=int), np.arange(1, d)))
    sizes = np.concatenate((np.arange(1, d + 1), np.arange(n_cut, 0, -1)))
    ends = np.cumsum(sizes)
    rows = np.repeat(first - (ends - sizes), sizes) + np.arange(d * d)
    entries = np.repeat(totals, sizes) + n_cut * rows
    # an odd number of quarter turns swaps the modes
    start = np.empty(d * d, dtype=complex)
    source = np.ascontiguousarray(grid.T) if quarter % 2 else grid
    np.take(source, entries, out=start, mode="clip")  # "raise" would buffer out

    masses = np.add.reduceat(np.square(start.view(float)), 2 * (ends - sizes))
    tails = np.cumsum(masses[::-1])[::-1]
    before = float(tails[0])
    if not math.isfinite(before):
        raise TruncationError(f"beamsplitter input norm^2 {before!r} is not finite")
    # tails falls with T from tails[0] = before, so top is 0 for a zero grid
    top = int(np.count_nonzero(tails[1:] > BLOCK_DROP_MASS * before))
    kept = int(ends[top])
    start = start[:kept].copy()  # copies free the whole-grid arrays
    if quarter % 4:
        phase = np.array([1.0, 1j, -1.0, -1j])[quarter * totals[: top + 1] % 4]
        start *= np.repeat(phase, sizes[: top + 1])
    entries = entries[:kept].copy()
    if turn == 0.0:
        return None, _Packed(index, d, before, 0.0, entries, start)
    # the spectrum of (t' / X) H lies in [-1, 1] for X >= |t'| (top + 1)
    rung = _rung(abs(turn) * (top + 1.0))
    return rung, _Packed(index, d, before, 2.0 * turn / _rung_scale(rung), entries, start)


def _link(case: _Packed) -> np.ndarray:
    """The shift weights of a packed grid: link[j] = 2 (t' / X) sqrt((m+1) n)
    joins entry j - 1, |m, n>, to entry j, |m+1, n-1>, and link[0] meets
    what precedes the grid in its series.  It vanishes at the end of a
    block: there n = 0 up to T = N, and from T = N on m = N."""
    m, n = np.divmod(case.entries[:-1], case.size)
    link = np.zeros(case.entries.size, dtype=complex)  # complex: the products need no conversion
    link[1:] = case.weight * np.sqrt((m + 1.0) * n)
    link[1:][m == case.size - 1] = 0.0
    return link


def _unpacked(case: _Packed, out: np.ndarray) -> np.ndarray:
    """The grid of one case's packed output, after its norm-drift and
    cutoff-mass checks."""
    after = float(np.sum(np.square(out.view(float))))
    tolerance = UNITARY_NORM_TOL * case.before
    # written so that NaN fails
    if not abs(after - case.before) <= tolerance:
        raise TruncationError(
            f"beamsplitter norm drift {after - case.before:.3e} exceeds {UNITARY_NORM_TOL:.1e}"
        )
    grid = np.zeros((case.size, case.size), dtype=complex)
    grid.reshape(-1)[case.entries] = out
    boundary = (
        float(np.sum(np.abs(grid[-1, :]) ** 2))
        + float(np.sum(np.abs(grid[:, -1]) ** 2))
        - float(np.abs(grid[-1, -1]) ** 2)
    )
    if not boundary <= tolerance:
        raise TruncationError(
            f"occupation mass {boundary:.3e} reached the cutoff N = {case.size - 1}; "
            "increase the truncation"
        )
    return grid


def _evolved(rung: int | None, group: list[_Packed]) -> list[np.ndarray]:
    """The packed outputs of the cases of a group that shares one rung,
    from one series over their concatenated packed entries.  The link is
    0 where one case meets the next, so the series acts on each case as
    it would alone."""
    if rung is None:
        return [case.start for case in group]
    bessel = _bessel_series(_rung_scale(rung))
    coefficients = 2.0 * bessel * np.array([1.0, 1j, -1.0, -1j])[np.arange(bessel.size) % 4]
    coefficients[0] = bessel[0]
    # the series reads a zero before the first entry
    start = np.concatenate([np.zeros(1, dtype=complex)] + [case.start for case in group])
    link = np.concatenate([_link(case) for case in group])
    out = _chebyshev_series(start, link, coefficients)
    return np.split(out[1:], np.cumsum([case.start.size for case in group[:-1]]))


def _mixed(grids, angles: list[float], reduce=lambda index, grid: grid) -> list:
    """reduce(i, beamsplitter_fock(grids[i], angles[i])) for each i, equal
    to the one-grid calls.  grids may be an iterator that builds each grid
    as it is packed.  The grids on one rung share a series while their
    packed entries fit GROUP_ENTRIES, a larger grid runs alone, a grid at
    whole quarter turns needs none, and each group is reduced as its
    series ends, so that only its mixed grids are held at once.

    A failure raises the error of the first failing case, as a loop over
    the cases one at a time would; with more than one case its message
    names the case.  After a grid is refused, the ones before it still
    run, so that the first failure can be found, and the ones after it
    are not built."""
    results, failures = {}, {}

    def reduced(rung: int | None, group: list[_Packed]) -> None:
        for case, out in zip(group, _evolved(rung, group)):
            try:
                results[case.index] = reduce(case.index, _unpacked(case, out))
            except (ValueError, CatRulerError) as err:
                failures[case.index] = err

    groups: dict[int, list[_Packed]] = {}
    grids = iter(grids)
    for index, angle in enumerate(angles):
        try:
            rung, case = _packed(index, next(grids), angle)
        except (ValueError, CatRulerError) as err:
            failures[index] = err
            break
        if rung is None or case.start.size > GROUP_ENTRIES:
            reduced(rung, [case])
            continue
        group = groups.setdefault(rung, [])
        if sum(member.start.size for member in group) + case.start.size > GROUP_ENTRIES:
            reduced(rung, group)
            group.clear()
        group.append(case)
    for rung in list(groups):
        reduced(rung, groups.pop(rung))
    if failures:
        index = min(failures)
        error = failures[index]
        if len(angles) == 1:
            raise error
        raise type(error)(f"case {index}: {error}") from error
    return [results[index] for index in range(len(angles))]


def beamsplitter_fock(grid: np.ndarray, mix_angle: float) -> np.ndarray:
    """exp[i t (a^dag b + a b^dag)], the unitary whose coherent-amplitude
    action is |g>|b> -> |cos t g + i sin t b>|cos t b + i sin t g>.

    Whole quarter turns are taken out first: exp(i (pi/2) H) maps |m, n>
    to i^(m+n) |n, m>, a phase times the mode swap, which keeps the
    square grid.  Writing t = q pi/2 + t' with |t'| <= pi/4, the factor
    i^(q (m+n)), and the transpose for odd q, is applied exactly, and
    only t' is left to the series, whose length grows with |t'|.  For
    |t| <= pi/4, q = 0 and this step is skipped; for t' = 0 no series
    runs.

    H = a^dag b + a b^dag conserves the total photon number T = m + n,
    so the grid is packed block by block: block T holds |m, T - m> for
    m = max(0, T - N) .. min(T, N), and the blocks follow one another in
    T.  In this order H is a shift by one, with weight sqrt((m+1) n)
    between |m, n> and its successor |m+1, n-1> inside a block, and 0
    between blocks and at the end of a chain cut by the truncation
    (m = N).  The blocks above `top` are dropped and come out as 0, where
    top is the last T whose tail (the input's mass in blocks T and above)
    exceeds BLOCK_DROP_MASS = 1e-34 of the norm^2, an amplitude of 1e-17
    as at the series' cut-off; the norm-drift check still compares with
    the whole input.

    The rest is the Chebyshev-Bessel series of the propagator
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)),
    exp(i X y) = J_0(X) + 2 sum_k i^k J_k(X) T_k(y) with y = (t' / X) H.
    s = top + 1 bounds the spectrum of the truncated generator on the
    kept blocks (Gershgorin: sqrt((m+1) n) + sqrt(m (n+1)) <= m + n + 1),
    so |y| <= 1 for any scale X >= x = |t'| s; X is x rounded up to the
    next quarter-octave rung 2^(j/4), j = ceil(4 log2 x), or the rung
    above where rounding leaves X < x.  The sign of t' goes into y, so the
    coefficients depend on X alone: the grids of one _mixed call on the
    same rung share one series over their concatenated packed entries
    (up to GROUP_ENTRIES of them; a larger grid runs alone), with a zero
    shift weight where one grid meets the next, and each grid comes out
    equal to its call here.  With every block kept, s = 2N + 1.  The series stops after the last order
    with |J_k(X)| > 1e-17; the J_k come from Miller's backward recurrence
    (_bessel_series).  The truncated generator is Hermitian, so the
    evolution is exactly unitary and norm loss cannot witness an
    undersized truncation; instead, probability reaching the occupation
    cutoff (where the truncated dynamics diverge from the untruncated
    ones) raises a truncation error.  A non-finite grid raises one before
    any series runs.
    """
    return _mixed([grid], [mix_angle])[0]


def _normalized_norm_squared(state: np.ndarray) -> float:
    """norm^2 of a single-mode state, a vector with |norm^2 - 1| <= STATE_NORM_TOL."""
    n2 = float(np.sum(np.abs(state) ** 2))
    if state.ndim != 1 or not abs(n2 - 1.0) <= STATE_NORM_TOL:
        raise ValueError(f"state of shape {state.shape}, norm^2 = {n2!r}, is not a normalized vector")
    return n2


def parity_distribution(state: np.ndarray) -> tuple[float, float]:
    """(p_even, p_odd) photon-number parity masses of a normalized state."""
    n2 = _normalized_norm_squared(state)
    probs = np.abs(state) ** 2 / n2
    p_even = float(np.sum(probs[0::2]))
    return p_even, 1.0 - p_even


def _hermite_functions(count: int, xi: float) -> np.ndarray:
    """Hermite functions phi_0(xi) .. phi_{count-1}(xi) by upward recurrence.

    The recurrence on normalized functions is stable, but phi_0 underflows
    past xi^2/2 ~ 700, where the higher orders can be of order one.  The
    running pair therefore carries a power-of-two factor 2^-scale: phi_0
    starts multiplied by enough factors 2^900 to be representable, a factor
    comes off whenever the pair grows past 2^900, and the stored values
    undo the rest.
    """
    shifts = max(0, math.ceil((xi * xi / 2.0 - 640.0) / (900.0 * math.log(2.0))))
    scale = -900 * shifts
    prev, curr = 0.0, math.pi**-0.25 * math.exp(900.0 * shifts * math.log(2.0) - xi * xi / 2.0)
    values = np.empty(count)
    values[0] = math.ldexp(curr, scale)
    for n in range(1, count):
        prev, curr = curr, math.sqrt(2.0 / n) * xi * curr - math.sqrt((n - 1.0) / n) * prev
        if abs(curr) > 2.0**900:
            prev, curr, scale = math.ldexp(prev, -900), math.ldexp(curr, -900), scale + 900
        values[n] = math.ldexp(curr, scale)
    return values


def quadrature_cdf_fock(state: np.ndarray, threshold: float) -> float:
    """Probability of a quadrature outcome at or below threshold.

    In the oscillator eigenbasis psi_n (<x>_g = Re(g), vacuum variance
    1/4) the probability is c^dag I c with I_mn the integral of
    psi_m psi_n below the threshold, which is exact at a single point
    xi = sqrt(2) threshold.  The Hermite functions phi_n obey
    phi_m'' = (xi^2 - (2m + 1)) phi_m, so off the diagonal the Wronskian
    gives I_mn = [phi_m' phi_n - phi_m phi_n'](xi) / (2 (n - m)), with
    phi_n' = sqrt(n/2) phi_{n-1} - sqrt((n+1)/2) phi_{n+1}; on the
    diagonal the ladder operators give
    I_nn = I_{n-1,n-1} - phi_{n-1} phi_n / sqrt(2n) from the vacuum
    Gaussian I_00 = erfc(-xi) / 2.  I is real symmetric, so
    c^dag I c = a^T I a + b^T I b for c = a + i b, and the two halves of
    each off-diagonal pair add up: a^T I a = sum_n a_n^2 I_nn +
    sum_{m != n} (a phi')_m (a phi)_n / (n - m), one product with the
    reciprocal differences 1 / (n - m) per part.  The sum is reported
    unclamped; beyond sqrt(N + 1/2) + 8 it is 0 on the left, norm^2 on the right.
    """
    return _quadrature_cdfs([state], threshold)[0]


def _quadrature_cdfs(states: list[np.ndarray], threshold: float) -> list[float]:
    """quadrature_cdf_fock, unclamped, of several normalized vectors of one
    size, from one table of Hermite functions and reciprocal differences."""
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    norms = [_normalized_norm_squared(state) for state in states]
    size = states[0].size
    # support of every basis state up to N ends near the classical
    # turning point sqrt(N + 1/2); far below it nothing is left to
    # integrate, far above it everything is
    edge = math.sqrt(size - 0.5) + 8.0
    if threshold <= -edge:
        return [0.0] * len(states)
    if threshold >= edge:
        return norms
    xi = math.sqrt(2.0) * threshold
    n = np.arange(size, dtype=float)
    phi = _hermite_functions(size + 1, xi)  # phi_0 .. phi_{N+1}
    below = np.concatenate(([0.0], phi[:-2]))  # phi_{n-1}, zero at n = 0
    phi, above = phi[:-1], phi[1:]
    slope = np.sqrt(n / 2.0) * below - np.sqrt((n + 1.0) / 2.0) * above
    steps = phi[:-1] * phi[1:] / np.sqrt(2.0 * n[1:])
    diagonal = 0.5 * math.erfc(-xi) - np.concatenate(([0.0], np.cumsum(steps)))
    reciprocal = n - n[:, None]  # n - m at [m, n]
    np.fill_diagonal(reciprocal, math.inf)
    np.reciprocal(reciprocal, out=reciprocal)
    probabilities = []
    for state in states:
        parts = np.stack([state.real, state.imag])
        probability = float(
            np.sum(parts * parts * diagonal) + np.sum(((parts * slope) @ reciprocal) * (parts * phi))
        )
        if not math.isfinite(probability):
            raise ValueError(f"quadrature CDF {probability!r} is not finite")
        probabilities.append(probability)
    return probabilities


class OracleProbabilities(NamedTuple):
    """Conditional probabilities, leakage and outcome weights (joint = p x weight)."""

    p_plus: float
    p_minus: float
    leakage: float
    plus_weight: float
    minus_weight: float


def _oracle_cats(p: RealizationParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The plus cat after the path phase, the plus cat and the minus cat
    of one oracle case, in its number basis."""
    alpha = p.alpha
    if alpha > ORACLE_MAX_ALPHA:
        raise ValueError(f"the oracle accepts alpha up to {ORACLE_MAX_ALPHA:g}, got {alpha!r}")
    truncation = default_truncation(alpha * (abs(math.cos(p.phi)) + abs(math.sin(p.phi))))

    norm = 1.0 / math.sqrt(2.0 + 2.0 * math.exp(-(alpha**2) / 2.0))
    vac = np.zeros(truncation + 1, dtype=complex)
    vac[0] = 1.0
    amp = coherent_to_fock(alpha, truncation)
    plus_cat = (vac + amp) * norm
    minus_norm = 1.0 / math.sqrt(2.0 - 2.0 * math.exp(-(alpha**2) / 2.0))
    minus_cat = (vac - amp) * minus_norm
    return phase_rotate(plus_cat, p.theta), plus_cat, minus_cat


def _oracle_outcome(
    p: RealizationParams, plus_cat: np.ndarray, minus_cat: np.ndarray, mixed: np.ndarray
) -> OracleProbabilities:
    """Cat projection of the measured mode of one case's mixed grid and
    threshold statistics of its homodyne mode."""
    conditional_plus = np.conj(plus_cat) @ mixed
    conditional_minus = np.conj(minus_cat) @ mixed
    w_plus = float(np.vdot(conditional_plus, conditional_plus).real)
    w_minus = float(np.vdot(conditional_minus, conditional_minus).real)
    leakage = 1.0 - w_plus - w_minus
    magnitudes = np.abs(mixed)
    for cat, weight in ((plus_cat, w_plus), (minus_cat, w_minus)):
        terms = np.abs(cat) @ magnitudes
        if not CANCELLATION_LIMIT * weight > terms @ terms:
            raise IntegrationError(
                f"oracle failed at theta = {p.theta!r}: outcome weight is below "
                f"1/{CANCELLATION_LIMIT:g} of its cancelling terms"
            )

    threshold = p.alpha / 2.0
    p_plus, p_minus = _quadrature_cdfs(
        [conditional_plus / math.sqrt(w_plus), conditional_minus / math.sqrt(w_minus)], threshold
    )
    return OracleProbabilities(p_plus, p_minus, leakage, w_plus, w_minus)


def _end_to_end_oracles(params: list[RealizationParams]) -> list[OracleProbabilities]:
    """end_to_end_oracle of each case, equal to the one-case calls, with
    the beamsplitters of the cases whose series rungs coincide in shared
    series (_mixed).  Each case's cats and grid are built as _mixed packs
    it, and each mixed grid is reduced to its outcome as its group
    finishes.  A failure raises the error of the first failing case."""
    cats = []

    def grid(p: RealizationParams) -> np.ndarray:
        cats.append(_oracle_cats(p))
        rotated, plus_cat, _ = cats[-1]
        return np.outer(rotated, plus_cat)

    def outcome(index: int, mixed: np.ndarray) -> OracleProbabilities:
        return _oracle_outcome(params[index], *cats[index][1:], mixed)

    return _mixed(map(grid, params), [p.phi for p in params], outcome)


def end_to_end_oracle(p: RealizationParams) -> OracleProbabilities:
    """Full pipeline in Fock space: cat x cat, path phase, beamsplitter,
    cat projection of the measured mode, threshold statistics of the
    homodyne mode.

    An outcome weight below 1/CANCELLATION_LIMIT of the squared norm of
    |cat|^T |mixed|, the size of the terms it cancels from, raises
    IntegrationError, as the scan kernel does.

    The truncation is sized here to cover per-mode amplitudes up to
    alpha (|cos phi| + |sin phi|), the bound on both output amplitudes
    |cos phi g + i sin phi b| for |g|, |b| <= alpha, so N grows as
    alpha^2; the beamsplitter on the (N+1)^2 grid sets the cost, and an
    alpha above ORACLE_MAX_ALPHA raises ValueError before any grid is
    built.
    """
    return _end_to_end_oracles([p])[0]
