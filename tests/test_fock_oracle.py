"""Tests for the truncated number-basis oracle."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import jv

from catruler import cli, fock_oracle
from catruler.coherent_algebra import CoherentSuperposition, threshold_probability
from catruler.errors import IntegrationError, TruncationError
from catruler.fock_oracle import (
    _end_to_end_oracles,
    _mixed,
    beamsplitter_fock,
    coherent_to_fock,
    default_truncation,
    end_to_end_oracle,
    parity_distribution,
    phase_rotate,
    quadrature_cdf_fock,
)
from catruler.physical_realization import (
    RealizationParams,
    _conditional_batch,
    fringe_scan,
    measurement_probabilities,
    output_state,
)

from ratio_reference import coherent_to_fock_loop

pytestmark = pytest.mark.filterwarnings("ignore::catruler.errors.ApproximationRegimeWarning")


def exact_cat(alpha, sign, truncation):
    norm = 1.0 / math.sqrt(2 + sign * 2 * math.exp(-(alpha**2) / 2))
    vac = coherent_to_fock(0.0, truncation)
    amp = coherent_to_fock(alpha, truncation)
    return (vac + sign * amp) * norm


def rung(x):
    """x > 0 rounded up to the next quarter octave 2^(j/4)."""
    j = math.ceil(4.0 * math.log2(x))
    return 2.0 ** (j / 4.0) if 2.0 ** (j / 4.0) >= x else 2.0 ** ((j + 1) / 4.0)


def total_quanta(truncation):
    """m + n over the (N+1) x (N+1) two-mode grid."""
    return np.add.outer(np.arange(truncation + 1), np.arange(truncation + 1))


def dense_evolution(grid, angle):
    """exp(i angle H) of the truncated generator H, as a dense matrix on the flat grid."""
    lowering = np.diag(np.sqrt(np.arange(1.0, grid.shape[0])), 1)
    generator = np.kron(lowering.T, lowering) + np.kron(lowering, lowering.T)
    return expm(1j * angle * generator) @ grid.reshape(-1)


class TestCoherentToFock:
    def test_vacuum(self):
        v = coherent_to_fock(0.0, 10)
        assert v[0] == 1.0
        assert np.all(v[1:] == 0.0)

    def test_photon_number_moment(self):
        v = coherent_to_fock(2.0, 60)
        n = np.arange(61)
        mean = float(np.sum(n * np.abs(v) ** 2))
        assert mean == pytest.approx(4.0, abs=1e-8)

    def test_inner_product_matches_overlap_formula(self):
        a = coherent_to_fock(0.0, 60)
        b = coherent_to_fock(2.0, 60)
        assert np.vdot(a, b) == pytest.approx(math.exp(-2.0), abs=1e-10)

    def test_truncation_too_small_raises(self):
        with pytest.raises(TruncationError):
            coherent_to_fock(6.0, 20)

    def test_tail_beyond_the_truncation_raises(self):
        # |gamma|^2 = 36 <= N = 40 passes the mean check, but the Poisson
        # tail past N is 0.223: the state would lack 22 % of its mass
        with pytest.raises(TruncationError, match="leaves tail mass 2.229e-01 beyond N = 40"):
            coherent_to_fock(6.0, 40)

    @pytest.mark.parametrize("gamma", [40.0, 40.0j, 60.0 * complex(math.cos(1.0), math.sin(1.0))])
    def test_amplitude_past_the_vacuum_term_underflow(self, gamma):
        # c_0 = e^{-|gamma|^2/2} underflows, the coefficients near n = |gamma|^2 do not
        v = coherent_to_fock(gamma)
        n = np.arange(v.size)
        assert abs(float(np.sum(np.abs(v) ** 2)) - 1.0) <= 1e-8
        mean = float(np.sum(n * np.abs(v) ** 2))
        assert mean == pytest.approx(abs(gamma) ** 2, rel=1e-9)

    def test_no_rescaling_while_the_vacuum_term_is_normal(self):
        gamma = 37.0
        v = coherent_to_fock(gamma)
        assert np.array_equal(v, coherent_to_fock_loop(gamma, v.size - 1))

    @pytest.mark.parametrize("gamma, truncation", [
        (0.0, None), (0.5, None), (3 + 1j, None), (12.0, None), (37.5, None),
        (40.0, None), (100j, None),  # these two rescale: c_0 underflows
        (40.0, 4000),  # the tail runs out of the normal range
    ])
    def test_matches_the_ratio_loop(self, gamma, truncation):
        got = coherent_to_fock(gamma, truncation)
        want = coherent_to_fock_loop(gamma, got.size - 1)
        tiny = np.abs(want) <= 1e-300
        assert np.all(np.abs(got[~tiny] - want[~tiny]) <= 1e-14 * np.abs(want[~tiny]))
        assert np.all(np.abs(got[tiny]) <= 2e-300)

    def test_default_truncation_heuristic(self):
        assert default_truncation(0.0) == 30
        assert default_truncation(3.0) == math.ceil(9 + 24 + 20)

    def test_vector_validation(self):
        # a two-mode state is a square grid, a single-mode state a vector
        with pytest.raises(ValueError, match="square grid"):
            beamsplitter_fock(np.zeros((2, 3), dtype=complex), 0.3)
        grid = np.eye(2, dtype=complex) / math.sqrt(2.0)  # norm^2 = 1
        with pytest.raises(ValueError, match="vector"):
            parity_distribution(grid)
        with pytest.raises(ValueError, match="vector"):
            quadrature_cdf_fock(grid, 0.0)


class TestBeamsplitterFock:
    def test_mismatched_modes_rejected(self):
        with pytest.raises(ValueError, match="square grid"):
            beamsplitter_fock(np.outer(coherent_to_fock(1.0, 30), coherent_to_fock(1.0, 40)), 0.3)

    def test_zero_angle_identity(self):
        state = np.outer(coherent_to_fock(1.0, 30), coherent_to_fock(0.5j, 30))
        out = beamsplitter_fock(state, 0.0)
        assert np.max(np.abs(out - state)) < 1e-12

    def test_coherent_amplitude_relation(self):
        g, b, angle, n = 1.5, 1.0, 0.3, 50
        state = np.outer(coherent_to_fock(g, n), coherent_to_fock(b, n))
        out = beamsplitter_fock(state, angle)
        c, s = math.cos(angle), math.sin(angle)
        predicted = np.outer(
            coherent_to_fock(c * g + 1j * s * b, n), coherent_to_fock(c * b + 1j * s * g, n)
        )
        fidelity = abs(np.vdot(predicted, out)) ** 2
        assert fidelity >= 1 - 1e-8

    def test_total_photon_number_conserved(self):
        n = 40
        state = np.outer(coherent_to_fock(1.2, n), coherent_to_fock(0.8j, n))
        out = beamsplitter_fock(state, 0.9)
        idx = np.arange(n + 1)
        total = idx[:, None] + idx[None, :]
        before = float(np.sum(total * np.abs(state) ** 2))
        after = float(np.sum(total * np.abs(out) ** 2))
        assert after == pytest.approx(before, abs=1e-8)

    def test_norm_preserved_on_random_state(self):
        rng = np.random.default_rng(6)
        n = 25
        grid = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
        # mixing conserves n_a + n_b, so keep the total below the cutoff
        grid[12:, :] = 0.0
        grid[:, 12:] = 0.0
        grid /= np.linalg.norm(grid)
        out = beamsplitter_fock(grid, 1.1)
        assert float(np.sum(np.abs(out) ** 2)) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "angle", [0.0, 0.17, -0.17, math.pi / 4, 9.8, -9.8, math.pi / 2, -math.pi / 2, math.pi, 30.0]
    )
    @pytest.mark.parametrize("truncation", [1, 20])
    def test_matches_dense_exponential(self, angle, truncation, monkeypatch):
        # 9.8 rad is the mixing angle at alpha = 0.4
        d = truncation + 1
        lowering = np.diag(np.sqrt(np.arange(1.0, d)), 1)
        generator = np.kron(lowering.T, lowering) + np.kron(lowering, lowering.T)
        rng = np.random.default_rng(truncation)
        grid = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        if abs(angle) > math.pi / 4:
            # whole quarter turns are applied as the exact mode swap, which
            # the truncated generator reproduces only where m + n <= N
            grid[total_quanta(truncation) > truncation] = 0.0
        grid /= np.linalg.norm(grid)
        # mass reaches the cutoff: compare the truncated dynamics with the
        # checks off
        monkeypatch.setattr(fock_oracle, "UNITARY_NORM_TOL", math.inf)
        out = beamsplitter_fock(grid, angle)
        expected = expm(1j * angle * generator) @ grid.reshape(-1)
        assert np.max(np.abs(out.reshape(-1) - expected)) < 1e-12

    @pytest.mark.parametrize("angle", [0.0, 0.3, -0.6, 2.0, 9.8])
    def test_quarter_turn_is_phased_mode_swap(self, angle):
        # exp(i (pi/2) H) maps |m, n> to i^(m+n) |n, m>
        n = 30
        rng = np.random.default_rng(9)
        grid = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
        grid[total_quanta(n) >= n] = 0.0  # no mass can reach the cutoff
        grid /= np.linalg.norm(grid)
        turned = beamsplitter_fock(grid, angle + math.pi / 2)
        swapped = 1j ** total_quanta(n) * beamsplitter_fock(grid, angle).T
        assert np.max(np.abs(turned - swapped)) < 1e-12

    def test_cutoff_overflow_detected(self):
        n = 6
        grid = np.zeros((n + 1, n + 1), dtype=complex)
        grid[4, 4] = 1.0  # total 8 quanta cannot fit one mode of size 6
        with pytest.raises(TruncationError):
            beamsplitter_fock(grid, math.pi / 4)

    def test_one_case_message_has_no_case_prefix(self):
        # only a call with several cases names the failing one
        bad = np.full((3, 3), np.nan + 0j)
        with pytest.raises(TruncationError, match="^beamsplitter input norm\\^2 nan is not finite"):
            beamsplitter_fock(bad, 0.3)
        with pytest.raises(TruncationError, match="^case 0: beamsplitter input norm\\^2 nan"):
            _mixed([bad, bad], [0.3, 0.3])

    @staticmethod
    def spy_scale(monkeypatch):
        """Record x = |t'| s of every _bessel_series call."""
        seen = []
        bessel_series = fock_oracle._bessel_series
        monkeypatch.setattr(fock_oracle, "_bessel_series", lambda x: seen.append(x) or bessel_series(x))
        return seen

    @staticmethod
    def last_kept_block(grid):
        """top: the last total T whose input tail, blocks T and above, holds
        more than BLOCK_DROP_MASS of the norm^2."""
        truncation = grid.shape[0] - 1
        masses = np.bincount(total_quanta(truncation).ravel(), weights=(np.abs(grid) ** 2).ravel())
        tails = np.cumsum(masses[::-1])[::-1]
        return int(np.flatnonzero(tails > fock_oracle.BLOCK_DROP_MASS * tails[0])[-1])

    @staticmethod
    def oracle_input(alpha, theta):
        """cat(theta) x cat and the mixing angle, as end_to_end_oracle builds them."""
        p = RealizationParams(alpha=alpha, theta=theta)
        truncation = default_truncation(alpha * (abs(math.cos(p.phi)) + abs(math.sin(p.phi))))
        cat = exact_cat(alpha, +1, truncation)
        return np.outer(phase_rotate(cat, theta), cat), p.phi

    @pytest.mark.parametrize("case", ["fidelity", 0.4, 1.0, 1.7, 3.0])
    def test_dropping_no_block_is_the_whole_grid_series(self, case, monkeypatch):
        # at drop level 0 every block is kept and the series runs at the
        # rung of |t'| (2N + 1) over the whole grid
        if case == "fidelity":  # the product state of the oracle's fidelity check
            grid, angle = np.outer(coherent_to_fock(1.5, 50), coherent_to_fock(1.0, 50)), 0.3
        else:
            grid, angle = self.oracle_input(case, 2.1)
        packed = beamsplitter_fock(grid, angle)
        monkeypatch.setattr(fock_oracle, "BLOCK_DROP_MASS", 0.0)
        seen = self.spy_scale(monkeypatch)
        whole = beamsplitter_fock(grid, angle)
        turn = abs(angle - round(angle / (math.pi / 2)) * (math.pi / 2))
        # alpha = 1 mixes by pi/2, whole quarter turns that need no series
        assert seen == ([rung(turn * (2 * grid.shape[0] - 1))] if turn else [])
        assert np.max(np.abs(packed - whole)) <= 1e-15

    @pytest.mark.parametrize("angle", [0.6, -0.3])
    def test_dropped_blocks_match_dense_exponential(self, angle, monkeypatch):
        # a coherent product at N = 20 holds no mass worth keeping in the
        # highest blocks: the series runs at the rung of |t'| (top + 1), not
        # of |t'| (2N + 1), and the dropped blocks come out as 0
        n = 20
        grid = np.outer(coherent_to_fock(1.0, n), coherent_to_fock(0.5j, n))
        top = self.last_kept_block(grid)
        assert top < 2 * n
        seen = self.spy_scale(monkeypatch)
        out = beamsplitter_fock(grid, angle)
        assert seen == [rung(abs(angle) * (top + 1))]
        assert np.all(out[total_quanta(n) > top] == 0.0)
        assert np.max(np.abs(out.reshape(-1) - dense_evolution(grid, angle))) < 1e-12

    @pytest.mark.parametrize("angle", [0.6, -0.3])
    def test_truncated_block_matches_dense_exponential(self, angle, monkeypatch):
        # mass only in T = 30 > N = 20, whose chain |10, 20> .. |20, 10> the
        # truncation cuts at m = N (and at n = N): blocks past 30 are empty
        n, total = 20, 30
        rng = np.random.default_rng(total)
        grid = np.zeros((n + 1, n + 1), dtype=complex)
        rows = np.arange(total - n, n + 1)
        grid[rows, total - rows] = rng.normal(size=rows.size) + 1j * rng.normal(size=rows.size)
        grid /= np.linalg.norm(grid)
        assert self.last_kept_block(grid) == total
        # the mass sits at the cutoff: compare the truncated dynamics with the
        # checks off
        monkeypatch.setattr(fock_oracle, "UNITARY_NORM_TOL", math.inf)
        out = beamsplitter_fock(grid, angle)
        assert np.max(np.abs(out.reshape(-1) - dense_evolution(grid, angle))) < 1e-12

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
    @pytest.mark.parametrize("where", [(0, 0), (5, 5)])
    def test_non_finite_grid_raises(self, value, where):
        grid = np.outer(coherent_to_fock(0.5, 6), coherent_to_fock(0.5, 6))
        grid[where] = value
        with np.errstate(invalid="ignore"), pytest.raises(TruncationError):
            beamsplitter_fock(grid, 0.3)

    def test_norm_drift_raises(self, monkeypatch):
        # series coefficients 1 % too large stand in for a faulty series:
        # the evolution scales the norm instead of keeping it
        exact = fock_oracle._bessel_series
        monkeypatch.setattr(fock_oracle, "_bessel_series", lambda x: 1.01 * exact(x))
        grid = np.outer(coherent_to_fock(1.5, 30), coherent_to_fock(1.0, 30))
        with pytest.raises(TruncationError, match="norm drift"):
            beamsplitter_fock(grid, 0.3)

    # the recurrence's running values peak unscaled near 1.8e270, 1.8e239,
    # 1.8e208 and 1.8e146 at x = 1e-17, 1e-16, 1e-15 and 1e-13
    @pytest.mark.parametrize(
        "x", [0.0, 1e-17, 1e-16, 1e-15, 1e-13, 1e-3, 0.5, 3.0, 17.3, 80.0, 140.0, 500.0, 950.0, 1300.0]
    )
    def test_bessel_series_matches_jv(self, x):
        # the orders beamsplitter_fock asks of the recurrence
        ref = jv(np.arange(math.ceil(x + 15.0 * x ** (1.0 / 3.0) + 30.0)), x)
        series = fock_oracle._bessel_series(x)
        # the series ends where jv ends above the cut-off, and beyond it every
        # order of jv is below 1e-17
        assert series.size - 1 == np.flatnonzero(np.abs(ref) > 1e-17)[-1]
        assert np.max(np.abs(series - ref[: series.size])) <= 1e-13

    def test_bessel_series_at_zero_is_exact(self):
        assert fock_oracle._bessel_series(0.0).tolist() == [1.0]


class TestParity:
    def test_vacuum_is_even(self):
        p_even, p_odd = parity_distribution(coherent_to_fock(0.0, 30))
        assert p_even == 1.0 and p_odd == 0.0

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_displaced_plus_cat_is_even(self, alpha):
        norm = 1.0 / math.sqrt(2 + 2 * math.exp(-(alpha**2) / 2))
        lo = coherent_to_fock(-alpha / 2, 60)
        hi = coherent_to_fock(alpha / 2, 60)
        _, p_odd = parity_distribution((lo + hi) * norm)
        assert p_odd < 1e-10

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    def test_displaced_minus_cat_is_odd(self, alpha):
        norm = 1.0 / math.sqrt(2 - 2 * math.exp(-(alpha**2) / 2))
        lo = coherent_to_fock(-alpha / 2, 60)
        hi = coherent_to_fock(alpha / 2, 60)
        p_even, _ = parity_distribution((lo - hi) * norm)
        assert p_even < 1e-10

    def test_general_even_superposition(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            g = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(g) < 0.3:
                continue
            plus = coherent_to_fock(g, 80) + coherent_to_fock(-g, 80)
            _, p_odd = parity_distribution(plus / np.linalg.norm(plus))
            assert p_odd < 1e-10

    def test_requires_normalized_state(self):
        with pytest.raises(ValueError):
            parity_distribution(np.array([0.5] + [0.0] * 30, dtype=complex))


class TestQuadratureCdf:
    def test_vacuum_median(self):
        assert quadrature_cdf_fock(coherent_to_fock(0.0, 40), 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_coherent_median(self):
        assert quadrature_cdf_fock(coherent_to_fock(2.0, 60), 2.0) == pytest.approx(0.5, abs=1e-6)

    def test_plus_cat_matches_analytic_path(self):
        alpha = 2.0
        w = 1 / math.sqrt(2 + 2 * math.exp(-(alpha**2) / 2))
        s = CoherentSuperposition(((w, 0.0), (w, alpha)))
        analytic = threshold_probability(s, alpha / 2, method="erf")
        fock = quadrature_cdf_fock(exact_cat(alpha, +1, default_truncation(alpha)), alpha / 2)
        assert abs(analytic - fock) < 1e-6

    def test_far_left_threshold_is_zero(self):
        assert quadrature_cdf_fock(coherent_to_fock(0.0, 40), -60.0) == 0.0

    @pytest.mark.parametrize("threshold", [1e50, 1e200])
    def test_far_right_threshold_is_the_norm(self, threshold):
        assert quadrature_cdf_fock(coherent_to_fock(1.0), threshold) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("truncation", [0, 7, 60])
    def test_matches_direct_integration(self, truncation):
        # psi_n in the package's quadrature units (vacuum variance 1/4)
        def density(x):
            prev, curr = 0.0, (2.0 / math.pi) ** 0.25 * math.exp(-(x**2))
            amplitude = coefficients[0] * curr
            for n in range(1, truncation + 1):
                prev, curr = curr, (2.0 * x * curr - math.sqrt(n - 1.0) * prev) / math.sqrt(n)
                amplitude += coefficients[n] * curr
            return abs(amplitude) ** 2

        rng = np.random.default_rng(truncation)
        coefficients = rng.normal(size=truncation + 1) + 1j * rng.normal(size=truncation + 1)
        coefficients /= np.linalg.norm(coefficients)
        lower = -(math.sqrt(truncation + 0.5) + 8.0)
        for threshold in (-4.0, -1.3, 0.0, 0.7, 4.0):
            expected, _ = quad(density, lower, threshold, limit=400, epsabs=1e-13, epsrel=1e-12)
            assert quadrature_cdf_fock(coefficients, threshold) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("amplitude, threshold, z", [
        (25.0, 27.5, 5.0), (-25.0, -27.5, -5.0), (40.0, 42.5, 5.0), (-40.0, -42.5, -5.0),
    ])
    def test_deep_tail_of_a_large_coherent_state(self, amplitude, threshold, z):
        # N = 845: phi_0 underflows at xi = sqrt(2) 27.5 while the orders
        # near N are of order one there; at N = 1940 and xi = sqrt(2) 42.5
        # the running pair also passes 2^900 and is scaled down
        value = quadrature_cdf_fock(coherent_to_fock(amplitude), threshold)
        assert value == pytest.approx(0.5 * math.erfc(-z / math.sqrt(2)), abs=1e-9)

    @staticmethod
    def integral_matrix_cdf(state, threshold):
        """The explicit form: c^dag I c with the whole symmetric matrix I_mn."""
        xi = math.sqrt(2.0) * threshold
        n = np.arange(state.size)
        phi = fock_oracle._hermite_functions(state.size + 1, xi)
        below = np.concatenate(([0.0], phi[:-2]))
        phi, above = phi[:-1], phi[1:]
        slope = np.sqrt(n / 2.0) * below - np.sqrt((n + 1.0) / 2.0) * above
        gap = 2.0 * (n[None, :] - n[:, None])
        np.fill_diagonal(gap, 1.0)
        integrals = (np.outer(slope, phi) - np.outer(phi, slope)) / gap
        steps = phi[:-1] * phi[1:] / np.sqrt(2.0 * n[1:])
        np.fill_diagonal(integrals, 0.5 * math.erfc(-xi) - np.concatenate(([0.0], np.cumsum(steps))))
        parts = np.stack([state.real, state.imag])
        return float(np.sum(parts * (parts @ integrals)))

    @pytest.mark.parametrize("truncation", [0, 7, 60])
    def test_matches_the_integral_matrix(self, truncation):
        rng = np.random.default_rng(truncation)
        coefficients = rng.normal(size=truncation + 1) + 1j * rng.normal(size=truncation + 1)
        coefficients /= np.linalg.norm(coefficients)
        for threshold in (-4.0, -1.3, 0.0, 0.7, 4.0):
            expected = self.integral_matrix_cdf(coefficients, threshold)
            assert abs(quadrature_cdf_fock(coefficients, threshold) - expected) <= 1e-14

    @pytest.mark.parametrize("amplitude, threshold", [(25.0, 27.5), (-25.0, -27.5)])
    def test_deep_tail_matches_the_integral_matrix(self, amplitude, threshold):
        state = coherent_to_fock(amplitude)  # N = 845
        expected = self.integral_matrix_cdf(state, threshold)
        assert abs(quadrature_cdf_fock(state, threshold) - expected) <= 1e-14

    def test_non_finite_probability_raises(self, monkeypatch):
        # NaN Hermite functions stand in for a recurrence that broke down
        monkeypatch.setattr(fock_oracle, "_hermite_functions", lambda count, xi: np.full(count, math.nan))
        with pytest.raises(ValueError, match="not finite"):
            quadrature_cdf_fock(coherent_to_fock(1.0), 0.3)

    def test_gaussian_tail_value(self):
        # P(x <= mean - 2 sigma) for a coherent state, sigma = 1/2
        value = quadrature_cdf_fock(coherent_to_fock(1.5, 50), 0.5)
        expected = 0.5 * (1 + math.erf(-2.0 / math.sqrt(2)))
        assert value == pytest.approx(expected, abs=1e-9)


class TestPhaseRotate:
    def test_rotates_coherent_amplitude(self):
        theta = 0.7
        rotated = phase_rotate(coherent_to_fock(1.5, 40), theta)
        target = coherent_to_fock(1.5 * np.exp(1j * theta), 40)
        fidelity = abs(np.vdot(target, rotated)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-12)


class TestEndToEnd:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 8, 2.1])
    def test_matches_analytic_pipeline_alpha_two(self, theta):
        params = RealizationParams(alpha=2.0, theta=theta)
        oracle = end_to_end_oracle(params)
        p_plus, p_minus = measurement_probabilities(params)
        out = output_state(params)
        assert abs(oracle.p_plus - p_plus) < 1e-6
        assert abs(oracle.p_minus - p_minus) < 1e-6
        assert abs(oracle.leakage - out.leakage) < 1e-6

    def test_matches_analytic_pipeline_alpha_five_null_phase(self):
        # pins the alpha = 5 null-phase figures (0.978 / 0.026) that fall
        # short of 0.99 / 0.01 in acceptance criterion 4
        params = RealizationParams(alpha=5.0)
        oracle = end_to_end_oracle(params)
        p_plus, p_minus = measurement_probabilities(params)
        out = output_state(params)
        assert abs(oracle.p_plus - p_plus) < 1e-6
        assert abs(oracle.p_minus - p_minus) < 1e-6
        assert abs(oracle.plus_weight - out.plus_weight) < 1e-6
        assert abs(oracle.minus_weight - out.minus_weight) < 1e-6
        assert abs(oracle.leakage - out.leakage) < 1e-6

    @pytest.mark.parametrize("alpha", [5.0, 10.0, 20.0])
    def test_matches_acceptance_scan(self, alpha):
        # the fringe / width-scaling / ruler scans: 801 points over +-3 periods
        period = 2 * math.pi / alpha**2
        curve = fringe_scan(alpha, -3 * period, 3 * period, 801)
        for i in np.random.default_rng(int(alpha)).choice(len(curve), 3, replace=False):
            oracle = end_to_end_oracle(RealizationParams(alpha=alpha, theta=float(curve.theta[i])))
            assert abs(curve.p_plus[i] - oracle.p_plus) < 1e-6
            assert abs(curve.p_minus[i] - oracle.p_minus) < 1e-6
            assert abs(curve.leakage[i] - oracle.leakage) < 1e-6

    def test_matches_closed_form_past_a_quarter_turn(self):
        # alpha <= 1 puts the mixing angle at pi/2 or beyond (9.8 rad at 0.4)
        worst = 0.0
        for alpha in (0.4, 0.507, 0.6, 0.8, 1.0):
            thetas = np.linspace(-math.pi, math.pi, 7)
            batch = _conditional_batch(alpha, thetas)
            for i, theta in enumerate(thetas):
                oracle = end_to_end_oracle(RealizationParams(alpha=alpha, theta=float(theta)))
                worst = max(
                    worst,
                    abs(oracle.p_plus - batch.conditional[i, 0]),
                    abs(oracle.p_minus - batch.conditional[i, 1]),
                    abs(oracle.leakage - batch.leakage[i]),
                )
        assert worst < 2e-14

    @pytest.mark.parametrize("alpha", [2.0, 5.0])
    @pytest.mark.parametrize("theta", [math.pi * 1e8, math.pi * 1e12, 1e308])
    def test_matches_closed_form_at_large_theta(self, alpha, theta):
        # theta n rounds the phase away (1.9e-6 in P- at alpha = 5,
        # pi 1e12) and overflows at 1e308 unless theta is reduced first
        oracle = end_to_end_oracle(RealizationParams(alpha=alpha, theta=theta))
        batch = _conditional_batch(alpha, np.array([theta]))
        assert abs(oracle.p_plus - batch.conditional[0, 0]) < 1e-6
        assert abs(oracle.p_minus - batch.conditional[0, 1]) < 1e-6
        assert abs(oracle.leakage - batch.leakage[0]) < 1e-6

    def test_kernel_joint_distribution_matches_oracle(self):
        # the kernel's outcome weights and joint probabilities against the
        # oracle's weights and p x weight, past a quarter turn and beyond
        worst = 0.0
        for alpha in (0.4, 0.8, 1.5, 2.5, 5.0):
            thetas = np.linspace(-math.pi, math.pi, 7)
            batch = _conditional_batch(alpha, thetas)
            for i, theta in enumerate(thetas):
                oracle = end_to_end_oracle(RealizationParams(alpha=alpha, theta=float(theta)))
                weights = np.array([oracle.plus_weight, oracle.minus_weight])
                joint = np.array([oracle.p_plus, oracle.p_minus]) * weights
                worst = max(worst, np.abs(batch.weights[i] - weights).max(),
                            np.abs(batch.joint[i] - joint).max())
        assert worst < 2e-14

    def test_leakage_in_unit_interval(self):
        oracle = end_to_end_oracle(RealizationParams(alpha=2.5, theta=1.0))
        assert 0.0 <= oracle.leakage <= 1.0

    def test_cancelled_outcome_weight_raises(self):
        # the minus weight 3.3e-14 is cancelled from terms about 3.5e12 times
        # larger; the scan kernel refuses the same point
        with pytest.raises(IntegrationError, match=r"theta = 1e-06: outcome weight"):
            end_to_end_oracle(RealizationParams(alpha=1 / math.sqrt(8), theta=1e-6))

    def test_insufficient_cap_raises(self, monkeypatch):
        monkeypatch.setattr(fock_oracle, "default_truncation", lambda reach: 12)
        with pytest.raises(TruncationError):
            end_to_end_oracle(RealizationParams(alpha=3.0))

    def test_truncation_covers_both_output_amplitudes(self, monkeypatch):
        # alpha = 0.85 mixes by phi = 2.17 rad, where cos phi < 0: the bound
        # alpha (|cos phi| + |sin phi|) = 1.18 asks for N = 31, while
        # alpha (cos phi + sin phi) = 0.22 would leave the floor N = 30
        seen = []
        to_fock = fock_oracle.coherent_to_fock
        monkeypatch.setattr(fock_oracle, "coherent_to_fock",
                            lambda gamma, truncation: seen.append(truncation) or to_fock(gamma, truncation))
        end_to_end_oracle(RealizationParams(alpha=0.85, theta=0.3))
        assert seen == [31]  # the amplitude; the vacuum is e_0


def cli_draws(seed, max_alpha, cases):
    """The oracle command's cases: alpha, then theta, from the seed."""
    return [RealizationParams(alpha=alpha, theta=theta)
            for alpha, theta in cli._oracle_draws(seed, max_alpha, cases)]


def spy_series(monkeypatch):
    """Record the start vector of every Chebyshev series."""
    seen = []
    series = fock_oracle._chebyshev_series
    monkeypatch.setattr(fock_oracle, "_chebyshev_series",
                        lambda start, link, coefficients: seen.append(start.copy())
                        or series(start, link, coefficients))
    return seen


class TestSharedSeries:
    """Grids of one call on the same series rung share a series; each
    comes out equal to its one-grid call."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("max_alpha", [3.0, 6.0])
    def test_oracles_equal_the_one_case_calls(self, seed, max_alpha, monkeypatch):
        params = cli_draws(seed, max_alpha, 50)
        one_case = [end_to_end_oracle(p) for p in params]
        seen = spy_series(monkeypatch)
        assert _end_to_end_oracles(params) == one_case
        assert len(seen) < len(params)  # the cases did share series
        assert _end_to_end_oracles(params[::-1]) == one_case[::-1]

    @staticmethod
    def refused():
        # case 1 is refused before its grid is built; alpha = 1 would mix
        # by exactly a quarter turn and run no series
        return [RealizationParams(1.5), RealizationParams(25.0), RealizationParams(2.0)]

    def test_refused_case_stops_the_cases_after_it(self, monkeypatch):
        built = []
        cats = fock_oracle._oracle_cats
        monkeypatch.setattr(fock_oracle, "_oracle_cats", lambda p: built.append(p.alpha) or cats(p))
        seen = spy_series(monkeypatch)
        with pytest.raises(ValueError, match="^case 1: the oracle accepts alpha up to 20"):
            _end_to_end_oracles(self.refused())
        assert len(seen) == 1  # case 0 still ran
        assert built == [1.5, 25.0]

    def test_earlier_failure_wins_over_a_later_refusal(self, monkeypatch):
        monkeypatch.setattr(fock_oracle, "CANCELLATION_LIMIT", 0.0)
        with pytest.raises(IntegrationError, match="^case 0: oracle failed"):
            _end_to_end_oracles(self.refused())

    def test_each_grid_is_built_as_it_is_packed(self, monkeypatch):
        params = cli_draws(0, 3.0, 6)
        events = []
        outer, packed = np.outer, fock_oracle._packed
        monkeypatch.setattr(np, "outer", lambda *args: events.append("outer") or outer(*args))
        monkeypatch.setattr(fock_oracle, "_packed",
                            lambda *args: events.append("packed") or packed(*args))
        _end_to_end_oracles(params)
        assert events == ["outer", "packed"] * len(params)

    @staticmethod
    def product(a, b, truncation=20):
        return np.outer(coherent_to_fock(a, truncation), coherent_to_fock(b, truncation))

    def test_non_finite_grid_is_refused_before_it_shares_a_series(self, monkeypatch):
        # equal moduli, equal block masses: one rung
        good, other = self.product(0.5, 0.2j), self.product(0.5j, -0.2)
        bad = self.product(0.5, 0.5)
        bad[5, 5] = math.nan
        one_grid = [beamsplitter_fock(grid, 0.3) for grid in (good, other)]
        seen = spy_series(monkeypatch)
        with np.errstate(invalid="ignore"), pytest.raises(TruncationError, match="^case 1: "):
            _mixed([good, bad, other], [0.3] * 3)
        assert seen and all(np.isfinite(start).all() for start in seen)
        # the good grids share one series and keep their one-grid values
        seen.clear()
        mixed = _mixed([good, other], [0.3] * 2)
        assert len(seen) == 1
        assert all(np.array_equal(out, want) for out, want in zip(mixed, one_grid))

    def test_first_failing_case_in_input_order_raises(self):
        # case 0 fails after its series (mass at the cutoff), case 1 before
        # any series (non-finite); a loop over the cases meets case 0 first
        overflow = np.zeros((7, 7), dtype=complex)
        overflow[4, 4] = 1.0
        bad = self.product(0.5, 0.5)
        bad[0, 0] = math.inf
        with pytest.raises(TruncationError, match="^case 0: occupation mass"):
            _mixed([overflow, bad], [math.pi / 4, 0.3])
        with pytest.raises(TruncationError, match="^case 0: beamsplitter input"):
            _mixed([bad, overflow], [0.3, math.pi / 4])
