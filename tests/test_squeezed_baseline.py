"""Tests for the squeezed-vacuum benchmark model."""

import math

import pytest

from catruler.squeezed_baseline import (
    SqueezedBaselineParams,
    equal_power_params,
    homodyne_samples,
    snr_monte_carlo,
    snr_squeezed,
)

N_SAMPLES = 1_000_000


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SqueezedBaselineParams(beta=-1.0, v_b_minus=0.5)
        with pytest.raises(ValueError):
            SqueezedBaselineParams(beta=1.0, v_b_minus=0.0)
        with pytest.raises(ValueError):
            SqueezedBaselineParams(beta=1.0, v_b_minus=1.5)
        with pytest.raises(ValueError):
            SqueezedBaselineParams(beta=1.0, v_b_minus=0.5, v_theta=-1e-6)


class TestHomodyneSampling:
    def test_zero_phase_unsqueezed_is_standard_normal(self):
        p = SqueezedBaselineParams(beta=3.0, v_b_minus=1.0)
        xs = homodyne_samples(p, 0.0, N_SAMPLES, rng_seed=10)
        se_mean = 1.0 / math.sqrt(N_SAMPLES)
        assert abs(xs.mean()) < 3 * se_mean
        se_var = math.sqrt(2.0 / N_SAMPLES)
        assert abs(xs.var() - 1.0) < 3 * se_var

    def test_mean_tracks_beta_theta(self):
        p = SqueezedBaselineParams(beta=10.0, v_b_minus=0.5)
        theta = 0.01
        xs = homodyne_samples(p, theta, N_SAMPLES, rng_seed=3)
        sigma = math.sqrt(p.v_b_minus + theta**2 / 4)
        se = sigma / math.sqrt(N_SAMPLES)
        assert abs(xs.mean() - p.beta * theta) < 3 * se

    def test_variance_at_null_phase(self):
        p = SqueezedBaselineParams(beta=10.0, v_b_minus=0.04)
        xs = homodyne_samples(p, 0.0, N_SAMPLES, rng_seed=4)
        se_var = p.v_b_minus * math.sqrt(2.0 / N_SAMPLES)
        assert abs(xs.var() - p.v_b_minus) < 3 * se_var

    def test_deterministic_per_seed(self):
        p = SqueezedBaselineParams(beta=5.0, v_b_minus=0.1)
        assert homodyne_samples(p, 0.02, 1, rng_seed=7) == homodyne_samples(p, 0.02, 1, rng_seed=7)
        assert homodyne_samples(p, 0.02, 1, rng_seed=7) != homodyne_samples(p, 0.02, 1, rng_seed=8)


class TestSnrSqueezed:
    def test_unsqueezed_vacuum_baseline(self):
        p = SqueezedBaselineParams(beta=0.0, v_b_minus=1.0, v_theta=1e-4)
        assert snr_squeezed(p) == pytest.approx(1e-4 / 4, rel=1e-12)

    def test_direct_substitution(self):
        p = SqueezedBaselineParams(beta=10.0, v_b_minus=0.01, v_theta=1e-4)
        assert snr_squeezed(p) == pytest.approx(0.2525, rel=1e-12)


class TestEqualPower:
    def test_small_budget_closed_form(self):
        p = equal_power_params(2.0)
        assert p.beta == pytest.approx(1.0, abs=1e-15)
        # sinh^2 r = 1 -> r = ln(1 + sqrt 2), V = (sqrt2 - 1)^2
        assert p.v_b_minus == pytest.approx((math.sqrt(2) - 1) ** 2, abs=1e-12)

    def test_strong_squeezing_asymptote(self):
        for n_bar in (1e3, 1e5, 1e7):
            p = equal_power_params(n_bar)
            assert p.v_b_minus * 2 * n_bar == pytest.approx(1.0, rel=30 / n_bar)

    def test_heisenberg_form_at_200(self):
        p = equal_power_params(200.0, v_theta=1e-4)
        ratio = snr_squeezed(p) / (1e-4 * 200.0**2 / 4)
        assert 0.95 <= ratio <= 1.05

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            equal_power_params(0.0)
        with pytest.raises(ValueError):
            equal_power_params(-3.0)


class TestMonteCarloSnr:
    @pytest.mark.parametrize("beta,v_b", [(5.0, 0.1), (10.0, 0.01)])
    def test_matches_closed_form_within_five_percent(self, beta, v_b):
        p = SqueezedBaselineParams(beta=beta, v_b_minus=v_b, v_theta=1e-4)
        estimate = snr_monte_carlo(p, theta_probe=0.1, n_samples=N_SAMPLES, rng_seed=12)
        assert estimate == pytest.approx(snr_squeezed(p), rel=0.05)

    def test_zero_probe_rejected(self):
        p = SqueezedBaselineParams(beta=5.0, v_b_minus=0.1, v_theta=1e-4)
        with pytest.raises(ValueError):
            snr_monte_carlo(p, theta_probe=0.0)
