"""Tests for the squeezed-vacuum benchmark model."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from catruler.squeezed_baseline import SqueezedBaselineParams, equal_power_params, snr_squeezed


def output_moments(p: SqueezedBaselineParams, theta: float) -> tuple[float, float]:
    """Mean and variance of the output model X_out = X_a theta/2 + X_b at a
    fixed theta, X_a ~ N(2 beta, 1) and X_b ~ N(0, v_b_minus), on a product
    of Gauss-Hermite rules (exact for these quadratics)."""
    nodes, weights = hermgauss(4)
    x_a = 2.0 * p.beta + math.sqrt(2.0) * nodes
    x_b = math.sqrt(2.0 * p.v_b_minus) * nodes
    x_out = np.add.outer(x_a * (theta / 2.0), x_b)
    weight = np.outer(weights, weights) / math.pi
    mean = float(np.sum(weight * x_out))
    return mean, float(np.sum(weight * (x_out - mean) ** 2))


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


class TestSnrSqueezed:
    def test_unsqueezed_vacuum_baseline(self):
        p = SqueezedBaselineParams(beta=0.0, v_b_minus=1.0, v_theta=1e-4)
        assert snr_squeezed(p) == pytest.approx(1e-4 / 4, rel=1e-12)

    def test_direct_substitution(self):
        p = SqueezedBaselineParams(beta=10.0, v_b_minus=0.01, v_theta=1e-4)
        assert snr_squeezed(p) == pytest.approx(0.2525, rel=1e-12)

    @pytest.mark.parametrize("beta,v_b,v_theta", [
        (0.0, 1.0, 1e-4), (0.3, 0.2, 2e-3), (1.0, 0.5, 1e-4), (10.0, 0.01, 1e-4), (40.0, 1e-3, 1e-8),
    ])
    def test_exact_moments_of_the_output_model(self, beta, v_b, v_theta):
        # the carrier from the model's mean response per unit theta and its
        # noise at theta = 0, plus the closed form's vacuum term
        p = SqueezedBaselineParams(beta=beta, v_b_minus=v_b, v_theta=v_theta)
        theta = 0.1
        beta_hat = output_moments(p, theta)[0] / theta
        _, v_b_hat = output_moments(p, 0.0)
        carrier = beta_hat**2 * v_theta / (4.0 * v_b_hat)
        assert snr_squeezed(p) == pytest.approx(carrier + v_theta / (4.0 * v_b), rel=1e-12)
        # the model's own theta-driven power, E[(X_a theta/2)^2] over
        # theta ~ N(0, v_theta), puts 1/4 where the closed form puts 1
        mean_at_one, var_at_one = output_moments(p, 1.0)
        driven = (mean_at_one**2 + var_at_one - v_b_hat) * v_theta
        assert driven == pytest.approx((4.0 * beta**2 + 1.0) * v_theta / 4.0, rel=1e-12)


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
