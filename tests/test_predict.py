from statistics import NormalDist

import numpy as np
import pytest

from esnkit import LtiModel, NoiseModel, predictive

from oracles import monte_carlo_prediction, random_stable_system


def test_predictive_matches_monte_carlo_rollouts():
    a, b, c = random_stable_system(3, 1, 2, seed=4, rho=0.9)
    rng = np.random.default_rng(9)
    q = 0.01 * np.eye(3)
    r = 0.02 * np.eye(2)
    mu = rng.standard_normal(3)
    p = 0.05 * np.eye(3) + 0.01 * np.ones((3, 3))
    future = rng.standard_normal((6, 1))
    lti = LtiModel(A=a, B=b, C=c, D=np.zeros((2, 1)))
    dist = predictive(lti, NoiseModel(Q=q, R=r), (mu, p), future)
    samples = 200_000
    mean, cov = monte_carlo_prediction(a, b, c, q, r, mu, p, future, samples,
                                       seed=21)
    # five standard errors of the sample mean and of each sample covariance
    var = np.diag(dist.covariance)
    assert np.all(np.abs(mean - dist.mean) <= 5.0 * np.sqrt(var / samples))
    cov_se = np.sqrt((np.outer(var, var) + dist.covariance ** 2) / samples)
    assert np.all(np.abs(cov - dist.covariance) <= 5.0 * cov_se)
    assert dist.horizon == 6


def test_vector_inputs_rejected_with_their_own_shape():
    # a length-h vector for m = 1 is not read as one step of h inputs
    lti = LtiModel(A=0.5 * np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)),
                   D=np.zeros((1, 1)))
    noise = NoiseModel(Q=np.eye(2), R=np.eye(1))
    with pytest.raises(ValueError,
                       match=r"^future_inputs must be \(h, 1\), got \(5,\)$"):
        predictive(lti, noise, (np.zeros(2), np.eye(2)), np.zeros(5))


def test_scalar_forecast_closed_form():
    # Sigma_h = a^2h P + q (1 - a^2h) / (1 - a^2); the 95% half-width is the
    # 0.975 normal quantile times the output standard deviation
    a, b, c, q, r, p0, h = 0.8, 0.5, 2.0, 0.1, 0.05, 0.3, 4
    lti = LtiModel(A=[[a]], B=[[b]], C=[[c]], D=[[0.0]])
    dist = predictive(lti, NoiseModel(Q=[[q]], R=[[r]]),
                      (np.array([1.0]), np.array([[p0]])), np.ones((h, 1)))
    sigma = a ** (2 * h) * p0 + q * (1 - a ** (2 * h)) / (1 - a ** 2)
    var = c ** 2 * sigma + r
    assert dist.mean[0] == pytest.approx(
        c * (a ** h + b * (1 - a ** h) / (1 - a)), rel=1e-12)
    assert dist.state_cov.shape == (1, 1)
    assert dist.state_cov[0, 0] == pytest.approx(sigma, rel=1e-12)
    assert dist.covariance[0, 0] == pytest.approx(var, rel=1e-12)
    quantile = NormalDist().inv_cdf(0.975)
    np.testing.assert_allclose(dist.interval_half_widths(),
                               [quantile * np.sqrt(var)], rtol=1e-12)


def test_stateless_model_forecasts_the_measurement_noise():
    lti = LtiModel(A=np.zeros((0, 0)), B=np.zeros((0, 1)), C=np.zeros((2, 0)),
                   D=np.zeros((2, 1)))
    r = np.array([[0.5, 0.1], [0.1, 0.3]])
    dist = predictive(lti, NoiseModel(Q=np.zeros((0, 0)), R=r),
                      (np.zeros(0), np.zeros((0, 0))), np.ones((3, 1)))
    assert dist.horizon == 3 and dist.state_cov.shape == (0, 0)
    np.testing.assert_array_equal(dist.mean, np.zeros(2))
    np.testing.assert_array_equal(dist.covariance, r)


def test_feedthrough_rejected():
    # D u_{t+h} needs an input the call is not given
    lti = LtiModel(A=0.5 * np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)),
                   D=np.ones((1, 1)))
    noise = NoiseModel(Q=np.eye(2), R=np.eye(1))
    with pytest.raises(ValueError, match="D = 0"):
        predictive(lti, noise, (np.zeros(2), np.eye(2)), np.ones((3, 1)))


def test_needs_a_future_input():
    lti = LtiModel(A=0.5 * np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)),
                   D=np.zeros((1, 1)))
    noise = NoiseModel(Q=np.eye(2), R=np.eye(1))
    with pytest.raises(ValueError,
                       match=r"^need at least one future input \(h >= 1\)$"):
        predictive(lti, noise, (np.zeros(2), np.eye(2)), np.zeros((0, 1)))
