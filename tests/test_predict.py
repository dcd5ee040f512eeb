import numpy as np

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
