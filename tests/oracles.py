"""Independent reference computations used by tests and the acceptance suite.

These deliberately avoid the library's own recursions: the smoother oracle
assembles the full joint Gaussian over (x_0..x_T, y_1..y_T) and conditions by
Schur complement, so any agreement with the filter/smoother is a genuine
cross-check, not a tautology.
"""

import numpy as np


def joint_gaussian_posterior(a, b, c, q, r, mu0, p0, inputs, outputs):
    """Exact posterior of the state path by dense joint-Gaussian conditioning.

    Returns ``(means, cov)`` where ``means`` is (T+1, n) and ``cov`` the full
    (T+1)n x (T+1)n posterior covariance of the stacked states.
    """
    horizon = len(inputs)
    n = a.shape[0]
    p = c.shape[0]
    dim = n * (horizon + 1) + p * horizon    # [x0, w_0..w_{T-1}, v_1..v_T]
    noise_off = n * (horizon + 1)

    state_rows = np.zeros((n * (horizon + 1), dim))
    state_offsets = np.zeros(n * (horizon + 1))
    state_rows[:n, :n] = np.eye(n)
    for t in range(horizon):
        prev = state_rows[t * n:(t + 1) * n]
        row = a @ prev
        row[:, n * (t + 1): n * (t + 2)] += np.eye(n)
        state_rows[(t + 1) * n:(t + 2) * n] = row
        state_offsets[(t + 1) * n:(t + 2) * n] = (
            a @ state_offsets[t * n:(t + 1) * n] + b @ inputs[t])

    out_rows = np.zeros((p * horizon, dim))
    out_offsets = np.zeros(p * horizon)
    for t in range(horizon):
        out_rows[t * p:(t + 1) * p] = c @ state_rows[(t + 1) * n:(t + 2) * n]
        out_rows[t * p:(t + 1) * p,
                 noise_off + t * p: noise_off + (t + 1) * p] += np.eye(p)
        out_offsets[t * p:(t + 1) * p] = c @ state_offsets[(t + 1) * n:(t + 2) * n]

    cov_e = np.zeros((dim, dim))
    cov_e[:n, :n] = p0
    for t in range(horizon):
        cov_e[n * (t + 1): n * (t + 2), n * (t + 1): n * (t + 2)] = q
        cov_e[noise_off + t * p: noise_off + (t + 1) * p,
              noise_off + t * p: noise_off + (t + 1) * p] = r
    mean_e = np.zeros(dim)
    mean_e[:n] = mu0

    mean_x = state_rows @ mean_e + state_offsets
    mean_y = out_rows @ mean_e + out_offsets
    cov_xx = state_rows @ cov_e @ state_rows.T
    cov_xy = state_rows @ cov_e @ out_rows.T
    cov_yy = out_rows @ cov_e @ out_rows.T

    residual = np.asarray(outputs).ravel() - mean_y
    gain = np.linalg.solve(cov_yy, cov_xy.T).T
    post_mean = mean_x + gain @ residual
    post_cov = cov_xx - gain @ cov_xy.T
    return post_mean.reshape(horizon + 1, n), post_cov


def posterior_blocks(post_cov, n, t, s):
    """Extract Cov(x_t, x_s) from the stacked posterior covariance."""
    return post_cov[t * n:(t + 1) * n, s * n:(s + 1) * n]


def random_stable_system(n, m, p, seed, rho=0.8):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a *= rho / np.abs(np.linalg.eigvals(a)).max()
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    return a, b, c


def kronecker_lyapunov(a, s):
    """Solution of ``X = A X A' + S`` from the vectorized form
    ``(I - A kron A) vec(X) = vec(S)``; O(n^6), so keep n small."""
    n = a.shape[0]
    vec = np.linalg.solve(np.eye(n * n) - np.kron(a, a), s.flatten(order="F"))
    return vec.reshape((n, n), order="F")


def vertex_margin_min(w, leak, l_sigma, p, kappa):
    """Smallest eigenvalue of ``kappa^2 P - M' P M`` over every slope vertex
    ``M = (1-leak) I + leak D W``, ``D`` in {0, l_sigma}^n, one vertex at a
    time (brute force)."""
    n = w.shape[0]
    worst = np.inf
    for bits in range(2 ** n):
        d = l_sigma * np.array([(bits >> i) & 1 for i in range(n)], dtype=float)
        m = (1.0 - leak) * np.eye(n) + leak * d[:, None] * w
        margin = kappa ** 2 * p - m.T @ p @ m
        worst = min(worst, float(np.linalg.eigvalsh(0.5 * (margin + margin.T)).min()))
    return worst


def monte_carlo_prediction(a, b, c, q, r, mu, p, inputs, samples, seed):
    """Sample mean and covariance of y_{t+h} from ``samples`` independent
    rollouts of x+ = A x + B u + w, y = C x + v started at x_t ~ N(mu, P),
    with w ~ N(0, Q) and v ~ N(0, R)."""
    rng = np.random.default_rng(seed)
    n, p_dim = a.shape[0], c.shape[0]
    x = rng.multivariate_normal(mu, p, samples)
    for u in inputs:
        x = x @ a.T + b @ u + rng.multivariate_normal(np.zeros(n), q, samples)
    y = x @ c.T + rng.multivariate_normal(np.zeros(p_dim), r, samples)
    return y.mean(axis=0), np.cov(y.T)
