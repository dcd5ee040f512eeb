"""Independent reference computations used by tests and the acceptance suite.

These deliberately avoid the library's own recursions: the smoother oracle
assembles the full joint Gaussian over (x_0..x_T, y_1..y_T) and conditions by
Schur complement, so any agreement with the filter/smoother is a genuine
cross-check, not a tautology.
"""

from fractions import Fraction

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


def m_step_reference(post, inputs, outputs, c):
    """Unstructured EM M-step (Shumway & Stoffer 1982) from the full arrays
    of a :func:`kalman_rts_reference` posterior, accumulated step by step.

    Returns (A, B, Q, R).  [A B] solves the expected normal equations in
    z_t = [x_t; u_t], so at that optimum Q is ``(S_11 - [A B] S_z1) / T``.
    """
    mu, covs, cross = post["smoothed_means"], post["smoothed_covs"], post["cross_covs"]
    horizon, n = len(inputs), mu.shape[1]
    dim, p = n + inputs.shape[1], c.shape[0]
    gram, rhs = np.zeros((dim, dim)), np.zeros((n, dim))
    s_11, r_sum = np.zeros((n, n)), np.zeros((p, p))
    for t in range(horizon):
        z = np.concatenate([mu[t], inputs[t]])
        gram += np.outer(z, z)
        gram[:n, :n] += covs[t]
        rhs += np.outer(mu[t + 1], z)
        rhs[:, :n] += cross[t].T
        s_11 += covs[t + 1] + np.outer(mu[t + 1], mu[t + 1])
        err = outputs[t] - c @ mu[t + 1]
        r_sum += np.outer(err, err) + c @ covs[t + 1] @ c.T
    coeffs = np.linalg.solve(gram, rhs.T).T
    q = (s_11 - coeffs @ rhs.T) / horizon
    return coeffs[:, :n], coeffs[:, n:], 0.5 * (q + q.T), r_sum / horizon


def kronecker_lyapunov(a, s):
    """Solution of ``X = A X A' + S`` from the vectorized form
    ``(I - A kron A) vec(X) = vec(S)``; O(n^6), so keep n small."""
    n = a.shape[0]
    vec = np.linalg.solve(np.eye(n * n) - np.kron(a, a), s.flatten(order="F"))
    return vec.reshape((n, n), order="F")


def transfer_dense(a, b, c, d, zs):
    """H(z) = C (I - A/z)^{-1} B + D for every z of ``zs``, shape
    (len(zs), p, m), one dense LU solve per point."""
    eye = np.eye(a.shape[0])
    return np.array([c @ np.linalg.solve(eye - a / z, b) + d for z in zs])


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


def psd_exact(m) -> bool:
    """Whether x' m x >= 0 for every x, decided exactly: the entries (doubles
    or ``Fraction``s) become rationals, the symmetric part is eliminated by
    symmetric Gaussian elimination, and it is PSD iff no pivot is negative
    and every zero pivot has a zero row."""
    a = [[Fraction(v) for v in row] for row in m]
    a = [[(a[i][j] + a[j][i]) / 2 for j in range(len(a))] for i in range(len(a))]
    for k, row in enumerate(a):
        if row[k] < 0 or row[k] == 0 and any(row[k + 1:]):
            return False
        for below in a[k + 1:] if row[k] else ():
            factor = below[k] / row[k]
            for j in range(k + 1, len(a)):
                below[j] -= factor * row[j]
    return True


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


def kalman_rts_reference(a, b, c, q, r, mu0, p0, inputs, outputs):
    """Textbook Kalman filter and RTS smoother, one step at a time and never
    frozen: covariance update ``P - K S K'``, gains from plain solves and the
    log-likelihood from ``slogdet``.

    Returns a dict with the filtered, predicted and smoothed means and
    covariances (indexed as in ``SmoothedPosterior``), the cross-covariances
    ``Cov(x_t, x_{t+1} | y_{1:T})`` and the log-likelihood.
    """
    f_means, f_covs = [np.asarray(mu0)], [np.asarray(p0)]
    p_means, p_covs = [], []
    loglik = 0.0
    for u, y in zip(inputs, outputs):
        m_pred = a @ f_means[-1] + b @ u
        c_pred = a @ f_covs[-1] @ a.T + q
        s = c @ c_pred @ c.T + r
        k = np.linalg.solve(s, c @ c_pred).T
        e = y - c @ m_pred
        p_means.append(m_pred)
        p_covs.append(c_pred)
        f_means.append(m_pred + k @ e)
        f_covs.append(c_pred - k @ s @ k.T)
        loglik -= 0.5 * (len(y) * np.log(2.0 * np.pi)
                         + np.linalg.slogdet(s)[1] + e @ np.linalg.solve(s, e))

    s_means, s_covs, cross = [f_means[-1]], [f_covs[-1]], []
    for t in range(len(inputs) - 1, -1, -1):
        j = np.linalg.solve(p_covs[t], a @ f_covs[t]).T
        cross.insert(0, j @ s_covs[0])
        s_means.insert(0, f_means[t] + j @ (s_means[0] - p_means[t]))
        s_covs.insert(0, f_covs[t] + j @ (s_covs[0] - p_covs[t]) @ j.T)
    return dict(filtered_means=np.array(f_means), filtered_covs=np.array(f_covs),
                predicted_means=np.array(p_means),
                predicted_covs=np.array(p_covs),
                smoothed_means=np.array(s_means), smoothed_covs=np.array(s_covs),
                cross_covs=np.array(cross), loglik=loglik)


def ekf_reference(w, u_mat, b, leak, kind, negative_slope, c, d, q, r, mu0,
                  p0, inputs, outputs):
    """Textbook extended Kalman filter on ``x+ = (1-leak) x + leak
    sigma(W x + U u + b)``, ``y = C x + d``, one step at a time: sigma and its
    slope written out for ``kind`` ("tanh" or "leaky_slope"), the gain from
    ``np.linalg.inv`` of the innovation covariance, the update ``P - K S K'``
    and the log-likelihood from ``slogdet``.

    Returns a dict with the filtered and predicted means and covariances
    (indexed as in ``SmoothedPosterior``), the transitions ``A_t`` (T, n, n)
    and the log-likelihood.
    """
    def sigma(z):
        if kind == "tanh":
            return np.tanh(z), 1.0 - np.tanh(z) ** 2
        return (np.where(z >= 0.0, z, negative_slope * z),
                np.where(z >= 0.0, 1.0, negative_slope))

    n = len(mu0)
    f_means, f_covs = [np.asarray(mu0)], [np.asarray(p0)]
    p_means, p_covs, transitions = [], [], []
    loglik = 0.0
    for u, y in zip(inputs, outputs):
        value, slope = sigma(w @ f_means[-1] + u_mat @ u + b)
        a = (1.0 - leak) * np.eye(n) + leak * np.diag(slope) @ w
        m_pred = (1.0 - leak) * f_means[-1] + leak * value
        c_pred = a @ f_covs[-1] @ a.T + q
        s = c @ c_pred @ c.T + r
        k = c_pred @ c.T @ np.linalg.inv(s)
        e = y - c @ m_pred - d
        transitions.append(a)
        p_means.append(m_pred)
        p_covs.append(c_pred)
        f_means.append(m_pred + k @ e)
        f_covs.append(c_pred - k @ s @ k.T)
        loglik -= 0.5 * (len(y) * np.log(2.0 * np.pi)
                         + np.linalg.slogdet(s)[1]
                         + e @ np.linalg.inv(s) @ e)
    return dict(filtered_means=np.array(f_means),
                filtered_covs=np.array(f_covs),
                predicted_means=np.array(p_means),
                predicted_covs=np.array(p_covs),
                transition_seq=np.array(transitions), loglik=loglik)


def edmd_reference(params, trajectories, dictionary, ridge):
    """EDMD fit written out row by row: each target is phi of the per-step
    ``reservoir_step`` image f(x_t, u_t), each regressor row [phi(x_t), u_t]
    is stacked within its own trajectory, and the ridge normal equations are
    solved densely.

    Returns a dict with the regressors (S, N + m), the exact targets (S, N),
    ``A_phi`` and ``B_phi``.
    """
    from esnkit import reservoir_step

    rows, targets = [], []
    for traj in trajectories:
        for x, u in zip(traj.states[:-1], traj.inputs):
            phi_x = dictionary.eval_batch(x[None])[0]
            rows.append(np.concatenate([phi_x, u]))
            image = reservoir_step(params, x, u)
            targets.append(dictionary.eval_batch(image[None])[0])
    reg, targets = np.array(rows), np.array(targets)
    coeffs = np.linalg.solve(reg.T @ reg + ridge * np.eye(reg.shape[1]),
                             reg.T @ targets)
    big_n = targets.shape[1]
    return dict(regressors=reg, targets=targets, A_phi=coeffs[:big_n].T,
                B_phi=coeffs[big_n:].T)
