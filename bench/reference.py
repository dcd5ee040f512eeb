"""Reference computations for the benchmark's correctness checks.

Each function here is written from the mathematical definition with plain
numpy, without calling esnkit, so that agreement with esnkit's result is a
cross-check and not the same code run twice.
"""

from __future__ import annotations

import math

import numpy as np

_ACTIVATIONS = {
    "tanh": np.tanh,
    "identity": lambda z: z,
}


def leaky_map(kind, negative_slope=1.0):
    """The activation sigma of the leaky map as a numpy function."""
    if kind == "leaky_slope":
        return lambda z: np.where(z >= 0.0, z, negative_slope * z)
    return _ACTIVATIONS[kind]


def leaky_rollout(w, u_mat, b, leak, sigma, x0s, inputs):
    """States of ``x+ = (1-leak) x + leak sigma(W x + U u + b)`` for a batch.

    ``x0s`` is (B, n) and ``inputs`` (B, T, m); returns (B, T+1, n).  The
    batch is advanced together, one time step per loop iteration.
    """
    batch, horizon, _ = inputs.shape
    states = np.empty((batch, horizon + 1, x0s.shape[1]))
    states[:, 0] = x0s
    x = x0s
    for t in range(horizon):
        x = (1.0 - leak) * x + leak * sigma(x @ w.T + inputs[:, t] @ u_mat.T + b)
        states[:, t + 1] = x
    return states


def lipschitz_kappa(w, leak, l_sigma):
    """Small-gain factor with ||W||_2 from the LAPACK SVD, and the size of
    that SVD's own error (n * eps * ||W||_2, scaled like the factor)."""
    norm = float(np.linalg.norm(w, 2))
    kappa = (1.0 - leak) + leak * norm * l_sigma
    err = w.shape[0] * np.finfo(np.float64).eps * leak * l_sigma * norm
    return kappa, err


def vertex_gap_max(w, leak, l_sigma, p, kappa):
    """Largest eigenvalue of ``M' P M - kappa^2 P`` over every slope vertex
    ``M = (1-leak) I + leak D W`` with ``D`` in {0, l_sigma}^n (brute force)."""
    n = w.shape[0]
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1
    d = bits * l_sigma                                        # (2^n, n)
    m = (1.0 - leak) * np.eye(n) + leak * d[:, :, None] * w[None]
    gap = np.swapaxes(m, 1, 2) @ p @ m - kappa ** 2 * p
    gap = 0.5 * (gap + np.swapaxes(gap, 1, 2))
    return float(np.linalg.eigvalsh(gap).max())


def lyapunov_residual(a, s, x):
    """Relative residual ``||A X A' + S - X||_F / ||X||_F``."""
    return float(np.linalg.norm(a @ x @ a.T + s - x) / np.linalg.norm(x))


def grid_gain_max(a, b, c, grid_points):
    """max over a uniform grid on [0, pi] of sigma_max(C (I - A/z)^-1 B),
    z = e^{j omega}, from one batched dense solve."""
    n = a.shape[0]
    z = np.exp(1j * np.linspace(0.0, np.pi, grid_points))
    mats = np.eye(n)[None] - a[None] / z[:, None, None]
    sol = np.linalg.solve(mats, np.broadcast_to(b.astype(complex),
                                                (grid_points,) + b.shape))
    h = c @ sol
    return float(np.linalg.svd(h, compute_uv=False)[:, 0].max())


def impulse_blocks(a, b, c, count):
    """h_k = C A^k B for k = 0..count-1."""
    out = np.empty((count, c.shape[0], b.shape[1]))
    x = b.copy()
    for k in range(count):
        out[k] = c @ x
        x = a @ x
    return out


def gaussian_conditioning(a, b, c, q, r, mu0, p0, inputs, outputs):
    """Posterior means E[x_t | y_1..y_T] for t = 0..T and log p(y_1..y_T) of
    the linear-Gaussian model ``x+ = A x + B u + w``, ``y = C x + v``.

    All states are written as an affine map of the stacked independent
    Gaussians (x_0, w_0..w_{T-1}); the posterior is then one dense
    conditioning of the joint Gaussian of states and outputs.
    """
    horizon, n, p = inputs.shape[0], a.shape[0], c.shape[0]
    dim = n * (horizon + 1)
    lift = np.zeros((dim, dim))                 # states = lift @ e + offset
    offset = np.zeros((horizon + 1, n))
    lift[:n, :n] = np.eye(n)
    offset[0] = mu0
    for t in range(horizon):
        rows = slice((t + 1) * n, (t + 2) * n)
        lift[rows] = a @ lift[t * n:(t + 1) * n]
        lift[rows, rows] += np.eye(n)
        offset[t + 1] = a @ offset[t] + b @ inputs[t]
    cov_e = np.zeros((dim, dim))
    cov_e[:n, :n] = p0
    for t in range(horizon):
        rows = slice((t + 1) * n, (t + 2) * n)
        cov_e[rows, rows] = q
    cov_x = lift @ cov_e @ lift.T
    observe = np.kron(np.eye(horizon), c)       # (T p, T n) on x_1..x_T
    cov_xy = cov_x[:, n:] @ observe.T
    cov_yy = observe @ cov_x[n:, n:] @ observe.T + np.kron(np.eye(horizon), r)
    resid = outputs.ravel() - (offset[1:] @ c.T).ravel()
    chol = np.linalg.cholesky(cov_yy)
    white = np.linalg.solve(chol, resid)
    means = offset.ravel() + cov_xy @ np.linalg.solve(chol.T, white)
    loglik = -0.5 * (horizon * p * math.log(2.0 * math.pi)
                     + 2.0 * float(np.log(np.diag(chol)).sum())
                     + float(white @ white))
    return means.reshape(horizon + 1, n), loglik
