"""Design recipes: memory targets to pole radii, spectral scaling, generators.

The design workflow is:

    target_radius(H)  ->  r_star
    gamma_for_radius(r_star, leak, slope)  ->  gamma   (reservoir radius)
    make_normal_reservoir(..., radii <= gamma, ...)    ->  W
    input_scaling(...)                                 ->  U

With a normal W whose top pole is real at gamma, the small-signal state
matrix at the origin has spectral radius exactly (1 - leak) + leak * slope *
gamma = r_star (slope = 1 for tanh at zero preactivation).  Multi-rate
("block leak") designs are obtained by concatenating per-block reservoirs;
no dedicated type exists for them.  The spectral radius of a block-triangular
stack is the largest radius of its diagonal blocks, so ``spectral_radius`` of
each block covers the stability question.
"""

from __future__ import annotations

import logging
import math
from typing import Sequence, Tuple

import numpy as np
import scipy.linalg

from ._linalg import check_count, check_psd, rng_from_seed, spectral_norm

__all__ = ["target_radius", "gamma_for_radius",
           "make_normal_reservoir", "make_sparse_reservoir", "input_scaling"]

logger = logging.getLogger(__name__)

_GAMMA_EPS = 1e-9


def target_radius(horizon: float) -> float:
    """Pole radius exp(-1/H) whose impulse response decays by e per H steps.

    A half-life h (decay by 2 per h steps) is the horizon H = h / ln 2.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    return math.exp(-1.0 / horizon)


def gamma_for_radius(r_star: float, leak: float, slope: float,
                     l_sigma: float = 1.0) -> Tuple[float, bool]:
    """Reservoir spectral radius gamma = (r_star - (1 - leak)) / (leak * slope),
    clipped into (0, 1/L_sigma) to keep a contraction margin.

    Returns ``(gamma, clipped)``; raises when the target is unreachable at
    this leak (r_star <= 1 - leak gives gamma <= 0).  A clip is reported as
    the DEBUG event ``design.gamma_clip gamma=... bound=...`` (the unclipped
    value and the bound it was clipped to).
    """
    if not (0.0 < r_star < 1.0):
        raise ValueError("r_star must be in (0, 1)")
    if not (0.0 < leak <= 1.0):
        raise ValueError("leak must be in (0, 1]")
    if not (0.0 < slope < math.inf and 0.0 < l_sigma < math.inf):
        raise ValueError("slope and l_sigma must be positive and finite")
    if r_star <= 1.0 - leak:
        raise ValueError(
            f"target radius {r_star} unreachable at leak {leak}: the pure "
            "leak already decays slower (gamma would be <= 0)")
    gamma = (r_star - (1.0 - leak)) / (leak * slope)
    hi = 1.0 / l_sigma - _GAMMA_EPS
    if gamma >= hi:
        bound = hi
    elif gamma <= _GAMMA_EPS:
        bound = _GAMMA_EPS
    else:
        return gamma, False
    logger.debug("design.gamma_clip gamma=%.17g bound=%.17g", gamma, bound)
    return bound, True


def _orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded random orthogonal matrix: QR of a Gaussian with the sign fixed
    so the factor is unique."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def make_normal_reservoir(n: int, radii: Sequence[float],
                          angles: Sequence[float], seed: int = 0) -> np.ndarray:
    """Normal reservoir matrix with the prescribed complex spectrum.

    Each (radius, angle) pair places eigenvalues radius * e^{+-j angle}:
    angle 0 or pi is a real pole (one dimension), anything else a conjugate
    pair realized as a real 2x2 rotation-scaling block (two dimensions).  The
    block-diagonal core is conjugated by a seeded random orthogonal matrix,
    which preserves both the spectrum and normality.
    """
    check_count(n, "n", 0)
    radii = list(radii)
    angles = list(angles)
    if len(radii) != len(angles):
        raise ValueError("radii and angles must have equal length")
    blocks = []
    for r, theta in zip(radii, angles):
        if not (0.0 < r < 1.0):
            raise ValueError(f"pole radius must be in (0, 1), got {r}")
        if not math.isfinite(theta):
            raise ValueError(f"pole angle must be finite, got {theta}")
        theta = float(theta) % (2.0 * math.pi)
        if theta in (0.0, math.pi):
            blocks.append(np.array([[r if theta == 0.0 else -r]]))
        else:
            c, s = r * math.cos(theta), r * math.sin(theta)
            blocks.append(np.array([[c, -s], [s, c]]))
    # the leading (0, 0) block keeps an empty pole list at shape (0, 0)
    core = scipy.linalg.block_diag(np.zeros((0, 0)), *blocks)
    if core.shape[0] != n:
        raise ValueError(
            f"pole list consumes {core.shape[0]} dimensions but n = {n}; real "
            "poles take one dimension, conjugate pairs two")
    q = _orthogonal(n, rng_from_seed(seed))
    return q.T @ core @ q


def make_sparse_reservoir(n: int, nnz_per_row: int, target_norm: float,
                          l_sigma: float = 1.0, seed: int = 0) -> np.ndarray:
    """Sparse Gaussian reservoir rescaled so ||W||_2 = target_norm / l_sigma.

    With target_norm in (0, 1) the result always passes the global Lipschitz
    certificate, for any leak: kappa = (1 - leak) + leak * target_norm < 1.
    Storage is dense; sparsity is a generation-time pattern only.
    """
    check_count(n, "n", 0)
    check_count(nnz_per_row, "nnz_per_row", 1)
    if nnz_per_row > n:
        raise ValueError("nnz_per_row must be in 1..n")
    if not (0.0 < target_norm < 1.0):
        raise ValueError("target_norm must be in (0, 1)")
    if not 0.0 < l_sigma < math.inf:
        raise ValueError("l_sigma must be positive and finite")
    rng = rng_from_seed(seed)
    w = np.zeros((n, n))
    for i in range(n):
        cols = rng.choice(n, size=nnz_per_row, replace=False)
        w[i, cols] = rng.standard_normal(nnz_per_row)
    return w * (target_norm / l_sigma / spectral_norm(w))


def input_scaling(target_preact_var: float, input_cov, n: int,
                  seed: int = 0) -> np.ndarray:
    """Seeded Gaussian input matrix with per-row preactivation variance
    ``row' Cov(u) row = target_preact_var``.

    ``input_cov`` may be PSD-singular; a target of 0 returns the zero matrix.
    """
    if not 0.0 <= target_preact_var < math.inf:
        raise ValueError("target_preact_var must be finite and >= 0")
    check_count(n, "n", 0)
    cov = check_psd(input_cov, "input_cov")
    m = cov.shape[0]
    if target_preact_var == 0.0:
        return np.zeros((n, m))
    rng = rng_from_seed(seed)
    rows = rng.standard_normal((n, m))
    for i in range(n):
        var = float(rows[i] @ cov @ rows[i])
        if var <= 0.0:
            raise ValueError(
                "input covariance is zero along a sampled row; cannot reach "
                "a positive preactivation variance")
        rows[i] *= math.sqrt(target_preact_var / var)
    return rows
