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

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._linalg import as_float_array, check_psd, rng_from_seed, spectral_norm

__all__ = ["DesignSpec", "target_radius", "gamma_for_radius",
           "make_normal_reservoir", "make_sparse_reservoir", "input_scaling"]

_GAMMA_EPS = 1e-9


@dataclass(frozen=True)
class DesignSpec:
    """Inputs for a full reservoir design.

    Exactly one of ``horizon`` / ``half_life`` sets the memory target.
    ``slope`` is the operating activation slope the caller wants to design
    for (default 1, the tanh slope at zero preactivation); ``radii_range``
    optionally tiles the non-dominant pole radii log-uniformly.
    """

    n: int
    m: int
    leak: float
    horizon: Optional[float] = None
    half_life: Optional[float] = None
    slope: float = 1.0
    pole_angles: Optional[Tuple[float, ...]] = None
    radii_range: Optional[Tuple[float, float]] = None
    target_preact_var: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if not (0.0 < self.leak <= 1.0):
            raise ValueError("leak must be in (0, 1]")
        if not self.slope > 0.0:
            raise ValueError("slope must be positive")
        if self.radii_range is not None:
            lo, hi = self.radii_range
            if not (0.0 < lo <= hi < 1.0):
                raise ValueError("radii_range must satisfy 0 < lo <= hi < 1")


def target_radius(horizon: Optional[float] = None,
                  half_life: Optional[float] = None) -> float:
    """Pole radius hitting a memory target: exp(-1/H) or 2^(-1/H_half).

    Exactly one of the two arguments must be given.
    """
    if (horizon is None) == (half_life is None):
        raise ValueError("give exactly one of horizon or half_life")
    if horizon is not None:
        if horizon <= 0.0:
            raise ValueError("horizon must be positive")
        return math.exp(-1.0 / horizon)
    if half_life <= 0.0:
        raise ValueError("half_life must be positive")
    return 2.0 ** (-1.0 / half_life)


def gamma_for_radius(r_star: float, leak: float, slope: float,
                     l_sigma: float = 1.0) -> Tuple[float, bool]:
    """Reservoir spectral radius gamma = (r_star - (1 - leak)) / (leak * slope),
    clipped into (0, 1/L_sigma) to keep a contraction margin.

    Returns ``(gamma, clipped)``; raises when the target is unreachable at
    this leak (r_star <= 1 - leak gives gamma <= 0).
    """
    if not (0.0 < r_star < 1.0):
        raise ValueError("r_star must be in (0, 1)")
    if not (0.0 < leak <= 1.0):
        raise ValueError("leak must be in (0, 1]")
    if slope <= 0.0 or l_sigma <= 0.0:
        raise ValueError("slope and l_sigma must be positive")
    if r_star <= 1.0 - leak:
        raise ValueError(
            f"target radius {r_star} unreachable at leak {leak}: the pure "
            "leak already decays slower (gamma would be <= 0)")
    gamma = (r_star - (1.0 - leak)) / (leak * slope)
    hi = 1.0 / l_sigma - _GAMMA_EPS
    clipped = False
    if gamma >= hi:
        gamma = hi
        clipped = True
    elif gamma <= _GAMMA_EPS:
        gamma = _GAMMA_EPS
        clipped = True
    return gamma, clipped


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
    radii = list(radii)
    angles = list(angles)
    if len(radii) != len(angles):
        raise ValueError("radii and angles must have equal length")
    blocks = []
    used = 0
    for r, theta in zip(radii, angles):
        if not (0.0 < r < 1.0):
            raise ValueError(f"pole radius must be in (0, 1), got {r}")
        theta = float(theta) % (2.0 * math.pi)
        if theta in (0.0, math.pi):
            blocks.append(np.array([[r if theta == 0.0 else -r]]))
            used += 1
        else:
            c, s = r * math.cos(theta), r * math.sin(theta)
            blocks.append(np.array([[c, -s], [s, c]]))
            used += 2
    if used != n:
        raise ValueError(
            f"pole list consumes {used} dimensions but n = {n}; real poles "
            "take one dimension, conjugate pairs two")
    core = np.zeros((n, n))
    pos = 0
    for blk in blocks:
        k = blk.shape[0]
        core[pos:pos + k, pos:pos + k] = blk
        pos += k
    q = _orthogonal(n, rng_from_seed(seed))
    return q.T @ core @ q


def make_sparse_reservoir(n: int, nnz_per_row: int, target_norm: float,
                          l_sigma: float = 1.0, seed: int = 0) -> np.ndarray:
    """Sparse Gaussian reservoir rescaled so ||W||_2 = target_norm / l_sigma.

    With target_norm in (0, 1) the result always passes the global Lipschitz
    certificate, for any leak: kappa = (1 - leak) + leak * target_norm < 1.
    Storage is dense; sparsity is a generation-time pattern only.
    """
    if not (1 <= nnz_per_row <= n):
        raise ValueError("nnz_per_row must be in 1..n")
    if not (0.0 < target_norm < 1.0):
        raise ValueError("target_norm must be in (0, 1)")
    if l_sigma <= 0.0:
        raise ValueError("l_sigma must be positive")
    rng = rng_from_seed(seed)
    w = np.zeros((n, n))
    for i in range(n):
        cols = rng.choice(n, size=nnz_per_row, replace=False)
        w[i, cols] = rng.standard_normal(nnz_per_row)
    norm = spectral_norm(w)
    if norm == 0.0:
        # all-zero draw is astronomically unlikely but keep the contract exact
        w[0, 0] = 1.0
        norm = 1.0
    return w * (target_norm / l_sigma / norm)


def input_scaling(target_preact_var: float, input_cov, n: int,
                  seed: int = 0) -> np.ndarray:
    """Seeded Gaussian input matrix with per-row preactivation variance
    ``row' Cov(u) row = target_preact_var``.

    ``input_cov`` may be PSD-singular; a target of 0 returns the zero matrix.
    """
    if target_preact_var < 0.0:
        raise ValueError("target_preact_var must be >= 0")
    cov = check_psd(np.asarray(input_cov, dtype=np.float64), "input_cov")
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
