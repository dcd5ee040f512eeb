"""Contraction certificates and memory horizons.

Three checkable routes to a geometric contraction rate kappa < 1 (which is
what guarantees unique input-driven trajectories and fading memory):

* ``certify_lipschitz`` -- the global small-gain bound
  kappa = (1 - leak) + leak * ||W||_2 * L_sigma.
* ``certify_weighted`` -- a quadratic (weighted-norm) certificate obtained by
  solving a discrete Lyapunov equation for a candidate weight P and then
  verifying the slope-vertex matrix inequalities.
* spectral radius of a small-signal Jacobian (via :func:`spectral_radius`),
  a local condition composed by callers.

Why vertices suffice for the weighted test: the one-step Jacobian family is
M(D) = (1-leak) I + leak * D W with D diagonal, slopes D_ii in [0, L_sigma].
For any vector v, the quadratic form v' M(D)' P M(D) v is convex in the
entries of D (affine map composed with a squared seminorm), so its maximum
over the slope box is attained at a vertex of {0, L_sigma}^n.  Checking all
2^n vertices is therefore exact; when the budget forbids enumeration we fall
back to deterministic low-discrepancy samples, which can only ever report
"Unknown" on success.  Slopes are taken in [0, L_sigma], which is correct
for the closed activation table (tanh/identity/leaky all have nonnegative
slopes).

The vertices are checked in stacks of ``_VERTEX_CHUNK``, each accepted when
one batched Cholesky factorization of ``tau I - G``, G = M' P M - kappa^2 P,
succeeds.  That proves lambda_max(G) <= tau up to the backward error
O(n eps ||G||), far below the slack tau, so it is as sound as an eigenvalue
test; a failed factorization only rejects that kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.stats import qmc

from ._linalg import solve_discrete_lyapunov, spectral_norm, symmetrize
from .core import ReservoirParams, _transition

__all__ = [
    "CertificateMethod",
    "Verdict",
    "Certificate",
    "HorizonEstimate",
    "certify_lipschitz",
    "certify_weighted",
    "spectral_radius",
    "memory_horizon",
]

# Bisection controls for the weighted certificate.
_BISECT_ITERS = 60
_BISECT_TOL = 1e-6
_VERTEX_SLACK = 1e-11
# Slope vertices per batched matrix stack.
_VERTEX_CHUNK = 128
# Multiple of n eps ||W||_2 that bounds the error of the LAPACK SVD norm
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. on the SVD).
_SVD_ERROR = 4.0


class CertificateMethod(str, Enum):
    LIPSCHITZ_C1 = "LipschitzC1"
    WEIGHTED_C2 = "WeightedC2"
    RF_SMALL_GAIN = "RfSmallGain"


class Verdict(str, Enum):
    PASS = "Pass"
    FAIL = "Fail"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Certificate:
    """Outcome of a stability test.

    ``kappa`` is the contraction factor the test established (or the bound it
    failed at), ``margin = 1 - kappa``.  ``weight_P`` is only present for the
    weighted certificate and then defines the norm in which contraction was
    verified.
    """

    method: CertificateMethod
    kappa: float
    verdict: Verdict
    weight_P: Optional[np.ndarray] = None

    @property
    def margin(self) -> float:
        return 1.0 - self.kappa

    @property
    def passed(self) -> bool:
        return self.verdict is Verdict.PASS


@dataclass(frozen=True)
class HorizonEstimate:
    """Effective memory horizon: lags beyond ``horizon`` move the state by < tolerance."""

    kappa: float
    input_gain: float
    amplitude: float
    tolerance: float
    horizon: int


def certify_lipschitz(params: ReservoirParams) -> Certificate:
    """Global small-gain certificate kappa = (1 - leak) + leak ||W|| L_sigma.

    ||W|| comes from the LAPACK SVD.  Pass requires kappa < 1 strictly even
    after adding the SVD's error bound on ||W||, so a Pass never rests on an
    undershoot; the boundary kappa = 1 fails.
    """
    return _small_gain(params.leak, params.activation.lipschitz, params.W)


def _small_gain(lam: float, l_sigma: float, w: np.ndarray,
                feasible: bool = True) -> Certificate:
    """The ``certify_lipschitz`` test of (1 - lam) I + lam l_sigma w, failed
    outright when the parameters are not ``feasible``."""
    gain = lam * l_sigma
    norm = spectral_norm(w)
    kappa = (1.0 - lam) + gain * norm
    error = _SVD_ERROR * max(w.shape) * np.finfo(np.float64).eps * gain * norm
    passed = feasible and kappa + error < 1.0
    return Certificate(CertificateMethod.LIPSCHITZ_C1, kappa,
                       Verdict.PASS if passed else Verdict.FAIL)


def spectral_radius(a) -> float:
    """max |eigenvalue| of a square matrix; raises instead of silently estimating."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if a.size == 0:
        return 0.0
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("eigensolver did not converge") from exc
    return float(np.abs(eigs).max())


def _slope_vertices(n: int, l_sigma: float, budget: int):
    """(V, n) slope diagonals to check: exhaustive if 2^n fits the budget,
    otherwise the two extreme vertices plus Halton samples of the box."""
    if n <= 60 and 2 ** n <= budget:
        bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        return bits * l_sigma, True
    samples = qmc.Halton(d=n, scramble=False).random(budget) * l_sigma
    return np.vstack([np.zeros(n), np.full(n, l_sigma), samples]), False


def _vertex_stacks(params: ReservoirParams, diags: np.ndarray):
    """Vertex matrices M = (1-leak) I + leak D W, (k, n, n) stacks of at most
    ``_VERTEX_CHUNK``."""
    for start in range(0, len(diags), _VERTEX_CHUNK):
        yield _transition(params, diags[start:start + _VERTEX_CHUNK])


def certify_weighted(params: ReservoirParams, vertex_budget: int = 4096) -> Certificate:
    """Weighted quadratic contraction certificate over the slope box.

    Candidate weights come from the Lyapunov equation
    ``A+' P A+ - kappa^2 P = -I`` at ``A+ = (1-leak) I + leak L_sigma W``,
    with kappa bisected over [max(0, 1-leak), 1].  Each candidate is accepted
    only if every slope vertex satisfies ``M' P M <= kappa^2 P`` up to a slack
    ``tau = 1e-11 max(|kappa^2 P|, 1)``, tested per stack of vertices by a
    batched Cholesky factorization of ``tau I - (M' P M - kappa^2 P)`` (see
    the module docstring for why that is sound).  Sampled (non-exhaustive)
    verification can at best report Unknown.  A Fail reports the largest
    vertex gain in the norm of the P solved at kappa = 1 - 1e-9, or in the
    Euclidean norm when that solve does not exist.
    """
    if vertex_budget < 1:
        raise ValueError("vertex_budget must be >= 1")
    n = params.n
    lam = params.leak
    l_sigma = params.activation.lipschitz
    a_plus = _transition(params, np.full(n, l_sigma))
    rho_plus = spectral_radius(a_plus)
    diags, exhaustive = _slope_vertices(n, l_sigma, vertex_budget)

    def try_kappa(kappa: float):
        """``(P, passed)``: the candidate P at kappa (None when no Lyapunov
        solve exists) and whether every vertex accepted it."""
        # Lyapunov solve is only defined past the spectral radius of A+.
        if kappa <= rho_plus or kappa <= 0.0:
            return None, False
        try:
            p = solve_discrete_lyapunov(a_plus.T / kappa, np.eye(n) / kappa ** 2)
        except np.linalg.LinAlgError:
            return None, False
        k2p = kappa ** 2 * p
        slack = _VERTEX_SLACK * max(float(np.abs(k2p).max()), 1.0)
        for m in _vertex_stacks(params, diags):
            mpm = np.swapaxes(m, 1, 2) @ p @ m
            gap = 0.5 * (mpm + np.swapaxes(mpm, 1, 2)) - k2p
            try:
                np.linalg.cholesky(slack * np.eye(n) - gap)
            except np.linalg.LinAlgError:
                return p, False
        return p, True

    lo = max(0.0, 1.0 - lam)
    hi = 1.0 - 1e-9
    best, passed = try_kappa(hi)
    if not passed:
        return _weighted_failure(params, best, diags)
    best_kappa = hi
    for _ in range(_BISECT_ITERS):
        if hi - lo <= _BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        p, passed = try_kappa(mid)
        if passed:
            hi, best, best_kappa = mid, p, mid
        else:
            lo = mid
    verdict = Verdict.PASS if exhaustive else Verdict.UNKNOWN
    return Certificate(CertificateMethod.WEIGHTED_C2, best_kappa, verdict,
                       weight_P=best)


def _weighted_failure(params: ReservoirParams, p: Optional[np.ndarray],
                      diags: np.ndarray) -> Certificate:
    """No kappa < 1 was certifiable: report the actual bound in the P-norm,
    or the Euclidean norm when ``p`` is None (>= 1 by construction)."""
    n = params.n
    p = np.eye(n) if p is None else p
    chol = np.linalg.cholesky(symmetrize(p) + 1e-12 * np.eye(n))
    # the P-norm gain of M is ||L' M L'^{-1}||_2 with P = L L'
    chol_inv_t = scipy.linalg.solve_triangular(chol, np.eye(n), lower=True).T
    bound = 0.0
    for m in _vertex_stacks(params, diags):
        gains = np.linalg.norm(chol.T @ m @ chol_inv_t, 2, axis=(1, 2))
        bound = max(bound, float(gains.max()))
    return Certificate(CertificateMethod.WEIGHTED_C2, max(bound, 1.0),
                       Verdict.FAIL)


def memory_horizon(kappa: float, input_gain: float, amplitude: float,
                   tolerance: float) -> HorizonEstimate:
    """Smallest lag H with input_gain * amplitude * kappa^H <= tolerance.

    Raises if kappa >= 1 (no fading-memory certificate, the horizon is
    undefined).
    """
    if not (0.0 < kappa < 1.0):
        raise ValueError(
            f"no fading-memory certificate: kappa must be in (0, 1), got {kappa}")
    if input_gain <= 0.0 or amplitude <= 0.0 or tolerance <= 0.0:
        raise ValueError("input_gain, amplitude, and tolerance must be positive")
    ratio = input_gain * amplitude / tolerance
    if ratio <= 1.0:
        horizon = 0
    else:
        horizon = int(math.ceil(math.log(ratio) / (-math.log(kappa))))
    return HorizonEstimate(kappa=kappa, input_gain=input_gain,
                           amplitude=amplitude, tolerance=tolerance,
                           horizon=horizon)

