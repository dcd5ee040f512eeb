"""Contraction certificates and memory horizons.

Three checkable routes to a geometric contraction rate kappa < 1 (which is
what guarantees unique input-driven trajectories and fading memory):

* ``certify_lipschitz`` -- the global small-gain bound
  kappa = (1 - leak) + leak * ||W||_2 * L_sigma.
* ``certify_weighted`` -- a quadratic (weighted-norm) certificate: the rate
  kappa at which a weight P satisfies the slope-vertex matrix inequalities
  M' P M <= kappa^2 P.  Its kappa is never worse than the Lipschitz one.
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
test.  The stack is formed as kappa^2 P + tau I - M' P M, and the
factorization reads only its lower triangle, so M' P M is not symmetrized:
its forming error, which tau covers either way, has the same O(n eps)
entrywise bound in both triangles, and averaging the two copies does not
shrink that bound.  At a fixed P = L L' the test only gets easier as kappa
grows (G falls, tau grows), so :func:`_weighted_gain` finds the P-norm gain
max_v ||L' M_v L'^{-1}||_2 in one pass: a failing stack raises kappa to its
SVD gain and is tested again, and the stacks already passed stay proved.
No P gives a rate below rho(A+) or 1 - leak, as A+ = (1-leak) I + leak
L_sigma W and (1-leak) I are vertices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Tuple, Union

import numpy as np
import scipy.linalg

from ._linalg import solve_discrete_lyapunov, spectral_norm
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
_BISECT_TOL = 1e-6
_VERTEX_SLACK = 1e-11
# Cholesky tests of one stack, each after raising kappa to its SVD gain.
_GAIN_TRIES = 4
# Slope vertices per batched matrix stack (at n = 32, 64 beat 128 per vertex).
_VERTEX_CHUNK = 64
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
    """Effective memory horizon: lags beyond ``horizon`` move the state by <
    tolerance, as constant * input_gain * amplitude * kappa^horizon <= tolerance."""

    kappa: float
    input_gain: float
    amplitude: float
    tolerance: float
    horizon: int
    constant: float


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
    kappa, upper = _small_gain_bound(lam, l_sigma, w)
    return Certificate(CertificateMethod.LIPSCHITZ_C1, kappa,
                       Verdict.PASS if feasible and upper < 1.0 else Verdict.FAIL)


def _small_gain_bound(lam: float, l_sigma: float, w: np.ndarray):
    """(1 - lam) + lam l_sigma ||w||_2, and that plus its SVD error bound."""
    gain = lam * l_sigma
    norm = spectral_norm(w)
    kappa = (1.0 - lam) + gain * norm
    error = _SVD_ERROR * max(w.shape) * np.finfo(np.float64).eps * gain * norm
    return kappa, kappa + error


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
    """(V, n) slope diagonals to check, A+ first: exhaustive if 2^n fits the
    budget, otherwise the two extreme vertices plus Halton samples of the box."""
    if n <= 60 and 2 ** n <= budget:
        bits = (np.arange(2 ** n)[::-1, None] >> np.arange(n - 1, -1, -1)) & 1
        return bits * l_sigma, True
    samples = _halton(n, budget) * l_sigma
    return np.vstack([np.full(n, l_sigma), np.zeros(n), samples]), False


@functools.lru_cache(maxsize=16)
def _halton(d: int, count: int) -> np.ndarray:
    """The first ``count`` points (count, d) of the unscrambled Halton
    sequence, read-only and cached per (d, count): column j holds the
    radical inverses of 0..count-1 in the j-th prime base b, summed digit by
    digit from the least significant one with the weights 1/b, 1/b^2, ...
    (repeated division), which gives the same bits as
    ``scipy.stats.qmc.Halton(d, scramble=False).random(count)``."""
    points = np.zeros((d, count))
    for row, base in zip(points, _first_primes(d)):
        index, weight = np.arange(count), 1.0 / base
        while index.any():
            index, digit = np.divmod(index, base)
            row += digit * weight
            weight /= base
    points.flags.writeable = False
    return points.T


def _first_primes(count: int) -> np.ndarray:
    """The first ``count`` primes, sieved up to the bound
    count (ln count + ln ln count) on the count-th prime (count >= 6)."""
    limit = 13 if count < 6 else int(
        count * (math.log(count) + math.log(math.log(count))))
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    return np.flatnonzero(sieve)[:count]


def _weighted_gain(p: np.ndarray, stacks: Iterable[np.ndarray],
                   kappa: Optional[float] = None) -> float:
    """Verified P-norm gain max ||L' M L'^{-1}||_2 (P = L L') over the M of
    the (k, n, n) ``stacks``, raised from that of the first M as stacks fail
    their Cholesky test (inf after ``_GAIN_TRIES`` fails); a given ``kappa``
    is only tested (inf on a fail)."""
    n = len(p)
    fixed = kappa is not None
    chol = np.linalg.cholesky(p)
    chol_inv_t = scipy.linalg.solve_triangular(chol, np.eye(n), lower=True).T
    for m in stacks:
        if kappa is None:
            kappa = spectral_norm(chol.T @ m[0] @ chol_inv_t)
        mpm = np.swapaxes(m, 1, 2) @ p @ m
        for attempt in range(_GAIN_TRIES):
            k2p = kappa ** 2 * p
            k2p.flat[::n + 1] += _VERTEX_SLACK * max(float(np.abs(k2p).max()), 1.0)
            try:
                np.linalg.cholesky(k2p - mpm)
                break
            except np.linalg.LinAlgError:
                if fixed:
                    return math.inf
                gains = np.linalg.norm(chol.T @ m @ chol_inv_t, 2, axis=(1, 2))
                kappa = max(kappa, float(gains.max())) * (1 + 1e-12 * 1e3 ** attempt)
        else:
            return math.inf
    return kappa


def _eig_bounds(p: np.ndarray) -> Tuple[float, float]:
    """Bounds 0 < lo <= lambda_min(P), hi >= lambda_max(P) of a symmetric P:
    the LAPACK values widened by the SVD error bound; LinAlgError if lo <= 0."""
    eigs = np.linalg.eigvalsh(p)
    error = _SVD_ERROR * len(p) * np.finfo(np.float64).eps * float(np.abs(eigs).max())
    if eigs[0] <= error:
        raise np.linalg.LinAlgError("weight is not provably positive definite")
    return float(eigs[0]) - error, float(eigs[-1]) + error


def _decay_envelope(a: np.ndarray) -> Optional[Tuple[float, float]]:
    """A proven ``(c, kappa)``, kappa < 1, with ||A^j||_2 <= c kappa^j for
    every j, or None (always when rho(A) >= 1).

    P solves A' P A - k0^2 P = -I at k0 = (1 + rho(A)) / 2.  kappa is the
    verified P-norm gain k of A, widened by the slack tau of its Cholesky
    test (A' P A <= k^2 P + tau I); c = sqrt(cond P) changes norms.
    """
    if not a.size:
        return 1.0, 0.5                      # no state: every A^j is empty
    k0 = 0.5 * (1.0 + spectral_radius(a))
    try:
        p = solve_discrete_lyapunov(a.T / k0, np.eye(len(a)) / k0 ** 2)
        gain = _weighted_gain(p, [a[None]])
        lo, hi = _eig_bounds(p)
    except np.linalg.LinAlgError:
        return None
    kappa = math.sqrt(gain ** 2 + _VERTEX_SLACK * max(gain ** 2 * hi, 1.0) / lo)
    return (math.sqrt(hi / lo), kappa) if kappa < 1.0 else None


def certify_weighted(params: ReservoirParams, vertex_budget: int = 4096) -> Certificate:
    """Weighted quadratic contraction certificate over the slope box.

    ``kappa`` is the verified P-norm gain of ``weight_P`` (see the module
    docstring).  P first solves ``A+' P A+ - k^2 P = -I`` at k = 1 - 1e-9;
    P = I is tried too when no solve exists or the gain exceeds the
    ``certify_lipschitz`` kappa plus its SVD error, and the smaller gain is
    kept, so kappa is never worse than the Lipschitz one.  kappa >= 1 is a
    Fail; otherwise the Lyapunov P at kappas bisected over
    [max(1-leak, rho(A+)), kappa] replace it wherever they pass.  Sampled
    (non-exhaustive) verification can at best report Unknown.
    """
    if vertex_budget < 1:
        raise ValueError("vertex_budget must be >= 1")
    n = params.n
    l_sigma = params.activation.lipschitz
    a_plus = _transition(params, np.full(n, l_sigma))
    diags, exhaustive = _slope_vertices(n, l_sigma, vertex_budget)
    chunks = [diags[i:i + _VERTEX_CHUNK] for i in range(0, len(diags), _VERTEX_CHUNK)]

    def lyapunov(kappa: float, test: Optional[float] = None):
        """``(P, gain or test result)`` at kappa; ``(None, inf)`` if no PD P."""
        try:
            p = solve_discrete_lyapunov(a_plus.T / kappa, np.eye(n) / kappa ** 2)
            return p, _weighted_gain(p, (_transition(params, d) for d in chunks), test)
        except np.linalg.LinAlgError:
            return None, math.inf

    best, hi = lyapunov(1.0 - 1e-9)
    if hi > _small_gain_bound(params.leak, l_sigma, params.W)[1]:
        eye_gain = _weighted_gain(np.eye(n), (_transition(params, d) for d in chunks))
        if eye_gain < hi:
            best, hi = np.eye(n), eye_gain
    if hi >= 1.0:
        return Certificate(CertificateMethod.WEIGHTED_C2, hi, Verdict.FAIL)
    lo = max(1.0 - params.leak, spectral_radius(a_plus))
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        p, gain = lyapunov(mid, mid)
        if gain <= mid:
            hi, best = gain, p
        else:
            lo = mid
    verdict = Verdict.PASS if exhaustive else Verdict.UNKNOWN
    return Certificate(CertificateMethod.WEIGHTED_C2, hi, verdict,
                       weight_P=best)


def memory_horizon(kappa: Union[float, Certificate], input_gain: float,
                   amplitude: float, tolerance: float) -> HorizonEstimate:
    """Smallest lag H with c * input_gain * amplitude * kappa^H <= tolerance.

    A float ``kappa`` is a Euclidean rate, c = 1.  A passed ``Certificate``
    gives c = 1 without ``weight_P`` and c = sqrt(cond weight_P) with it, its
    kappa being a rate in that norm.  Raises if kappa >= 1 (no fading-memory
    certificate, the horizon is undefined).
    """
    constant = 1.0
    if isinstance(kappa, Certificate):
        if not kappa.passed:
            raise ValueError(f"no fading-memory certificate: {kappa.verdict}")
        if kappa.weight_P is not None:
            lo, hi = _eig_bounds(kappa.weight_P)
            constant = math.sqrt(hi / lo)
        kappa = kappa.kappa
    if not (0.0 < kappa < 1.0):
        raise ValueError(
            f"no fading-memory certificate: kappa must be in (0, 1), got {kappa}")
    if input_gain <= 0.0 or amplitude <= 0.0 or tolerance <= 0.0:
        raise ValueError("input_gain, amplitude, and tolerance must be positive")
    ratio = constant * input_gain * amplitude / tolerance
    if ratio <= 1.0:
        horizon = 0
    else:
        horizon = int(math.ceil(math.log(ratio) / (-math.log(kappa))))
    return HorizonEstimate(kappa=kappa, input_gain=input_gain,
                           amplitude=amplitude, tolerance=tolerance,
                           horizon=horizon, constant=constant)
