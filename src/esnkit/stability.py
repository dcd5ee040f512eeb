"""Contraction certificates and memory horizons.

Three checkable routes to a geometric contraction rate kappa < 1 (which is
what guarantees unique input-driven trajectories and fading memory):

* ``certify_lipschitz`` -- the global small-gain bound
  kappa = (1 - leak) + leak * ||W||_2 * L_sigma.
* ``certify_weighted`` -- a quadratic (weighted-norm) certificate: the rate
  kappa at which a weight P satisfies the slope-vertex matrix inequalities
  M' P M <= kappa^2 P.  Its kappa is never worse than the Lipschitz one by
  more than the slack of its test.
* spectral radius of a small-signal Jacobian (via :func:`spectral_radius`),
  a local condition composed by callers.

Why vertices suffice for the weighted test: the one-step Jacobian family is
M(D) = (1-leak) I + leak * D W with D diagonal, slopes D_ii in [0, L_sigma].
For any vector v, the quadratic form v' M(D)' P M(D) v is convex in the
entries of D (affine map composed with a squared seminorm), so its maximum
over the slope box is attained at a vertex of {0, L_sigma}^n.  Checking all
2^n vertices is therefore exact; when the budget forbids enumeration we fall
back to uniform samples of the box, seeded with the budget, which can only
ever report "Unknown" on success.  Slopes are taken in [0, L_sigma], which
is correct for the closed activation table (tanh/identity/leaky all have
nonnegative slopes).

The vertices are checked in stacks of ``_VERTEX_CHUNK`` by
:func:`_cholesky_passes`: one batched Cholesky factorization of
``tau I - G``, G = M' P M - kappa^2 P, with the slack tau of :func:`_slack`.
A pass proves lambda_max(G) <= tau up to the backward error O(n eps ||G||),
far below tau, so M' P M <= kappa^2 P + tau I, and the rate it proves is
sqrt(kappa^2 + tau / lambda_min(P)) (:func:`_widened`), not kappa.  The
stack is formed as kappa^2 P + tau I - M' P M, and the factorization reads
only its lower triangle, so M' P M is not symmetrized: its forming error,
which tau covers either way, has the same O(n eps) entrywise bound in both
triangles, and averaging the two copies does not shrink that bound.  The
test has two users.  At a fixed P = L L' it only gets easier as kappa grows
(G falls, tau grows), so the gain sweep :func:`_weighted_gain` finds the
P-norm gain max_v ||L' M_v L'^{-1}||_2 in one pass: a failing stack raises
kappa to its SVD gain and is tested again, and the stacks already passed
stay proved.  A bisection step of :func:`certify_weighted` only asks
whether a fixed kappa passes.  No P gives a rate below rho(A+) or 1 - leak,
as A+ = (1-leak) I + leak L_sigma W and (1-leak) I are vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional, Tuple, Union

import numpy as np
import scipy.linalg

from ._linalg import (SchurForm, as_float_array, real_schur, rng_from_seed,
                      solve_discrete_lyapunov, spectral_norm)
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
    return _small_gain(params.leak, params.activation.lipschitz,
                       spectral_norm(params.W), params.n)


def _small_gain(lam: float, l_sigma: float, norm: float, n: int,
                feasible: bool = True) -> Certificate:
    """The ``certify_lipschitz`` test of (1 - lam) I + lam l_sigma W, n x n,
    ||W||_2 = ``norm``, failed outright when the parameters are not ``feasible``."""
    kappa, upper = _small_gain_bound(lam, l_sigma, norm, n)
    return Certificate(CertificateMethod.LIPSCHITZ_C1, kappa,
                       Verdict.PASS if feasible and upper < 1.0 else Verdict.FAIL)


def _small_gain_bound(lam: float, l_sigma: float, norm: float, n: int):
    """(1 - lam) + lam l_sigma norm, and that plus the SVD error bound at n."""
    gain = lam * l_sigma
    kappa = (1.0 - lam) + gain * norm
    error = _SVD_ERROR * n * np.finfo(np.float64).eps * gain * norm
    return kappa, kappa + error


def spectral_radius(a) -> float:
    """max |eigenvalue| of a square matrix; raises instead of silently estimating."""
    a = as_float_array(a, "matrix", ("n", "n"))
    if a.size == 0:
        return 0.0
    try:
        eigs = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("eigensolver did not converge") from exc
    return float(np.abs(eigs).max())


def _slope_vertices(n: int, l_sigma: float, budget: int):
    """(V, n) slope diagonals to check, A+ first: exhaustive if 2^n fits the
    budget, otherwise the two extreme vertices plus ``budget`` uniform
    points of the box from the generator seeded with the budget."""
    if n <= 60 and 2 ** n <= budget:
        bits = (np.arange(2 ** n)[::-1, None] >> np.arange(n - 1, -1, -1)) & 1
        return bits * l_sigma, True
    samples = rng_from_seed(budget).random((budget, n)) * l_sigma
    return np.vstack([np.full(n, l_sigma), np.zeros(n), samples]), False


def _weighted_gain(p: np.ndarray, stacks: Iterable[np.ndarray]) -> float:
    """Verified P-norm gain max ||L' M L'^{-1}||_2 (P = L L') over the M of
    the (k, n, n) ``stacks``, raised from that of the first M as stacks fail
    their Cholesky test (inf after ``_GAIN_TRIES`` fails)."""
    chol = np.linalg.cholesky(p)
    chol_inv_t = scipy.linalg.solve_triangular(chol, np.eye(len(p)), lower=True).T
    kappa = None
    for m in stacks:
        if kappa is None:
            kappa = spectral_norm(chol.T @ m[0] @ chol_inv_t)
        for attempt in range(_GAIN_TRIES):
            if _cholesky_passes(p, kappa, m):
                break
            gains = np.linalg.norm(chol.T @ m @ chol_inv_t, 2, axis=(1, 2))
            kappa = max(kappa, float(gains.max())) * (1 + 1e-12 * 1e3 ** attempt)
        else:
            return math.inf
    return kappa


def _cholesky_passes(p: np.ndarray, kappa: float, m: np.ndarray) -> bool:
    """Whether kappa^2 P + tau I - M' P M has a Cholesky factor for every M
    of the (k, n, n) stack ``m``; the difference overwrites M' P M."""
    k2p = kappa ** 2 * p
    k2p.flat[::len(p) + 1] += _slack(p, kappa)
    gap = np.swapaxes(m, 1, 2) @ p @ m
    try:
        np.linalg.cholesky(np.subtract(k2p, gap, out=gap))
    except np.linalg.LinAlgError:
        return False
    return True


def _slack(p: np.ndarray, kappa: float) -> float:
    """The slack tau = eps_v max(1, max |kappa^2 P|) of the Cholesky test."""
    return _VERTEX_SLACK * max(kappa ** 2 * float(np.abs(p).max()), 1.0)


def _eig_bounds(p: np.ndarray) -> Tuple[float, float]:
    """Bounds 0 < lo <= lambda_min(P), hi >= lambda_max(P) of a symmetric P:
    the LAPACK values widened by the SVD error bound; LinAlgError if lo <= 0."""
    eigs = np.linalg.eigvalsh(p)
    error = _SVD_ERROR * len(p) * np.finfo(np.float64).eps * float(np.abs(eigs).max())
    if eigs[0] <= error:
        raise np.linalg.LinAlgError("weight is not provably positive definite")
    return float(eigs[0]) - error, float(eigs[-1]) + error


def _widened(p: np.ndarray, kappa: float) -> Tuple[float, float]:
    """``(c, k)`` from a P whose Cholesky test passed at kappa: c = sqrt(hi /
    lo) >= sqrt(cond P) and k = sqrt(kappa^2 + tau / lo), the P-norm rate
    that M' P M <= kappa^2 P + tau I proves, with lo, hi from
    :func:`_eig_bounds` (LinAlgError if P is not provably PD)."""
    lo, hi = _eig_bounds(p)
    return math.sqrt(hi / lo), math.sqrt(kappa ** 2 + _slack(p, kappa) / lo)


def _decay_envelope(form: SchurForm) -> Optional[Tuple[float, float]]:
    """A proven ``(c, kappa)``, kappa < 1, with ||A^j||_2 <= c kappa^j for
    every j, or None (always when rho(A) >= 1), from the real Schur ``form``
    of A.

    P solves A' P A - k0^2 P = -I at k0 = (1 + rho(A)) / 2 in the transposed
    ``form``.  kappa is the verified P-norm gain k of A, widened by the slack
    tau of its Cholesky test (A' P A <= k^2 P + tau I); c = sqrt(cond P).
    """
    a = form.a
    if not a.size:
        return 1.0, 0.5                      # no state: every A^j is empty
    k0 = 0.5 * (1.0 + form.rho)
    try:
        p = solve_discrete_lyapunov(form.transposed().scaled(k0), np.eye(len(a)) / k0 ** 2)
        c, kappa = _widened(p, _weighted_gain(p, [a[None]]))
    except np.linalg.LinAlgError:
        return None
    return (c, kappa) if kappa < 1.0 else None


def certify_weighted(params: ReservoirParams, vertex_budget: int = 4096) -> Certificate:
    """Weighted quadratic contraction certificate over the slope box.

    P first solves ``A+' P A+ - k^2 P = -I`` at k = 1 - 1e-9; P = I is
    tried too when no solve exists or the verified P-norm gain g exceeds
    the ``certify_lipschitz`` kappa plus its SVD error, and the smaller g
    is kept.  g >= 1 is a Fail at g; otherwise the Lyapunov P at kappas
    bisected over [max(1-leak, rho(A+)), g] replace it wherever they pass.
    ``kappa`` is the last passed one widened by the test's slack,
    sqrt(kappa^2 + tau / lambda_min(weight_P)) (see the module docstring),
    and a Fail if that is >= 1 or ``weight_P`` is not provably PD.  Above
    2^n > ``vertex_budget`` the vertices are sampled (``_slope_vertices``),
    which gives the same result on every call but at best Unknown.  With
    no state (n = 0) it is the ``certify_lipschitz`` kappa and verdict.

    Every solve is in the one real Schur form of A+', scaled by each k, and
    that form gives rho(A+).  The gain sweeps, which come before any
    bisection step, take the vertex stacks in their natural order, A+
    first.  A bisection step is a fixed-kappa test, which passes only if
    every stack does, so its result is the same in any order; it takes
    first the stacks that failed such a test, the most recent failure
    first, and a failing step then usually stops at its first stack.
    """
    if vertex_budget < 1:
        raise ValueError("vertex_budget must be >= 1")
    n = params.n
    if n == 0:                  # no state: the Lipschitz rate 1 - leak is exact
        return replace(certify_lipschitz(params), method=CertificateMethod.WEIGHTED_C2)
    l_sigma = params.activation.lipschitz
    a_plus = _transition(params, np.full(n, l_sigma))
    form = real_schur(a_plus.T)
    diags, exhaustive = _slope_vertices(n, l_sigma, vertex_budget)
    chunks = [diags[i:i + _VERTEX_CHUNK] for i in range(0, len(diags), _VERTEX_CHUNK)]
    order = list(range(len(chunks)))

    def weight(kappa: float) -> Optional[np.ndarray]:
        """The Lyapunov P at kappa, or None if there is no PD one."""
        try:
            p = solve_discrete_lyapunov(form.scaled(kappa), np.eye(n) / kappa ** 2)
            np.linalg.cholesky(p)
        except np.linalg.LinAlgError:
            return None
        return p

    best = weight(1.0 - 1e-9)
    hi = math.inf if best is None else _weighted_gain(
        best, (_transition(params, d) for d in chunks))
    if hi > _small_gain_bound(params.leak, l_sigma, spectral_norm(params.W), n)[1]:
        eye_gain = _weighted_gain(np.eye(n), (_transition(params, d) for d in chunks))
        if eye_gain < hi:
            best, hi = np.eye(n), eye_gain
    if hi >= 1.0:
        return Certificate(CertificateMethod.WEIGHTED_C2, hi, Verdict.FAIL)
    lo = max(1.0 - params.leak, form.rho)
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        p = weight(mid)
        if p is None:
            lo = mid
            continue
        for i in order:
            if not _cholesky_passes(p, mid, _transition(params, chunks[i])):
                order.remove(i)
                order.insert(0, i)
                lo = mid
                break
        else:
            hi, best = mid, p
    try:
        kappa = _widened(best, hi)[1]
    except np.linalg.LinAlgError:
        kappa = math.inf
    verdict = (Verdict.FAIL if kappa >= 1.0 else
               Verdict.PASS if exhaustive else Verdict.UNKNOWN)
    return Certificate(CertificateMethod.WEIGHTED_C2, kappa, verdict,
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
