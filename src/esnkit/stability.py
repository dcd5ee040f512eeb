"""Contraction certificates and memory horizons.

Three checkable routes to a geometric contraction rate kappa < 1 (which is
what guarantees unique input-driven trajectories and fading memory):

* ``certify_lipschitz`` -- the global small-gain bound
  kappa >= (1 - leak) + leak * ||W||_2 * L_sigma, the SVD's error included.
* ``certify_weighted`` -- a quadratic (weighted-norm) certificate: the rate
  kappa at which a weight P satisfies the slope-vertex matrix inequalities
  M' P M <= kappa^2 P.  Its kappa is never worse than the Lipschitz one by
  more than the slack of its test.
* spectral radius of a small-signal Jacobian (via :func:`spectral_radius`),
  a local condition composed by callers.

Why vertices suffice for the weighted test (Buehner & Young, IEEE TNN 2006):
the Jacobians are M(D) = (1-leak) I + leak * D W, D diagonal with slopes in
[0, L_sigma] (every activation of the closed table has nonnegative slopes),
and v' M(D)' P M(D) v is convex in D, so its maximum over the slope box is
at a vertex of {0, L_sigma}^n.  All 2^n vertices are tested, or none: above
the budget ``certify_weighted`` returns the Lipschitz bound without weight.

The vertices are checked in stacks of ``_VERTEX_CHUNK`` by
:func:`_cholesky_passes`: one batched Cholesky factorization of the lower
triangle of kappa^2 P + tau I - M' P M, tau from :func:`_slack` (M' P M is
not symmetrized: tau covers its O(n eps) forming error, which averaging
would not shrink).  A pass proves M' P M <= kappa^2 P + tau I up to a
backward error far below tau, so the rate is sqrt(kappa^2 + tau /
lambda_min(P)) (:func:`_widened`), not kappa.  At a fixed P = L L' the test
only gets easier as kappa grows, so the gain sweep :func:`_weighted_gain`
finds the P-norm gain max_v ||L' M_v L'^{-1}||_2 in one pass: a failing
stack raises kappa to its SVD gain and is tested again.  A bisection step of
:func:`certify_weighted` only asks whether a fixed kappa passes.  No P gives
a rate below rho(A+) or 1 - leak, as A+ = (1-leak) I + leak L_sigma W and
(1-leak) I are vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

import numpy as np
import scipy.linalg

from ._linalg import (SchurForm, as_float_array, real_schur,
                      solve_discrete_lyapunov, spectral_norm)
from .core import ReservoirParams, _transition

__all__ = ["CertificateMethod", "Verdict", "Certificate", "HorizonEstimate",
           "certify_lipschitz", "certify_weighted", "spectral_radius",
           "memory_horizon"]

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
    failed at), ``margin = 1 - kappa``.  ``weight_P`` is present only when a
    weighted certificate tested the slope vertices, and then defines the
    norm in which contraction was verified.
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
    """Global small-gain certificate: kappa bounds (1 - leak) + leak ||W||
    L_sigma from above, ||W|| by the LAPACK SVD and its error bound
    (:func:`_small_gain`); the verdict uses that kappa: Pass iff kappa < 1."""
    return _small_gain(params.leak, params.activation.lipschitz,
                       spectral_norm(params.W), params.n)


def _small_gain(lam: float, l_sigma: float, norm: float, n: int,
                feasible: bool = True) -> Certificate:
    """The ``certify_lipschitz`` test of (1 - lam) I + lam l_sigma W, n x n,
    ||W||_2 = ``norm``: kappa is (1 - lam) + lam l_sigma norm (1 + 4 n eps),
    in rationals rounded up, a Pass iff ``feasible`` and kappa < 1."""
    if not math.isfinite(norm):             # an SVD that overflowed
        return Certificate(CertificateMethod.LIPSCHITZ_C1, math.inf, Verdict.FAIL)
    error = Fraction(_SVD_ERROR * n * np.finfo(np.float64).eps)     # exact
    lam = Fraction(lam)
    bound = 1 - lam + lam * Fraction(l_sigma) * Fraction(norm) * (1 + error)
    kappa = float(bound)                    # correctly rounded
    if kappa < bound:
        kappa = math.nextafter(kappa, math.inf)
    return Certificate(CertificateMethod.LIPSCHITZ_C1, kappa,
                       Verdict.PASS if feasible and kappa < 1.0 else Verdict.FAIL)


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


def _slope_vertices(n: int, l_sigma: float) -> np.ndarray:
    """The (2^n, n) slope diagonals {0, L_sigma}^n, A+ first."""
    bits = (np.arange(2 ** n)[::-1, None] >> np.arange(n - 1, -1, -1)) & 1
    return bits * l_sigma


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

    With no state (n = 0), or above 2^n > ``vertex_budget``, it is the
    ``certify_lipschitz`` kappa and verdict without weight; above the budget
    no vertex is tested and a Pass reads Unknown (the ``analyze`` benchmark
    check asks that such a call not Pass).  Otherwise P first solves
    ``A+' P A+ - k^2 P = -I`` at k = 1 - 1e-9; P = I is tried too when no
    solve exists or the verified P-norm gain g exceeds that Lipschitz kappa,
    and the smaller g is kept.  g >= 1 is a Fail at g; otherwise the Lyapunov
    P at kappas bisected over [max(1-leak, rho(A+)), g] replace it wherever
    they pass.  ``kappa`` is the last passed one widened by the test's slack,
    sqrt(kappa^2 + tau / lambda_min(weight_P)): a Pass if < 1, else a Fail,
    as is a ``weight_P`` that is not provably PD.

    Every solve is in the one real Schur form of A+', scaled by each k, and
    that form gives rho(A+).  The gain sweeps, which come first, take the
    vertex stacks in their natural order, A+ first.  A bisection step, a
    fixed-kappa test whose result is the same in any order, takes first the
    stacks that failed such a test, the latest first, so it fails fast.
    """
    if vertex_budget < 1:
        raise ValueError("vertex_budget must be >= 1")
    n = params.n
    lipschitz = replace(certify_lipschitz(params), method=CertificateMethod.WEIGHTED_C2)
    if n == 0:                  # no state: the Lipschitz rate 1 - leak is exact
        return lipschitz
    if 2 ** n > vertex_budget:
        return replace(lipschitz, verdict=Verdict.UNKNOWN) if lipschitz.passed else lipschitz
    l_sigma = params.activation.lipschitz
    a_plus = _transition(params, np.full(n, l_sigma))
    form = real_schur(a_plus.T)
    diags = _slope_vertices(n, l_sigma)
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
    if hi > lipschitz.kappa:
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
    return Certificate(CertificateMethod.WEIGHTED_C2, kappa,
                       Verdict.FAIL if kappa >= 1.0 else Verdict.PASS, weight_P=best)


def memory_horizon(kappa: Union[float, Certificate], input_gain: float,
                   amplitude: float, tolerance: float) -> HorizonEstimate:
    """Least lag H with c * input_gain * amplitude * kappa^H <= tolerance.

    A float ``kappa`` is a Euclidean rate, c = 1.  A passed ``Certificate``
    gives c = 1 without ``weight_P`` and c = sqrt(cond weight_P) with it, its
    kappa being a rate in that norm.  Raises if kappa >= 1 (no fading-memory
    certificate, the horizon is undefined).  H is exact: the search starts
    one below the float logarithms' estimate, and a lag is tested in floats,
    or in rationals within 8 eps (their rounding bound) of the tolerance.
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

    def exceeds(lag: int) -> bool:
        product = ratio * kappa ** lag
        if abs(product - 1.0) > 8.0 * np.finfo(np.float64).eps:    # its rounding bound
            return product > 1.0
        return (Fraction(constant) * Fraction(input_gain) * Fraction(amplitude)
                * Fraction(kappa) ** lag > Fraction(tolerance))

    horizon = 0 if ratio <= 1.0 else math.ceil(math.log(ratio) / -math.log(kappa)) - 1
    while exceeds(horizon):
        horizon += 1
    return HorizonEstimate(kappa=kappa, input_gain=input_gain,
                           amplitude=amplitude, tolerance=tolerance,
                           horizon=horizon, constant=constant)
