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

One call builds the 2^n vertex matrices M once, a (2^n, n, n) array of
8 n^2 2^n bytes (0.78 MiB at n = 10), and reads it in views of
``_VERTEX_CHUNK``.  :func:`_failing` tests a stack with one batched Cholesky
factorization of the lower triangle of S - M' P M; only a stack that fails
is factored vertex by vertex, to find the M that fail.  A pass at
S = kappa^2 P + tau I (:func:`_shifted`, tau from :func:`_slack`; M' P M is
not symmetrized, and tau covers its O(n eps) forming error, which averaging
would not shrink) proves M' P M <= kappa^2 P + tau I up to a backward error
far below tau, so the P-norm rate it proves is sqrt(kappa^2 + tau / lo),
lo <= lambda_min(P) (:func:`_rate`).  At a fixed P = L L' the test only
gets easier as kappa grows, so the gain sweep :func:`_weighted_gain` finds
the P-norm gain max_v ||L' M_v L'^{-1}||_2 in one pass: a failing stack
raises kappa to the largest SVD gain of its failing vertices and is tested
again.  A bisection step of :func:`certify_weighted` tests a rate r itself,
at S = (r^2 - tau / lo) P + tau I, so a pass proves M' P M <= r^2 P.  No P
gives a rate below rho(A+) or 1 - leak, as A+ = (1-leak) I + leak L_sigma W
and (1-leak) I are vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf

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
# Slope vertices per batched matrix stack: at n = 10 and 12, 32 and 64 tie
# per certificate, and 128, 256 and 1024 take longer.
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


def _weighted_gain(p: np.ndarray, stacks: Sequence[np.ndarray]) -> float:
    """Verified P-norm gain max ||L' M L'^{-1}||_2 (P = L L') over the M of
    the (k, n, n) ``stacks``, raised from that of the first M to the largest
    SVD gain of the vertices that fail a stack's Cholesky test (inf after
    ``_GAIN_TRIES`` fails of one stack)."""
    chol = np.linalg.cholesky(p)
    chol_inv_t = scipy.linalg.solve_triangular(chol, np.eye(len(p)), lower=True).T
    kappa = spectral_norm(chol.T @ stacks[0][0] @ chol_inv_t)
    k2p = _shifted(p, kappa)
    for m in stacks:
        for attempt in range(_GAIN_TRIES):
            bad = _failing(p, k2p, m)
            if not len(bad):
                break
            gains = np.linalg.norm(chol.T @ m[bad] @ chol_inv_t, 2, axis=(1, 2))
            kappa = max(kappa, float(gains.max())) * (1 + 1e-12 * 1e3 ** attempt)
            k2p = _shifted(p, kappa)
        else:
            return math.inf
    return kappa


def _failing(p: np.ndarray, k2p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Indices of the M of the (k, n, n) stack ``m`` for which ``k2p`` - M' P M
    has no Cholesky factor: none if one batched factorization succeeds, else
    those LAPACK ``dpotrf`` rejects, or all k if it rejects none (the two
    can disagree at the margin).  The difference overwrites M' P M."""
    gap = np.swapaxes(m, 1, 2) @ p @ m
    try:
        np.linalg.cholesky(np.subtract(k2p, gap, out=gap))
    except np.linalg.LinAlgError:
        bad = np.flatnonzero([dpotrf(g, 1, 0)[1] for g in gap])    # lower, no clean
        return bad if len(bad) else np.arange(len(m))
    return np.arange(0)


def _shifted(p: np.ndarray, kappa: float) -> np.ndarray:
    """kappa^2 P + tau I, the side of the Cholesky test that depends on kappa."""
    k2p = kappa ** 2 * p
    k2p.flat[::len(p) + 1] += _slack(p, kappa)
    return k2p


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


def _rate(p: np.ndarray, lo: float, kappa: float) -> float:
    """sqrt(kappa^2 + tau / lo), the P-norm rate that M' P M <= kappa^2 P +
    tau I proves (tau I <= (tau / lo) P), lo <= lambda_min(P) from
    :func:`_eig_bounds`."""
    return math.sqrt(kappa ** 2 + _slack(p, kappa) / lo)


def _decay_envelope(form: SchurForm) -> Optional[Tuple[float, float]]:
    """A proven ``(c, kappa)``, kappa < 1, with ||A^j||_2 <= c kappa^j for
    every j, or None (always when rho(A) >= 1), from the real Schur ``form``
    of A.

    P solves A' P A - k0^2 P = -I at k0 = (1 + rho(A)) / 2 in the transposed
    ``form``.  kappa is the rate :func:`_rate` proves from the verified
    P-norm gain k of A (A' P A <= k^2 P + tau I); c = sqrt(hi / lo) >=
    sqrt(cond P), lo and hi from :func:`_eig_bounds`.
    """
    a = form.a
    if not a.size:
        return 1.0, 0.5                      # no state: every A^j is empty
    k0 = 0.5 * (1.0 + form.rho)
    try:
        p = solve_discrete_lyapunov(form.transposed().scaled(k0), np.eye(len(a)) / k0 ** 2)
        lo, hi = _eig_bounds(p)
        kappa = _rate(p, lo, _weighted_gain(p, [a[None]]))
    except np.linalg.LinAlgError:
        return None
    return (math.sqrt(hi / lo), kappa) if kappa < 1.0 else None


def certify_weighted(params: ReservoirParams, vertex_budget: int = 4096) -> Certificate:
    """Weighted quadratic contraction certificate over the slope box.

    With no state (n = 0), or above 2^n > ``vertex_budget``, it is the
    ``certify_lipschitz`` kappa and verdict without weight; above the budget
    no vertex is tested and a Pass reads Unknown (the ``analyze`` benchmark
    check asks that such a call not Pass).  Otherwise P first solves
    ``A+' P A+ - k^2 P = -I`` at k = 1 - 1e-9; P = I is tried too when no
    solve exists or the verified P-norm gain g exceeds that Lipschitz kappa,
    and the smaller g is kept.  g >= 1 is a Fail at g.  Otherwise the search
    starts from the rate hi = sqrt(g^2 + tau / lo) that the sweep proves and
    bisects over [max(1-leak, rho(A+)), hi]; a rate r passes if the Lyapunov
    P at r is provably PD and (r^2 - tau / lo) P + tau I - M' P M has a
    Cholesky factor at every vertex, lo <= lambda_min(P), which proves
    M' P M <= r^2 P.  The first rate tested is hi (1 - tol), not the
    midpoint: if it fails, the bracket is already within tol.  ``kappa`` and
    ``weight_P`` are the last rate that passed and its P, or hi and the
    sweep's weight if none did: a Pass if kappa < 1, else a Fail.

    Every solve is in the one real Schur form of A+', scaled by each r, and
    that form gives rho(A+).  The gain sweeps, which come first, take the
    vertex stacks in their natural order, A+ first.  A bisection step, whose
    result is the same in any order, tests first the vertices that failed
    the last failed step, so it fails fast.
    """
    if not vertex_budget >= 1:
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
    verts = _transition(params, _slope_vertices(n, l_sigma))
    stacks = [verts[i:i + _VERTEX_CHUNK] for i in range(0, len(verts), _VERTEX_CHUNK)]

    def weight(rate: float) -> Optional[Tuple[np.ndarray, float]]:
        """The Lyapunov P at ``rate`` and lo <= lambda_min(P), or None if
        there is no provably PD one."""
        try:
            p = solve_discrete_lyapunov(form.scaled(rate), np.eye(n) / rate ** 2)
            return p, _eig_bounds(p)[0]
        except np.linalg.LinAlgError:
            return None

    found = weight(1.0 - 1e-9)
    gain = math.inf if found is None else _weighted_gain(found[0], stacks)
    if gain > lipschitz.kappa:
        eye_gain = _weighted_gain(np.eye(n), stacks)
        if eye_gain < gain:
            found, gain = (np.eye(n), _eig_bounds(np.eye(n))[0]), eye_gain
    if gain >= 1.0:
        return Certificate(CertificateMethod.WEIGHTED_C2, gain, Verdict.FAIL)
    best, low = found
    hi, lo = _rate(best, low, gain), max(1.0 - params.leak, form.rho)
    rate, failed = hi * (1.0 - _BISECT_TOL), verts[:0]
    while hi - lo > _BISECT_TOL:
        found = weight(rate)
        if found is None:
            lo = rate
        else:
            p, low = found
            k2p = _shifted(p, rate) - _slack(p, rate) / low * p
            for m in (failed, *stacks):
                bad = _failing(p, k2p, m)
                if len(bad):
                    failed, lo = m[bad], rate
                    break
            else:
                best, hi = p, rate
        rate = 0.5 * (lo + hi)
    return Certificate(CertificateMethod.WEIGHTED_C2, hi,
                       Verdict.FAIL if hi >= 1.0 else Verdict.PASS, weight_P=best)


def memory_horizon(kappa: Union[float, Certificate], input_gain: float,
                   amplitude: float, tolerance: float) -> HorizonEstimate:
    """Least lag H with c * input_gain * amplitude * kappa^H <= tolerance.

    A float ``kappa`` is a Euclidean rate, c = 1.  A passed ``Certificate``
    gives c = 1 without ``weight_P`` and c = sqrt(cond weight_P) with it, its
    kappa being a rate in that norm.  Raises unless 0 <= kappa < 1 (no
    fading-memory certificate, the horizon is undefined).  H is exact: the
    search starts one below the estimate log(c g a / tol) / -log(kappa), from
    a sum of logarithms (c g a / tol may overflow), and a lag is tested by the
    sign of log(c g a / tol) + lag log(kappa), or in rationals where that is
    within 8 eps times the sum of its terms' magnitudes (their rounding bound)
    of 0.  At kappa = 0, H is 0 if c g a <= tol and 1 otherwise.
    """
    constant = 1.0
    if isinstance(kappa, Certificate):
        if not kappa.passed:
            raise ValueError(f"no fading-memory certificate: {kappa.verdict}")
        if kappa.weight_P is not None:
            lo, hi = _eig_bounds(kappa.weight_P)
            constant = math.sqrt(hi / lo)
        kappa = kappa.kappa
    if not (0.0 <= kappa < 1.0):
        raise ValueError(
            f"no fading-memory certificate: kappa must be in [0, 1), got {kappa}")
    if not all(0.0 < v < math.inf for v in (input_gain, amplitude, tolerance)):
        raise ValueError("input_gain, amplitude, and tolerance must be positive and finite")
    logs = [math.log(constant), math.log(input_gain), math.log(amplitude),
            -math.log(tolerance)]
    log_ratio, size = math.fsum(logs), sum(map(abs, logs))
    log_kappa = math.log(kappa) if kappa else -math.inf

    def exceeds(lag: int) -> bool:
        # kappa^0 = 1 also at kappa = 0; at kappa = 0 and lag >= 1 the band
        # below is infinite, so the rationals decide, and 0 <= tol
        decay = lag * log_kappa if lag else 0.0
        log_product = log_ratio + decay
        if abs(log_product) > 8.0 * np.finfo(np.float64).eps * (size - decay):
            return log_product > 0.0
        return (Fraction(constant) * Fraction(input_gain) * Fraction(amplitude)
                * Fraction(kappa) ** lag > Fraction(tolerance))

    horizon = max(0, math.ceil(log_ratio / -log_kappa) - 1)
    while exceeds(horizon):
        horizon += 1
    return HorizonEstimate(kappa=kappa, input_gain=input_gain,
                           amplitude=amplitude, tolerance=tolerance,
                           horizon=horizon, constant=constant)
