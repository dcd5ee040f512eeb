"""State estimation and hyperparameter learning for linear(ized) surrogates.

Conventions (shared with :mod:`esnkit.core`):

* states are indexed 0..T, inputs 0..T-1, observations 1..T;
* ``outputs[t-1]`` measures ``states[t]``;
* the filter prior ``(mu0, P0)`` describes x_0, and the first measurement
  update happens at t = 1 after one prediction.

The EM machinery estimates (A, B, Q, R) -- optionally with A constrained to
the structured span ``theta1 * I + theta2 * W_bar`` so that leak and spectral
scaling are recovered as ``lam = 1 - theta1``, ``alpha = theta2 / lam``.  The
structured M-step projects the unconstrained transition estimate onto the
span in Frobenius norm and then rescales ``alpha`` until the small-gain
margin ``(1 - lam) + lam * L_sigma * ||alpha * W_bar|| <= 1 - 1e-6`` holds;
because that projection is not exact coordinate ascent, a structured step is
allowed to decrease the likelihood and is flagged instead of failing.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from ._linalg import (as_float_array, check_psd, linear_scan, spectral_norm,
                      symmetrize)
from .core import Readout, ReservoirParams, _driven_map, _transition
from .linearize import LtiModel
from .stability import Certificate, _small_gain

__all__ = [
    "NoiseModel", "FrozenCovs", "SmoothedPosterior", "StructuredBasis",
    "StructuredTheta", "EmStepResult", "EmResult", "SubspaceResult",
    "kalman_filter", "rts_smoother", "ekf_filter", "em_step", "em_run",
    "readout_ml", "readout_bayes", "BayesReadoutPosterior",
    "project_structured", "excitation_sigma_min", "subspace_shape",
]

logger = logging.getLogger(__name__)

_JITTER = 1e-12
_FEASIBILITY_MARGIN = 1e-6
_LAM_FLOOR = 1e-6
_ALPHA_FLOOR = 1e-12
_LOG_2PI = math.log(2.0 * math.pi)
# relative step below which an LTI covariance recursion counts as converged
_STEADY_TOL = 4.0 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class NoiseModel:
    """Process / measurement covariances (Q, R), symmetrized on construction."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", check_psd(self.Q, "Q"))
        object.__setattr__(self, "R", check_psd(self.R, "R"))


@dataclass(frozen=True, eq=False)
class FrozenCovs:
    """Read-only covariance sequence ``[*head, *[frozen] * count, *tail]``.

    An LTI covariance recursion converges, so past a short transient every
    step repeats one matrix; this stores that matrix once.  ``head`` (h, n, n)
    and ``tail`` (k, n, n) hold the steps before and after the run of
    ``count`` copies of ``frozen`` (n, n).  ``len``, integer and tuple
    indexing (negative too), step-1 slices (which return a FrozenCovs) and
    ``sum(axis=0)`` (in closed form) work without building the full
    (h + count + k, n, n) array; ``np.asarray`` builds it.
    """

    head: np.ndarray
    frozen: np.ndarray
    count: int
    tail: Optional[np.ndarray] = None

    def __post_init__(self):
        frozen = np.asarray(self.frozen, dtype=np.float64)
        tail = np.empty((0,) + frozen.shape) if self.tail is None else self.tail
        for name, arr in ("head", self.head), ("frozen", frozen), ("tail", tail):
            view = np.asarray(arr, dtype=np.float64).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        if (frozen.ndim != 2 or self.count < 0
                or self.head.shape[1:] != frozen.shape
                or self.tail.shape[1:] != frozen.shape):
            raise ValueError("FrozenCovs needs (h, n, n) head and tail "
                             "arrays, an (n, n) frozen matrix and count >= 0")

    def __len__(self) -> int:
        return len(self.head) + self.count + len(self.tail)

    def __getitem__(self, key):
        if isinstance(key, numbers.Integral):
            index = int(key) + (len(self) if key < 0 else 0)
            if not 0 <= index < len(self):
                raise IndexError(f"index {key} out of range for {len(self)}")
            run = index - len(self.head)
            if run < 0:
                return self.head[index]
            if run < self.count:
                return self.frozen
            return self.tail[run - self.count]
        if (isinstance(key, tuple) and key
                and isinstance(key[0], numbers.Integral)):
            return self[key[0]][key[1:]]
        if isinstance(key, slice) and key.step in (None, 1):
            start, stop, _ = key.indices(len(self))
            stop = max(start, stop)
            h, tail_from = len(self.head), len(self.head) + self.count
            return FrozenCovs(
                self.head[start:stop], self.frozen,
                max(0, min(stop, tail_from) - max(start, h)),
                self.tail[max(start - tail_from, 0):max(stop - tail_from, 0)])
        raise TypeError("FrozenCovs takes an integer, a tuple led by an "
                        "integer or a step-1 slice; use np.asarray for other "
                        "indexing")

    def sum(self, axis: int = 0) -> np.ndarray:
        if axis != 0:
            raise ValueError("FrozenCovs sums over axis 0 only")
        return (self.head.sum(axis=0) + self.count * self.frozen
                + self.tail.sum(axis=0))

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a FrozenCovs is not an array; it must be copied")
        run = np.broadcast_to(self.frozen, (self.count,) + self.frozen.shape)
        full = np.concatenate([self.head, run, self.tail])
        return full if dtype is None else full.astype(dtype, copy=False)


Covs = Union[np.ndarray, FrozenCovs]


@dataclass(frozen=True)
class SmoothedPosterior:
    """Filter / smoother outputs.

    ``filtered_*`` run over t = 0..T, ``predicted_*`` over t = 1..T (index
    t-1 stores the one-step prediction of x_t), smoothed quantities over
    t = 0..T, and ``cross_covs[t]`` is Cov(x_t, x_{t+1} | y_{1:T}) for
    t = 0..T-1.  Smoothed fields are None on a pure filter pass.
    ``transition_seq`` holds the per-step linearized transitions A_t of an
    EKF pass, (T, n, n), and is None for an LTI pass; the smoother then
    applies the LTI formulas with A_t at each step.

    ``steady_from`` is the first t from which ``predicted_covs[t:]`` and
    ``filtered_covs[t + 1:]`` each hold one frozen matrix (see
    :func:`kalman_filter`).  When it is set, the four covariance fields are
    :class:`FrozenCovs`: the filtered and predicted ones store their steps
    before that point and then the frozen matrix; the smoothed and cross
    ones store their steps before t = ``steady_from + 1``, then the matrix
    the backward recursion settles on, then the short run it took to settle
    after starting at t = T (see :func:`rts_smoother`).  ``steady_from`` is
    None for the EKF and for a run that never converged; the covariances
    are then (T+1, n, n) / (T, n, n) arrays.  A hand-built posterior may
    hold either kind, and every consumer accepts both.
    """

    filtered_means: np.ndarray
    filtered_covs: Covs
    predicted_means: np.ndarray
    predicted_covs: Covs
    loglik: float
    smoothed_means: Optional[np.ndarray] = None
    smoothed_covs: Optional[Covs] = None
    cross_covs: Optional[Covs] = None
    transition_seq: Optional[np.ndarray] = field(default=None, repr=False)
    steady_from: Optional[int] = None

    @property
    def horizon(self) -> int:
        return self.predicted_means.shape[0]


def _validate_io(n: int, m: int, p: int, inputs, outputs, prior):
    inputs = as_float_array(inputs, "inputs")
    outputs = as_float_array(outputs, "outputs")
    if inputs.ndim != 2 or inputs.shape[1] != m:
        raise ValueError(f"inputs must be (T, {m}), got {inputs.shape}")
    if outputs.ndim != 2 or outputs.shape[1] != p:
        raise ValueError(f"outputs must be (T, {p}), got {outputs.shape}")
    if inputs.shape[0] != outputs.shape[0]:
        raise ValueError("inputs and outputs must have equal length")
    mu0 = as_float_array(prior[0], "mu0")
    p0 = check_psd(prior[1], "P0")
    if mu0.shape != (n,) or p0.shape != (n, n):
        raise ValueError("prior dimensions do not match the state")
    return inputs, outputs, mu0, p0


def _innovation_chol(s: np.ndarray, t: int) -> np.ndarray:
    """Lower Cholesky factor of the innovation covariance at time index t,
    retried once with diagonal jitter on a non-positive pivot."""
    chol, info = dpotrf(s, lower=1, clean=0)
    if info == 0:
        return chol
    jitter = _JITTER * max(1.0, float(np.trace(s)) / s.shape[0])
    logger.debug("kalman.innovation_jitter time_index=%d jitter=%.3e", t, jitter)
    chol, info = dpotrf(s + jitter * np.eye(s.shape[0]), lower=1, clean=0)
    if info != 0:
        raise ValueError(
            f"innovation covariance not positive definite at time index {t}")
    return chol


def _diverged(t: int) -> ValueError:
    return ValueError("filter diverged: non-finite mean, covariance or "
                      f"log-likelihood at time index {t}")


def kalman_filter(lti: LtiModel, noise: NoiseModel, inputs, outputs,
                  prior: Tuple[np.ndarray, np.ndarray]) -> SmoothedPosterior:
    """Forward Kalman pass with innovations log-likelihood.

    Covariance updates use the Joseph form, written from the step's C P and
    innovation covariance S so that it is exactly symmetric.  The model must
    be strictly proper (D = 0); observations are ``y_t = C x_t + v_t``.

    The covariance recursion does not depend on the data and converges to the
    DARE fixed point.  At the first step t >= 1 at which the predicted and
    the filtered covariance each moved by at most ``_STEADY_TOL`` (4 eps)
    times their largest entry since step t-1, the gain, the covariances and
    the innovation Cholesky factor are frozen and ``steady_from`` is set to
    t; the later means are one affine recursion in the closed-loop matrix
    (I - KC) A, run by the blocked scan :func:`linear_scan` (equal to the
    step loop up to rounding).  The covariances are then returned
    as :class:`FrozenCovs` that store the t per-step predicted and t + 1
    filtered matrices and the frozen pair once, so they take O(t n^2) memory
    rather than O(T n^2).  A run that never freezes returns full arrays, as
    does :func:`ekf_filter`, which never freezes.

    The drive ``B u_t`` is formed for all t in one matmul before the loop.
    Each step calls LAPACK ``dpotrf`` / ``dpotrs`` / ``dtrtrs`` directly: a
    non-positive pivot (``info`` > 0) gets one jitter retry, the DEBUG event
    ``kalman.innovation_jitter``, and a second one raises ValueError.  So
    does a non-finite mean, covariance or log-likelihood term (a diverging
    model), before and after the freeze; both errors name the time index.
    """
    if np.any(lti.D != 0.0):
        raise ValueError("kalman_filter requires D = 0")
    inputs, outputs, mu0, p0 = _validate_io(lti.n, lti.m, lti.p, inputs,
                                            outputs, prior)
    return _filter_loop(lti.A, inputs @ lti.B.T, lti.C, noise, outputs, mu0,
                        p0)


def _filter_loop(a, drive, c, noise, outputs, mu0, p0, step=None):
    """Shared filter core.  Row t of ``drive`` (T, n), the input term of the
    mean prediction, is overwritten by the predicted mean once used.
    The LTI path (no ``step``) predicts ``a mu + drive_t`` and may freeze;
    the EKF passes ``step(mu, drive_t) -> (next_mean, A_t)``.  Covariances
    are kept in per-step lists until the end.

    The update is the Joseph form (I - KC) P (I - KC)' + K R K', written
    from the C P and S the step already has as P + M + M' with
    M = K (S K' / 2 - C P): equal for any K, and exactly symmetric."""
    horizon, n = drive.shape
    p_dim = outputs.shape[1]
    q, r = noise.Q, noise.R

    f_means = np.empty((horizon + 1, n))
    p_means = drive
    f_covs, p_covs, a_seq = [p0], [], []
    f_means[0] = mu0
    mu, cov = mu0, p0
    loglik = 0.0
    steady_from = None
    for t in range(horizon):
        if step is None:
            mu_pred, a_t = a @ mu + p_means[t], a
        else:
            mu_pred, a_t = step(mu, p_means[t])
            a_seq.append(a_t)
        cov_pred = a_t @ cov @ a_t.T + q
        cov_pred += cov_pred.T
        cov_pred *= 0.5
        p_means[t] = mu_pred
        p_covs.append(cov_pred)

        innov = outputs[t] - c @ mu_pred
        cp = c @ cov_pred
        s = symmetrize(cp @ c.T + r)
        chol = _innovation_chol(s, t + 1)
        gain = dpotrs(chol, cp, lower=1)[0].T
        mu = mu_pred + gain @ innov
        cp = gain @ (0.5 * s @ gain.T - cp)  # M, in cp: no extra array alive
        cov = cov_pred + (cp + cp.T)
        f_means[t + 1] = mu
        f_covs.append(cov)

        white = dtrtrs(chol, innov, lower=1)[0]
        logdet = 2.0 * float(np.log(chol.diagonal()).sum())
        loglik -= 0.5 * (p_dim * _LOG_2PI + logdet + float(white @ white))
        if not math.isfinite(loglik):
            raise _diverged(t + 1)

        if (step is None and t > 0 and _settled(cov_pred, p_covs[t - 1])
                and _settled(cov, f_covs[t])):
            steady_from = t
            logger.debug("kalman.steady_state steady_from=%d", t)
            break

    if steady_from is not None:
        # frozen gain K: mu+ = (I - KC)(A mu + B u) + K y; the affine terms
        # are accumulated in place in p_means, which holds B u, and f_means
        start = steady_from + 1
        ikc = np.eye(n) - gain @ c
        a_closed = ikc @ a
        np.matmul(p_means[start:], ikc.T, out=f_means[start + 1:])
        f_means[start + 1:] += outputs[start:] @ gain.T
        linear_scan(a_closed, f_means[start:])
        p_means[start:] += f_means[start:-1] @ a.T
        innov = outputs[start:] - p_means[start:] @ c.T
        quad = np.square(dtrtrs(chol, innov.T, lower=1)[0])
        loglik -= 0.5 * ((horizon - start) * (p_dim * _LOG_2PI + logdet)
                         + float(quad.sum()))
        if not math.isfinite(loglik):
            finite = np.isfinite(np.cumsum(quad.sum(axis=0)))
            raise _diverged(start + 1 + int(np.argmin(finite)))
        repeat = horizon - steady_from
        f_covs = FrozenCovs(f_covs[:start], cov, repeat)
        p_covs = FrozenCovs(p_covs[:steady_from], cov_pred, repeat)
    else:
        f_covs = np.reshape(f_covs, (horizon + 1, n, n))
        p_covs = np.reshape(p_covs, (horizon, n, n))

    return SmoothedPosterior(
        filtered_means=f_means, filtered_covs=f_covs, predicted_means=p_means,
        predicted_covs=p_covs, loglik=loglik, steady_from=steady_from,
        transition_seq=None if step is None else np.reshape(a_seq,
                                                            (horizon, n, n)))


def _settled(new: np.ndarray, old: np.ndarray) -> bool:
    return np.abs(new - old).max() <= _STEADY_TOL * np.abs(new).max()


def rts_smoother(filtered: SmoothedPosterior, lti: LtiModel,
                 noise: NoiseModel) -> SmoothedPosterior:
    """Backward Rauch-Tung-Striebel pass.

    Produces smoothed means/covariances and the cross-covariances
    ``Cov(x_t, x_{t+1} | y_{1:T}) = J_t P_{t+1|T}``.  For time-varying filter
    output the per-step transition matrices recorded by the filter are used
    with the same (LTI) cross-covariance formula.

    Past ``filtered.steady_from`` the gain J is computed once, and the
    covariances are iterated back from t = T only until a step moves them by
    at most ``_STEADY_TOL`` times their largest entry; the means over that
    stretch are one backward affine recursion in J, run by the blocked scan
    :func:`linear_scan`.  Earlier steps, and every EKF step, are computed one
    by one.
    The smoothed and cross covariances of such a run are :class:`FrozenCovs`:
    the per-step head before t = ``steady_from + 1``, the settled matrix once
    with its repeat count, and the per-step tail from where the backward
    iteration settled to t = T.  Without ``steady_from`` they are full
    arrays.  ``noise`` is unused; it stays for the benchmark's positional
    call until the next benchmark revision.
    """
    horizon = filtered.horizon
    n = filtered.filtered_means.shape[1]
    f_means, p_means = filtered.filtered_means, filtered.predicted_means
    s_means = np.empty((horizon + 1, n))
    s_means[horizon] = f_means[horizon]
    # covariances from t = T backward, computed before the per-step pass
    s_tail, cross_tail = [filtered.filtered_covs[horizon]], []

    start = horizon
    if filtered.steady_from is not None and filtered.steady_from + 1 < horizon:
        start = filtered.steady_from + 1
        p_f = filtered.filtered_covs[horizon]
        gain, p_pred = _smoother_gain(lti.A, p_f, filtered.predicted_covs[-1],
                                      horizon - 1)
        repeat = 0
        for t in range(horizon - 1, start - 1, -1):
            cross_tail.append(gain @ s_tail[-1])
            s_tail.append(
                symmetrize(p_f + gain @ (s_tail[-1] - p_pred) @ gain.T))
            if _settled(s_tail[-1], s_tail[-2]):
                repeat = t - start
                break
        cross_frozen = gain @ s_tail[-1]
        offsets = np.matmul(p_means[start:horizon], -gain.T,
                            out=s_means[start:horizon])
        offsets += f_means[start:horizon]
        linear_scan(gain, s_means[start:][::-1])

    s_covs = np.empty((start + 1, n, n))
    cross = np.empty((start, n, n))
    s_covs[start] = s_tail[-1]
    for t in range(start - 1, -1, -1):
        a_t = (filtered.transition_seq[t]
               if filtered.transition_seq is not None else lti.A)
        p_f = filtered.filtered_covs[t]
        gain, p_pred = _smoother_gain(a_t, p_f, filtered.predicted_covs[t], t)
        s_means[t] = f_means[t] + gain @ (s_means[t + 1] - p_means[t])
        s_covs[t] = symmetrize(p_f + gain @ (s_covs[t + 1] - p_pred) @ gain.T)
        cross[t] = gain @ s_covs[t + 1]

    if start < horizon:
        s_covs = FrozenCovs(s_covs[:start], s_tail[-1], repeat, s_tail[::-1])
        cross = FrozenCovs(cross, cross_frozen, repeat, cross_tail[::-1])
    return dataclasses.replace(filtered, smoothed_means=s_means,
                               smoothed_covs=s_covs, cross_covs=cross)


def _smoother_gain(a_t, p_f, p_pred, t):
    """RTS gain ``J = P_f A' P_pred^{-1}`` at time index t by LAPACK Cholesky,
    retried once with diagonal jitter 1e-12 on a non-positive pivot of
    ``P_pred``; returns J and the P_pred used."""
    chol, info = dpotrf(p_pred, lower=1, clean=0)
    if info != 0:
        logger.debug("rts.predicted_cov_jitter time_index=%d", t + 1)
        p_pred = p_pred + _JITTER * np.eye(p_pred.shape[0])
        chol, info = dpotrf(p_pred, lower=1, clean=0)
        if info != 0:
            raise ValueError(
                f"singular predicted covariance at time index {t + 1}")
    return dpotrs(chol, a_t @ p_f, lower=1)[0].T, p_pred


def ekf_filter(params: ReservoirParams, readout: Readout, noise: NoiseModel,
               inputs, outputs, prior) -> SmoothedPosterior:
    """Extended Kalman filter on the nonlinear reservoir.

    The mean is propagated through the full nonlinear update; covariances use
    the Jacobian linearization at the current filtered mean (so the recorded
    transition sequence is time varying).  The drive ``U u_t + b`` is formed
    for all t in one matmul before the loop, as is ``y_t - d``, and each step
    builds A_t alone, not the input Jacobian.  The measurement update, its
    LAPACK calls and its errors are those of :func:`kalman_filter`.
    """
    inputs, outputs, mu0, p0 = _validate_io(params.n, params.m, readout.p,
                                            inputs, outputs, prior)

    def step(mu, drive):
        mean_next, slope = _driven_map(params, mu, drive)
        return mean_next, _transition(params, slope)

    return _filter_loop(None, inputs @ params.U.T + params.b, readout.C, noise,
                        outputs - readout.d, mu0, p0, step=step)


# ---------------------------------------------------------------------------
# EM


@dataclass(frozen=True)
class StructuredBasis:
    """Span basis {I, W_bar} with the activation slope bound used by the
    feasibility constraint."""

    W_bar: np.ndarray
    l_sigma: float = 1.0

    def __post_init__(self):
        w = as_float_array(self.W_bar, "W_bar")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("W_bar must be square")
        if not self.l_sigma > 0.0:
            raise ValueError("l_sigma must be positive")
        object.__setattr__(self, "W_bar", w)


@dataclass(frozen=True)
class StructuredTheta:
    """Structured transition coordinates after feasibility projection.

    Invariants: theta1 = 1 - lam and theta2 = lam * alpha exactly, and the
    small-gain margin holds whenever ``feasible`` is True.  ``clamped``
    records that the raw least-squares coordinates were moved.
    """

    theta1: float
    theta2: float
    lam: float
    alpha: float
    basis: StructuredBasis
    clamped: bool = False
    feasible: bool = True

    @property
    def A(self) -> np.ndarray:
        n = self.basis.W_bar.shape[0]
        return self.theta1 * np.eye(n) + self.theta2 * self.basis.W_bar


def project_structured(a_matrix: np.ndarray,
                       basis: StructuredBasis) -> StructuredTheta:
    """Frobenius projection of a transition matrix onto span{I, W_bar},
    followed by the nearest-feasible rescaling of (lam, alpha).

    The projection solves the 2x2 normal equations of
    ``min || theta1 I + theta2 W_bar - A ||_F``; leak is clamped to
    (1e-6, 1], alpha floored positive, then alpha shrunk until
    ``(1 - lam) + lam * L_sigma * alpha * ||W_bar|| <= 1 - 1e-6``.
    """
    a_matrix = np.asarray(a_matrix, dtype=np.float64)
    w_bar = basis.W_bar
    n = w_bar.shape[0]
    if a_matrix.shape != (n, n):
        raise ValueError("matrix and basis dimensions differ")
    gram = np.array([
        [float(n), float(np.trace(w_bar))],
        [float(np.trace(w_bar)), float(np.sum(w_bar * w_bar))],
    ])
    rhs = np.array([float(np.trace(a_matrix)), float(np.sum(w_bar * a_matrix))])
    # lstsq keeps degenerate bases (W_bar proportional to I, or zero) defined:
    # the minimum-norm coordinates are used
    theta, *_ = np.linalg.lstsq(gram, rhs, rcond=None)

    clamped = False
    lam = 1.0 - theta[0]
    if not (_LAM_FLOOR < lam <= 1.0):
        lam = min(max(lam, _LAM_FLOOR), 1.0)
        clamped = True
    alpha = theta[1] / lam
    if alpha <= 0.0:
        alpha = _ALPHA_FLOOR
        clamped = True

    feasible = True
    w_norm = spectral_norm(w_bar)
    if w_norm > 0.0:
        alpha_max = (lam - _FEASIBILITY_MARGIN) / (lam * basis.l_sigma * w_norm)
        if alpha_max <= 0.0:
            feasible = False
        elif alpha > alpha_max:
            alpha = alpha_max
            clamped = True
    return StructuredTheta(theta1=1.0 - lam, theta2=lam * alpha, lam=lam,
                           alpha=alpha, basis=basis, clamped=clamped,
                           feasible=feasible)


@dataclass(frozen=True)
class EmStepResult:
    lti: LtiModel
    noise: NoiseModel
    loglik: float
    theta: Optional[StructuredTheta] = None
    constrained: bool = False


def em_step(lti: LtiModel, noise: NoiseModel, inputs, outputs, prior,
            structure: Optional[StructuredBasis] = None) -> EmStepResult:
    """One EM iteration: smoother E-step, then closed-form (A, B, Q, R).

    The returned log-likelihood is the one evaluated under the *input*
    parameters (the quantity EM drives upward).  The transition update solves
    the stacked normal equations for [A B] jointly; with a structured basis
    the A part is projected afterwards (see :func:`project_structured`).
    A singular regression Gram is repaired with a ridge of
    ``1e-10 * trace / dim``, reported as the WARNING event ``em.ridge``; the
    Q and R updates are floored as in :func:`_floor_psd`.
    """
    post = rts_smoother(kalman_filter(lti, noise, inputs, outputs, prior),
                        lti, noise)
    inputs = np.asarray(inputs, dtype=np.float64)
    outputs = np.asarray(outputs, dtype=np.float64)
    horizon = post.horizon
    n = lti.n
    mu = post.smoothed_means
    covs = post.smoothed_covs
    cross = post.cross_covs

    cov_next = covs[1:].sum(axis=0)
    s_xx = covs[:-1].sum(axis=0) + mu[:-1].T @ mu[:-1]
    s_11 = cov_next + mu[1:].T @ mu[1:]
    s_1x = cross.sum(axis=0).T + mu[1:].T @ mu[:-1]
    s_xu = mu[:-1].T @ inputs

    # the Gram of the regressors [x_t, u_t] and their moments with x_{t+1}
    gram = np.block([[s_xx, s_xu], [s_xu.T, inputs.T @ inputs]])
    rhs = np.hstack([s_1x, mu[1:].T @ inputs])
    svals = np.linalg.svd(gram, compute_uv=False)
    ridge = 0.0
    if svals[-1] <= 1e-13 * max(svals[0], 1.0):
        ridge = 1e-10 * float(np.trace(gram)) / gram.shape[0]
        logger.warning("em.ridge ridge=%.3e", ridge)
    # coeffs is [A B]; the Q residual below uses the Gram without the ridge
    coeffs = np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), rhs.T).T

    theta = None
    constrained = False
    if structure is not None:
        theta = project_structured(coeffs[:, :n], structure)
        coeffs[:, :n] = theta.A
        constrained = theta.clamped

    resid = s_11 - coeffs @ rhs.T - rhs @ coeffs.T + coeffs @ gram @ coeffs.T
    q_new = _floor_psd(symmetrize(resid / horizon))

    y_resid = outputs - mu[1:] @ lti.C.T
    r_new = (y_resid.T @ y_resid + lti.C @ cov_next @ lti.C.T) / horizon
    r_new = _floor_psd(symmetrize(r_new))

    new_lti = LtiModel(A=coeffs[:, :n], B=coeffs[:, n:], C=lti.C, D=lti.D)
    return EmStepResult(lti=new_lti, noise=NoiseModel(Q=q_new, R=r_new),
                        loglik=post.loglik, theta=theta,
                        constrained=constrained)


def _floor_psd(mat: np.ndarray) -> np.ndarray:
    """Shift ``mat`` up so its smallest eigenvalue is at least ``_JITTER``;
    a shift is reported as the DEBUG event ``em.psd_floor``."""
    min_eig = float(np.linalg.eigvalsh(mat).min())
    if min_eig < _JITTER:
        shift = _JITTER - min_eig
        logger.debug("em.psd_floor shift=%.3e", shift)
        mat = mat + shift * np.eye(mat.shape[0])
    return mat


@dataclass(frozen=True)
class EmResult:
    lti: LtiModel
    noise: NoiseModel
    loglik_trace: np.ndarray
    theta: Optional[StructuredTheta] = None
    constrained_steps: Tuple[bool, ...] = ()

    @property
    def iterations(self) -> int:
        return self.loglik_trace.shape[0]


def em_run(lti: LtiModel, noise: NoiseModel, inputs, outputs, prior,
           structure: Optional[StructuredBasis] = None,
           max_iters: int = 200, rel_tol: float = 1e-8) -> EmResult:
    """Iterate :func:`em_step` until the relative log-likelihood improvement
    drops below ``rel_tol`` or ``max_iters`` is reached.

    On unconstrained runs a likelihood decrease beyond 1e-9 aborts (that is a
    bug, not a numerical quirk).  On structured runs a decrease can be caused
    by the span/feasibility projection; it is tolerated and the step is
    flagged in ``constrained_steps``.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    trace: List[float] = []
    flags: List[bool] = []
    theta = None
    for _ in range(max_iters):
        step = em_step(lti, noise, inputs, outputs, prior, structure)
        constrained = step.constrained
        if trace:
            delta = step.loglik - trace[-1]
            if delta < -1e-9:
                if structure is None:
                    raise RuntimeError(
                        f"EM log-likelihood decreased by {-delta:.3e} on an "
                        "unconstrained run; this indicates a bug")
                constrained = True
        trace.append(step.loglik)
        flags.append(constrained)
        lti, noise, theta = step.lti, step.noise, step.theta
        if len(trace) >= 2:
            improvement = trace[-1] - trace[-2]
            if abs(improvement) < rel_tol * max(abs(trace[-2]), 1.0):
                break
    return EmResult(lti=lti, noise=noise, loglik_trace=np.array(trace),
                    theta=theta, constrained_steps=tuple(flags))


# ---------------------------------------------------------------------------
# Readout learning


def _readout_moments(states, outputs):
    """Means ``x_mean``, ``y_mean``, the centered state second moment
    ``sum_t (P_t + xc_t xc_t')`` (P_t = 0 for a raw state array) and the
    centered cross moment ``sum_t yc_t xc_t'`` of a readout regression."""
    if isinstance(states, SmoothedPosterior):
        if states.smoothed_means is None:
            raise ValueError("posterior has no smoothed estimates; run the smoother")
        x_hat, covs = states.smoothed_means[1:], states.smoothed_covs[1:]
    else:
        x_hat, covs = as_float_array(states, "states"), None
        if x_hat.ndim != 2:
            raise ValueError("states must be a (T, n) array or a SmoothedPosterior")
    y = as_float_array(outputs, "outputs")
    if y.ndim != 2 or y.shape[0] != x_hat.shape[0]:
        raise ValueError("outputs must be (T, p) aligned with the states")
    x_mean = x_hat.mean(axis=0)
    y_mean = y.mean(axis=0)
    xc = x_hat - x_mean
    yc = y - y_mean
    moment = xc.T @ xc
    if covs is not None:
        moment = moment + covs.sum(axis=0)
    return x_mean, y_mean, moment, yc.T @ xc


def readout_ml(states, outputs, ridge: float = 0.0) -> Readout:
    """Maximum-likelihood readout under state uncertainty.

    ``states`` is a raw (T, n) array (zero state covariance) or a smoothed
    posterior, whose covariances enter the Gram as ``sum_t (P_t + x_t x_t')``.
    The offset d is fit by centering: means of x and y are removed before the
    solve and d recovered afterwards.
    """
    if ridge < 0.0:
        raise ValueError("ridge must be >= 0")
    x_mean, y_mean, gram, g = _readout_moments(states, outputs)
    gram = gram + ridge * np.eye(gram.shape[0])
    try:
        c = np.linalg.solve(gram, g.T).T
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular readout Gram; set ridge > 0") from exc
    d = y_mean - c @ x_mean
    return Readout(C=c, d=d)


@dataclass(frozen=True)
class BayesReadoutPosterior:
    """Gaussian posterior over vec(C) with Kronecker-structured precision
    ``tau * I + sum_t X_t (x) R^{-1}``; stored structurally and only
    densified on request (and refused beyond p*n = 10^4)."""

    tau: float
    state_moment: np.ndarray      # sum_t (P_t + x_t x_t'), n x n
    r_inv: np.ndarray             # p x p

    def dense_precision(self) -> np.ndarray:
        n = self.state_moment.shape[0]
        p = self.r_inv.shape[0]
        if p * n > 10_000:
            raise ValueError("dense precision refused for p * n > 1e4")
        return self.tau * np.eye(p * n) + np.kron(self.state_moment, self.r_inv)


def readout_bayes(states, outputs, tau_p: float,
                  R) -> Tuple[Readout, BayesReadoutPosterior]:
    """Bayesian readout: Gaussian prior vec(C) ~ N(0, tau_p^{-1} I).

    The posterior mean solves the Sylvester equation
    ``tau_p R C + C S = sum_t y_t x_t'`` with S the centered state second
    moment, which avoids densifying the Kronecker precision.  At p = 1,
    R = 1 this reduces exactly to :func:`readout_ml` with ridge = tau_p.
    """
    if not tau_p > 0.0:
        raise ValueError("prior precision tau_p must be positive")
    r = check_psd(R, "R")
    if float(np.linalg.eigvalsh(r).min()) <= 0.0:
        raise ValueError("R must be positive definite")
    x_mean, y_mean, s_moment, g = _readout_moments(states, outputs)
    s_moment = symmetrize(s_moment)
    c = scipy.linalg.solve_sylvester(tau_p * r, s_moment, g)
    d = y_mean - c @ x_mean
    posterior = BayesReadoutPosterior(tau=float(tau_p), state_moment=s_moment,
                                      r_inv=np.linalg.inv(r))
    return Readout(C=c, d=d), posterior


# ---------------------------------------------------------------------------
# Subspace identification (Ho-Kalman) with structured projection


def excitation_sigma_min(inputs, depth: int) -> float:
    """Smallest singular value of the depth-r block input Toeplitz matrix
    (the persistent-excitation statistic)."""
    inputs = as_float_array(inputs, "inputs")
    horizon, m = inputs.shape
    if depth < 1 or horizon < depth:
        raise ValueError("need depth >= 1 and at least depth input samples")
    cols = np.lib.stride_tricks.sliding_window_view(inputs, (depth, m))
    mat = cols.reshape(-1, depth * m).T
    return float(np.linalg.svd(mat, compute_uv=False)[-1])


@dataclass(frozen=True)
class SubspaceResult:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    markov: np.ndarray
    theta: StructuredTheta
    certificate: Certificate


def _markov_from_io(inputs: np.ndarray, outputs: np.ndarray,
                    n_markov: int) -> np.ndarray:
    """Least-squares Markov parameters g_1..g_L of y_t = sum_k g_k u_{t-k}
    (strictly proper; assumes the run started at rest)."""
    horizon, m = inputs.shape
    p = outputs.shape[1]
    if horizon <= n_markov + m * n_markov:
        raise ValueError("not enough data for the requested Markov horizon")
    # row t - L: regressor [u_t, u_{t-1}, ..., u_{t-L+1}] paired with outputs[t]
    windows = np.lib.stride_tricks.sliding_window_view(inputs, (n_markov, m))
    regress = windows[1:, 0, ::-1].reshape(horizon - n_markov, n_markov * m)
    target = outputs[n_markov:]
    coeffs, *_ = np.linalg.lstsq(regress, target, rcond=None)
    return coeffs.T.reshape(p, n_markov, m).transpose(1, 0, 2)


def subspace_shape(order: int, basis: StructuredBasis, *,
                   impulse: Optional[np.ndarray] = None,
                   inputs=None, outputs=None,
                   n_markov: Optional[int] = None) -> SubspaceResult:
    """Ho-Kalman realization followed by the structured contraction projection.

    Either pass ``impulse`` (the kernel blocks h_k = C A^k B, shape
    (K+1, p, m)) directly, or input/output data from a run started at rest,
    in which case Markov parameters are estimated by least squares after a
    persistent-excitation check (smallest block-Toeplitz singular value must
    exceed 1e-8).

    The balanced realization of order ``order`` comes from the truncated SVD
    of the block Hankel matrix (singular values below ``1e-8 * s_1`` do not
    count toward its rank); its transition matrix is then projected
    onto span{I, W_bar} and rescaled to the contraction margin, and the
    resulting small-gain certificate is attached.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if impulse is not None:
        markov = np.asarray(impulse, dtype=np.float64)
        if markov.ndim != 3:
            raise ValueError("impulse data must have shape (K+1, p, m)")
    else:
        if inputs is None or outputs is None:
            raise ValueError("provide either impulse data or inputs/outputs")
        inputs = as_float_array(inputs, "inputs")
        outputs = as_float_array(outputs, "outputs")
        sigma_min = excitation_sigma_min(inputs, order)
        if sigma_min <= 1e-8:
            raise ValueError(
                f"inputs are not persistently exciting at depth {order} "
                f"(sigma_min = {sigma_min:.3e})")
        length = n_markov if n_markov is not None else min(
            max(2 * order + 2, 20), inputs.shape[0] // 2)
        markov = _markov_from_io(inputs, outputs, length)

    count = markov.shape[0]
    if count < 2 * order + 1:
        raise ValueError(
            f"need at least 2 * order + 1 = {2 * order + 1} Markov blocks, "
            f"got {count}")
    p, m = markov.shape[1], markov.shape[2]
    q_blocks = (count + 1) // 2
    s_blocks = count - q_blocks          # q + s - 1 <= count - 1 for the shift
    hankel0 = np.block([[markov[i + j] for j in range(s_blocks)]
                        for i in range(q_blocks)])
    hankel1 = np.block([[markov[i + j + 1] for j in range(s_blocks)]
                        for i in range(q_blocks)])
    u_svd, svals, vt = np.linalg.svd(hankel0, full_matrices=False)
    effective = int(np.sum(svals >= 1e-8 * svals[0]))
    if effective < order:
        raise ValueError(
            f"Hankel numerical rank {effective} is below the requested "
            f"order {order}")
    sqrt_s = np.sqrt(svals[:order])
    obs = u_svd[:, :order] * sqrt_s
    ctr = sqrt_s[:, None] * vt[:order]
    a_ssi = (u_svd[:, :order] / sqrt_s).T @ hankel1 @ (vt[:order].T / sqrt_s)
    c_ssi = obs[:p]
    b_ssi = ctr[:, :m]

    theta = project_structured(a_ssi, basis)
    cert = _small_gain(theta.lam, basis.l_sigma, theta.alpha * basis.W_bar,
                       theta.feasible)
    return SubspaceResult(A=a_ssi, B=b_ssi, C=c_ssi, markov=markov,
                          theta=theta, certificate=cert)
