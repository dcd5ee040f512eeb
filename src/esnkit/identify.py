"""State estimation and hyperparameter learning for linear(ized) surrogates.

Conventions (shared with :mod:`esnkit.core`):

* states are indexed 0..T, inputs 0..T-1, observations 1..T;
* ``outputs[t-1]`` measures ``states[t]``;
* the filter prior ``(mu0, P0)`` describes x_0, and the first measurement
  update happens at t = 1 after one prediction.

The EM machinery estimates (A, B, Q, R) -- optionally with A constrained to
``(1 - lam) I + lam * alpha * W_bar``, the leak ``lam`` and spectral scaling
``alpha``.  A is linear in theta = (1 - lam, lam * alpha), and the
small-gain margin ``(1 - lam) + lam * L_sigma * alpha * ||W_bar|| <= 1 - 1e-6``
(||W_bar|| is taken once per :class:`StructuredBasis`) is a triangle in
theta, so a structured M-step minimises a quadratic in theta over that
triangle exactly (:func:`_nearest_feasible`): every step is a maximisation
over the feasible family, and every estimate meets the margin.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm, dgemv
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from ._linalg import (_congruence, _singular_gram, as_float_array, check_count,
                      check_psd, linear_scan, spectral_norm, symmetrize)
from .core import Readout, ReservoirParams, _sigma_into
from .linearize import LtiModel
from .stability import Certificate, _small_gain

__all__ = [
    "NoiseModel", "FrozenCovs", "SmoothedPosterior", "StructuredBasis",
    "StructuredTheta", "EmStepResult", "EmResult", "SubspaceResult",
    "kalman_filter", "rts_smoother", "ekf_filter", "em_step", "em_run",
    "readout_ml", "readout_bayes", "BayesReadoutPosterior",
    "project_structured", "subspace_shape",
]

logger = logging.getLogger(__name__)

_JITTER = 1e-12
_FEASIBILITY_MARGIN = 1e-6
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
    """Read-only covariance sequence in run-length blocks: ``mats[i]``
    (n, n) stands for ``counts[i]`` >= 0 consecutive steps, so the sequence
    is ``np.repeat(mats, counts, axis=0)``, which ``np.asarray`` builds;
    ``len``, iteration, integer and tuple indexing, step-1 slices (on the
    same ``mats``) and ``sum(axis=0)`` work on the blocks.

    Every covariance field of a :class:`SmoothedPosterior` is one.  An LTI
    covariance recursion converges, so past a short transient every step
    repeats one matrix, stored once: the filter's sequences hold one block
    per step and, once the recursion froze, a last block whose count
    reaches t = T (see :func:`kalman_filter`); the smoothed and cross
    sequences of such a run end with the steps to t = T that the backward
    pass of :func:`rts_smoother` took to settle, one block each, after the
    settled block.  Any other pass has one block per step.
    """

    mats: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        mats = as_float_array(self.mats, "mats", ("k", "n", "n")).view()
        counts = np.asarray(self.counts)
        if (counts.shape != mats.shape[:1]
                or counts.size and counts.dtype.kind not in "iu"
                or (counts < 0).any()):
            raise ValueError(f"counts must be {len(mats)} integers >= 0, "
                             f"got {self.counts!r}")
        counts = counts.astype(np.intp)     # a copy; [] is float64 until here
        mats.flags.writeable = counts.flags.writeable = False
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "counts", counts)
        # the step after each block, kept so that a lookup is O(log k)
        object.__setattr__(self, "_ends", counts.cumsum())

    def __len__(self) -> int:
        return int(self._ends[-1:].sum())

    def __getitem__(self, key):
        if isinstance(key, numbers.Integral):
            index = range(len(self))[key]
            return self.mats[self._ends.searchsorted(index, "right")]
        if (isinstance(key, tuple) and key
                and isinstance(key[0], numbers.Integral)):
            return self[key[0]][key[1:]]
        if isinstance(key, slice) and key.step in (None, 1):
            # the steps of each block in [start, stop), 0 for one outside
            start, stop, _ = key.indices(len(self))
            inside = (np.minimum(self._ends, stop)
                      - np.maximum(self._ends - self.counts, start))
            return FrozenCovs(self.mats, np.maximum(inside, 0))
        raise TypeError("FrozenCovs takes an integer, a tuple led by an "
                        "integer or a step-1 slice; use np.asarray for other "
                        "indexing")

    def __iter__(self):
        for mat, count in zip(self.mats, self.counts):
            yield from itertools.repeat(mat, count)

    def sum(self, axis: int = 0) -> np.ndarray:
        if axis != 0:
            raise ValueError("FrozenCovs sums over axis 0 only")
        k, n, _ = self.mats.shape
        return (self.counts @ self.mats.reshape(k, n * n)).reshape(n, n)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a FrozenCovs is not an array; it must be copied")
        full = np.repeat(self.mats, self.counts, axis=0)
        return full if dtype is None else full.astype(dtype, copy=False)


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

    The four covariance fields are :class:`FrozenCovs`: an array given for
    one of them is taken as one block per step, so a hand-built posterior
    may hold either kind.  A filter pass's blocks are its steps, the last
    block of each repeated to t = T when an LTI recursion froze (see
    :func:`kalman_filter`); :func:`rts_smoother` reads the freeze off the
    counts.
    """

    filtered_means: np.ndarray
    filtered_covs: FrozenCovs
    predicted_means: np.ndarray
    predicted_covs: FrozenCovs
    loglik: float
    smoothed_means: Optional[np.ndarray] = None
    smoothed_covs: Optional[FrozenCovs] = None
    cross_covs: Optional[FrozenCovs] = None
    transition_seq: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("filtered_covs", "predicted_covs", "smoothed_covs",
                     "cross_covs"):
            covs = getattr(self, name)
            if covs is not None and not isinstance(covs, FrozenCovs):
                object.__setattr__(self, name, FrozenCovs(
                    covs, np.ones(len(covs), dtype=int)))

    @property
    def horizon(self) -> int:
        return self.predicted_means.shape[0]


def _validate_io(n: int, m: int, p: int, noise: NoiseModel, inputs, outputs,
                 prior):
    as_float_array(noise.Q, "noise Q", (n, n))
    as_float_array(noise.R, "noise R", (p, p))
    inputs = as_float_array(inputs, "inputs", ("T", m))
    outputs = as_float_array(outputs, "outputs", (len(inputs), p))
    mu0 = as_float_array(prior[0], "mu0", (n,))
    p0 = check_psd(prior[1], "P0", (n, n))
    return inputs, outputs, mu0, p0


def _jittered_chol(s: np.ndarray, t: int, smoother: bool = False):
    """Lower Cholesky factor of ``s`` and the matrix factored: ``s``, or after
    a non-positive pivot ``s`` plus the relative jitter 1e-12 max(1, tr s / n),
    a DEBUG event at time index t; a second failure raises ValueError.  The
    event and message are the smoother's (P_pred) or the filter's (S)."""
    chol, info = dpotrf(s, 1, 0)        # lower = 1, clean = 0
    if info != 0:
        jitter = _JITTER * max(1.0, float(np.trace(s)) / s.shape[0])
        if smoother:
            logger.debug("rts.predicted_cov_jitter time_index=%d jitter=%.3e", t, jitter)
        else:
            logger.debug("kalman.innovation_jitter time_index=%d jitter=%.3e", t, jitter)
        s = s + jitter * np.eye(s.shape[0])
        chol, info = dpotrf(s, 1, 0)
        if info != 0:
            raise ValueError(("singular predicted covariance" if smoother else
                              "innovation covariance not positive definite")
                             + f" at time index {t}")
    return chol, s


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
    the innovation Cholesky factor are frozen (the DEBUG event
    ``kalman.steady_state`` names t); the later means are one affine
    recursion in the closed-loop matrix (I - KC) A, run by the chunked scan
    :func:`linear_scan` (equal to the step loop up to rounding).  The
    covariances are returned as :class:`FrozenCovs` with one block per step
    computed; once frozen, the last block of each repeats to t = T, so they
    take O(t n^2) memory rather than O(T n^2).

    The drive ``B u_t`` is formed for all t in one matmul before the loop,
    and its row t is overwritten by the predicted mean once used; the
    covariances are kept in per-step lists until the end or the freeze.
    Each step calls LAPACK ``dpotrf`` / ``dpotrs`` / ``dtrtrs`` directly: a
    non-positive pivot (``info`` > 0) gets one jitter retry, the DEBUG event
    ``kalman.innovation_jitter``, and a second one raises ValueError.  Each
    step keeps its innovation Cholesky diagonal and whitened innovation, and
    :func:`_loglik` sums them after the loop (and again over the frozen
    stretch).  A non-finite mean, covariance or log-likelihood term (a
    diverging model) raises ValueError at its step, before and after the
    freeze, also when a later step's factorization failed first; both errors
    name the time index.  Q must be n x n and R p x p.
    """
    if np.any(lti.D != 0.0):
        raise ValueError("kalman_filter requires D = 0")
    inputs, outputs, mu0, p0 = _validate_io(lti.n, lti.m, lti.p, noise,
                                            inputs, outputs, prior)
    a, c, q, r = lti.A, lti.C, noise.Q, noise.R
    horizon, n, p_dim = inputs.shape[0], lti.n, lti.p
    if n == 0:
        return _stateless(outputs, r)

    f_means = np.empty((horizon + 1, n))
    p_means = inputs @ lti.B.T
    f_covs, p_covs, diags, whites = [p0], [], [], []
    f_means[0] = mu0
    cov = p0
    steady_from = None
    try:
        for t in range(horizon):
            mu_pred = np.add(a @ f_means[t], p_means[t], out=p_means[t])
            cov_pred = _congruence(a, cov, q)
            p_covs.append(cov_pred)
            cov, chol, white, gain = _measure(mu_pred, cov_pred, outputs[t], c,
                                              r, t + 1, f_means[t + 1])
            f_covs.append(cov)
            diags.append(chol.diagonal())
            whites.append(white)
            if (t > 0 and _settled(cov_pred, p_covs[t - 1])
                    and _settled(cov, f_covs[t])):
                steady_from = t
                logger.debug("kalman.steady_state steady_from=%d", t)
                break
    except ValueError:
        _loglik(p_dim, diags, whites)  # an earlier non-finite step comes first
        raise
    loglik = _loglik(p_dim, diags, whites)
    counts = np.ones(len(f_covs), dtype=int)

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
        loglik = _loglik(p_dim, chol.diagonal(),
                         dtrtrs(chol, innov.T, lower=1)[0].T, start, loglik)
        # the last block of each is the frozen matrix, repeated to t = T
        counts[-1] = horizon - steady_from

    f_covs, p_covs = (np.reshape(c, (-1, n, n)) for c in (f_covs, p_covs))
    return SmoothedPosterior(
        filtered_means=f_means, filtered_covs=FrozenCovs(f_covs, counts),
        predicted_means=p_means, predicted_covs=FrozenCovs(p_covs, counts[1:]),
        loglik=loglik)


def _stateless(outputs, r, **fields) -> SmoothedPosterior:
    """The filter pass, with ``fields``, of a model with no state (n = 0)."""
    horizon, p_dim = outputs.shape
    chol = _jittered_chol(r, 1)[0]
    return SmoothedPosterior(
        np.empty((horizon + 1, 0)), np.empty((horizon + 1, 0, 0)),
        np.empty((horizon, 0)), np.empty((horizon, 0, 0)),
        _loglik(p_dim, chol.diagonal(), dtrtrs(chol, outputs.T, 1)[0].T), **fields)


def _measure(mu_pred, cov_pred, y, c, r, t, mu_out, cov_out=None):
    """The measurement update at time index t of both filters: the filtered
    mean goes into ``mu_out``; returns the filtered covariance (into
    ``cov_out`` if given), the innovation Cholesky factor, the whitened
    innovation and the gain.

    The update is the Joseph form (I - KC) P (I - KC)' + K R K', written
    from C P and S = C P C' + R as P + M + M' with M = K (S K' / 2 - C P):
    equal for any K, exactly symmetric, and it sees only sym(S), so S is
    not symmetrized first (``dpotrf`` reads its lower triangle).  Each
    product is one BLAS call, R and the Joseph terms folded into its alpha
    and beta: ``dgemv`` for y - C mu and K times it, ``dgemm`` for C P, S,
    S K' / 2 - C P (written over C P) and M, called as in ``_congruence``."""
    innov = dgemv(-1.0, c.T, mu_pred, 1.0, y, 0, 1, 0, 1, 1)
    cp = dgemm(1.0, c.T, cov_pred.T, 0.0, None, 1, 1)
    s = dgemm(1.0, cp, c.T, 1.0, r)
    chol = _jittered_chol(s, t)[0]
    k_t = dpotrs(chol, cp, 1)[0]
    np.add(mu_pred, dgemv(1.0, k_t, innov, 0.0, None, 0, 1, 0, 1, 1),
           out=mu_out)
    joseph = dgemm(1.0, k_t, dgemm(0.5, s, k_t, -1.0, cp, 0, 0, 1), 0.0,
                   None, 1)
    cov = np.add(joseph, joseph.T, out=cov_out)
    cov += cov_pred
    return cov, chol, dtrtrs(chol, innov, 1)[0], k_t.T


def _loglik(p_dim, chol_diags, whites, start=0, loglik=0.0):
    """``loglik`` plus the innovations log-likelihood of the steps at time
    indices start + 1, start + 2, ..., from the diagonals of their
    innovation Cholesky factors and their whitened innovations, rows of
    length p (one diagonal row stands for every step), accumulated in step
    order.  Raises the divergence error at the first step whose partial sum
    is not finite."""
    logdets = 2.0 * np.log(np.reshape(chol_diags, (-1, p_dim))).sum(axis=1)
    whites = np.reshape(whites, (-1, p_dim))
    terms = 0.5 * (p_dim * _LOG_2PI + logdets
                   + np.einsum("ij,ij->i", whites, whites))
    partial = np.cumsum(np.concatenate([[loglik], -terms]))
    finite = np.isfinite(partial)
    if not finite.all():
        raise _diverged(start + int(np.argmin(finite)))
    return float(partial[-1])


def _settled(new: np.ndarray, old: np.ndarray) -> bool:
    scratch = np.subtract(new, old)     # |new - old|, then |new|, in place
    step = np.maximum.reduce(np.abs(scratch, out=scratch), None)
    return step <= _STEADY_TOL * np.maximum.reduce(np.abs(new, out=scratch), None)


def rts_smoother(filtered: SmoothedPosterior, lti: LtiModel,
                 noise: NoiseModel) -> SmoothedPosterior:
    """Backward Rauch-Tung-Striebel pass.

    Produces smoothed means/covariances and the cross-covariances
    ``Cov(x_t, x_{t+1} | y_{1:T}) = J_t P_{t+1|T}``.  For time-varying filter
    output the per-step transition matrices recorded by the filter are used
    with the same (LTI) cross-covariance formula.

    The filter's blocks are read as its steps: with s the index of the last
    filtered block, blocks 0..s-1 of both sequences must count one step
    each, the predicted counts must be the filtered counts from block 1 on,
    and the last filtered block counts the steps s..T (one on an EKF pass);
    any other layout raises ValueError.  When it counts more than one, the
    recursion froze at s: the gain J is computed once from the last blocks,
    and the covariances are iterated back from t = T only until a step
    moves them by at most ``_STEADY_TOL`` times their largest entry; the
    means over that stretch are one backward affine recursion in J, run by
    the chunked scan :func:`linear_scan`.  Steps before s are computed one
    by one.  The smoothed and cross covariances are :class:`FrozenCovs`,
    each one array of blocks allocated once: the backward iteration fills
    it from row s, the settled matrix first with the count that reaches
    t = T, and the per-step pass the rows below.  ``noise`` is unused; it
    stays for the benchmark's positional call until the next benchmark
    revision.
    """
    f_means, p_means = filtered.filtered_means, filtered.predicted_means
    f_covs, p_covs = filtered.filtered_covs, filtered.predicted_covs
    horizon, n = filtered.horizon, f_means.shape[1]
    if n == 0:                  # no state: every smoothed field is empty
        return dataclasses.replace(filtered, smoothed_means=f_means,
                                   smoothed_covs=f_covs, cross_covs=p_covs)
    a_seq, counts = filtered.transition_seq, f_covs.counts
    start = len(counts) - 1
    if (len(f_covs) != horizon + 1 or np.any(counts[:-1] != 1)
            or counts[-1] < 1 or not np.array_equal(p_covs.counts, counts[1:])
            or a_seq is not None and start < horizon):
        raise ValueError("rts_smoother reads the filter's blocks as its "
                         "steps, the last filtered one repeated to t = T "
                         "only on an LTI pass")
    s_means = np.empty((horizon + 1, n))
    s_means[horizon] = f_means[horizon]
    # covariances from t = T backward, computed before the per-step pass
    s_tail, cross_tail = [f_covs.mats[-1]], []

    if start < horizon:
        p_f = s_tail[0]
        gain, p_pred = _smoother_gain(lti.A, p_f, p_covs.mats[-1], horizon - 1)
        for _ in range(horizon - start):
            cross_tail.append(gain @ s_tail[-1])
            s_tail.append(_congruence(gain, s_tail[-1] - p_pred, p_f))
            if _settled(s_tail[-1], s_tail[-2]):
                break
        cross_tail.append(gain @ s_tail[-1])
        offsets = np.matmul(p_means[start:horizon], -gain.T,
                            out=s_means[start:horizon])
        offsets += f_means[start:horizon]
        linear_scan(gain, s_means[start:][::-1])

    # rows in time order; the tails are written with no temporary copy
    s_covs = np.empty((start + len(s_tail), n, n))
    cross = np.empty((start + len(cross_tail), n, n))
    np.concatenate(s_tail[::-1], out=s_covs[start:].reshape(-1, n))
    if cross_tail:
        np.concatenate(cross_tail[::-1], out=cross[start:].reshape(-1, n))
    for t in range(start - 1, -1, -1):
        p_f = f_covs.mats[t]
        gain, p_pred = _smoother_gain(
            lti.A if a_seq is None else a_seq[t], p_f, p_covs.mats[t], t)
        s_means[t] = f_means[t] + gain @ (s_means[t + 1] - p_means[t])
        _congruence(gain, s_covs[t + 1] - p_pred, p_f, out=s_covs[t])
        cross[t] = gain @ s_covs[t + 1]

    if start < horizon:
        # the settled matrix, row start, fills out T + 1 and T steps
        counts = np.ones((2, len(s_covs)), dtype=int)
        counts[:, start] = horizon + 2 - len(s_covs), horizon + 1 - len(s_covs)
        s_covs = FrozenCovs(s_covs, counts[0])
        cross = FrozenCovs(cross, counts[1])
    return dataclasses.replace(filtered, smoothed_means=s_means,
                               smoothed_covs=s_covs, cross_covs=cross)


def _smoother_gain(a_t, p_f, p_pred, t):
    """RTS gain ``J = P_f A' P_pred^{-1}`` at time index t and the P_pred it
    used, by the Cholesky factor of :func:`_jittered_chol` at index t + 1."""
    chol, p_pred = _jittered_chol(p_pred, t + 1, smoother=True)
    return dpotrs(chol, a_t @ p_f, lower=1)[0].T, p_pred


def ekf_filter(params: ReservoirParams, readout: Readout, noise: NoiseModel,
               inputs, outputs, prior) -> SmoothedPosterior:
    """Extended Kalman filter on the nonlinear reservoir.

    The mean is propagated through the full nonlinear update; covariances use
    the Jacobian linearization at the current filtered mean (so the recorded
    transition sequence is time varying).  The drive ``U u_t + b`` is formed
    for all t in one matmul before the loop, as are ``y_t - d`` and leak * W.
    Each step calls only ufuncs, BLAS / LAPACK routines and one writer bound
    before the loop: one ``dgemv`` for W mu + drive_t, sigma and its slope
    written in place by ``core._sigma_into``'s writer, and A_t as leak * W
    times the slope plus 1 - leak on a strided view of its diagonal, made
    once for all t.  The mean goes into a row of the returned means, A_t and
    both covariances into rows of one (3T + 1, n, n) block, of which the
    three sequences are views.  Each step keeps the Cholesky diagonal and
    the whitened innovation, from which the log-likelihood is formed in one
    pass after the loop.  The measurement update, its LAPACK calls and its
    errors are those of :func:`kalman_filter`; a non-finite step raises with
    its time index, as there, even when a later step fails first.
    """
    as_float_array(readout.C, "readout C", (readout.p, params.n))
    inputs, outputs, mu0, p0 = _validate_io(params.n, params.m, readout.p,
                                            noise, inputs, outputs, prior)
    drive = inputs @ params.U.T + params.b
    outputs = outputs - readout.d
    horizon, n = drive.shape
    p_dim = outputs.shape[1]
    lam, sigma = params.leak, _sigma_into(params.activation, (params.n,))
    keep = 1.0 - lam
    w_t = np.ascontiguousarray(params.W).T      # F-ordered, for dgemv
    lam_w = np.multiply(lam, params.W, order="C")
    c, q, r = readout.C, noise.Q, noise.R
    if n == 0:
        return _stateless(outputs, r, transition_seq=np.empty((horizon, 0, 0)))

    f_means = np.empty((horizon + 1, n))
    p_means = drive  # row t holds the drive until its prediction is made
    f_covs, p_covs, a_seq = np.split(np.empty((3 * horizon + 1, n, n)),
                                     [horizon + 1, 2 * horizon + 1])
    a_diags = a_seq.reshape(horizon, n * n)[:, ::n + 1]
    f_means[0], f_covs[0] = mu0, p0
    value, slope = np.empty(n), np.empty(n)
    column = slope[:, None]
    diags, whites = [], []
    steps = zip(range(1, horizon + 1), f_means, f_covs, drive, a_seq, a_diags,
                p_covs, outputs, f_means[1:], f_covs[1:])
    try:
        for t, mu, cov, pre, a_t, a_diag, cov_pred, y, mu_out, cov_out in steps:
            # W mu + drive_t, in row t of drive, which the prediction
            # overwrites once sigma has read it; positional arguments as in
            # core._preactivation_steps
            dgemv(1.0, w_t, mu, 1.0, pre, 0, 1, 0, 1, 1, 1)
            sigma(pre, value, slope)
            value *= lam
            mu_pred = np.multiply(mu, keep, out=pre)
            mu_pred += value
            np.multiply(column, lam_w, out=a_t)
            a_diag += keep
            _congruence(a_t, cov, q, out=cov_pred)
            _, chol, white, _ = _measure(mu_pred, cov_pred, y, c, r, t,
                                         mu_out, cov_out)
            diags.append(chol.diagonal())
            whites.append(white)
    except ValueError:
        _loglik(p_dim, diags, whites)  # an earlier non-finite step comes first
        raise
    loglik = _loglik(p_dim, diags, whites)

    return SmoothedPosterior(
        filtered_means=f_means, filtered_covs=f_covs, predicted_means=p_means,
        predicted_covs=p_covs, loglik=loglik, transition_seq=a_seq)


# ---------------------------------------------------------------------------
# EM


@dataclass(frozen=True)
class StructuredBasis:
    """Span basis {I, W_bar} with the activation slope bound used by the
    feasibility constraint; ``w_norm``, ||W_bar||_2 by the LAPACK SVD, is
    computed once on construction for every projection and certificate."""

    W_bar: np.ndarray
    l_sigma: float = 1.0
    w_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        w = as_float_array(self.W_bar, "W_bar", ("n", "n"))
        if not 0.0 < self.l_sigma < math.inf:
            raise ValueError("l_sigma must be positive and finite")
        object.__setattr__(self, "W_bar", w)
        object.__setattr__(self, "w_norm", spectral_norm(w))


@dataclass(frozen=True)
class StructuredTheta:
    """Leak ``lam`` and spectral scaling ``alpha`` of the structured transition
    ``A = (1 - lam) I + lam * alpha * W_bar``.

    Every estimate comes from :func:`_nearest_feasible`, so it meets the
    small-gain margin and ``feasible`` is True; ``clamped`` records that the
    margin was active (the unconstrained optimum lay outside it).
    """

    lam: float
    alpha: float
    basis: StructuredBasis
    clamped: bool = False
    feasible: bool = True

    @property
    def A(self) -> np.ndarray:
        return ((1.0 - self.lam) * np.eye(len(self.basis.W_bar))
                + (self.lam * self.alpha) * self.basis.W_bar)


def _nearest_feasible(h: np.ndarray, g: np.ndarray,
                      basis: StructuredBasis) -> StructuredTheta:
    """The (lam, alpha) whose theta = (1 - lam, lam alpha) minimises
    theta' h theta - 2 g' theta (h 2 x 2 PSD, g in its range) over the
    triangle theta_1, theta_2 >= 0, theta_1 + L_sigma ||W_bar|| theta_2 <=
    1 - 1e-6 (the edge theta_2 = 0 when W_bar = 0): the minimum-norm
    stationary point if it lies in the triangle, else, ``clamped``, the
    best point of the three edges."""
    top, gain = 1.0 - _FEASIBILITY_MARGIN, basis.l_sigma * basis.w_norm
    theta = np.linalg.lstsq(h, g, rcond=None)[0]
    clamped = not (theta.min() >= 0.0 and theta[0] + gain * theta[1] <= top)
    if clamped:
        vertices = np.array([[0.0, 0.0], [top, 0.0], [0.0, top / gain if gain else 0.0]])
        edges = []      # each edge's best point start + t step, t in [0, 1]
        for start, end in itertools.combinations(vertices, 2):
            step = end - start
            descent, curve = step @ (g - h @ start), step @ h @ step
            edges.append(start + step * (np.clip(descent / curve, 0.0, 1.0)
                                         if curve > 0.0 else float(descent > 0.0)))
        theta = min(edges, key=lambda point: point @ (h @ point - 2.0 * g))
    lam = 1.0 - float(theta[0])
    return StructuredTheta(lam=lam, alpha=float(theta[1]) / lam, basis=basis,
                           clamped=clamped)


def project_structured(a_matrix: np.ndarray,
                       basis: StructuredBasis) -> StructuredTheta:
    """The feasible structured transition nearest a transition matrix in the
    Frobenius norm: :func:`_nearest_feasible` with h the Gram of {I, W_bar}
    and g = (<I, A>, <W_bar, A>), minimum-norm on a degenerate basis."""
    w_bar = basis.W_bar
    a_matrix = as_float_array(a_matrix, "a_matrix", w_bar.shape)
    span = np.stack([np.eye(len(w_bar)), w_bar])
    return _nearest_feasible(np.einsum("jab,kab->jk", span, span),
                             np.einsum("ab,kab->k", a_matrix, span), basis)


@dataclass(frozen=True)
class EmStepResult:
    lti: LtiModel
    noise: NoiseModel
    loglik: float
    theta: Optional[StructuredTheta] = None


def em_step(lti: LtiModel, noise: NoiseModel, inputs, outputs, prior,
            structure: Optional[StructuredBasis] = None) -> EmStepResult:
    """One EM iteration: smoother E-step, then closed-form (A, B, Q, R).

    The returned log-likelihood is the one evaluated under the *input*
    parameters (the quantity EM drives upward).  The transition update solves
    the stacked normal equations for [A B] jointly; with a structured basis
    it is exact conditional maximisation (ECM; Meng & Rubin 1993) under the
    input Q: B = (M_1u - A M_xu) M_uu^-1 profiled out leaves a Q^-1-weighted
    quadratic in (1 - lam, lam alpha), minimised by :func:`_nearest_feasible`.
    A regression Gram that ``_linalg._singular_gram`` calls singular (its
    smallest singular value at most 1e-13 times its largest, zero included,
    so the test does not depend on the data's units) gets a ridge of
    ``1e-10 max(trace / dim, 1)``, the WARNING event ``em.ridge``; the Q and
    R updates are floored as in :func:`_floor_psd`.  A record of no step
    (T = 0) raises ValueError.
    """
    inputs = as_float_array(inputs, "inputs", ("T", lti.m))
    if not len(inputs):
        raise ValueError("em_step needs at least one step (T >= 1)")
    post = rts_smoother(kalman_filter(lti, noise, inputs, outputs, prior),
                        lti, noise)
    outputs = np.asarray(outputs, dtype=np.float64)
    horizon, n = post.horizon, lti.n
    mu, covs = post.smoothed_means, post.smoothed_covs

    cov_next = covs[1:].sum(axis=0)
    s_11 = cov_next + mu[1:].T @ mu[1:]
    s_1x = post.cross_covs.sum(axis=0).T + mu[1:].T @ mu[:-1]

    # the Gram of the regressors [x_t, u_t] and their moments with x_{t+1}
    gram = np.empty((n + lti.m,) * 2)
    gram[:n, :n] = covs[:-1].sum(axis=0) + mu[:-1].T @ mu[:-1]
    gram[:n, n:] = mu[:-1].T @ inputs
    gram[n:, :n], gram[n:, n:] = gram[:n, n:].T, inputs.T @ inputs
    rhs = np.hstack([s_1x, mu[1:].T @ inputs])
    ridge = 0.0
    if _singular_gram(np.linalg.svd(gram, compute_uv=False)):
        ridge = 1e-10 * max(float(np.trace(gram)) / gram.shape[0], 1.0)
        logger.warning("em.ridge ridge=%.3e", ridge)
    # coeffs is [A B]; the Q residual below uses the Gram without the ridge
    fit, theta = gram + ridge * np.eye(gram.shape[0]), None
    if structure is None:
        coeffs = np.linalg.solve(fit, rhs.T).T
    else:
        # M_uu^-1 [M_ux M_u1]: profiling B out leaves A's moments as Schur
        # complements of M_uu, and B = (M_uu^-1 M_u1)' - A (M_uu^-1 M_ux)'
        uu = np.linalg.solve(fit[n:, n:], np.hstack([fit[n:, :n], rhs[:, n:].T]))
        s_xx = fit[:n, :n] - fit[:n, n:] @ uu[:, :n]
        s_1x_u = s_1x - rhs[:, n:] @ uu[:, :n]
        span = np.stack([np.eye(n), as_float_array(structure.W_bar, "W_bar", (n, n))])
        weight = np.linalg.pinv(noise.Q, hermitian=True)
        theta = _nearest_feasible(
            np.einsum("jab,kab->jk", weight @ span @ s_xx, span),
            np.einsum("ab,kab->k", weight @ s_1x_u, span), structure)
        coeffs = np.hstack([theta.A, uu[:, n:].T - theta.A @ uu[:, :n].T])

    resid = _congruence(coeffs, gram, s_11 - coeffs @ rhs.T - rhs @ coeffs.T)
    q_new = _floor_psd(resid / horizon)

    y_resid = outputs - mu[1:] @ lti.C.T
    r_new = _floor_psd(_congruence(lti.C, cov_next, y_resid.T @ y_resid) / horizon)

    new_lti = LtiModel(A=coeffs[:, :n], B=coeffs[:, n:], C=lti.C, D=lti.D)
    return EmStepResult(lti=new_lti, noise=NoiseModel(Q=q_new, R=r_new),
                        loglik=post.loglik, theta=theta)


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

    Every step maximises over the model family, so a likelihood decrease
    beyond 1e-9 raises RuntimeError (a bug, not a numerical quirk), except
    at a structured run's first step, whose input, the caller's model, may
    lie outside the family.  ``constrained_steps`` flags the clamped steps.
    """
    check_count(max_iters, "max_iters", 1)
    if not 0.0 <= rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    trace: List[float] = []
    flags: List[bool] = []
    for _ in range(max_iters):
        step = em_step(lti, noise, inputs, outputs, prior, structure)
        lti, noise, theta = step.lti, step.noise, step.theta
        trace.append(step.loglik)
        flags.append(theta is not None and theta.clamped)
        if len(trace) < 2:
            continue
        delta = trace[-1] - trace[-2]
        if delta < -1e-9 and (structure is None or len(trace) > 2):
            raise RuntimeError(
                f"EM log-likelihood decreased by {-delta:.3e} at step "
                f"{len(trace) - 1}; this indicates a bug")
        if abs(delta) < rel_tol * max(abs(trace[-2]), 1.0):
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
        x_hat, covs = as_float_array(states, "states", ("T", "n")), None
    y = as_float_array(outputs, "outputs", (len(x_hat), "p"))
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
    solve and d recovered afterwards.  With ridge = 0, a centered Gram whose
    smallest singular value is at most 1e-13 times its largest
    (``_linalg._singular_gram``) raises ``ValueError``.
    """
    if not 0.0 <= ridge < math.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    x_mean, y_mean, gram, g = _readout_moments(states, outputs)
    if ridge == 0.0 and _singular_gram(np.linalg.svd(gram, compute_uv=False)):
        raise ValueError("singular readout Gram; set ridge > 0")
    c = np.linalg.solve(gram + ridge * np.eye(len(gram)), g.T).T
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
    if not 0.0 < tau_p < math.inf:
        raise ValueError(
            f"prior precision tau_p must be positive and finite, got {tau_p}")
    x_mean, y_mean, s_moment, g = _readout_moments(states, outputs)
    r = check_psd(R, "R", (len(y_mean), len(y_mean)))
    if float(np.linalg.eigvalsh(r).min()) <= 0.0:
        raise ValueError("R must be positive definite")
    s_moment = symmetrize(s_moment)
    c = scipy.linalg.solve_sylvester(tau_p * r, s_moment, g)
    d = y_mean - c @ x_mean
    posterior = BayesReadoutPosterior(tau=float(tau_p), state_moment=s_moment,
                                      r_inv=np.linalg.inv(r))
    return Readout(C=c, d=d), posterior


# ---------------------------------------------------------------------------
# Subspace identification (Ho-Kalman) with structured projection


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
    (strictly proper; assumes the run started at rest).  Raises unless T >
    L (m + 1), before any solve, then if the regressor is not persistently
    exciting: the squares of its singular values, those of its Gram, fail
    ``_linalg._singular_gram`` (sigma_min^2 <= 1e-13 sigma_max^2)."""
    (horizon, m), p = inputs.shape, outputs.shape[1]
    if horizon <= n_markov * (m + 1):
        raise ValueError(
            f"not enough data for the requested Markov horizon: T = {horizon} "
            f"samples, need more than L (m + 1) = {n_markov * (m + 1)}")
    # row t - L: regressor [u_t, u_{t-1}, ..., u_{t-L+1}] paired with outputs[t]
    windows = np.lib.stride_tricks.sliding_window_view(inputs, (n_markov, m))
    regress = windows[1:, 0, ::-1].reshape(horizon - n_markov, n_markov * m)
    coeffs, _, _, svals = np.linalg.lstsq(regress, outputs[n_markov:], rcond=None)
    if _singular_gram(svals ** 2):
        raise ValueError(
            f"inputs are not persistently exciting at depth {n_markov} "
            f"(sigma_min = {svals.min():.3e})")
    return coeffs.T.reshape(p, n_markov, m).transpose(1, 0, 2)


def subspace_shape(order: int, basis: StructuredBasis, *,
                   impulse: Optional[np.ndarray] = None,
                   inputs=None, outputs=None,
                   n_markov: Optional[int] = None) -> SubspaceResult:
    """Ho-Kalman realization followed by the structured contraction projection.

    Either pass ``impulse`` (the kernel blocks h_k = C A^k B, shape
    (K+1, p, m)) directly, or input/output data from a run started at rest,
    in which case L Markov parameters are estimated by least squares, L =
    ``n_markov`` or by default min(max(2 order + 2, 20), T // 2).  Before any
    solve, ``order`` must equal the size of ``basis.W_bar`` (the projection
    needs an A that size), and L >= 2 order + 1 and T > L (m + 1) are
    checked; persistent excitation at depth L asks that the regressor's
    sigma_min^2 exceed 1e-13 sigma_max^2, the package's one rank rule
    (``_linalg._singular_gram``) on its Gram, so it reads the same in any
    units.

    The balanced realization of order ``order`` comes from the truncated SVD
    of the block Hankel matrix (singular values below ``1e-8 * s_1`` do not
    count toward its rank); the feasible structured transition nearest its
    transition matrix (:func:`project_structured`) is then taken, and its
    small-gain certificate is attached.
    """
    check_count(order, "order", 1)
    if order != len(basis.W_bar):
        raise ValueError(
            f"order {order} must equal the basis size {len(basis.W_bar)}")
    if n_markov is not None:
        check_count(n_markov, "n_markov", 1)
    if impulse is not None:
        markov = as_float_array(impulse, "impulse", ("K+1", "p", "m"))
        count = len(markov)
    else:
        if inputs is None or outputs is None:
            raise ValueError("provide either impulse data or inputs/outputs")
        inputs = as_float_array(inputs, "inputs", ("T", "m"))
        outputs = as_float_array(outputs, "outputs", (len(inputs), "p"))
        count = n_markov if n_markov is not None else min(
            max(2 * order + 2, 20), inputs.shape[0] // 2)
    if count < 2 * order + 1:
        raise ValueError(
            f"need at least 2 * order + 1 = {2 * order + 1} Markov blocks, "
            f"got {count}")
    if impulse is None:
        markov = _markov_from_io(inputs, outputs, count)
    p, m = markov.shape[1], markov.shape[2]
    q_blocks = (count + 1) // 2
    s_blocks = count - q_blocks          # q + s - 1 <= count - 1 for the shift
    # q + 1 block rows: the Hankel matrix is the first q, its shift the last q
    blocks = markov[np.add.outer(np.arange(q_blocks + 1), np.arange(s_blocks))]
    hankel = blocks.transpose(0, 2, 1, 3).reshape((q_blocks + 1) * p, s_blocks * m)
    hankel0, hankel1 = hankel[:-p], hankel[p:]
    u_svd, svals, vt = np.linalg.svd(hankel0, full_matrices=False)
    effective = int(np.sum(svals >= 1e-8 * svals[0]))
    if effective < order:
        raise ValueError(
            f"Hankel numerical rank {effective} is below the requested "
            f"order {order}")
    sqrt_s = np.sqrt(svals[:order])
    a_ssi = (u_svd[:, :order] / sqrt_s).T @ hankel1 @ (vt[:order].T / sqrt_s)
    c_ssi = u_svd[:p, :order] * sqrt_s
    b_ssi = sqrt_s[:, None] * vt[:order, :m]

    theta = project_structured(a_ssi, basis)
    # alpha ||W_bar|| adds one rounding to the SVD norm, inside its error bound
    cert = _small_gain(theta.lam, basis.l_sigma, theta.alpha * basis.w_norm,
                       len(basis.W_bar))
    return SubspaceResult(A=a_ssi, B=b_ssi, C=c_ssi, markov=markov,
                          theta=theta, certificate=cert)
