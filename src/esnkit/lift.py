"""Dictionary lifting to a linear surrogate in feature space.

The dictionary phi is the constant 1 and the raw state coordinates, followed
by ``count`` random Fourier features (none: the affine dictionary).  Fitting
regresses the lifted one-step image ``phi(f(x_t, u_t))`` on
``[phi(x_t); u_t]`` in ridge least squares; the constant feature absorbs the
affine offset, so no separate offset vector is fit.  The uniform training
residual ``epsilon = max_t ||e_t||`` is the quantity the rollout bound
``epsilon * (1 - rho^t) / (1 - rho)`` is built from; :func:`edmd_fit` puts
phi in one block, adds its normal equations in place and keeps epsilon such
a bound.  Baseline (``nonlinear`` inputs of ``instance_seed(11, 0..5)``,
ridge 1e-6, a held-out noiseless 1000-step run): the RMS one-step state
error is 0.3587 affine and 0.3591 with 128 Fourier features (0.3595 with
every product of two state coordinates added, a dictionary since removed); u
enters the lift only linearly, so richer state features do not help.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.blas import dgemm, dsyrk

from ._linalg import as_float_array, check_count, linear_scan, rng_from_seed
from .core import Readout, ReservoirParams, Trajectory, leaky_map
from .stability import spectral_radius

__all__ = ["Dictionary", "LiftedModel", "edmd_fit", "lifted_rollout_error"]


@dataclass(frozen=True)
class Dictionary:
    """Feature map (1, x, sqrt(2/count) * cos(omega_i . x + phase_i)), with
    omega_i ~ N(0, bandwidth^-2 I) and phase_i ~ U[0, 2 pi) drawn from the
    seed; ``count = 0`` is the affine dictionary (1, x)."""

    count: int = 0
    bandwidth: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_count(self.count, "count", 0)
        if not 0.0 < self.bandwidth < math.inf:
            raise ValueError("bandwidth must be positive and finite")

    @classmethod
    def random_fourier(cls, count: int, bandwidth: float, seed: int) -> "Dictionary":
        return cls(count=count, bandwidth=bandwidth, seed=seed)

    def _fourier_weights(self, n: int):
        """(omega, phase) for states of size n, drawn from the seed afresh on
        every call (tens of microseconds); each eval_batch or edmd_fit draws once."""
        rng = rng_from_seed(self.seed)
        omega = rng.standard_normal((self.count, n)) / self.bandwidth
        return omega, rng.uniform(0.0, 2.0 * np.pi, self.count)

    def output_dim(self, n: int) -> int:
        return 1 + n + self.count

    def _lipschitz(self, omega: np.ndarray) -> float:
        """Bound on ||J_phi||_2 by the Frobenius norm of the Fourier features'
        Jacobian at ``omega``: sqrt(1 + (2/count) ||omega||_F^2), 1 if affine."""
        if self.count == 0:
            return 1.0
        return float(np.sqrt(1.0 + 2.0 / self.count * np.sum(omega * omega)))

    def eval_batch(self, states: np.ndarray) -> np.ndarray:
        """Evaluate the dictionary on the rows of ``states`` (S, n) -> (S, N),
        by :meth:`_fill` into a new array (:func:`edmd_fit` fills one block)."""
        x = as_float_array(states, "states", ("S", "n"))
        return self._fill(x, np.empty((len(x), self.output_dim(x.shape[1]))),
                          self._fourier_weights(x.shape[1]))

    def _fill(self, x: np.ndarray, out: np.ndarray, weights) -> np.ndarray:
        """phi of validated states ``x`` (S, n) into ``out`` (S, N) at ``weights``."""
        n = x.shape[1]
        out[:, 0], out[:, 1:1 + n] = 1.0, x
        if self.count:
            omega, phase = weights
            extra = np.matmul(x, omega.T)   # ufuncs on out's strided view copy it
            extra += phase
            np.cos(extra, out=extra)
            extra *= np.sqrt(2.0 / self.count)
            out[:, 1 + n:] = extra
        return out


@dataclass(frozen=True)
class LiftedModel:
    """Linear dynamics on dictionary features z = phi(x).

    ``epsilon`` is the max one-step training residual (the uniform bound the
    rollout analysis uses).  The offset is carried by the constant feature.
    """

    dictionary: Dictionary
    A_phi: np.ndarray
    B_phi: np.ndarray
    C_phi: np.ndarray
    epsilon: float


def edmd_fit(params: ReservoirParams,
             trajectories: Sequence[Trajectory],
             dictionary: Dictionary,
             ridge: float = 0.0,
             readout: Optional[Readout] = None) -> LiftedModel:
    """Least-squares lift of the reservoir dynamics onto dictionary features.

    Targets are the exact one-step images ``phi(f(x_t, u_t))`` (the reservoir
    map is available, so the residual measures closure of the dictionary, not
    data noise).  ``C_phi`` selects the identity block, composed with the
    readout when one is supplied.

    phi of each trajectory's states x_0..x_T fills its rows of one (sum_i
    (T_i + 1), N) block first.  One pass then forms each one's images f(x_t,
    u_t) by ``core.leaky_map`` from views of its states and inputs, and adds
    its regressors phi(x_0..x_{T-1}) and targets, views of those rows, to the
    normal equations in place: ``dsyrk`` with beta = 1 to the upper triangle
    of phi' phi, one F-ordered N x N array mirrored once at the end, ``dgemm``
    to the target moments, and the small u blocks.  A second pass takes the
    residuals, in one reused (max T_i, N) buffer, and each row norm once.  A
    trajectory with no step adds nothing.  phi(x_{t+1}) is the target only where
    ``delta_t = ||f(x_t, u_t) - x_{t+1}||`` is at most ``16 n eps (1 +
    ||x_t|| + ||x_{t+1}||)`` (noiseless ``simulate`` rows differ by about
    1e-16: it rounds differently); other rows (process noise, data from
    elsewhere) get phi(f(x_t, u_t)) evaluated.  ``epsilon`` adds L_phi times
    the largest reused delta_t, where L_phi >= ||J_phi||_2 holds everywhere
    (``Dictionary._lipschitz``: 1 for the affine dictionary, the Frobenius
    norm bound of the Fourier block otherwise), so it bounds the residuals at
    the exact images.  It is a floating-point bound: it also adds the
    rounding of evaluating residual e_t = K' r_t - y_t, with K = [A_phi,
    B_phi]' and r_t = [phi(x_t); u_t], which is at most gamma_(N+m+1)
    (||r_t|| ||K||_F + ||y_t||) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, sec. 3.5; gamma_k = k u / (1 - k u), u the
    unit roundoff) in any summation order, and the relative rounding
    gamma_(N+2) of each row norm.

    Raises:
        ValueError: a trajectory of another state or input size than the
            reservoir's, too few snapshots, or rank-deficient normal
            equations with ridge = 0 (the message says to set ridge > 0).
    """
    if not 0.0 <= ridge < math.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    n, m = params.n, params.m
    big_n = dictionary.output_dim(n)
    if any(t.states.shape[1:] + t.inputs.shape[1:] != (n, m) for t in trajectories):
        raise ValueError("trajectory dimensions do not match the reservoir")
    c_x, d = (np.eye(n), 0.0) if readout is None else (
        as_float_array(readout.C, "readout C", (readout.p, n)), readout.d)
    trajs = [traj for traj in trajectories if traj.horizon]
    snapshots = sum(traj.horizon for traj in trajs)
    if snapshots < big_n + m + 1:
        raise ValueError(
            f"need at least N + m + 1 = {big_n + m + 1} snapshots, got {snapshots}")

    # phi of trajectory i in rows_of[i], all filled first (the fill's
    # temporaries meet no others); BLAS adds to phi_phi and rhs[:N]' in place
    phi = np.empty((snapshots + len(trajs), big_n))
    rows_of = np.split(phi, np.cumsum([traj.horizon + 1 for traj in trajs[:-1]]))
    weights = dictionary._fourier_weights(n)
    rows_of = [dictionary._fill(t.states, r, weights) for t, r in zip(trajs, rows_of)]
    phi_phi = np.zeros((big_n, big_n), order="F")
    gram, rhs = np.zeros((big_n + m, big_n + m)), np.zeros((big_n + m, big_n))
    pieces, delta_max = [], 0.0     # (phi(x_0..x_T), u, target) per trajectory
    for traj, rows in zip(trajs, rows_of):
        phi_x, target, u = rows[:-1], rows[1:], traj.inputs
        images = leaky_map(params, traj.states[:-1], u)[0]
        delta = _row_norms(images - traj.states[1:])
        norms = _row_norms(traj.states)
        reuse = delta <= 16.0 * n * np.finfo(float).eps * (
            1.0 + norms[:-1] + norms[1:])
        if not reuse.all():
            target, redo = target.copy(), ~reuse
            target[redo] = dictionary._fill(images[redo], target[redo], weights)
        delta_max = max(delta_max, float(delta[reuse].max(initial=0.0)))
        dsyrk(1.0, phi_x.T, 1.0, phi_phi, 0, 0, 1)
        dgemm(1.0, target.T, phi_x.T, 1.0, rhs[:big_n].T, 0, 1, 1)
        gram[:big_n, big_n:] += phi_x.T @ u
        gram[big_n:, big_n:] += u.T @ u
        rhs[big_n:] += u.T @ target
        pieces.append((rows, u, target))
    gram[:big_n, :big_n] = phi_phi + np.triu(phi_phi, 1).T  # dsyrk left 0 below
    gram[big_n:, :big_n] = gram[:big_n, big_n:].T
    if ridge == 0.0:
        svals = np.linalg.svd(gram, compute_uv=False)
        if svals[-1] <= 1e-13 * svals[0]:
            raise ValueError(
                "normal equations are rank deficient with ridge = 0; "
                "set ridge > 0")
    coeffs = np.linalg.solve(gram + ridge * np.eye(big_n + m), rhs)
    del phi_phi, gram, rhs          # freed before the residual buffer exists

    # residuals in one reused buffer; dgemm adds u B' in place, to F-ordered views
    buffer = np.empty((max(len(u) for _, u, _ in pieces), big_n))
    epsilon = scale = 0.0           # max ||e_t||, max ||r_t|| ||K||_F + ||y_t||
    norm_k = float(np.linalg.norm(coeffs))
    for rows, u, target in pieces:
        resid = np.matmul(rows[:-1], coeffs[:big_n], out=buffer[:len(u)])
        dgemm(1.0, coeffs[big_n:].T, u.T, 1.0, resid.T, 0, 0, 1)
        resid -= target
        epsilon = max(epsilon, float(_row_norms(resid).max()))
        norms = _row_norms(rows)    # a target that is no copy is rows[1:]
        targets = norms[1:] if target.base is phi else _row_norms(target)
        regress = np.hypot(norms[:-1], _row_norms(u))
        scale = max(scale, float((regress * norm_k + targets).max()))
    epsilon = (epsilon * (1.0 + _gamma(big_n + 2)) + _gamma(big_n + m + 1) * scale
               + delta_max * dictionary._lipschitz(weights[0]))

    c_phi = np.zeros((len(c_x), big_n))
    c_phi[:, 0], c_phi[:, 1:1 + n] = d, c_x
    return LiftedModel(dictionary=dictionary, A_phi=coeffs[:big_n].T,
                       B_phi=coeffs[big_n:].T, C_phi=c_phi, epsilon=epsilon)


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff: the relative error
    bound of k rounded operations."""
    u = 0.5 * np.finfo(float).eps
    return k * u / (1.0 - k * u)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, with no (S, n) temporary."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def lifted_rollout_error(model: LiftedModel,
                         params: ReservoirParams,
                         traj: Trajectory,
                         horizon: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-step discrepancy ||z_t - phi(x_t)|| of the lifted rollout, with the
    matching analytic bound epsilon * sum_{j<t} rho^j.

    The bound is a heuristic, not a proof: it takes ||A_phi^j|| <= rho^j
    with rho = rho(A_phi), which non-normal lifts break (the ratio has
    reached 33), and the constant feature pins rho at 1.  A proven envelope
    (``stability._decay_envelope``) finds none at rho = 1 and costs 22-33
    ms per call on a 145-feature lift, against 9-11 ms for
    :func:`spectral_radius` (2-core Xeon, OpenBLAS on 1 thread).  The
    rollout ``z_{t+1} = A_phi z_t + B_phi u_t`` from ``z_0 = phi(x_0)`` is one
    chunked scan (``_linalg.linear_scan``).  ``params`` is unused; it stays
    for the benchmark's positional call until the next benchmark revision.
    """
    check_count(horizon, "horizon", 1)
    if horizon > traj.horizon:
        raise ValueError("horizon must be in 1..len(inputs)")
    phi_true = model.dictionary.eval_batch(traj.states[:horizon + 1])
    z = np.empty_like(phi_true)
    z[0] = phi_true[0]
    np.matmul(traj.inputs[:horizon], model.B_phi.T, out=z[1:])
    linear_scan(model.A_phi, z)
    discrepancy = np.linalg.norm(z[1:] - phi_true[1:], axis=1)
    rho = spectral_radius(model.A_phi)
    powers = np.cumsum(rho ** np.arange(horizon))
    bound = model.epsilon * powers
    return discrepancy, bound

