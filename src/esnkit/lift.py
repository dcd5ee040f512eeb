"""Dictionary lifting to a linear surrogate in feature space.

A dictionary phi always starts with the constant 1 and the raw state
coordinates, optionally followed by extra observables (monomials or random
Fourier features).  Fitting regresses the lifted one-step image
``phi(f(x_t, u_t))`` on ``[phi(x_t); u_t]`` in ridge least squares; the
constant feature absorbs the affine offset, so no separate offset vector is
fit.  The uniform training residual ``epsilon = max_t ||e_t||`` is the
quantity the rollout bound ``epsilon * (1 - rho^t) / (1 - rho)`` is built
from.  Baseline (``nonlinear`` benchmark inputs of ``instance_seed(11, 0..5)``,
ridge 1e-6, a held-out noiseless 1000-step run): the RMS one-step state error
is 0.3587 affine, 0.3595 ``monomials(2)``, 0.3591 with 128 Fourier features;
u enters the lift only linearly, so richer state features do not help.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._linalg import linear_scan, rng_from_seed
from .core import Readout, ReservoirParams, Trajectory, leaky_map
from .stability import Certificate, CertificateMethod, Verdict, spectral_radius

__all__ = ["Dictionary", "LiftedModel", "edmd_fit", "lifted_rollout_error",
           "rf_smallgain"]


@dataclass(frozen=True)
class Dictionary:
    """Feature map descriptor; use the constructors rather than the raw init.

    Kinds:
        monomials       -- (1, x, all monomials of degree 2..max_degree);
                           max_degree = 1 is the affine dictionary (1, x)
        random_fourier  -- (1, x, sqrt(2/count) * cos(omega_i . x + phase_i))
                           with omega_i ~ N(0, bandwidth^-2 I) drawn once
                           from the seed.
    """

    kind: str
    max_degree: int = 1
    count: int = 0
    bandwidth: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("monomials", "random_fourier"):
            raise ValueError(f"unknown dictionary kind {self.kind!r}")
        if self.kind == "monomials" and self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if self.kind == "random_fourier":
            if self.count < 1:
                raise ValueError("random_fourier needs count >= 1")
            if not self.bandwidth > 0.0:
                raise ValueError("bandwidth must be positive")

    @classmethod
    def identity_plus_constant(cls) -> "Dictionary":
        return cls.monomials(1)

    @classmethod
    def monomials(cls, max_degree: int) -> "Dictionary":
        return cls("monomials", max_degree=max_degree)

    @classmethod
    def random_fourier(cls, count: int, bandwidth: float, seed: int) -> "Dictionary":
        return cls("random_fourier", count=count, bandwidth=bandwidth, seed=seed)

    def _monomial_exponents(self, n: int):
        expos = []
        for degree in range(2, self.max_degree + 1):
            for combo in itertools.combinations_with_replacement(range(n), degree):
                e = np.zeros(n, dtype=np.int64)
                for i in combo:
                    e[i] += 1
                expos.append(e)
        return np.array(expos) if expos else np.zeros((0, n), dtype=np.int64)

    def _fourier_weights(self, n: int):
        rng = rng_from_seed(self.seed)
        omega = rng.standard_normal((self.count, n)) / self.bandwidth
        phase = rng.uniform(0.0, 2.0 * np.pi, self.count)
        return omega, phase

    def output_dim(self, n: int) -> int:
        if self.kind == "monomials":
            return 1 + n + len(self._monomial_exponents(n))
        return 1 + n + self.count

    def eval_batch(self, states: np.ndarray) -> np.ndarray:
        """Evaluate the dictionary on rows of ``states`` -> (S, N), filling
        one preallocated array in place."""
        x = np.atleast_2d(np.asarray(states, dtype=np.float64))
        s, n = x.shape
        out = np.empty((s, self.output_dim(n)))
        out[:, 0] = 1.0
        out[:, 1:1 + n] = x
        extra = out[:, 1 + n:]
        if self.kind == "monomials":
            for j, e in enumerate(self._monomial_exponents(n)):
                np.prod(x ** e, axis=1, out=extra[:, j])
        elif self.kind == "random_fourier":
            omega, phase = self._fourier_weights(n)
            np.matmul(x, omega.T, out=extra)
            extra += phase
            np.cos(extra, out=extra)
            extra *= np.sqrt(2.0 / self.count)
        return out


@dataclass(frozen=True)
class LiftedModel:
    """Linear dynamics on dictionary features z = phi(x).

    ``epsilon`` is the max one-step training residual (the uniform bound the
    rollout analysis uses); ``residual_rms`` is reported for diagnostics.
    The offset is carried by the constant feature.
    """

    dictionary: Dictionary
    A_phi: np.ndarray
    B_phi: np.ndarray
    C_phi: np.ndarray
    epsilon: float
    ridge: float
    residual_rms: float = 0.0

    @property
    def dim(self) -> int:
        return self.A_phi.shape[0]


def _stack_snapshots(params: ReservoirParams,
                     trajectories: Sequence[Trajectory]):
    xs, us = [], []
    for traj in trajectories:
        if traj.states.shape[1] != params.n or traj.inputs.shape[1] != params.m:
            raise ValueError("trajectory dimensions do not match the reservoir")
        xs.append(traj.states[:-1])
        us.append(traj.inputs)
    return np.vstack(xs), np.vstack(us)


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

    Raises:
        ValueError: too few snapshots, or rank-deficient normal equations
            with ridge = 0 (the message says to set ridge > 0).
    """
    if ridge < 0.0:
        raise ValueError("ridge must be >= 0")
    x, u = _stack_snapshots(params, trajectories)
    n, m = params.n, params.m
    big_n = dictionary.output_dim(n)
    snapshots = x.shape[0]
    if snapshots < big_n + m + 1:
        raise ValueError(
            f"need at least N + m + 1 = {big_n + m + 1} snapshots, got {snapshots}")

    phi_x = dictionary.eval_batch(x)
    targets = dictionary.eval_batch(leaky_map(params, x, u)[0])

    # normal equations of the regressors [phi(x), u], built block by block
    gram = np.block([[phi_x.T @ phi_x, phi_x.T @ u], [u.T @ phi_x, u.T @ u]])
    if ridge == 0.0:
        svals = np.linalg.svd(gram, compute_uv=False)
        if svals[-1] <= 1e-13 * svals[0]:
            raise ValueError(
                "normal equations are rank deficient with ridge = 0; "
                "set ridge > 0")
    coeffs = np.linalg.solve(gram + ridge * np.eye(big_n + m),
                             np.vstack([phi_x.T @ targets, u.T @ targets]))
    a_phi, b_phi = coeffs[:big_n].T, coeffs[big_n:].T

    residuals = targets                     # reuses the targets array
    residuals -= phi_x @ coeffs[:big_n]
    residuals -= u @ coeffs[big_n:]
    per_snapshot = np.linalg.norm(residuals, axis=1)
    epsilon = float(per_snapshot.max())
    rms = float(np.sqrt(np.mean(per_snapshot ** 2)))

    if readout is not None:
        c_phi = np.zeros((readout.p, big_n))
        c_phi[:, 0] = readout.d
        c_phi[:, 1:1 + n] = readout.C
    else:
        c_phi = np.zeros((n, big_n))
        c_phi[:, 1:1 + n] = np.eye(n)
    return LiftedModel(dictionary=dictionary, A_phi=a_phi, B_phi=b_phi,
                       C_phi=c_phi, epsilon=epsilon, ridge=float(ridge),
                       residual_rms=rms)


def lifted_rollout_error(model: LiftedModel,
                         params: ReservoirParams,
                         traj: Trajectory,
                         horizon: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-step discrepancy ||z_t - phi(x_t)|| of the lifted rollout, with the
    matching analytic bound epsilon * sum_{j<t} rho^j.

    The bound is a heuristic, not a proof: it takes ||A_phi^j|| <= rho^j
    with rho = rho(A_phi), which non-normal lifts break (the ratio has
    reached 33), and the constant feature pins rho at 1.  A proven envelope
    (``stability._decay_envelope``) finds none at rho = 1 and costs 40-60
    ms per call on a 145-feature lift, against 7-12 ms for
    :func:`spectral_radius` (2-core Xeon, OpenBLAS on 1 thread).  The
    rollout ``z_{t+1} = A_phi z_t + B_phi u_t`` from ``z_0 = phi(x_0)`` is one
    blocked scan (``_linalg.linear_scan``).
    """
    if horizon < 1 or horizon > traj.horizon:
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


def rf_smallgain(leak: float, v_norm: float, phi_lipschitz: float,
                 w_norm: float) -> Certificate:
    """Small-gain contraction test for the random-feature loop:
    kappa = (1 - leak) + leak * ||V|| * L_Phi * ||W||, Pass iff kappa < 1."""
    if not (0.0 < leak <= 1.0):
        raise ValueError("leak must be in (0, 1]")
    if min(v_norm, phi_lipschitz, w_norm) < 0.0:
        raise ValueError("norms must be nonnegative")
    kappa = (1.0 - leak) + leak * v_norm * phi_lipschitz * w_norm
    verdict = Verdict.PASS if kappa < 1.0 else Verdict.FAIL
    return Certificate(CertificateMethod.RF_SMALL_GAIN, kappa, verdict)
