"""Reservoir core: activations with slope data, parameters, and exact simulation.

The state recursion implemented here is the leaky update

    x_{t+1} = (1 - leak) * x_t + leak * sigma(W x_t + U u_t + b)

with an optional linear readout ``y_t = C x_t + d``.  Everything downstream
(stability certificates, linearization, lifting, identification) treats this
map as the ground-truth nonlinear system, so this module keeps it exact:
float64 arithmetic, no approximations, reproducible seeded noise.

:func:`leaky_map` (the map and its slope) and :func:`leaky_jacobians` (its
Jacobians) are the single definition of both.  They work over any leading
axes and validate nothing: every caller checks its inputs once, up front.
Loops over time form the drive ``U u_t + b`` for all t in one matmul first;
:func:`_transition` builds the transition A alone.  With the identity
activation the map is affine, ``x_{t+1} = A x_t + leak (U u_t + b)``, so
:func:`simulate` runs it as one blocked scan (``_linalg.linear_scan``): exact
up to rounding (about 1e-15 relative), but no longer bit-identical to the
step loop.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ._linalg import (as_float_array, check_finite, check_psd, linear_scan,
                      rng_from_seed)

__all__ = [
    "Activation",
    "ReservoirParams",
    "Readout",
    "Trajectory",
    "activation_eval",
    "leaky_jacobians",
    "leaky_map",
    "reservoir_step",
    "simulate",
]

logger = logging.getLogger(__name__)

# sup |tanh''| attained at tanh(x) = 1/sqrt(3)
_TANH_SECOND_DERIV_BOUND = 4.0 / (3.0 * np.sqrt(3.0))


@dataclass(frozen=True)
class Activation:
    """Componentwise activation together with the slope data certificates need.

    The table is closed on purpose: ``tanh``, ``identity``, and
    ``leaky_slope`` all satisfy sigma(0) = 0 and have known global Lipschitz
    constants, which is what the contraction machinery trusts.  The curvature
    bound ``second_deriv_bound`` is ``None`` for the piecewise-linear kind
    (its second derivative is a point mass, so no tube bound exists).

    Attributes:
        kind: one of "tanh", "identity", "leaky_slope".
        negative_slope: slope used for x < 0 when kind == "leaky_slope".
    """

    kind: str
    negative_slope: float = 1.0

    def __post_init__(self):
        if self.kind not in ("tanh", "identity", "leaky_slope"):
            raise ValueError(f"unknown activation kind {self.kind!r}")
        a = float(self.negative_slope)
        if not np.isfinite(a) or a < 0.0:
            raise ValueError("negative_slope must be finite and >= 0")
        object.__setattr__(self, "negative_slope", a)

    @classmethod
    def tanh(cls) -> "Activation":
        return cls("tanh")

    @classmethod
    def identity(cls) -> "Activation":
        return cls("identity")

    @classmethod
    def leaky_slope(cls, negative_slope: float) -> "Activation":
        return cls("leaky_slope", negative_slope=negative_slope)

    @property
    def lipschitz(self) -> float:
        """Global Lipschitz constant; slopes live in [0, lipschitz]."""
        if self.kind == "leaky_slope":
            return max(1.0, self.negative_slope)
        return 1.0

    @property
    def second_deriv_bound(self) -> Optional[float]:
        """sup |sigma''| over the real line, or None if the kink makes it undefined."""
        if self.kind == "tanh":
            return _TANH_SECOND_DERIV_BOUND
        if self.kind == "identity":
            return 0.0
        return None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """sigma(x) componentwise, without the slope and with no validation."""
        if self.kind == "tanh":
            return np.tanh(x)
        if self.kind == "identity":
            return x
        return np.where(x >= 0.0, x, self.negative_slope * x)

    def evaluate(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(sigma(x), sigma'(x))`` componentwise, with no validation."""
        x = np.asarray(x, dtype=np.float64)
        value = self(x)
        if self.kind == "tanh":
            return value, 1.0 - value * value
        if self.kind == "identity":
            return value.copy(), np.ones_like(x)
        return value, np.where(x >= 0.0, 1.0, self.negative_slope)


def activation_eval(activation: Activation, x) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate sigma and its componentwise derivative at ``x``.

    Returns ``(value, derivative_diag)``; the derivative entries are the
    diagonal of the activation Jacobian and always lie in
    ``[-lipschitz, lipschitz]``.

    Raises:
        ValueError: on non-finite input (message carries the offending index).
    """
    x = np.asarray(x, dtype=np.float64)
    check_finite(x, "activation input")
    return activation.evaluate(x)


@dataclass(frozen=True)
class ReservoirParams:
    """Fixed reservoir: recurrent weights ``W``, input weights ``U``, bias ``b``,
    leak in (0, 1], and the activation."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray
    leak: float
    activation: Activation = field(default_factory=Activation.tanh)

    def __post_init__(self):
        w = as_float_array(self.W, "W")
        u = as_float_array(self.U, "U")
        b = as_float_array(self.b, "b")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"W must be square, got shape {w.shape}")
        n = w.shape[0]
        if u.ndim != 2 or u.shape[0] != n:
            raise ValueError(f"U must be {n} x m, got shape {u.shape}")
        if b.shape != (n,):
            raise ValueError(f"b must have shape ({n},), got {b.shape}")
        leak = float(self.leak)
        if not (0.0 < leak <= 1.0):
            raise ValueError(f"leak must be in (0, 1], got {leak}")
        object.__setattr__(self, "W", w)
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "leak", leak)

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def m(self) -> int:
        return self.U.shape[1]


@dataclass(frozen=True)
class Readout:
    """Linear readout ``y = C x + d``."""

    C: np.ndarray
    d: Optional[np.ndarray] = None

    def __post_init__(self):
        c = as_float_array(self.C, "C")
        if c.ndim != 2:
            raise ValueError(f"C must be 2-d, got shape {c.shape}")
        if self.d is None:
            d = np.zeros(c.shape[0])
        else:
            d = as_float_array(self.d, "d")
            if d.shape != (c.shape[0],):
                raise ValueError(f"d must have shape ({c.shape[0]},), got {d.shape}")
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "d", d)

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.C @ x + self.d


@dataclass(frozen=True)
class Trajectory:
    """A simulated run: states x_0..x_T, inputs u_0..u_{T-1}, optional outputs y_1..y_T.

    Output ``outputs[t-1]`` is the measurement of state ``states[t]``; this is
    the pairing the filtering code expects (observations start one step after
    the initial condition).
    """

    states: np.ndarray
    inputs: np.ndarray
    outputs: Optional[np.ndarray] = None

    def __post_init__(self):
        states = as_float_array(self.states, "states")
        inputs = as_float_array(self.inputs, "inputs")
        if states.ndim != 2 or inputs.ndim != 2:
            raise ValueError("states and inputs must be 2-d arrays")
        if states.shape[0] != inputs.shape[0] + 1:
            raise ValueError(
                f"need len(states) == len(inputs) + 1, got {states.shape[0]} "
                f"and {inputs.shape[0]}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)
        if self.outputs is not None:
            outputs = as_float_array(self.outputs, "outputs")
            if outputs.ndim != 2 or outputs.shape[0] != inputs.shape[0]:
                raise ValueError("outputs must be (T, p) aligned with inputs")
            object.__setattr__(self, "outputs", outputs)

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]


def leaky_map(params: ReservoirParams, x: np.ndarray,
              u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The leaky map and its slope: ``(x_next, sigma'(W x + U u + b))``.

    Works over the leading axes of ``x (..., n)`` and ``u (..., m)`` and does
    no validation; callers check shapes and finiteness once, up front.
    """
    return _driven_map(params, x, u @ params.U.T + params.b)


def _driven_map(params: ReservoirParams, x: np.ndarray,
                drive: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`leaky_map` at a precomputed input drive ``U u + b``."""
    value, slope = params.activation.evaluate(x @ params.W.T + drive)
    return _leak(params.leak, x, value), slope


def _leak(lam: float, x: np.ndarray, value: np.ndarray) -> np.ndarray:
    """The leaky update ``(1 - lam) x + lam sigma`` at ``value = sigma``."""
    return (1.0 - lam) * x + lam * value


def leaky_jacobians(params: ReservoirParams,
                    slope: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Jacobians ``(A, B)`` of the leaky map at activation slope ``slope``:
    ``A = (1 - leak) I + leak diag(slope) W`` and ``B = leak diag(slope) U``,
    over the leading axes of ``slope (..., n)``."""
    return (_transition(params, slope),
            params.leak * (slope[..., :, None] * params.U))


def _transition(params: ReservoirParams, slope: np.ndarray) -> np.ndarray:
    """The A of :func:`leaky_jacobians` alone, in one C-ordered array: ``1 -
    leak`` is added in place to its diagonal, a strided view (the same sums
    as adding ``(1 - leak) I``, so the same bits)."""
    a = np.multiply(slope[..., :, None], params.W, order="C")
    a *= params.leak
    a.reshape(*a.shape[:-2], -1)[..., ::params.n + 1] += 1.0 - params.leak
    return a


def reservoir_step(params: ReservoirParams, x, u) -> np.ndarray:
    """One exact step of the leaky recursion (deterministic, no noise)."""
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if x.shape != (params.n,):
        raise ValueError(f"state must have shape ({params.n},), got {x.shape}")
    if u.shape != (params.m,):
        raise ValueError(f"input must have shape ({params.m},), got {u.shape}")
    return leaky_map(params, x, u)[0]


def simulate(params: ReservoirParams,
             x0,
             inputs,
             readout: Optional[Readout] = None,
             process_noise: Optional[Tuple[np.ndarray, int]] = None,
             measurement_noise: Optional[Tuple[np.ndarray, int]] = None) -> Trajectory:
    """Roll the reservoir forward over an input sequence.

    Args:
        params: the fixed reservoir.
        x0: initial state (length n).
        inputs: (T, m) array of driving inputs.
        readout: if given, outputs ``y_t = C x_t + d`` are recorded for
            t = 1..T (aligned as in :class:`Trajectory`).
        process_noise: optional ``(Q, seed)``; adds N(0, Q) to every state
            transition, drawn from a counter-based generator so the run is
            bit-reproducible for a fixed seed.
        measurement_noise: optional ``(R, seed)``; adds N(0, R) to the
            outputs (requires a readout).

    Returns:
        Trajectory with states (T+1, n), the inputs, and outputs when a
        readout was supplied.

    The drive ``U u_t + b`` is formed for all t in one matmul before the
    loop, and each step evaluates sigma alone, not its slope.  The identity
    activation has no loop: its affine recursion is one blocked scan, equal
    to the step loop up to rounding (about 1e-15 relative).  Noise is drawn
    exactly from the PSD covariance, so ``Q = 0`` adds none.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    check_finite(x0, "x0")
    check_finite(inputs, "inputs")
    if x0.shape != (params.n,):
        raise ValueError(f"x0 must have shape ({params.n},), got {x0.shape}")
    if inputs.shape[1] != params.m:
        raise ValueError(f"inputs must be (T, {params.m}), got {inputs.shape}")
    horizon = inputs.shape[0]
    if measurement_noise is not None and readout is None:
        raise ValueError("measurement noise requires a readout")
    w_draws = (None if process_noise is None else
               _noise_draws(process_noise, "Q", (horizon, params.n)))
    v_draws = (None if measurement_noise is None else
               _noise_draws(measurement_noise, "R", (horizon, readout.p)))

    states = np.empty((horizon + 1, params.n))
    states[0] = x0
    # rows 1..T hold the drive until each is overwritten by its state
    drive = np.matmul(inputs, params.U.T, out=states[1:])
    drive += params.b
    if params.activation.kind == "identity":
        # x_t = A x_{t-1} + leak (U u + b) + w: one affine scan
        drive *= params.leak
        if w_draws is not None:
            drive += w_draws
        linear_scan(_transition(params, np.ones(params.n)), states)
    else:
        sigma, lam, w_t = params.activation, params.leak, params.W.T
        x = x0
        for t in range(1, horizon + 1):
            x = _leak(lam, x, sigma(x @ w_t + states[t]))
            if w_draws is not None:
                x = x + w_draws[t - 1]
            states[t] = x

    outputs = None
    if readout is not None:
        outputs = states[1:] @ readout.C.T + readout.d
        if v_draws is not None:
            outputs = outputs + v_draws
    return Trajectory(states=states, inputs=inputs, outputs=outputs)


def _noise_draws(noise, name: str, shape) -> np.ndarray:
    """``shape[0]`` seeded N(0, cov) draws for ``noise = (cov, seed)``: a
    definite ``cov`` is factored by Cholesky, any other by ``eigh`` with the
    eigenvalues below 0 clipped (the DEBUG event ``simulate.noise_clip``)."""
    cov = check_psd(noise[0], name)
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(cov)
        if eigvals[0] < 0.0:
            logger.debug("simulate.noise_clip covariance=%s eigenvalue=%.3e",
                         name, eigvals[0])
        factor = eigvecs * np.sqrt(np.maximum(eigvals, 0.0))
    return rng_from_seed(noise[1]).standard_normal(shape) @ factor.T
