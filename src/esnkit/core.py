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
:func:`_transition` builds the transition A alone.  sigma and sigma' are
written once, by the in-place writer of :func:`_sigma_into`; the per-step
loops of :func:`simulate` and ``identify.ekf_filter`` bind it before the
loop and call neither ``Activation.evaluate`` nor :func:`_transition`.

:func:`simulate` never steps the state itself.  With the identity
activation the map is affine, ``x_{t+1} = A x_t + leak (U u_t + b)``, and
runs as one chunked scan (``_linalg.linear_scan``) in A.  Otherwise it steps
the preactivation ``a_t = W x_t + U u_t + b``, whose recursion
``a_{t+1} = (1 - leak) a_t + leak W sigma(a_t) + e_{t+1}`` costs one BLAS
matvec, one add and sigma per step, and then recovers the states from the
scalar leaky filter ``x_{t+1} = (1 - leak) x_t + leak sigma(a_t) + w_t``, one
scan in the scalar ``1 - leak``.  Both match the step loop up to rounding
(about 1e-15 relative), not bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from scipy.linalg.blas import dgemv

from ._linalg import as_float_array, check_psd, linear_scan, rng_from_seed

__all__ = [
    "Activation",
    "ReservoirParams",
    "Readout",
    "Trajectory",
    "leaky_jacobians",
    "leaky_map",
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
    bound ``second_deriv_bound`` is ``None`` for a kink (sigma'' is a point
    mass there, so no tube bound exists); ``leaky_slope(1.0)`` has no kink.

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
        if self.kind == "identity" or self.negative_slope == 1.0:
            return 0.0
        return None

    def evaluate(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(sigma(x), sigma'(x))`` componentwise, with no validation."""
        x = np.asarray(x, dtype=np.float64)
        value, slope = np.empty_like(x), np.empty_like(x)
        _sigma_into(self, x.shape)(x, value, slope)
        return value[()], slope[()]     # numpy scalars for a 0-d x, as ufuncs give


def _sigma_into(activation: Activation, shape):
    """``write(a, value, slope=None)``, the one definition of sigma and
    sigma': sigma(a) into ``value`` and, given ``slope``, sigma'(a) into it,
    arrays of ``shape`` that share no memory with ``a``.  A piecewise-linear
    sigma's slope is its table [sigma'(x < 0), sigma'(x >= 0)] at the mask
    x >= 0 (put in ``value`` if no ``slope`` is asked for), its value x
    times that; table, mask and zero row are made once, so a call allocates
    nothing."""
    if activation.kind == "tanh":
        def write(a, value, slope=None):
            np.tanh(a, out=value)
            if slope is not None:
                np.multiply(value, value, out=slope)
                np.subtract(1.0, slope, out=slope)
        return write
    negative = 1.0 if activation.kind == "identity" else activation.negative_slope
    # a zero row, not 0.0: a ufunc converts a Python float on every call
    table, zero = np.array([negative, 1.0]), np.zeros(shape[-1:])
    mask = np.empty(shape, dtype=bool)

    def write(a, value, slope=None):
        slope = value if slope is None else slope
        np.greater_equal(a, zero, out=mask)
        np.multiply(a, table.take(mask, None, slope, "clip"), out=value)
    return write


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
        w = as_float_array(self.W, "W", ("n", "n"))
        u = as_float_array(self.U, "U", (len(w), "m"))
        b = as_float_array(self.b, "b", (len(w),))
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
    """Linear readout ``y = C x + d``, over the leading axes of ``x``."""

    C: np.ndarray
    d: Optional[np.ndarray] = None

    def __post_init__(self):
        c = as_float_array(self.C, "C", ("p", "n"))
        d = (np.zeros(len(c)) if self.d is None
             else as_float_array(self.d, "d", (len(c),)))
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "d", d)

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x @ self.C.T + self.d


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
        states = as_float_array(self.states, "states", ("T+1", "n"))
        inputs = as_float_array(self.inputs, "inputs", ("T", "m"))
        if states.shape[0] != inputs.shape[0] + 1:
            raise ValueError(
                f"need len(states) == len(inputs) + 1, got {states.shape[0]} "
                f"and {inputs.shape[0]}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)
        if self.outputs is not None:
            object.__setattr__(self, "outputs", as_float_array(
                self.outputs, "outputs", (len(inputs), "p")))

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]


def leaky_map(params: ReservoirParams, x: np.ndarray,
              u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The leaky map and its slope: ``(x_next, sigma'(W x + U u + b))``.

    Works over the leading axes of ``x (..., n)`` and ``u (..., m)`` and does
    no validation; callers check shapes and finiteness once, up front.
    """
    value, slope = params.activation.evaluate(
        x @ params.W.T + (u @ params.U.T + params.b))
    return (1.0 - params.leak) * x + params.leak * value, slope


def leaky_jacobians(params: ReservoirParams,
                    slope: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Jacobians ``(A, B)`` of the leaky map at activation slope ``slope``:
    ``A = (1 - leak) I + leak diag(slope) W`` and ``B = leak diag(slope) U``,
    over the leading axes of ``slope (..., n)``."""
    return (_transition(params, slope),
            params.leak * (slope[..., :, None] * params.U))


def _transition(params: ReservoirParams, slope: np.ndarray) -> np.ndarray:
    """The A of :func:`leaky_jacobians` alone, in one new C-ordered array:
    ``1 - leak`` is added in place to its diagonal, a strided view (the same
    sums as adding ``(1 - leak) I``, so the same bits)."""
    a = np.multiply(slope[..., :, None], params.W, order="C")
    a *= params.leak
    a.reshape(a.shape[:-2] + (-1,))[..., ::params.n + 1] += 1.0 - params.leak
    return a


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
        inputs: (T, m) array of driving inputs; any other shape, a length-T
            vector for m = 1 too, raises ValueError naming the shape given.
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

    The input terms (the drive ``U u_t + b``, or the ``e_t`` of
    :func:`_preactivation_steps`) are formed for all t in one matmul before
    the loop.  The identity activation has no loop: its affine recursion is
    one chunked scan.  Any other activation steps the preactivation a_t (see
    :func:`_preactivation_steps`), each step one ``dgemv`` and sigma alone,
    not its slope, written in place by :func:`_sigma_into`'s writer; the
    states follow from one scan of the scalar leaky filter.
    Both equal the step loop up to rounding (about 1e-15 relative).  Noise
    is drawn exactly from the PSD covariance, so ``Q = 0`` adds none.
    """
    x0 = as_float_array(x0, "x0", (params.n,))
    inputs = as_float_array(inputs, "inputs", ("T", params.m))
    horizon = inputs.shape[0]
    if readout is not None:
        as_float_array(readout.C, "readout C", (readout.p, params.n))
    elif measurement_noise is not None:
        raise ValueError("measurement noise requires a readout")
    w_draws = (None if process_noise is None else
               _noise_draws(process_noise, "Q", (horizon, params.n)))
    v_draws = (None if measurement_noise is None else
               _noise_draws(measurement_noise, "R", (horizon, readout.p)))

    lam = params.leak
    states = np.empty((horizon + 1, params.n))
    states[0] = x0
    if params.activation.kind == "identity":
        # x_{t+1} = A x_t + leak (U u_t + b) + w_t: one affine scan in A
        drive = np.matmul(inputs, params.U.T, out=states[1:])
        drive += params.b
        multiplier = _transition(params, np.ones(params.n))
    else:
        # rows 1..T get sigma(a_t); then x_{t+1} = (1 - leak) x_t
        # + leak sigma(a_t) + w_t is one scan in the scalar 1 - leak
        _preactivation_steps(params, x0, inputs, w_draws, states[1:])
        multiplier = 1.0 - lam
    states[1:] *= lam
    if w_draws is not None:
        states[1:] += w_draws
    linear_scan(multiplier, states)

    outputs = None
    if readout is not None:
        outputs = readout(states[1:])
        if v_draws is not None:
            outputs = outputs + v_draws
    return Trajectory(states=states, inputs=inputs, outputs=outputs)


def _preactivation_steps(params: ReservoirParams, x0: np.ndarray,
                         inputs: np.ndarray, w_draws: Optional[np.ndarray],
                         out: np.ndarray) -> None:
    """Write sigma(a_t) into row t of ``out`` (T, n) for the preactivations
    ``a_t = W x_t + U u_t + b`` of the leaky map started at ``x0`` with
    process noise ``w_t``.  They follow their own recursion,

        a_{t+1} = (1 - leak) a_t + leak W sigma(a_t) + e_{t+1},
        e_{t+1} = U (u_{t+1} - (1 - leak) u_t) + leak b + W w_t,

    so each step is one BLAS ``dgemv`` that updates ``a`` in place, one add
    and sigma written in place by :func:`_sigma_into`'s writer (the last
    row's too), bound before the loop.  All of ``e`` is formed first, in
    ``out`` itself (no other (T, n) array): step t reads e_{t+1} from row
    t + 1 before the next step writes sigma(a_{t+1}) there.
    """
    if not out.size:
        return
    lam, sigma = params.leak, _sigma_into(params.activation, (params.n,))
    w = np.ascontiguousarray(params.W)
    # W's F-ordered transpose, read by dgemv with trans = 1: f2py would
    # copy a C-ordered W on every call
    w_t = w.T
    shifted = inputs.copy()
    shifted[1:] -= (1.0 - lam) * inputs[:-1]
    np.matmul(shifted, params.U.T, out=out)
    out[1:] += lam * params.b
    if w_draws is not None:
        out[1:] += w_draws[:-1] @ w_t
    a = out[0] + params.b + w @ x0
    keep = 1.0 - lam
    for row, e in zip(out, out[1:]):
        sigma(a, row)
        # a = leak W sigma(a) + (1 - leak) a in place; the arguments after
        # a (offx, incx, offy, incy, trans, overwrite_y) are positional
        # because f2py's keyword parsing costs more than the product at n = 16
        a = dgemv(lam, w_t, row, keep, a, 0, 1, 0, 1, 1, 1)
        a += e
    sigma(a, out[-1])


def _noise_draws(noise, name: str, shape) -> np.ndarray:
    """``shape[0]`` seeded N(0, cov) draws for ``noise = (cov, seed)``: a
    definite ``cov`` is factored by Cholesky, any other by ``eigh`` with the
    eigenvalues below 0 clipped (the DEBUG event ``simulate.noise_clip``)."""
    cov = check_psd(noise[0], name, shape[1:] * 2)
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(cov)
        if eigvals[0] < 0.0:
            logger.debug("simulate.noise_clip covariance=%s eigenvalue=%.3e",
                         name, eigvals[0])
        factor = eigvecs * np.sqrt(np.maximum(eigvals, 0.0))
    return rng_from_seed(noise[1]).standard_normal(shape) @ factor.T
