"""Small-signal LTI/LTV surrogates of the reservoir with remainder bounds.

At an operating pair (x_bar, u_bar) with preactivation xi = W x_bar + U u_bar + b,
the exact Jacobians of the leaky update are

    A = (1 - leak) I + leak * diag(sigma'(xi)) W
    B = leak * diag(sigma'(xi)) U

and the readout contributes C with zero feedthrough; both come from
:func:`esnkit.core.leaky_jacobians`.  The surrogate is valid on the tube
||W dx + U du|| <= r with one-step error at most
(leak / 2) * sup|sigma''| * r^2.  Along a trajectory the Jacobians are
evaluated in one batched call and stored as (T, n, n) and (T, n, m) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ._linalg import SchurForm, as_float_array, real_schur
from .core import (Readout, ReservoirParams, Trajectory, leaky_jacobians,
                   leaky_map)

__all__ = ["LtiModel", "LtvModel", "jacobians_at", "remainder_bound",
           "linearize_trajectory"]


@dataclass(frozen=True)
class LtiModel:
    """Discrete-time linear system (A, B, C, D).

    A, B, C and D are read-only C-ordered copies of the arrays given, so a
    model never changes: the real Schur form of A (``_schur``, read-only) is
    decomposed on first use and kept, and :mod:`esnkit.freq` keeps the
    Gramian pair and the decay envelope on the model too.  A copy, an
    unpickled model or a ``dataclasses.replace`` is a new model that keeps
    nothing yet.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        a = as_float_array(self.A, "A", ("n", "n"))
        b = as_float_array(self.B, "B", (len(a), "m"))
        c = as_float_array(self.C, "C", ("p", len(a)))
        d = as_float_array(self.D, "D", (len(c), b.shape[1]))
        for name, value in zip("ABCD", (a, b, c, d)):
            value = np.array(value, order="C")      # the caller keeps theirs
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # a copy or an unpickled model is built afresh: read-only, nothing kept
        return LtiModel, (self.A, self.B, self.C, self.D)

    @cached_property
    def _schur(self) -> SchurForm:
        """The real Schur form of A, decomposed once per model."""
        form = real_schur(self.A)
        form.t.flags.writeable = form.z.flags.writeable = False
        return form

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class LtvModel:
    """Time-varying surrogate along a nominal trajectory: ``A_seq[t]`` and
    ``B_seq[t]`` are the Jacobians at step t, stacked as (T, n, n) and
    (T, n, m) arrays; C and D are shared."""

    A_seq: np.ndarray
    B_seq: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        a = as_float_array(self.A_seq, "A_seq", ("T", "n", "n"))
        b = as_float_array(self.B_seq, "B_seq", a.shape[:2] + ("m",))
        c = as_float_array(self.C, "C", ("p", a.shape[1]))
        d = as_float_array(self.D, "D", (len(c), b.shape[2]))
        object.__setattr__(self, "A_seq", a)
        object.__setattr__(self, "B_seq", b)
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "D", d)

    def __len__(self) -> int:
        return self.A_seq.shape[0]


def jacobians_at(params: ReservoirParams, x_bar, u_bar,
                 readout: Optional[Readout] = None) -> LtiModel:
    """Exact Jacobians of the reservoir update at an operating pair.

    With no readout the state itself is observed (C = I).  D is always zero:
    the readout has no feedthrough.  A non-finite operating pair is rejected.
    """
    a, b = leaky_jacobians(params, _operating_slope(params, x_bar, u_bar))
    c = readout.C if readout is not None else np.eye(params.n)
    d = np.zeros((c.shape[0], params.m))
    return LtiModel(A=a, B=b, C=c, D=d)


def _operating_slope(params: ReservoirParams, x_bar, u_bar) -> np.ndarray:
    """Activation slope at an operating pair, checked first."""
    x_bar = as_float_array(x_bar, "x_bar", (params.n,))
    u_bar = as_float_array(u_bar, "u_bar", (params.m,))
    return leaky_map(params, x_bar, u_bar)[1]


def remainder_bound(params: ReservoirParams, radius: float) -> float:
    """One-step linearization error bound on the tube of the given radius.

    Raises if the activation has no curvature bound (piecewise-linear kinds).
    """
    if not 0.0 <= radius < math.inf:
        raise ValueError(f"tube radius must be finite and >= 0, got {radius}")
    l2 = params.activation.second_deriv_bound
    if l2 is None:
        raise ValueError(
            f"activation {params.activation.kind!r} has no second-derivative "
            "bound; no tube remainder bound exists")
    return 0.5 * params.leak * l2 * radius * radius


def linearize_trajectory(params: ReservoirParams, traj: Trajectory,
                         readout: Optional[Readout] = None) -> LtvModel:
    """Per-step Jacobians along a nominal trajectory (frozen-time surrogate),
    all T steps in one batched evaluation."""
    if traj.states.shape[1] != params.n or traj.inputs.shape[1] != params.m:
        raise ValueError("trajectory dimensions do not match the reservoir")
    a, b = leaky_jacobians(params, leaky_map(params, traj.states[:-1],
                                             traj.inputs)[1])
    c = readout.C if readout is not None else np.eye(params.n)
    d = np.zeros((c.shape[0], params.m))
    return LtvModel(A_seq=a, B_seq=b, C=c, D=d)
