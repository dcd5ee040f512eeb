"""Continuous-time <-> discrete-time conversions for the reservoir lag.

The leaky recursion is the forward-Euler discretization of the first-order
lag ``tau * dx/dt = -x + sigma(W x + U u + b)``; the leak is ``dt / tau``.
This module provides that identification, the trapezoidal (Tustin) variant,
continuous-time Jacobians, and the exact zero-order-hold discretization of a
linearized model including the process-noise integral.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import expm

from ._linalg import as_float_array, check_psd, symmetrize
from .core import ReservoirParams, leaky_jacobians
from .linearize import _operating_slope

__all__ = ["CtLinearModel", "euler_leak", "tustin_leak", "ct_jacobians",
           "zoh_discretize"]

# Requests with ||A_c * dt||_2 beyond this are refused as ill-conditioned.
_MAX_SCALED_NORM = 1e3


@dataclass(frozen=True)
class CtLinearModel:
    """Linearized continuous-time model ``CtLinearModel(A_c, B_c, Q_c=None)``:
    dx/dt = A_c x + B_c u + noise(Q_c); ``zoh_discretize(ct, dt)`` steps it."""

    A_c: np.ndarray
    B_c: np.ndarray
    Q_c: Optional[np.ndarray] = None

    def __post_init__(self):
        a = as_float_array(self.A_c, "A_c", ("n", "n"))
        b = as_float_array(self.B_c, "B_c", (len(a), "m"))
        object.__setattr__(self, "A_c", a)
        object.__setattr__(self, "B_c", b)
        if self.Q_c is not None:
            object.__setattr__(self, "Q_c", check_psd(self.Q_c, "Q_c", a.shape))


def euler_leak(dt: float, tau: float) -> float:
    """Forward-Euler leak dt / tau; rejects steps that leave the valid range."""
    if dt <= 0.0 or tau <= 0.0:
        raise ValueError("dt and tau must be positive")
    leak = dt / tau
    if leak > 1.0:
        raise ValueError(
            f"euler leak dt/tau = {leak} exceeds the valid leak range (0, 1]; "
            "reduce dt or increase tau")
    return leak


def tustin_leak(dt: float, tau: float) -> float:
    """Trapezoidal-rule effective leak dt / (tau + dt/2).

    Always in (0, 2); values >= 1 are reported with a warning since they fall
    outside the leak range the reservoir accepts.
    """
    if dt <= 0.0 or tau <= 0.0:
        raise ValueError("dt and tau must be positive")
    leak = dt / (tau + 0.5 * dt)
    if leak >= 1.0:
        warnings.warn(
            f"tustin leak {leak} is >= 1 and not usable as a reservoir leak",
            stacklevel=2)
    return leak


def ct_jacobians(params: ReservoirParams, tau: float, x_bar, u_bar) -> CtLinearModel:
    """Continuous-time Jacobians of the lag at an operating pair:
    A_c = (diag(sigma'(xi)) W - I) / tau, B_c = diag(sigma'(xi)) U / tau,
    from the leaky map's Jacobians (A, B) at leak 1 as (A - I) / tau and
    B / tau.  A non-finite operating pair is rejected."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    a, b = leaky_jacobians(replace(params, leak=1.0),
                           _operating_slope(params, x_bar, u_bar))
    return CtLinearModel(A_c=(a - np.eye(params.n)) / tau, B_c=b / tau)


def zoh_discretize(ct: CtLinearModel,
                   dt: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization (A_d, B_d, Q_d) of ``ct`` over a
    step ``dt > 0``.

    A single augmented matrix exponential yields all three blocks:

        M = [[A_c, Q_c, B_c],
             [ 0, -A_c',  0 ],
             [ 0,   0,    0 ]] * dt,
        expm(M) = [[A_d, E, B_d], ...]  with  Q_d = E @ A_d'.

    The top-right block integrates e^{A_c s} B_c; the middle block carries the
    noise integral (Van Loan construction), so Q_d is exact to the accuracy of
    the exponential itself.  ``expm`` is scaling-and-squaring with a degree-13
    Pade approximant; for ||A_c dt|| <= 10 the relative accuracy is well below
    1e-12.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    n, m = ct.B_c.shape
    q_c = ct.Q_c if ct.Q_c is not None else np.zeros((n, n))
    scaled_norm = np.linalg.norm(ct.A_c * dt, 2)
    if scaled_norm > _MAX_SCALED_NORM:
        raise ValueError(
            f"||A_c * dt|| = {scaled_norm:.3e} exceeds {_MAX_SCALED_NORM:.0e}; "
            "request is ill-conditioned, reduce dt")
    aug = np.zeros((2 * n + m, 2 * n + m))
    aug[:n, :n] = ct.A_c
    aug[:n, n:2 * n] = q_c
    aug[:n, 2 * n:] = ct.B_c
    aug[n:2 * n, n:2 * n] = -ct.A_c.T
    phi = expm(aug * dt)
    a_d = phi[:n, :n]
    b_d = phi[:n, 2 * n:]
    q_d = symmetrize(phi[:n, n:2 * n] @ a_d.T)
    return a_d, b_d, q_d
