"""h-step probabilistic prediction from a filtered belief.

The h-step output distribution of a linear-Gaussian surrogate is Gaussian
with mean C A^h mu + sum_j C A^j B u and covariance C Sigma_h C' + R, where
Sigma_h accumulates the propagated belief covariance and h process-noise
injections.  Everything is built iteratively (never through explicit matrix
powers).  For the nonlinear reservoir, compose an EKF pass with this
operation on the final linearization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._linalg import _congruence, as_float_array, check_psd
from .identify import NoiseModel
from .linearize import LtiModel

__all__ = ["PredictiveDistribution", "predictive"]

# two-sided 95% normal quantile
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class PredictiveDistribution:
    """Gaussian forecast of y_{t+h}: output mean/covariance plus the
    propagated state covariance Sigma_h."""

    horizon: int
    mean: np.ndarray
    covariance: np.ndarray
    state_cov: np.ndarray

    def interval_half_widths(self) -> np.ndarray:
        """Half-widths of the central 95% credible interval per output."""
        return _Z95 * np.sqrt(np.diag(self.covariance))


def predictive(lti: LtiModel, noise: NoiseModel,
               belief: Tuple[np.ndarray, np.ndarray],
               future_inputs) -> PredictiveDistribution:
    """Distribution of y_{t+h} given the filtered belief (mu, P) at time t
    and the h future inputs u_t .. u_{t+h-1}; D must be 0, as D u_{t+h}
    needs u_{t+h}.  With no state (n = 0) the forecast is N(0, R)."""
    if np.any(lti.D != 0.0):
        raise ValueError("predictive requires D = 0")
    mu = as_float_array(belief[0], "belief mean", (lti.n,))
    cov = check_psd(belief[1], "belief covariance", (lti.n, lti.n))
    as_float_array(noise.Q, "noise Q", (lti.n, lti.n))
    as_float_array(noise.R, "noise R", (lti.p, lti.p))
    inputs = as_float_array(future_inputs, "future_inputs", ("h", lti.m))
    horizon = inputs.shape[0]
    if horizon < 1:
        raise ValueError("need at least one future input (h >= 1)")
    if lti.n == 0:
        return PredictiveDistribution(horizon, np.zeros(lti.p), noise.R.copy(), cov)

    for u in inputs:
        mu = lti.A @ mu + lti.B @ u
        cov = _congruence(lti.A, cov, noise.Q)
    return PredictiveDistribution(horizon, lti.C @ mu,
                                  _congruence(lti.C, cov, noise.R), cov)
