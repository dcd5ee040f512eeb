"""esnkit: echo-state reservoirs treated as state-space models.

Simulation of the nonlinear leaky recursion, contraction/ESP certificates,
small-signal and lifted linear surrogates, CT<->DT conversions, frequency-
domain kernel analysis, Kalman/EM/subspace identification, design recipes,
and probabilistic prediction.
"""

from .core import Activation, Readout, ReservoirParams, Trajectory, simulate
from .design import (gamma_for_radius, input_scaling, make_normal_reservoir,
                     make_sparse_reservoir, target_radius)
from .discretize import (CtLinearModel, ct_jacobians, euler_leak, tustin_leak,
                         zoh_discretize)
from .freq import (GramianPair, HinfEstimate, ImpulseKernel,
                   ModalDecomposition, RankReport, ctrb_obsv_rank, gramians,
                   h2_norm, hinf_norm_grid, impulse_kernel, modal, output_psd,
                   transfer_eval)
from .identify import (BayesReadoutPosterior, EmResult, EmStepResult,
                       FrozenCovs, NoiseModel, SmoothedPosterior,
                       StructuredBasis, StructuredTheta, SubspaceResult,
                       ekf_filter, em_run, em_step, kalman_filter,
                       project_structured, readout_bayes, readout_ml,
                       rts_smoother, subspace_shape)
from .lift import Dictionary, LiftedModel, edmd_fit, lifted_rollout_error
from .linearize import (LtiModel, LtvModel, jacobians_at,
                        linearize_trajectory, remainder_bound)
from .predict import PredictiveDistribution, predictive
from .stability import (Certificate, CertificateMethod, HorizonEstimate,
                        Verdict, certify_lipschitz, certify_weighted,
                        memory_horizon, spectral_radius)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Activation", "ReservoirParams", "Readout", "Trajectory", "simulate",
    # stability
    "Certificate", "CertificateMethod", "Verdict", "HorizonEstimate",
    "certify_lipschitz", "certify_weighted", "spectral_radius",
    "memory_horizon",
    # linearize
    "LtiModel", "LtvModel", "jacobians_at", "remainder_bound",
    "linearize_trajectory",
    # lift
    "Dictionary", "LiftedModel", "edmd_fit", "lifted_rollout_error",
    # discretize
    "CtLinearModel", "euler_leak", "tustin_leak", "ct_jacobians",
    "zoh_discretize",
    # freq
    "ImpulseKernel", "ModalDecomposition", "GramianPair", "RankReport",
    "HinfEstimate", "transfer_eval", "impulse_kernel", "modal", "gramians",
    "ctrb_obsv_rank", "h2_norm", "hinf_norm_grid", "output_psd",
    # identify
    "NoiseModel", "FrozenCovs", "SmoothedPosterior", "StructuredBasis",
    "StructuredTheta", "EmStepResult", "EmResult", "SubspaceResult",
    "BayesReadoutPosterior",
    "kalman_filter", "rts_smoother", "ekf_filter", "em_step", "em_run",
    "readout_ml", "readout_bayes", "project_structured", "subspace_shape",
    # design
    "target_radius", "gamma_for_radius", "make_normal_reservoir", "make_sparse_reservoir", "input_scaling",
    # predict
    "PredictiveDistribution", "predictive",
]
