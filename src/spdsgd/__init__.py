"""Mini-batch Riemannian SGD on the SPD manifold.

A numpy library for stochastic optimization over symmetric positive
definite matrices under the affine-invariant metric, together with an
experiment harness that measures how the number of steps to reach a loss
threshold scales with the mini-batch size, fits closed-form K(b) models,
and locates the batch size minimizing total gradient-oracle work.
"""

from .manifold import (
    SPD_CURVATURE_LOWER_BOUND,
    curvature_factor,
    distance,
    exp_map,
    inner,
    log_map,
    norm,
    parallel_transport,
    validate_spd,
)
from .objective import (
    Ball,
    Dataset,
    batch_gradient,
    estimate_smoothness,
    full_gradient,
    gradient_variance,
    loss,
    max_gradient_norm,
    point_gradient,
    sample_batch,
)
from .rsgd import (
    RunConfig,
    RunRecord,
    StepSchedule,
    reference_centroid,
    rsgd_step,
    run,
    stationarity_gap,
    step_size,
)
from .experiment import (
    FitInputs,
    FitResult,
    SweepConfig,
    SweepRecord,
    check_monotone_convex,
    critical_batch,
    fit_model,
    model_steps,
    sweep,
)
from .symmat import EigenDecomp, sym_eigen, symmetrize

__version__ = "0.1.0"

__all__ = [
    "SPD_CURVATURE_LOWER_BOUND",
    "Ball",
    "Dataset",
    "EigenDecomp",
    "FitInputs",
    "FitResult",
    "RunConfig",
    "RunRecord",
    "StepSchedule",
    "SweepConfig",
    "SweepRecord",
    "batch_gradient",
    "check_monotone_convex",
    "critical_batch",
    "curvature_factor",
    "distance",
    "estimate_smoothness",
    "exp_map",
    "fit_model",
    "full_gradient",
    "gradient_variance",
    "inner",
    "log_map",
    "loss",
    "max_gradient_norm",
    "model_steps",
    "norm",
    "parallel_transport",
    "point_gradient",
    "reference_centroid",
    "rsgd_step",
    "run",
    "sample_batch",
    "stationarity_gap",
    "step_size",
    "sweep",
    "sym_eigen",
    "symmetrize",
    "validate_spd",
]
