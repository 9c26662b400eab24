"""Quotient-geometry landscape toolkit for fixed-rank PSD matrix optimization.

The package implements the Riemannian quotient geometry of the
Burer-Monteiro factor space (full-column-rank factors modulo rotation),
objectives lifted to it, a region-wise classification of the factor space
around a rank-r target with certified curvature and gradient bounds, plain
factor gradient descent, and the independent oracles used to verify all of
the above numerically.
"""

__version__ = "0.1.0"

from .errors import (
    HypothesisViolationError,
    InitializationFailure,
    InputContractError,
    LandscapeError,
    NonUniqueAlignmentError,
    NotAFOSPError,
    NumericalFailure,
    RankCollapseError,
    ResourceLimitError,
    StepSearchError,
)
from .geometry import (
    FactorPoint,
    HorizontalTangent,
    convexity_radius,
    exp_map,
    horizontal_project,
    injectivity_radius,
    log_map,
    quotient_distance,
    vertical_project,
)
from .kernels import (
    EigResult,
    SvdResult,
    procrustes_align,
    sym_eig,
    thin_svd,
    truncated_frob_norm,
)
from .landscape import (
    HessianSpectrumEstimate,
    RegionLabel,
    RegionParams,
    RegionReport,
    ThresholdReport,
    certify_landscape,
    classify_region,
    compute_thresholds,
    escape_direction,
    hess_extreme_eigs,
    horizontal_basis,
    strict_convexity_fosp_check,
)
from .objectives import (
    DenoisingObjective,
    GroundTruth,
    ObjectiveHandle,
    ProblemInstance,
    TraceRegressionObjective,
    embedded_hess_quadform,
    instance_from_document,
    lifted_value,
    make_denoising,
    make_instance,
    make_trace_regression,
    restricted_strict_convexity_check,
    riemannian_grad_lift,
    riemannian_hess_quadform,
    rsc_rsm_estimate,
)
from .optimizers import (
    ErrorBoundResult,
    GDConfig,
    PerturbationSpec,
    TrajectoryRecord,
    error_bound_check,
    riemannian_gd,
    spectral_init,
)
from .verify import (
    FDSpec,
    SuiteSummary,
    brute_distance_rank1,
    dense_delta_certificate,
    fd_gradient_check,
    fd_hessian_check,
    run_suite,
    sampled_distance_upper_bound,
    suite_names,
)

__all__ = [name for name in dir() if not name.startswith("_")]
