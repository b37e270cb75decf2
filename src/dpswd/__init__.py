"""Differentially private sliced Wasserstein distance.

Exact 1-D optimal transport, the Monte-Carlo sliced estimator, the
Gaussian-mechanism private variant with analytic sensitivity bounds, a
Renyi-DP accountant with noise calibration, and a particle-flow demo that
trains against a private target.
"""

__version__ = "0.6.0"

from .accountant import (
    CalibrationResult,
    InfeasibleBudgetError,
    MechanismSpec,
    PrivacyBudget,
    RdpCurve,
    account,
    calibrate_sigma,
    charged_bound,
    compose,
    default_orders,
    dense_orders,
    gaussian_rdp,
    rdp_to_dp,
    subsampled_rdp,
)
from .flow import FlowConfig, FlowDiverged, FlowTrace, run_flow
from .measures import (
    DataError,
    EmpiricalMeasure,
    from_points,
    load_csv,
    load_raw,
    normalize_for_privacy,
    privacy_scale,
    save_csv,
    save_raw,
)
from .randomness import (
    Seed,
    derive_seed,
    inverse_normal_cdf,
    sample_gaussian_matrix,
    sample_sphere,
    substream,
)
from .sensitivity import (
    BetaMoments,
    SensitivityBound,
    bernstein_bound,
    beta_moments,
    clt_bound,
    fixed_sensitivity,
    simulate_sensitivity,
)
from .sliced_distance import (
    SwdConfig,
    SwdResult,
    dp_swd,
    smoothed_swd,
    swd,
    swd_gradient_source,
    value_and_gradient,
)
from .wasserstein1d import (
    SortedProfile,
    per_row_costs,
    sorted_profile,
    wasserstein_1d,
    wasserstein_1d_q,
)

__all__ = [
    "__version__",
    "BetaMoments",
    "CalibrationResult",
    "DataError",
    "EmpiricalMeasure",
    "FlowConfig",
    "FlowDiverged",
    "FlowTrace",
    "InfeasibleBudgetError",
    "MechanismSpec",
    "PrivacyBudget",
    "RdpCurve",
    "Seed",
    "SensitivityBound",
    "SortedProfile",
    "SwdConfig",
    "SwdResult",
    "account",
    "bernstein_bound",
    "beta_moments",
    "calibrate_sigma",
    "charged_bound",
    "clt_bound",
    "compose",
    "default_orders",
    "dense_orders",
    "derive_seed",
    "dp_swd",
    "fixed_sensitivity",
    "from_points",
    "gaussian_rdp",
    "inverse_normal_cdf",
    "load_csv",
    "load_raw",
    "normalize_for_privacy",
    "per_row_costs",
    "privacy_scale",
    "rdp_to_dp",
    "run_flow",
    "sample_gaussian_matrix",
    "sample_sphere",
    "save_csv",
    "save_raw",
    "simulate_sensitivity",
    "smoothed_swd",
    "sorted_profile",
    "subsampled_rdp",
    "substream",
    "swd",
    "swd_gradient_source",
    "value_and_gradient",
    "wasserstein_1d",
    "wasserstein_1d_q",
]
