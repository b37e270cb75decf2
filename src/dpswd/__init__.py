"""Differentially private sliced Wasserstein distance.

Exact 1-D optimal transport, the Monte-Carlo sliced estimator, the
Gaussian-mechanism private variant with analytic sensitivity bounds, a
Renyi-DP accountant with noise calibration, and a particle-flow demo that
trains against a private target.
"""

__version__ = "0.21.0"

from .accountant import (
    CalibrationResult,
    InfeasibleBudgetError,
    MechanismSpec,
    ORDERS,
    PrivacyBudget,
    RdpCurve,
    Schedule,
    account,
    calibrate_sigma,
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
    normalize_for_privacy,
    save_csv,
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
    value_and_gradient,
)
from .wasserstein1d import (
    per_row_costs,
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
    "ORDERS",
    "PrivacyBudget",
    "RdpCurve",
    "Schedule",
    "Seed",
    "SensitivityBound",
    "SwdConfig",
    "SwdResult",
    "account",
    "bernstein_bound",
    "beta_moments",
    "calibrate_sigma",
    "clt_bound",
    "derive_seed",
    "dp_swd",
    "fixed_sensitivity",
    "from_points",
    "gaussian_rdp",
    "inverse_normal_cdf",
    "load_csv",
    "normalize_for_privacy",
    "per_row_costs",
    "rdp_to_dp",
    "run_flow",
    "sample_gaussian_matrix",
    "sample_sphere",
    "save_csv",
    "simulate_sensitivity",
    "smoothed_swd",
    "subsampled_rdp",
    "substream",
    "swd",
    "value_and_gradient",
    "wasserstein_1d",
    "wasserstein_1d_q",
]
