"""Stationary solutions of dissipative SDEs, path costs, and rare-event checks.

The toolkit integrates a small family of dissipative stochastic models
with reproducible counter-based noise, constructs their stationary
solutions by pullback, scores paths with a quadratic action, minimizes
that action to transition costs, and verifies the small-noise decay law
of rare events by Monte Carlo.
"""

from .action import (
    ActionReport,
    Control,
    action,
    action_gradient,
    load_control,
    save_control,
    value_and_gradient,
)
from .errors import (
    ConfigurationError,
    DivergenceError,
    InputError,
    InsufficientDataError,
    NonConvergenceError,
    NonInvertibleDiffusionError,
    OptimizationStalledError,
    ToolkitError,
)
from .grids import TimeGrid, from_dt
from .integrate import (Path, em_step_sde, integrate_skeleton, load_path, save_path,
                        write_json)
from .ldpverify import (
    Event,
    MCEstimate,
    SlopeFit,
    estimate_event,
    ldp_slope,
    make_estimate,
    sample_stationary,
    save_estimates,
    wilson_interval,
)
from .mam import QPResult, minimize_action, quasipotential
from .models import (
    HypothesisConstants,
    HypothesisReport,
    ModelSpec,
    check_hypothesis,
    drift,
    h_inner,
    h_norm,
    h_norm_sq,
    make_model,
    model_names,
)
from .noise import (
    NoisePath,
    derive_seed,
    gaussian_block,
    sample_noise,
)
from .pullback import (
    PullbackDiag,
    default_horizons,
    pullback_skeleton,
    pullback_stationary,
    stationarity_check,
)

__version__ = "0.1.0"

__all__ = [
    "ActionReport",
    "ConfigurationError",
    "Control",
    "DivergenceError",
    "Event",
    "HypothesisConstants",
    "HypothesisReport",
    "InputError",
    "InsufficientDataError",
    "MCEstimate",
    "ModelSpec",
    "NoisePath",
    "NonConvergenceError",
    "NonInvertibleDiffusionError",
    "OptimizationStalledError",
    "Path",
    "PullbackDiag",
    "QPResult",
    "SlopeFit",
    "TimeGrid",
    "ToolkitError",
    "action",
    "action_gradient",
    "check_hypothesis",
    "default_horizons",
    "derive_seed",
    "drift",
    "em_step_sde",
    "estimate_event",
    "from_dt",
    "gaussian_block",
    "h_inner",
    "h_norm",
    "h_norm_sq",
    "integrate_skeleton",
    "ldp_slope",
    "load_control",
    "load_path",
    "make_estimate",
    "make_model",
    "minimize_action",
    "model_names",
    "pullback_skeleton",
    "pullback_stationary",
    "quasipotential",
    "sample_noise",
    "sample_stationary",
    "save_control",
    "save_estimates",
    "save_path",
    "stationarity_check",
    "value_and_gradient",
    "wilson_interval",
    "write_json",
]
