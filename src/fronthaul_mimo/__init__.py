"""Uplink rate analysis and fronthaul-constrained design optimization for
quantized multi-antenna receivers: closed forms, a concave constraint-curve
search, and a link-level Monte Carlo validator."""

from .errors import (
    ConfigError,
    ConfigSyntaxError,
    ConfigValueError,
    InfeasibleError,
    PilotOverheadError,
    SweepPointError,
)
from .linkrate import RateBreakdown, achievable_rate, estimation_quality, sinqr
from .montecarlo import (
    EmpiricalRate,
    PowerDelayProfile,
    empirical_rate,
    generate_pilots,
    quantize_block,
)
from .optimizer import (
    OptimizationResult,
    maximize_over_s,
    optimize_full,
    rate_of_s,
    threshold_f,
)
from .sysmodel import (
    DesignPoint,
    LinkBudget,
    SystemConfig,
    link_budget,
    quantization_distortion_variance,
)

__all__ = [
    "ConfigError",
    "ConfigSyntaxError",
    "ConfigValueError",
    "DesignPoint",
    "EmpiricalRate",
    "InfeasibleError",
    "LinkBudget",
    "OptimizationResult",
    "PilotOverheadError",
    "PowerDelayProfile",
    "RateBreakdown",
    "SweepPointError",
    "SystemConfig",
    "achievable_rate",
    "empirical_rate",
    "estimation_quality",
    "generate_pilots",
    "link_budget",
    "maximize_over_s",
    "optimize_full",
    "quantization_distortion_variance",
    "quantize_block",
    "rate_of_s",
    "sinqr",
    "threshold_f",
]

__version__ = "0.1.0"
