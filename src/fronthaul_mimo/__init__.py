"""Uplink rate analysis and fronthaul-constrained design optimization for
quantized multi-antenna receivers: closed forms, a concave constraint-curve
search, and a link-level Monte Carlo validator (``fronthaul_mimo.montecarlo``).
The closed forms and the search are pure Python: importing the package
imports no numpy."""

from .linkrate import achievable_rate
from .optimizer import optimize_full, threshold_f
from .sysmodel import DesignPoint, SystemConfig
