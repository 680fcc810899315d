"""Closed-form estimation quality, SINQR and achievable rate under
channel-inversion power control with MRC reception.

All log2 terms are computed from the natural log so the optimizer's
nats-based constant and these rates agree to machine precision.

A ``Design``'s ``B_w`` and ``M`` may be numpy arrays (one of them may stay
a number) at one int ``b``: every formula here is then evaluated elementwise
and equals, bit for bit, its value at each design alone; a sweep evaluates
a whole constraint curve in one call.  Nothing here checks a design: only
outside input is checked, as a ``DesignPoint``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConfigValueError
from .sysmodel import Design, SystemConfig, link_budget

_LN2 = math.log(2.0)


class RateBreakdown(NamedTuple):
    """Estimation quality c, SINQR gamma, and the resulting per-user rate."""

    c: float
    gamma: float
    rate_bps: float
    sum_rate_bps: float


def estimation_quality(config: SystemConfig, design: Design) -> float:
    """Channel estimation quality c in [0, 1) for a uniform power delay profile.

    c = theta*I / (theta*I + 1 + P_rx*E), with unit noise; rises with pilot
    excess and power, falls with quantization distortion.
    """
    budget = link_budget(config, design.B_w, design.b)
    ti = config.theta_eff * budget.I_total
    return ti / (ti + 1.0 + budget.P_rx * budget.E)


def sinqr(config: SystemConfig, design: Design) -> float:
    """Effective SINR including quantization distortion, for MRC reception."""
    budget = link_budget(config, design.B_w, design.b)
    c = estimation_quality(config, design)
    per_user = config.P / design.B_w
    return c * design.M * per_user / (budget.I_total + 1.0 + budget.P_rx * budget.E)


def rate_from_sinqr(config: SystemConfig, B_w: float, gamma: float) -> float:
    """Per-user rate in bit/s after bandwidth and pilot-overhead scaling."""
    array = getattr(gamma, "ndim", 0) > 0  # a numpy scalar has ndim 0
    if (gamma < 0).any() if array else gamma < 0:
        raise ConfigValueError(f"gamma must be non-negative, got {gamma}")
    if array:  # math.log1p per element, the log of every rate in the package
        log1p = gamma.copy()
        log1p[...] = [math.log1p(g) for g in gamma.tolist()]
    else:
        log1p = math.log1p(gamma)
    return B_w * (config.n_data / config.N) * log1p / _LN2


def achievable_rate(config: SystemConfig, design: Design) -> RateBreakdown:
    """Full rate breakdown for one design point."""
    c = estimation_quality(config, design)
    g = sinqr(config, design)
    r = rate_from_sinqr(config, design.B_w, g)
    return RateBreakdown(c=c, gamma=g, rate_bps=r, sum_rate_bps=config.K * r)
