"""Fronthaul-constrained rate maximization over (B_w, M, b).

The optimum always sits on the constraint curve B_w*M*b = C_f (rate is
strictly increasing in M at fixed B_w and b), so at b fixed the search
space reduces to the auxiliary variable s in [b/C_f, 1] with M = 1/s and
B_w = (C_f/b)*s.  R(s) is unimodal in s, concave through the ascent to its
maximizer (convex only in the far noise-limited decay), so the maximizer
is found by bisection on the sign of the closed-form derivative, then
refined over the nearest integer antenna counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigValueError, InfeasibleError
from .linkrate import RateBreakdown, achievable_rate
from .sysmodel import (
    DesignPoint,
    SystemConfig,
    link_budget,
    quantization_distortion_variance,
)

_LN2 = math.log(2.0)

B_MAX = 12
S_TOLERANCE = 1e-10
M_NEIGHBORHOOD = 2  # integer antenna counts tried on each side of 1/s*


def _threshold_parts(b: int, x_int: float) -> tuple[float, float]:
    """Numerator and denominator of the bit-for-bandwidth threshold."""
    al = b / (b + 1.0)
    sq = math.sqrt(al)
    e = quantization_distortion_variance(b, x_int)
    num = al * (-1.0 - e / 4.0 + 1.0 / sq + e / sq)
    den = 1.0 + e / 4.0 - sq - e * sq
    return num, den


def threshold_f(b: int, x_int: float = 1.0) -> float:
    """Interference-to-noise threshold above which trading ADC bits for
    bandwidth raises the rate.

    Only a function of the resolution (and the quantizer interval).  Above
    one bit the threshold sits below 1, i.e. any interference-dominated
    system prefers the wider band.
    """
    num, den = _threshold_parts(b, x_int)
    return num / den


def interference_noise_ratio(config: SystemConfig, B_w: float) -> float:
    """Total interference over noise, K*P/(B_w*N_0)."""
    budget = link_budget(config, B_w, 1)
    return budget.I_total / config.N_0


def bandwidth_condition(config: SystemConfig, design: DesignPoint) -> bool:
    """True when the interference-to-noise ratio strictly exceeds the
    bit-for-bandwidth threshold at this design's resolution.

    The threshold is evaluated at unit pilot excess; larger pilot excess only
    lowers it, so this test is a conservative sufficient condition.  For very
    wide quantizer intervals the threshold's denominator goes negative and
    the underlying inequality can never hold, so the test returns False.
    """
    num, den = _threshold_parts(design.b, config.X_int)
    if den <= 0.0:
        return False
    return interference_noise_ratio(config, design.B_w) > num / den


def _curve_slope(config: SystemConfig, b: int) -> float:
    """dB_w/ds on the constraint curve.

    At resolution b the cap B_w*M*b = C_f is the curve M = 1/s,
    B_w = (C_f/b)*s over s in [b/C_f, 1]; every relaxed quantity in this
    module reads the curve, and its domain, through this slope.
    """
    return config.C_f / b


def _s_domain_check(config: SystemConfig, s: float, b: int) -> None:
    lo = 1.0 / _curve_slope(config, b)
    if not lo <= s <= 1.0:
        raise ValueError(f"s must lie in [b/C_f, 1] = [{lo}, 1] at b={b}")


def curve_bandwidth(config: SystemConfig, s: float, b: int) -> float:
    """Bandwidth of the relaxed design at s on the constraint curve (M = 1/s)."""
    _s_domain_check(config, s, b)
    return _curve_slope(config, b) * s


def _omega_terms(config: SystemConfig, s: float, b: int) -> tuple[float, float]:
    """omega(s) and its derivative on the constraint curve."""
    slope = _curve_slope(config, b)
    p = config.P_max * config.beta_edge
    kp = config.K * p
    e = quantization_distortion_variance(b, config.X_int)
    one = 1.0 + e
    te = config.theta_eff
    u = kp + slope * config.N_0 * s
    u_dot = slope * config.N_0
    # tau(theta, s) + (1+E)^2 u^2, with tau = (theta_eff - 1) KP (1+E) u
    denom = one * u * ((te - 1.0) * kp + one * u)
    denom_dot = one * u_dot * ((te - 1.0) * kp + 2.0 * one * u)
    a = p * p * config.n_pilot / config.L
    g = s * denom
    omega = a / g
    omega_dot = -omega * (denom + s * denom_dot) / g  # not a/g^2: g^2 overflows
    return omega, omega_dot


def _upsilon(config: SystemConfig, b: int) -> float:
    return config.n_data * _curve_slope(config, b) / (config.N * _LN2)


def rate_of_s(config: SystemConfig, s: float, b: int) -> float:
    """Per-user rate (bit/s) on the constraint curve M=1/s, B_w=(C_f/b)*s."""
    _s_domain_check(config, s, b)
    omega, _ = _omega_terms(config, s, b)
    # numpy's log1p, not math.log1p: the two differ in the last bit on some
    # inputs, and the reported relaxed rate would move with it
    return _upsilon(config, b) * s * float(np.log1p(omega))


def rate_of_s_derivative(config: SystemConfig, s: float, b: int) -> float:
    """Closed-form dR/ds; its sign gives the ascent direction."""
    _s_domain_check(config, s, b)
    omega, omega_dot = _omega_terms(config, s, b)
    return _upsilon(config, b) * (float(np.log1p(omega)) + s * omega_dot / (1.0 + omega))


def _finite_derivative(config: SystemConfig, s: float, b: int) -> float:
    d = rate_of_s_derivative(config, s, b)
    if not math.isfinite(d):
        raise ConfigValueError(
            f"dR/ds at s={s}, b={b} is not finite: C_f={config.C_f}, "
            f"N_0={config.N_0} or P_max={config.P_max} is beyond the float range "
            "of the constraint-curve search"
        )
    return d


def maximize_over_s(config: SystemConfig, b: int) -> float:
    """Maximizer s* of R(s) by bisection on the derivative sign, valid
    because the derivative changes sign exactly once.

    Returns the boundary point when the derivative never changes sign.
    Stops at a width of 1e-10 in s, or of 1e-6 relative to s where that is
    tighter, so a tiny s* (a huge capacity) still converges.  Raises
    ConfigValueError when the derivative is not finite, which only C_f,
    N_0 or P_max far beyond any physical system causes.
    """
    hi = 1.0
    lo = min(hi, (1.0 / _curve_slope(config, b)) * (1.0 + 1e-9))
    d_lo = _finite_derivative(config, lo, b)
    d_hi = _finite_derivative(config, hi, b)
    if d_lo <= 0.0 and d_hi <= 0.0:
        return lo
    if d_lo >= 0.0 and d_hi >= 0.0:
        return hi
    while hi - lo > min(S_TOLERANCE, 1e-6 * lo):
        mid = 0.5 * (lo + hi)
        if _finite_derivative(config, mid, b) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def one_bit_always_optimal(config: SystemConfig) -> bool:
    """Whether the global search may fix b = 1 outright.

    Requires the requested pilot excess >= 1 and the bandwidth condition to
    hold where it matters: at the one-bit optimum on the constraint curve.
    """
    if config.theta < 1.0:
        return False
    s = maximize_over_s(config, 1)
    m = max(1, int(round(1.0 / s)))
    design = DesignPoint(B_w=curve_bandwidth(config, s, 1), M=m, b=1)
    return bandwidth_condition(config, design)


def pade_bandwidth_condition(config: SystemConfig, design: DesignPoint) -> bool:
    """Sufficient condition for the rate to grow toward larger bandwidth
    (larger s) on the constraint curve.

    Derived from a rational lower bound on log(1+x); the (KP + B_w*N_0)
    factor enters squared, which keeps the test invariant under joint
    rescaling of powers and noise.
    """
    budget = link_budget(config, design.B_w, design.b)
    kp = config.K * budget.P
    u = kp + design.B_w * config.N_0
    one = 1.0 + budget.E
    lhs = kp / (design.B_w * config.N_0)
    rhs = 4.0 * one * one * u * u * config.L / (design.M * budget.P**2 * config.n_pilot) + 1.0
    return lhs > rhs


def antenna_condition(config: SystemConfig, design: DesignPoint) -> bool:
    """Sufficient condition for more antennas at less bandwidth to win
    (smaller s direction on the constraint curve)."""
    budget = link_budget(config, design.B_w, design.b)
    kp = config.K * budget.P
    u = kp + design.B_w * config.N_0
    one = 1.0 + budget.E
    rhs = 4.0 * one * one * u * design.B_w * config.N_0 * config.L / (
        budget.P**2 * config.n_pilot
    )
    return design.M < rhs


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of the full constrained search."""

    best: DesignPoint
    rate: RateBreakdown
    trace_points: int  # integer designs evaluated
    binding: bool
    relaxed_s: float
    relaxed_rate_bps: float
    fixed_one_bit: bool


def optimize_full(config: SystemConfig) -> OptimizationResult:
    """Global maximization of the per-user rate subject to B_w*M*b <= C_f.

    Fixes b = 1 when that is provably optimal, otherwise exhausts
    b in {1..B_MAX}; each resolution gets a concave search over s followed
    by evaluation of the nearest integer antenna counts with B_w = C_f/(M*b).
    Ties break toward fewer bits, then fewer antennas.
    """
    if config.C_f < 1.0:
        raise InfeasibleError(
            f"fronthaul capacity C_f={config.C_f} cannot carry one antenna-bit"
        )
    fixed_one_bit = one_bit_always_optimal(config)
    bits = (1,) if fixed_one_bit else tuple(range(1, B_MAX + 1))

    trace_points = 0
    best: tuple | None = None
    best_s = math.nan
    for b in bits:
        if config.C_f / b < 1.0:
            continue
        s = maximize_over_s(config, b)
        m_center = 1.0 / s
        m_lo = max(1, int(math.floor(m_center)) - M_NEIGHBORHOOD)
        m_hi = min(int(math.floor(config.C_f / b)), int(math.ceil(m_center)) + M_NEIGHBORHOOD)
        for m in range(m_lo, m_hi + 1):
            design = DesignPoint(B_w=config.C_f / (m * b), M=m, b=b)
            breakdown = achievable_rate(config, design)
            trace_points += 1
            key = (-breakdown.rate_bps, b, m)
            if best is None or key < best[0]:
                best = (key, design, breakdown)
                best_s = s
    if best is None:
        raise InfeasibleError("no feasible integer design on the constraint curve")

    _, design, breakdown = best
    slack = abs(design.fronthaul_load - config.C_f)
    return OptimizationResult(
        best=design,
        rate=breakdown,
        trace_points=trace_points,
        binding=slack <= design.B_w * design.b,
        relaxed_s=best_s,
        relaxed_rate_bps=rate_of_s(config, best_s, design.b),
        fixed_one_bit=fixed_one_bit,
    )
