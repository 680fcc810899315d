"""Fronthaul-constrained rate maximization over (B_w, M, b).

The optimum always sits on the constraint curve B_w*M*b = C_f (rate is
strictly increasing in M at fixed B_w and b), so at b fixed the search
space reduces to the auxiliary variable s in [b/C_f, 1] with M = 1/s and
B_w = (C_f/b)*s.  R(s) is unimodal in s, concave through the ascent to its
maximizer (convex only in the far noise-limited decay), so the maximizer
is found by bisection on the sign of the closed-form derivative; the
integer optimum is then the floor or the ceiling of 1/s* (``optimize_full``).
The bisection does each piece of work once: Halley steps on a well-scaled
function of log s with the derivative's sign locate the root
(``_locate``), the derivative confirms its sign at the two edges of a
narrow window around it, and the bisection is then replayed, deciding each
midpoint outside the window by its side and evaluating the derivative only
inside; where the root cannot be located with a resolved sign, every
midpoint is evaluated.  Either way s* is the plain bisection's, bit for bit.
The search over b stops once the E = 0 rate on the curve of capacity C_f/b
shows that no design at b bits or more can win (``unquantized_bound_below``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigValueError, InfeasibleError
from .linkrate import RateBreakdown, achievable_rate
from .sysmodel import (
    QUANTIZER_MEMO_SIZE,
    Design,
    DesignPoint,
    SystemConfig,
    link_budget,
    quantization_distortion_variance,
)

_LN2 = math.log(2.0)
_INF = math.inf

B_MAX = 12
S_TOLERANCE = 1e-10
# The located root: at most LOCATE_STEPS steps (a root found took at most
# 10 over 14,000 random and extreme searches, 4 on the paper grid), the
# last one shorter than LAST_STEP in log s, which leaves an error near its
# cube (about 1e-12).  dR/ds is evaluated only within WINDOW (relative) of
# it, and only where omega there exceeds OMEGA_RESOLVED: below it the sign
# of dR/ds near the root is rounding noise, which only the plain bisection
# reproduces.
LOCATE_STEPS = 16
LAST_STEP = 1e-4
WINDOW = 1e-9
OMEGA_RESOLVED = 1e-6
LOG_RESOLVED = math.log1p(OMEGA_RESOLVED)


@functools.lru_cache(maxsize=QUANTIZER_MEMO_SIZE)
def _threshold_parts(b: int, x_int: float) -> tuple[float, float]:
    """Numerator and denominator of the bit-for-bandwidth threshold, from E(b) and E(b+1)."""
    e = quantization_distortion_variance(b, x_int)  # validates b and x_int
    e_next = quantization_distortion_variance(b + 1, x_int)
    al = b / (b + 1.0)
    sq = math.sqrt(al)
    num = al * (-1.0 - e_next + 1.0 / sq + e / sq)
    den = 1.0 + e_next - sq - e * sq
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


def bandwidth_condition(config: SystemConfig, design: Design) -> bool:
    """True when the interference-to-noise ratio K*P/B_w strictly
    exceeds the bit-for-bandwidth threshold at this design's resolution.

    The threshold is evaluated at unit pilot excess; larger pilot excess only
    lowers it, so this test is a conservative sufficient condition.  For very
    wide quantizer intervals the threshold's denominator goes negative and
    the underlying inequality can never hold, so the test returns False.
    """
    num, den = _threshold_parts(design.b, config.X_int)
    if den <= 0.0:
        return False
    return link_budget(config, design.B_w, design.b).I_total > num / den


class ConstraintCurve(NamedTuple):
    """Constants of the constraint curve at one (config, b)."""

    slope: float  # dB_w/ds = C_f/b; s lies in [1/slope, 1]
    kp: float  # K*P
    one: float  # 1 + E
    te_kp: float  # (theta_eff - 1)*K*P
    a: float  # pilot factor P^2*N_p/L
    upsilon: float  # rate scale N_d*slope/(N*ln 2)
    b: int  # the resolution the curve belongs to


def _curve(config: SystemConfig, b: int, e: float) -> ConstraintCurve:
    """The constraint curve at resolution b for an ADC of distortion variance e."""
    slope = config.C_f / b
    kp = config.K * config.P
    one = 1.0 + e
    return ConstraintCurve(
        slope=slope,
        kp=kp,
        one=one,
        te_kp=(config.theta_eff - 1.0) * kp,
        a=config.P * config.P * config.n_pilot / config.L,
        upsilon=config.n_data * slope / (config.N * _LN2),
        b=b,
    )


@functools.lru_cache(maxsize=B_MAX)  # every b of one search
def constraint_curve(config: SystemConfig, b: int) -> ConstraintCurve:
    """The constraint curve at resolution b.

    The cap B_w*M*b = C_f is the curve M = 1/s, B_w = (C_f/b)*s over
    s in [b/C_f, 1]; every relaxed quantity and sufficient condition in this
    module reads the curve's constants, and its domain, from this record.
    """
    return _curve(config, b, quantization_distortion_variance(b, config.X_int))


def _in_domain(curve: ConstraintCurve, s: float) -> ConstraintCurve:
    """The curve, once s is checked to lie in its domain."""
    if not 1.0 / curve.slope <= s <= 1.0:
        raise ValueError(f"s must lie in [b/C_f, 1] = [{1.0 / curve.slope}, 1] at b={curve.b}")
    return curve


def curve_bandwidth(config: SystemConfig, s: float, b: int) -> float:
    """Bandwidth of the relaxed design at s on the constraint curve (M = 1/s)."""
    return _in_domain(constraint_curve(config, b), s).slope * s


def rate_of_s(config: SystemConfig, s: float, b: int) -> float:
    """Per-user rate (bit/s) on the constraint curve M=1/s, B_w=(C_f/b)*s."""
    curve = _in_domain(constraint_curve(config, b), s)
    return curve.upsilon * s * _log_rate_and_slope(curve, s)[0]


def rate_of_s_derivative(curve: ConstraintCurve, s: float) -> float:
    """Closed-form dR/ds on a curve from ``constraint_curve``; its sign gives
    the ascent direction.  Only the terms that depend on s are computed here.
    """
    return _log_rate_and_slope(_in_domain(curve, s), s)[1]


def _log_rate_and_slope(curve: ConstraintCurve, s: float) -> tuple[float, float]:
    """log1p(omega) and dR/ds at s, from one omega: the SINQR on the curve,
    omega = a/(s*(1+E)u*((theta_eff - 1)KP + (1+E)u)), u = KP + slope*s."""
    slope, kp, one, te_kp, a, upsilon, _ = curve
    u = kp + slope * s
    ou = one * u
    # omega = a/(s*denom), denom = tau(theta, s) + (1+E)^2 u^2,
    # with tau = (theta_eff - 1) KP (1+E) u
    denom = ou * (te_kp + ou)
    denom_dot = one * slope * (te_kp + 2.0 * one * u)
    g = s * denom
    omega = a / g
    omega_dot = -omega * (denom + s * denom_dot) / g  # not a/g^2: g^2 overflows
    log_omega = math.log1p(omega)
    return log_omega, upsilon * (log_omega + s * omega_dot / (1.0 + omega))


def _ascent(curve: ConstraintCurve, t: float) -> tuple[float, float, float]:
    """G(t) and its first two derivatives in t = log s, where G has the sign
    of dR/ds.

    dR/ds = upsilon*omega/(1+omega)*(h - q) with h = log1p(omega)(1+omega)/omega - 1
    and q = s*D'/D, D = ou*(te_kp + ou); q = p1 + p2 with p1 = y/ou,
    p2 = y/(te_kp + ou), y = (1+E)*slope*s, and dp/dt = p(1 - p).  G =
    log(h/q) falls in t with a slope between about -1 and -4 over the whole
    curve, where h - q flattens as omega vanishes, so steps on G stay near
    the root.  Where omega is at most ``OMEGA_RESOLVED``, G is -inf: s lies
    beyond any root ``_locate`` accepts, since omega falls in s.
    """
    s = math.exp(t)
    ou = curve.one * (curve.kp + curve.slope * s)
    tou = curve.te_kp + ou
    omega = curve.a / (s * (ou * tou))
    if omega <= OMEGA_RESOLVED:
        return -_INF, 0.0, 0.0
    y = curve.one * curve.slope * s
    p1, p2 = y / ou, y / tou
    r1, r2 = p1 * (1.0 - p1), p2 * (1.0 - p2)
    q, q_dot, q_ddot = p1 + p2, r1 + r2, r1 * (1.0 - 2.0 * p1) + r2 * (1.0 - 2.0 * p2)
    log_omega = math.log1p(omega)
    h = log_omega * (1.0 + omega) / omega - 1.0
    k = 1.0 - log_omega / omega  # dh/dlog(omega); dlog(omega)/dt = -(1 + q)
    h_dot = -(1.0 + q) * k
    h_ddot = (1.0 + q) ** 2 * (log_omega / omega - 1.0 / (1.0 + omega)) - q_dot * k
    hr, qr = h_dot / h, q_dot / q
    return math.log(h / q), hr - qr, h_ddot / h - hr * hr - q_ddot / q + qr * qr


def _locate(curve: ConstraintCurve, lo: float, hi: float) -> float | None:
    """The root of ``_ascent``'s G in (lo, hi) by Halley steps in t = log s
    inside a sign bracket, or a bisection in t where a step leaves it; None
    when a term leaves the float range, ``LOCATE_STEPS`` steps pass, or
    omega at the root is too small for the sign of dR/ds to be resolved."""
    t_lo, t_hi = math.log(lo), math.log(hi)
    one_kp = curve.one * curve.kp
    try:  # where h = q while slope*s << KP and omega >> 1: log omega = 1
        t = math.log(curve.a) - math.log(one_kp) - math.log(curve.te_kp + one_kp) - 1.0
    except ValueError:
        t = 0.5 * (t_lo + t_hi)
    for _ in range(LOCATE_STEPS):
        if not t_lo < t < t_hi:
            t = 0.5 * (t_lo + t_hi)
        try:
            g, g_dot, g_ddot = _ascent(curve, t)
        except ArithmeticError:  # a term left the float range
            return None
        if g > 0.0:
            t_lo = t
        elif g <= 0.0:
            t_hi = t
        else:
            return None
        if not g_dot < 0.0:  # omega is unresolved at t, and so beyond it
            if _log_rate_and_slope(curve, lo)[0] <= LOG_RESOLVED:  # and at lo: everywhere
                return None
            t = 0.5 * (t_lo + t_hi)
            continue
        halley = 2.0 * g_dot * g_dot - g * g_ddot
        step = -2.0 * g * g_dot / halley if halley > 0.0 else -g / g_dot
        if abs(step) < LAST_STEP:
            return math.exp(t + step)
        t += step
    return None


def maximize_over_s(config: SystemConfig, b: int) -> float:
    """Maximizer s* of R(s) by bisection on the derivative sign, valid
    because the derivative changes sign exactly once.

    Returns the boundary point when the derivative never changes sign.
    Stops at a width of 1e-10 in s, or of 1e-6 relative to s where that is
    tighter, so a tiny s* (a huge capacity) still converges.  Raises
    ConfigValueError when the derivative is not finite, which only C_f or
    P far beyond any physical system causes.

    The bisection is replayed from a located root, not run blind.
    ``_locate`` finds the root first, and dR/ds at the two edges of a
    window of ``WINDOW`` (relative) around it confirms its sign there: > 0
    below, <= 0 above.  The bisection then runs as ever, but decides a
    midpoint outside the window by its side and evaluates dR/ds only
    inside it, so s* is the plain bisection's, bit for bit.  Where the root
    is not located (a term leaves the float range, or omega at the root is
    at most ``OMEGA_RESOLVED``) or an edge's sign is not confirmed, it
    evaluates every midpoint, as the plain bisection does.
    """
    curve = constraint_curve(config, b)
    hi = 1.0
    lo = min(hi, 1.0 / curve.slope * (1.0 + 1e-9))
    d_lo = rate_of_s_derivative(curve, lo)
    if not math.isfinite(d_lo):
        raise _not_finite(config, lo, b)
    d_hi = rate_of_s_derivative(curve, hi)
    if not math.isfinite(d_hi):
        raise _not_finite(config, hi, b)
    if d_lo <= 0.0 and d_hi <= 0.0:
        return lo
    if d_lo >= 0.0 and d_hi >= 0.0:
        return hi
    below, above = 0.0, _INF  # every midpoint between the two is evaluated
    root = _locate(curve, lo, hi) if d_lo > 0.0 else None  # an ascent, then a descent
    if root is not None:
        edge_lo, edge_hi = root * (1.0 - WINDOW), root * (1.0 + WINDOW)
        if (lo < edge_lo and edge_hi < hi
                and 0.0 < rate_of_s_derivative(curve, edge_lo) < _INF
                and -_INF < rate_of_s_derivative(curve, edge_hi) <= 0.0):
            below, above = edge_lo, edge_hi
    # comparisons, not min() and isfinite() calls: this loop is the hot path
    while hi - lo > S_TOLERANCE or hi - lo > 1e-6 * lo:
        mid = 0.5 * (lo + hi)
        if mid < below:
            lo = mid
            continue
        if mid > above:
            hi = mid
            continue
        d = rate_of_s_derivative(curve, mid)
        if 0.0 < d < _INF:
            lo = mid
        elif -_INF < d <= 0.0:
            hi = mid
        else:
            raise _not_finite(config, mid, b)
    return 0.5 * (lo + hi)


def _not_finite(config: SystemConfig, s: float, b: int) -> ConfigValueError:
    return ConfigValueError(
        f"dR/ds at s={s}, b={b} is not finite: C_f={config.C_f} or "
        f"P={config.P} is beyond the float range of the constraint-curve search"
    )


def one_bit_always_optimal(config: SystemConfig, s: float) -> bool:
    """The one-bit certificate, given the one-bit maximizer
    s = maximize_over_s(config, 1): b = 1 is globally optimal.

    Requires the requested pilot excess >= 1 and the bandwidth condition to
    hold where it matters: at the one-bit optimum on the constraint curve.
    ``optimize_full`` reports it as ``fixed_one_bit``; the search stops by
    ``unquantized_bound_below`` alone.
    """
    if config.theta < 1.0:
        return False
    design = Design(B_w=curve_bandwidth(config, s, 1), M=round(1.0 / s), b=1)
    return bandwidth_condition(config, design)


def unquantized_bound_below(config: SystemConfig, b: int, best_bps: float) -> bool:
    """True when no design at b bits or more can beat the rate best_bps.

    At a fixed (B_w, M) the rate falls as E grows (c and gamma both fall),
    and at E = 0 it rises with M, so every design at b is bounded by the
    maximum G(C_f/b) of the E = 0 rate on the curve of capacity C_f/b; G
    grows with the capacity, so the bound also covers every b' > b.  Along
    the curve s rises and omega falls, so on a bracket [lo, hi] of the
    E = 0 maximizer every rate is at most upsilon*hi*log1p(omega(lo)).  The
    bracket is bisected on the derivative sign until that bound falls below
    best_bps (True), or the rate at a bracket end exceeds best_bps, or the
    bracket reaches the width of ``maximize_over_s`` (False).

    The bound must clear best_bps by a relative 1e-12.  Integer rates come
    from ``linkrate``'s formulas and the bound from this module's, each
    within a few ulps (about 1e-15) of the exact value; the margin, a
    thousand times wider, keeps rounding from lifting a pruned design above
    best_bps, and a design within it would tie, which goes to fewer bits.
    A bound or derivative that is not finite never prunes.
    """
    curve = _curve(config, b, 0.0)
    lo, hi = 1.0 / curve.slope, 1.0
    log_lo = _log_rate_and_slope(curve, lo)[0]
    while True:
        bound = curve.upsilon * hi * log_lo
        if bound < _INF and best_bps >= bound * (1.0 + 1e-12):
            return True
        if not (hi - lo > S_TOLERANCE or hi - lo > 1e-6 * lo):
            return False
        mid = 0.5 * (lo + hi)
        log_mid, d = _log_rate_and_slope(curve, mid)
        if curve.upsilon * mid * log_mid > best_bps:
            return False
        if 0.0 < d < _INF:
            lo, log_lo = mid, log_mid
        elif -_INF < d <= 0.0:
            hi = mid
        else:
            return False


def pade_bandwidth_condition(config: SystemConfig, design: Design) -> bool:
    """Sufficient condition for the rate to grow toward larger bandwidth
    (larger s) on the constraint curve.

    Derived from a rational lower bound on log(1+x).
    """
    curve = constraint_curve(config, design.b)
    u = curve.kp + design.B_w
    return curve.kp / design.B_w > 4.0 * curve.one * curve.one * u * u / (design.M * curve.a) + 1.0


def antenna_condition(config: SystemConfig, design: Design) -> bool:
    """Sufficient condition for more antennas at less bandwidth to win
    (smaller s direction on the constraint curve)."""
    curve = constraint_curve(config, design.b)
    u = curve.kp + design.B_w
    return design.M < 4.0 * curve.one * curve.one * u * design.B_w / curve.a


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

    Searches b = 1, 2, ... B_MAX in turn, and stops before a b >= 2 where
    ``unquantized_bound_below`` shows that no design at b bits or more can
    beat the best rate found so far.  Each b evaluates M = floor(1/s*) and
    ceil(1/s*) in [1, C_f/b] at B_w = C_f/(M*b): exact, as the design at M
    lies on the curve at s = 1/M, where R is unimodal (above M ~ 1e6, to
    within the search's width).  Ties break toward fewer bits, then antennas.
    ``fixed_one_bit`` reports the one-bit certificate at b = 1.
    """
    if config.C_f < 1.0:
        raise InfeasibleError(
            f"fronthaul capacity C_f={config.C_f} cannot carry one antenna-bit"
        )
    trace_points = 0
    best: tuple | None = None
    best_s = math.nan
    for b in range(1, B_MAX + 1):
        if config.C_f / b < 1.0:
            break
        if best is not None and unquantized_bound_below(config, b, best[2].rate_bps):
            break
        s = maximize_over_s(config, b)
        if b == 1:
            fixed_one_bit = one_bit_always_optimal(config, s)
        m_lo, m_hi = math.floor(1.0 / s), math.ceil(1.0 / s)
        for m in range(max(1, m_lo), min(math.floor(config.C_f / b), m_hi) + 1):
            design = Design(B_w=config.C_f / (m * b), M=m, b=b)
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
        best=DesignPoint._make(design),
        rate=breakdown,
        trace_points=trace_points,
        binding=slack <= design.B_w * design.b,
        relaxed_s=best_s,
        relaxed_rate_bps=rate_of_s(config, best_s, design.b),
        fixed_one_bit=fixed_one_bit,
    )
