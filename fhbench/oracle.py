"""Closed-form reference for the benchmark, written from the paper's model.

It imports nothing from ``fronthaul_mimo``: the benchmark checks the
program's rates, thresholds and optimum against these functions, so they
must not share code with it.

Model, with rho = P / (B_w * N_0) the per-user receive SNR after
channel-inversion power control (P = P_max * beta_edge, fixed by the
cell-edge reference SNR in 1 MHz) and E = X_int^2 * 4^-b / 3 the additive
quantization distortion of a b-bit converter per real rail:

    c     = theta_eff*K*rho / (theta_eff*K*rho + 1 + (K*rho + 1)*E)
    gamma = c * M * rho / ((K*rho + 1) * (1 + E))
    R     = B_w * (N - N_p) / N * log2(1 + gamma)

``f(b)`` is the interference-to-noise ratio K*rho above which b bits at
bandwidth B_w give a larger low-SINR rate B_w*gamma than b+1 bits at
bandwidth B_w*b/(b+1), at unit pilot excess.  Above it, trading the bit for
bandwidth raises the rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

REFERENCE_BANDWIDTH_HZ = 1e6
B_MAX = 12

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class Scenario:
    """The scenario constants the rate depends on."""

    K: int = 20
    N: int = 2000
    L: int = 10
    theta: float = 1.0
    snr_db: float = 15.0
    X_int: float = 1.0
    C_f: float = 500e9
    N_0: float = 1.0

    @property
    def n_pilot(self) -> int:
        """Pilot length: theta*K*L rounded half up, at least K*L."""
        return max(self.K * self.L, math.floor(self.theta * self.K * self.L + 0.5))

    @property
    def power(self) -> float:
        """Received power per unit bandwidth of every user, P_max*beta_edge."""
        return 10.0 ** (self.snr_db / 10.0) * REFERENCE_BANDWIDTH_HZ * self.N_0


@dataclass(frozen=True)
class Rate:
    c: float
    gamma: float
    rate_bps: float


def distortion(b: int, x_int: float) -> float:
    return x_int * x_int / (3.0 * 4.0**b)


def rate(sc: Scenario, B_w: float, M: int, b: int) -> Rate:
    """Estimation quality, SINQR and per-user rate at one design point."""
    rho = sc.power / (B_w * sc.N_0)
    e = distortion(b, sc.X_int)
    theta_eff = sc.n_pilot / (sc.K * sc.L)
    load = sc.K * rho + 1.0
    c = theta_eff * sc.K * rho / (theta_eff * sc.K * rho + 1.0 + load * e)
    gamma = c * M * rho / (load * (1.0 + e))
    prelog = B_w * (sc.N - sc.n_pilot) / sc.N
    return Rate(c=c, gamma=gamma, rate_bps=prelog * math.log1p(gamma) / _LN2)


def threshold_f(b: int, x_int: float) -> float:
    """Root in x = K*rho of (x + a)(1 + E_{b+1}) = sqrt(a)(x + 1)(1 + E_b), a = b/(b+1).

    The two sides are sqrt(gamma) up to a common factor for b+1 bits at
    bandwidth a*B_w and for b bits at B_w, so the root is where
    B_w*gamma_b = a*B_w*gamma_{b+1}.
    """
    a = b / (b + 1.0)
    e_b = distortion(b, x_int)
    e_next = distortion(b + 1, x_int)
    slope = (1.0 + e_next) - math.sqrt(a) * (1.0 + e_b)
    intercept = a * (1.0 + e_next) - math.sqrt(a) * (1.0 + e_b)
    return -intercept / slope


@dataclass(frozen=True)
class Design:
    B_w: float
    M: int
    b: int
    rate_bps: float


def lattice_rate(sc: Scenario, M: int, b: int) -> float:
    """Rate on the constraint lattice B_w = C_f/(M*b)."""
    return rate(sc, sc.C_f / (M * b), M, b).rate_bps


def _argmax_unimodal(f, lo: int, hi: int) -> int:
    """Integer arg-max of a unimodal f on [lo, hi].

    A log-spaced scan brackets the peak; a ternary search over the integers
    in the bracket finishes it, and a final scan of the last few points and
    their neighbours guards against ties.
    """
    n_grid = 240
    grid = sorted(
        {lo, hi}
        | {
            min(hi, max(lo, round(lo * (hi / lo) ** (i / (n_grid - 1)))))
            for i in range(n_grid)
        }
    )
    values = [f(m) for m in grid]
    i = max(range(len(grid)), key=values.__getitem__)
    left = grid[max(0, i - 1)]
    right = grid[min(len(grid) - 1, i + 1)]
    while right - left > 6:
        third = (right - left) // 3
        m1, m2 = left + third, right - third
        if f(m1) < f(m2):
            left = m1 + 1
        else:
            right = m2 - 1
    candidates = range(max(lo, left - 2), min(hi, right + 2) + 1)
    return max(candidates, key=f)


def lattice_optimum(sc: Scenario, b_max: int = B_MAX) -> Design:
    """Best design on the integer lattice B_w = C_f/(M*b), 1 <= M <= C_f/b."""
    best: Design | None = None
    for b in range(1, b_max + 1):
        m_max = math.floor(sc.C_f / b)
        if m_max < 1:
            continue
        m = _argmax_unimodal(lambda m, b=b: lattice_rate(sc, m, b), 1, m_max)
        r = lattice_rate(sc, m, b)
        if best is None or r > best.rate_bps:
            best = Design(B_w=sc.C_f / (m * b), M=m, b=b, rate_bps=r)
    if best is None:
        raise ValueError(f"no design fits C_f={sc.C_f}")
    return best


def exhaustive_optimum(sc: Scenario, b_max: int = B_MAX) -> Design:
    """Every lattice point; only usable at small C_f."""
    best: Design | None = None
    for b in range(1, b_max + 1):
        for m in range(1, math.floor(sc.C_f / b) + 1):
            r = lattice_rate(sc, m, b)
            if best is None or r > best.rate_bps:
                best = Design(B_w=sc.C_f / (m * b), M=m, b=b, rate_bps=r)
    if best is None:
        raise ValueError(f"no design fits C_f={sc.C_f}")
    return best
