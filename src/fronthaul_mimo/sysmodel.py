"""Shared physical layer: scenario constants, quantization noise, AGC,
path loss and power control.

Unit conventions
----------------
Transmit powers are normalized per unit bandwidth: a user transmitting at
power P_k over bandwidth B_w is received at per-sample power beta_k * P_k,
and thermal noise has per-complex-sample variance N_0.  Under statistical
channel inversion every user lands at the same per-sample power P / B_w,
where P = P_max * beta_edge is the power parameter of the worst (cell edge)
user.  The reference SNR expresses P_max as the SNR a cell-edge user would
see in a 1 MHz bandwidth: Gamma = P_max * beta_edge / (1e6 * N_0).

The quantizer noise constant E = X_int^2 * 2^(-2b) / 3 is the variance of
the additive distortion per real ADC when its input is scaled to unit
variance and X_int is the no-overload half-width in units of the input
standard deviation.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigValueError, PilotOverheadError

PATHLOSS_INTERCEPT_DB = -130.0
PATHLOSS_SLOPE = 37.6
REFERENCE_BANDWIDTH_HZ = 1e6
FEASIBILITY_REL_TOL = 1e-9


def require_finite(obj) -> None:
    """Reject NaN and infinite numbers in a dataclass's fields, including
    the entries of tuple fields."""
    # getattr, not vars(): materializing __dict__ slows every later attribute read
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, (int, float)):
            finite = math.isfinite(value)
        else:
            finite = not isinstance(value, tuple) or all(map(math.isfinite, value))
        if not finite:
            raise ConfigValueError(f"{f.name} must be finite, got {f.name}={value}")


def quantization_distortion_variance(b: int, x_int: float = 1.0) -> float:
    """Additive distortion variance of a b-bit uniform ADC, per real component.

    Args:
        b: resolution in bits per real component, b >= 1.
        x_int: no-overload half-width of the quantizer in units of the
            (unit-variance) input standard deviation.

    Returns:
        E = x_int^2 * 2^(-2b) / 3.  Exactly quarters for each extra bit.
    """
    if b < 1 or int(b) != b:
        raise ConfigValueError(f"ADC resolution must be a positive integer, got b={b}")
    if x_int <= 0:
        raise ConfigValueError(f"quantizer interval must be positive, got x_int={x_int}")
    return (x_int * x_int) * 4.0 ** (-int(b)) / 3.0


def pathloss_linear(
    d_km: float,
    intercept_db: float = PATHLOSS_INTERCEPT_DB,
    slope: float = PATHLOSS_SLOPE,
) -> float:
    """Large-scale channel gain beta at distance d_km (kilometers), linear scale."""
    if d_km <= 0:
        raise ConfigValueError(f"distance must be positive, got d_km={d_km}")
    return 10.0 ** ((intercept_db - slope * math.log10(d_km)) / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Scenario constants shared by every module.

    N_p is derived from theta as round(theta*K*L), clamped to at least K*L,
    so the effective pilot excess factor ``theta_eff`` = N_p/(K*L) is what the
    closed forms actually see (it can differ slightly from ``theta`` when
    theta*K*L is not an integer, and is always >= 1).
    """

    K: int = 20
    C_f: float = 500e9
    N: int = 2000
    L: int = 10
    theta: float = 1.0
    N_0: float = 1.0
    P_max: float = 1.0
    X_int: float = 1.0
    cell_radius_km: float = 0.35
    pathloss_intercept_db: float = PATHLOSS_INTERCEPT_DB
    pathloss_slope: float = PATHLOSS_SLOPE

    def __post_init__(self) -> None:
        require_finite(self)
        if self.K < 1 or int(self.K) != self.K:
            raise ConfigValueError(f"K must be a positive integer, got K={self.K}")
        if self.C_f <= 0:
            raise ConfigValueError(f"C_f must be positive, got C_f={self.C_f}")
        if self.N < 2 or int(self.N) != self.N:
            raise ConfigValueError(f"N must be an integer >= 2, got N={self.N}")
        if self.L < 1 or int(self.L) != self.L:
            raise ConfigValueError(f"L must be a positive integer, got L={self.L}")
        if self.theta <= 0:
            raise ConfigValueError(f"theta must be positive, got theta={self.theta}")
        if self.N_0 <= 0:
            raise ConfigValueError(f"N_0 must be positive, got N_0={self.N_0}")
        if self.P_max <= 0:
            raise ConfigValueError(f"P_max must be positive, got P_max={self.P_max}")
        if self.X_int <= 0:
            raise ConfigValueError(f"X_int must be positive, got X_int={self.X_int}")
        if self.cell_radius_km <= 0:
            raise ConfigValueError(
                f"cell_radius_km must be positive, got cell_radius_km={self.cell_radius_km}"
            )
        if self.n_pilot >= self.N:
            raise PilotOverheadError(
                f"pilot length N_p={self.n_pilot} exhausts the block N={self.N} "
                "(keys theta, K, L, N)"
            )

    @property
    def n_pilot(self) -> int:
        """Pilot length N_p = round(theta*K*L), at least K*L."""
        return max(self.K * self.L, int(math.floor(self.theta * self.K * self.L + 0.5)))

    @property
    def n_data(self) -> int:
        return self.N - self.n_pilot

    @property
    def theta_eff(self) -> float:
        """Effective pilot excess factor after integer rounding of N_p."""
        return self.n_pilot / (self.K * self.L)

    @property
    def beta_edge(self) -> float:
        return pathloss_linear(
            self.cell_radius_km, self.pathloss_intercept_db, self.pathloss_slope
        )

    def replace(self, **changes) -> "SystemConfig":
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_reference_snr(cls, gamma_ref_db: float = 15.0, **fields) -> "SystemConfig":
        """Build a config with P_max set from a cell-edge reference SNR in dB."""
        config = cls(**fields)
        return config.replace(P_max=reference_snr_to_power(config, gamma_ref_db))


@dataclass(frozen=True)
class DesignPoint:
    """Decision variables: bandwidth (Hz), antenna count, ADC bits per real rail."""

    B_w: float
    M: int
    b: int

    def __post_init__(self) -> None:
        # inline checks, not require_finite: a design is built per evaluated point
        if not (math.isfinite(self.B_w) and self.B_w > 0):
            raise ConfigValueError(f"B_w must be positive and finite, got B_w={self.B_w}")
        if not math.isfinite(self.M) or self.M < 1 or int(self.M) != self.M:
            raise ConfigValueError(f"M must be a positive integer, got M={self.M}")
        if not math.isfinite(self.b) or self.b < 1 or int(self.b) != self.b:
            raise ConfigValueError(f"b must be a positive integer, got b={self.b}")
        object.__setattr__(self, "M", int(self.M))  # an integral float, as an int
        object.__setattr__(self, "b", int(self.b))

    @property
    def fronthaul_load(self) -> float:
        """Fronthaul bit rate B_w * M * b consumed by this design."""
        return self.B_w * self.M * self.b

    def is_feasible(self, c_f: float) -> bool:
        return self.fronthaul_load <= c_f * (1.0 + FEASIBILITY_REL_TOL)


@dataclass(frozen=True)
class LinkBudget:
    """Per-scenario derived quantities under channel-inversion power control.

    Attributes:
        P: common power parameter P_max * beta_edge.
        I_total: total per-sample interference K*P/B_w (same for all users).
        P_rx: average per-antenna received power I_total + N_0.
        mu: AGC gain 1/P_rx.
        E: quantization distortion variance for the design's resolution.
    """

    P: float
    I_total: float
    P_rx: float
    mu: float
    E: float


def reference_snr_to_power(config: SystemConfig, gamma_ref_db: float) -> float:
    """P_max such that the cell-edge SNR in 1 MHz equals gamma_ref_db."""
    if not math.isfinite(gamma_ref_db):
        raise ConfigValueError(f"gamma_ref_db must be finite, got {gamma_ref_db}")
    try:
        gamma_lin = 10.0 ** (gamma_ref_db / 10.0)
    except OverflowError:
        raise ConfigValueError(
            f"gamma_ref_db={gamma_ref_db} overflows the linear power scale"
        ) from None
    return gamma_lin * REFERENCE_BANDWIDTH_HZ * config.N_0 / config.beta_edge


def reference_snr_from_power(config: SystemConfig) -> float:
    """Inverse of reference_snr_to_power: recover the reference SNR in dB."""
    gamma_lin = config.P_max * config.beta_edge / (REFERENCE_BANDWIDTH_HZ * config.N_0)
    return 10.0 * math.log10(gamma_lin)


def link_budget(config: SystemConfig, B_w: float, b: int) -> LinkBudget:
    """Assemble the derived link quantities for one (B_w, b) operating point."""
    if B_w <= 0:
        raise ConfigValueError(f"B_w must be positive, got B_w={B_w}")
    p = config.P_max * config.beta_edge
    i_total = config.K * p / B_w
    p_rx = i_total + config.N_0
    return LinkBudget(
        P=p,
        I_total=i_total,
        P_rx=p_rx,
        mu=1.0 / p_rx,
        E=quantization_distortion_variance(b, config.X_int),
    )
