"""Shared physical layer: scenario constants, designs, quantization
noise, AGC and power control.

Unit conventions
----------------
Powers are per unit bandwidth and in units of the thermal noise variance
per complex sample, so the noise is 1.  Under statistical channel inversion
every user is received at the same power P per unit bandwidth, so its
per-sample SNR over bandwidth B_w is P / B_w.  P is the one number that
sets the link.  The reference SNR is the per-sample SNR in 1 MHz:
Gamma = P / 1e6.  A link stated as a transmit power P_max, a cell-edge
path gain beta and a noise variance N_0 has P = P_max * beta / N_0.

A b-bit ADC is its step 2*X_int/2^b (``quantizer_step``) over [-X_int,
X_int], X_int in units of the input standard deviation once the input is
scaled to unit variance; E = step^2/12 = X_int^2 * 2^(-2b) / 3 is the
variance of its additive distortion per real ADC.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigValueError, PilotOverheadError

REFERENCE_BANDWIDTH_HZ = 1e6
FEASIBILITY_REL_TOL = 1e-9
# bound of the (b, X_int) memos: a figure preset has at most 12 distinct
# pairs, and the bound keeps outside input from growing them without limit
QUANTIZER_MEMO_SIZE = 256


def require_finite(obj) -> None:
    """Reject NaN and infinite numbers in a dataclass's fields, including
    the entries of tuple fields; the message names the field, not its value."""
    # getattr, not vars(): materializing __dict__ slows every later attribute read
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, (int, float)):
            finite = math.isfinite(value)
        else:
            finite = not isinstance(value, tuple) or all(map(math.isfinite, value))
        if not finite:
            raise ConfigValueError(f"{f.name} must be finite")


def quantizer_step(b: int, x_int: float = 1.0) -> float:
    """Step 2*x_int/2^b of a b-bit uniform midrise ADC over [-x_int, x_int].

    Args:
        b: resolution in bits per real component, b >= 1.
        x_int: no-overload half-width of the quantizer in units of the
            (unit-variance) input standard deviation.
    """
    if b < 1 or int(b) != b:
        raise ConfigValueError(f"ADC resolution must be a positive integer, got b={b}")
    if x_int <= 0:
        raise ConfigValueError(f"quantizer interval must be positive, got x_int={x_int}")
    return math.ldexp(x_int, 1 - int(b))


@functools.lru_cache(maxsize=QUANTIZER_MEMO_SIZE)  # invalid input raises, and is not cached
def quantization_distortion_variance(b: int, x_int: float = 1.0) -> float:
    """Additive distortion variance E = step^2/12 of a b-bit uniform ADC per
    real component, a uniform error over one step; quarters for each extra bit."""
    step = quantizer_step(b, x_int)
    return step * step / 12.0  # a product: ** rounds through the C library's pow


@dataclass(frozen=True)
class SystemConfig:
    """Scenario constants shared by every module.

    N_p (``n_pilot``) is derived from theta as round(theta*K*L), clamped to
    at least K*L, and ``n_data`` = N - N_p.  The effective pilot excess factor
    ``theta_eff`` = N_p/(K*L) is what the closed forms actually see (it can
    differ slightly from ``theta`` when theta*K*L is not an integer, and is
    always >= 1).  The three are computed once, at construction.
    """

    K: int = 20
    C_f: float = 500e9
    N: int = 2000
    L: int = 10
    theta: float = 1.0
    P: float = 10.0**1.5 * REFERENCE_BANDWIDTH_HZ  # reference SNR 15 dB
    X_int: float = 1.0

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
        if self.P <= 0:
            raise ConfigValueError(f"P must be positive, got P={self.P}")
        if self.X_int <= 0:
            raise ConfigValueError(f"X_int must be positive, got X_int={self.X_int}")
        # plain attributes, not fields: ==, hash and replace read the fields only
        n_pilot = max(self.K * self.L, int(math.floor(self.theta * self.K * self.L + 0.5)))
        object.__setattr__(self, "n_pilot", n_pilot)
        object.__setattr__(self, "n_data", self.N - n_pilot)
        object.__setattr__(self, "theta_eff", n_pilot / (self.K * self.L))
        if n_pilot >= self.N:
            raise PilotOverheadError(
                f"pilot length N_p={n_pilot} exhausts the block N={self.N} "
                "(keys theta, K, L, N)"
            )

    def replace(self, **changes) -> "SystemConfig":
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_reference_snr(cls, gamma_ref_db: float = 15.0, **fields) -> "SystemConfig":
        """Build a config with P set from a reference SNR in dB."""
        return cls(P=reference_snr_to_power(gamma_ref_db), **fields)


class Design(NamedTuple):
    """Decision variables: bandwidth (Hz), antenna count, ADC bits per real
    rail; unchecked, as the program builds them.  ``B_w`` and ``M`` may be
    numpy arrays (one may stay a number) at one int ``b``: a curve's designs."""

    B_w: float
    M: int
    b: int

    @property
    def fronthaul_load(self) -> float:
        """Fronthaul bit rate B_w * M * b consumed by this design."""
        return self.B_w * self.M * self.b

    def is_feasible(self, c_f: float) -> bool:
        return self.fronthaul_load <= c_f * (1.0 + FEASIBILITY_REL_TOL)


def _refused(rule: str, name: str, value: float) -> ConfigValueError:
    """The error for a design value that breaks rule, echoing the value only
    when it is finite."""
    return ConfigValueError(f"{rule}, got {name}={value}" if math.isfinite(value) else rule)


class DesignPoint(Design):
    """A ``Design`` checked as outside input: B_w positive and finite, M and
    b positive integers (an integral float becomes an int)."""

    __slots__ = ()

    def __new__(cls, B_w: float, M: int, b: int) -> "DesignPoint":
        if not (math.isfinite(B_w) and B_w > 0):
            raise _refused("B_w must be positive and finite", "B_w", B_w)
        if not math.isfinite(M) or M < 1 or int(M) != M:
            raise _refused("M must be a positive integer", "M", M)
        if not math.isfinite(b) or b < 1 or int(b) != b:
            raise _refused("b must be a positive integer", "b", b)
        return super().__new__(cls, B_w, int(M), int(b))

    @classmethod
    def _make(cls, iterable) -> "DesignPoint":  # and so _replace: both check
        return cls(*iterable)


class LinkBudget(NamedTuple):
    """Per-scenario derived quantities under channel-inversion power control.

    Attributes:
        I_total: total per-sample interference K*P/B_w (same for all users).
        P_rx: average per-antenna received power I_total + 1 (unit noise).
        mu: AGC gain 1/P_rx.
        E: quantization distortion variance for the design's resolution.
    """

    I_total: float
    P_rx: float
    mu: float
    E: float


def reference_snr_to_power(gamma_ref_db: float) -> float:
    """P such that the per-sample SNR in 1 MHz equals gamma_ref_db."""
    if not math.isfinite(gamma_ref_db):
        raise ConfigValueError("gamma_ref_db must be finite")
    try:
        gamma_lin = 10.0 ** (gamma_ref_db / 10.0)
    except OverflowError:
        raise ConfigValueError(
            f"gamma_ref_db={gamma_ref_db} overflows the linear power scale"
        ) from None
    return gamma_lin * REFERENCE_BANDWIDTH_HZ


def reference_snr_from_power(config: SystemConfig) -> float:
    """Inverse of reference_snr_to_power: recover the reference SNR in dB."""
    return 10.0 * math.log10(config.P / REFERENCE_BANDWIDTH_HZ)


def link_budget(config: SystemConfig, B_w: float, b: int) -> LinkBudget:
    """Assemble the derived link quantities for one (B_w, b) operating point.

    B_w is a valid bandwidth, a ``Design``'s: a number, or a numpy array
    of them, which gives array I_total, P_rx and mu.
    """
    i_total = config.K * config.P / B_w
    p_rx = i_total + 1.0
    return LinkBudget(
        I_total=i_total,
        P_rx=p_rx,
        mu=1.0 / p_rx,
        E=quantization_distortion_variance(b, config.X_int),
    )
