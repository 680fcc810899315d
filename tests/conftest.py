import math

import numpy as np
import pytest

from fronthaul_mimo import optimizer
from fronthaul_mimo.cli import _point_design
from fronthaul_mimo.errors import ConfigValueError, InfeasibleError, SweepPointError
from fronthaul_mimo.linkrate import achievable_rate
from fronthaul_mimo.sysmodel import (
    DesignPoint,
    SystemConfig,
    link_budget,
    quantization_distortion_variance,
    reference_snr_from_power,
)


@pytest.fixture
def base_config() -> SystemConfig:
    """Default scenario at 15 dB reference SNR."""
    return SystemConfig.from_reference_snr(15.0)


# --- independent references the tests compare the package against ----------


def threshold_f_alt(b: int, x_int: float = 1.0) -> float:
    """Algebraically equivalent rearrangement of optimizer.threshold_f."""
    al = b / (b + 1.0)
    sq = math.sqrt(al)
    e = quantization_distortion_variance(b, x_int)
    num = sq * (1.0 + e) - al * (1.0 + e / 4.0)
    den = (1.0 + e / 4.0) - sq * (1.0 + e)
    return num / den


def optimize_every_resolution(config: SystemConfig) -> tuple:
    """optimizer.optimize_full without a stopping rule: every b = 1..12 the
    fronthaul carries is searched.  Returns (best, rate, relaxed_s,
    relaxed_rate_bps, fixed_one_bit)."""
    if config.C_f < 1.0:
        raise InfeasibleError("C_f < 1")
    best = None
    for b in range(1, 13):
        if config.C_f / b < 1.0:
            break
        s = optimizer.maximize_over_s(config, b)
        if b == 1:
            fixed_one_bit = optimizer.one_bit_always_optimal(config, s)
        for m in range(max(1, math.floor(1.0 / s)),
                       min(math.floor(config.C_f / b), math.ceil(1.0 / s)) + 1):
            design = DesignPoint(B_w=config.C_f / (m * b), M=m, b=b)
            rate = achievable_rate(config, design)
            if best is None or (-rate.rate_bps, b, m) < best[0]:
                best = ((-rate.rate_bps, b, m), design, rate, s)
    _, design, rate, s = best
    return design, rate, s, optimizer.rate_of_s(config, s, design.b), fixed_one_bit


def estimation_quality_tapwise(
    config: SystemConfig, design: DesignPoint, sigma2: np.ndarray
) -> float:
    """c as the sum of per-tap LMMSE qualities d[l]*sigma2[l], for any power
    delay profile; equals linkrate.estimation_quality for the uniform one."""
    sigma2 = np.asarray(sigma2, dtype=float)
    budget = link_budget(config, design.B_w, design.b)
    rx = config.P / design.B_w
    sig = rx * config.n_pilot * budget.mu * sigma2
    d = sig / (sig + budget.E + budget.mu)
    return float(np.sum(d * sigma2))


def mrc_combine_time(y_q: np.ndarray, h_hat: np.ndarray, n_data: int) -> np.ndarray:
    """Time-domain FIR realization of montecarlo.mrc_combine, returned in the
    frequency domain for comparison.  O(N^2)."""
    h_freq = np.fft.fft(h_hat, n=n_data, axis=2)
    w_time = np.fft.ifft(h_freq.conj(), axis=2)  # (M, K, N_d)
    n = np.arange(n_data)
    idx = (n[None, :] - n[:, None]) % n_data  # [l, n] -> (n - l) mod N_d
    y_shift = y_q[:, idx]  # (M, L=N_d, N_d)
    x_time = np.einsum("mkl,mln->kn", w_time, y_shift)
    return np.fft.fft(x_time, axis=1) / math.sqrt(n_data)


def pilot_correlations(phi: np.ndarray, n_taps: int) -> np.ndarray:
    """C[k, i, l] = sum_n phi_k[n] * conj(phi_i[(n+l) mod N_p])."""
    n_users = phi.shape[0]
    out = np.empty((n_users, n_users, n_taps), dtype=complex)
    for lag in range(n_taps):
        out[:, :, lag] = phi @ np.roll(phi, -lag, axis=1).conj().T
    return out


def max_orthogonality_defect(phi: np.ndarray, n_taps: int) -> float:
    """Largest deviation of the pilot correlations from the ideal pattern."""
    corr = pilot_correlations(phi, n_taps)
    target = np.zeros_like(corr)
    k = np.arange(phi.shape[0])
    target[k, k, 0] = phi.shape[1]
    return float(np.max(np.abs(corr - target)))


def sweep_rows_point_by_point(config: SystemConfig, spec) -> list[dict]:
    """The closed-form rows of cli.run_sweep, one grid point at a time: a
    DesignPoint, achievable_rate, the threshold and the three conditions per
    row.  A failing point raises SweepPointError naming it, as the sweep does."""
    rows = []
    for index, value in enumerate(spec.values):
        try:
            cfg, design, s = _point_design(config, spec, value)
            rate = achievable_rate(cfg, design)
            if not 0.0 < rate.rate_bps < math.inf:
                raise ConfigValueError(
                    f"rate_bps={rate.rate_bps}: an input is beyond the float range"
                )
            rows.append({
                "preset": None,
                "axis": spec.axis,
                "axis_value": value,
                "theta": cfg.theta,
                "snr_db": reference_snr_from_power(cfg),
                "K": cfg.K,
                "C_f_bps": cfg.C_f,
                "B_w_hz": design.B_w,
                "M": design.M,
                "b": design.b,
                "s": s,
                "N": cfg.N,
                "N_p": cfg.n_pilot,
                "L": cfg.L,
                "x_int": cfg.X_int,
                "c": rate.c,
                "gamma": rate.gamma,
                "rate_bps": rate.rate_bps,
                "sum_rate_bps": rate.sum_rate_bps,
                "f_b": optimizer.threshold_f(design.b, cfg.X_int),
                "bandwidth_cond": optimizer.bandwidth_condition(cfg, design),
                "pade_cond": optimizer.pade_bandwidth_condition(cfg, design),
                "antenna_cond": optimizer.antenna_condition(cfg, design),
                "mc_mode": spec.mc_mode if spec.trials else None,
                "trials": spec.trials if spec.trials else None,
                "mc_rate_bps": None,
                "mc_stderr_bps": None,
                "clip_rate": None,
            })
        except (ValueError, ArithmeticError) as exc:
            raise SweepPointError(f"{spec.axis}={value} (grid index {index}): {exc}") from exc
    return rows
