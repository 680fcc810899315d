import math

import numpy as np
import pytest

from fronthaul_mimo import optimizer
from fronthaul_mimo.cli import CSV_COLUMNS, CSV_VERSION, PRESETS, _point_design
from fronthaul_mimo.errors import (
    ConfigSyntaxError,
    ConfigValueError,
    InfeasibleError,
    SweepPointError,
)
from fronthaul_mimo.linkrate import achievable_rate
from fronthaul_mimo.montecarlo import empirical_rate
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


def sweep_rows_point_by_point(config: SystemConfig, spec, preset: str | None = None) -> list[dict]:
    """The rows of cli.run_sweep, one grid point at a time: a DesignPoint,
    achievable_rate, the threshold and the three conditions per row, and
    with ``spec.trials`` set one simulation on the grid index's substream.
    A failing point raises SweepPointError naming it, as the sweep does."""
    rows = []
    for index, value in enumerate(spec.values):
        try:
            cfg, design, s = _point_design(config, spec, value)
            rate = achievable_rate(cfg, design)
            if not math.isfinite(rate.rate_bps):
                raise ConfigValueError("rate_bps is not finite: an input is beyond the float range")
            if rate.rate_bps <= 0.0:
                raise ConfigValueError(
                    f"rate_bps={rate.rate_bps}: an input is beyond the float range"
                )
            row = {
                "preset": preset,
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
            }
            if spec.trials:
                seq = np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,))
                [mc] = empirical_rate(cfg, [design], spec.trials, seq, [spec.mc_mode])
                if not math.isfinite(mc.rate_bps):
                    raise ConfigValueError(
                        "mc_rate_bps is not finite: the simulated rate left the float range"
                    )
                row.update(mc_rate_bps=mc.rate_bps, clip_rate=mc.clip_rate,
                           mc_stderr_bps=mc.stderr_bps if math.isfinite(mc.stderr_bps) else None)
            rows.append(row)
        except ConfigSyntaxError:  # no B_w or M: a usage error, not a failing point
            raise
        except (ValueError, ArithmeticError) as exc:
            raise SweepPointError(f"{spec.axis}={value} (grid index {index}): {exc}") from exc
    return rows


def preset_rows_point_by_point(name: str, trials: int = 0, seed: int = 0) -> list[dict]:
    """The rows of cli.run_preset, every curve of the preset point by point."""
    return [row for config, spec in PRESETS[name](trials, seed)
            for row in sweep_rows_point_by_point(config, spec, preset=name)]


def reference_csv(rows: list[dict]) -> str:
    """The sweep CSV written one row dict at a time: None is an empty cell, a
    bool 1 or 0, anything else its str (a float's shortest round-trip repr)."""
    lines = [f"# {CSV_VERSION}", ",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join([
            "" if v is None else ("1" if v else "0") if v.__class__ is bool else str(v)
            for v in map(row.get, CSV_COLUMNS)
        ]))
    return "\n".join(lines) + "\n"


def rows_of(runs) -> list[dict]:
    """A sweep's runs as row dicts: each column's cell at every row, a list
    column's element or the value a shared column gives every row."""
    return [
        {name: column[i] if column.__class__ is list else column
         for name, column in run.columns.items()}
        for run in runs for i in range(run.n)
    ]
