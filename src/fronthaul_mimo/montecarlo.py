"""Link-level simulator: multipath channel draws, constant-amplitude
orthogonal pilots, AGC + quantization (true uniform quantizer or its
additive-noise surrogate), per-tap LMMSE estimation, MRC combining, and
the use-and-then-forget empirical rate.

Everything downstream of the ADC lives in the "ADC domain": each real rail
is scaled to unit variance before quantization (the complex sample is
multiplied by sqrt(2*mu) with mu = 1/P_rx), so X_int is the no-overload
half-width in units of the rail standard deviation and the additive
surrogate adds variance E per rail.  The rate statistic is scale invariant,
and the LMMSE gain below is derived in this domain, so the closed-form
predictions apply unchanged.  The block pipeline never forms the unscaled
received signal: the AGC factor and the amplitude sqrt(P/B_w) sit in the
small shift matrices and in the noise scale.  Both quantizers work in place
on real rails, a received array on its interleaved real view.  Blocks use
the uniform power delay profile, as the closed form does.

Reproducibility: each trial draws from its own counter-derived substream
(SeedSequence spawn keyed by trial index) and aggregates are reduced in
trial order, so results do not depend on scheduling.  Within a trial the
draws come in this order: the data symbols x (K, N_d), then the
antenna-side arrays -- channel taps (M, K, L), pilot-phase noise (M, N_p),
pilot-phase PQN noise, data-phase noise (M, N_d), data-phase PQN noise
(the PQN draws only in ``pqn`` mode).  Each complex array is one
standard-normal draw into its interleaved real view, real and imaginary
part of each entry in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigValueError
from .linkrate import rate_from_sinqr
from .sysmodel import DesignPoint, SystemConfig, link_budget

QUANTIZE_MODES = ("uniform", "pqn")
N_BATCHES = 10  # trial batches behind the standard error


@dataclass(frozen=True)
class PowerDelayProfile:
    """Per-tap variances of the multipath channel, normalized to sum to 1."""

    sigma2: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.sigma2, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ConfigValueError("power delay profile must be a 1-D tap vector")
        if np.any(arr < 0) or arr.sum() <= 0:
            raise ConfigValueError("tap powers must be non-negative with positive sum")
        object.__setattr__(self, "sigma2", arr / arr.sum())

    @classmethod
    def uniform(cls, n_taps: int) -> "PowerDelayProfile":
        return cls(np.full(n_taps, 1.0 / n_taps))

    @property
    def n_taps(self) -> int:
        return self.sigma2.size


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex array whose real and imaginary parts are i.i.d. standard
    normal, drawn in one call into its interleaved real view."""
    z = np.empty(shape, dtype=complex)
    rng.standard_normal(out=z.view(np.float64))
    return z


def draw_channel(
    rng: np.random.Generator,
    n_antennas: int,
    n_users: int,
    pdp: PowerDelayProfile,
) -> np.ndarray:
    """Draw i.i.d. circular Gaussian taps h[m, k, l] with the profile's
    per-tap variance."""
    h = _complex_normal(rng, (n_antennas, n_users, pdp.n_taps))
    h *= np.sqrt(pdp.sigma2 / 2.0)
    return h


def generate_pilots(n_users: int, n_taps: int, n_pilot: int) -> np.ndarray:
    """Cyclically shifted root sequences, shape (K, N_p), with ideal periodic
    autocorrelation.

    Shift stride floor(N_p / K) >= L separates the users by more than the
    channel memory, which makes all cross-lag correlations vanish.
    """
    if n_pilot < n_users * n_taps:
        raise ConfigValueError(
            f"pilot length {n_pilot} shorter than K*L={n_users * n_taps}"
        )
    n = np.arange(n_pilot)  # Zadoff-Chu root sequence
    phase = n * (n + 1) if n_pilot % 2 else n * n
    root = np.exp(-1j * np.pi * phase / n_pilot)
    stride = n_pilot // n_users
    return np.stack([np.roll(root, -(k * stride)) for k in range(n_users)])


def midrise_quantize(rails: np.ndarray, b: int, x_int: float) -> int:
    """Uniform midrise quantizer, in place on a real float64 array.

    Step 2*x_int/2^b over [-x_int, x_int]; inputs beyond the no-overload
    interval saturate to the outermost level and are counted as clip events.
    Returns the clip count.
    """
    step = 2.0 * x_int / (2**b)
    top = x_int - 0.5 * step
    n_clipped = int(np.count_nonzero(rails >= x_int) + np.count_nonzero(rails <= -x_int))
    rails /= step
    np.floor(rails, out=rails)
    rails += 0.5
    rails *= step
    np.clip(rails, -top, top, out=rails)
    return n_clipped


def quantize_block(
    rails: np.ndarray, b: int, x_int: float, mode: str, rng: np.random.Generator | None = None
) -> int:
    """Quantize ADC-domain real rails in place and return the clip count.

    The rails are already scaled to unit variance (a complex array passes
    its interleaved view ``y.view(np.float64)``).  ``uniform`` applies the
    midrise quantizer per rail; ``pqn`` adds independent uniform noise of
    variance E per rail instead and clips nothing.
    """
    if mode == "uniform":
        return midrise_quantize(rails, b, x_int)
    if mode != "pqn":
        raise ConfigValueError(f"mode must be one of {QUANTIZE_MODES}, got {mode!r}")
    if rng is None:
        raise ConfigValueError("pqn mode needs a random generator")
    half = x_int * 2.0 ** (-b)  # uniform(-half, half) has variance E per rail
    rails += rng.uniform(-half, half, size=rails.shape)
    return 0


def lmmse_estimate(config: SystemConfig, design: DesignPoint) -> float:
    """Per-tap LMMSE gain on the unit-gain pilot correlator outputs, uniform
    power delay profile, ADC domain.  The estimates it gives have error
    variance (1 - c) / L per tap, c = ``linkrate.estimation_quality``."""
    sigma2 = 1.0 / config.L
    budget = link_budget(config, design.B_w, design.b)
    a2 = 2.0 * budget.mu * (config.P / design.B_w) * config.n_pilot
    denom = a2 * sigma2 + 2.0 * budget.E + 2.0 * budget.mu
    return math.sqrt(a2) * sigma2 / denom


def mrc_combine(y_q: np.ndarray, h_hat: np.ndarray, n_data: int) -> np.ndarray:
    """Frequency-domain MRC: x_hat[k, v] = sum_m conj(H_hat[m, k, v]) * Y[m, v].

    Computed as the L-tap matched filter in time, c[k, n] =
    sum_{m,l} conj(h_hat[m, k, l]) * y[m, (n + l) mod N_d], followed by one
    unitary DFT of the K filter outputs.  The sum over antennas is one
    product for all taps, z[k, l, n] = sum_m conj(h_hat[m, k, l]) * y[m, n];
    each tap's (K, N_d) slice is then advanced by its lag and summed.
    """
    m_ant, k_users, n_taps = h_hat.shape
    z = (h_hat.reshape(m_ant, k_users * n_taps).conj().T @ y_q).reshape(
        k_users, n_taps, n_data
    )
    c = z[:, 0].copy()
    for lag in range(1, n_taps):
        c[:, : n_data - lag] += z[:, lag, lag:]
        c[:, n_data - lag :] += z[:, lag, :lag]
    return np.fft.fft(c, axis=1) / math.sqrt(n_data)


@dataclass(frozen=True)
class BlockPlan:
    """What every block at one design point shares; ``plan_block`` builds it
    once per ``empirical_rate`` call.

    The pilot shift matrix and ``data_gain`` carry the AGC factor
    sqrt(2*mu) and the amplitude sqrt(P/B_w), and ``noise_std`` is the
    ADC-domain noise standard deviation per rail, so the received arrays are
    synthesized directly in the ADC domain.
    """

    config: SystemConfig
    design: DesignPoint
    pdp: PowerDelayProfile
    pilot_shift: np.ndarray  # (K*L, N_p) ADC-domain shifted pilots
    correlator: np.ndarray  # (N_p, K*L) unit-gain pilot correlator
    lmmse_gain: float  # per-tap LMMSE gain on the correlator outputs
    data_index: np.ndarray  # (L, N_d) gather index (n - l) mod N_d
    data_gain: float  # ADC-domain amplitude of a standard complex normal symbol
    noise_std: float


def plan_block(config: SystemConfig, design: DesignPoint) -> BlockPlan:
    """Build the shared block set-up at one design point, uniform power
    delay profile."""
    n_p, n_d, n_taps = config.n_pilot, config.n_data, config.L
    phi = generate_pilots(config.K, n_taps, n_p)
    # row (k, l) of the shift matrix is phi_k[(n - l) mod N_p]
    shift = np.stack([np.roll(phi, lag, axis=1) for lag in range(n_taps)], axis=1)
    shift = shift.reshape(config.K * n_taps, n_p)
    budget = link_budget(config, design.B_w, design.b)
    agc = math.sqrt(2.0 * budget.mu)
    amp = agc * math.sqrt(config.P / design.B_w)
    return BlockPlan(
        config=config,
        design=design,
        pdp=PowerDelayProfile.uniform(n_taps),
        pilot_shift=amp * shift,
        correlator=shift.conj().T / math.sqrt(n_p),
        lmmse_gain=lmmse_estimate(config, design),
        data_index=(np.arange(n_d)[None, :] - np.arange(n_taps)[:, None]) % n_d,
        data_gain=amp / math.sqrt(2.0),  # the symbols are drawn with variance 2
        noise_std=agc * math.sqrt(0.5),  # unit noise, half per rail
    )


def simulate_block(
    plan: BlockPlan, rng: np.random.Generator, mode: str = "pqn"
) -> tuple[complex, float, int]:
    """Simulate one coherence block at the plan's design point.

    Channel-inversion power control is folded into a common received
    amplitude sqrt(P/B_w) per user; the AGC gain is the analytic 1/P_rx.
    Both cyclic convolutions are one matrix product of the (M, K*L) taps
    with a (K*L, N) matrix of shifted sequences, added onto the ADC-domain
    noise, so memory grows as O(M*N).  Each received array is quantized in
    place; draw order as in the module docstring.

    Returns the moment sums over the block's K*N_d subcarrier symbols,
    sum(conj(x) * x_hat) and sum(|x_hat|^2) with x the unitary DFT of the
    unit-power symbols and x_hat the combiner output, and the number of
    clipped rails out of 2*M*(N_p + N_d).
    """
    config, design = plan.config, plan.design
    n_d, m_ant, k_users, n_taps = config.n_data, design.M, config.K, config.L

    x = _complex_normal(rng, (k_users, n_d))
    x_freq = np.fft.fft(x, axis=1) / math.sqrt(2.0 * n_d)  # unit-power symbols
    x *= plan.data_gain
    taps = draw_channel(rng, m_ant, k_users, plan.pdp).reshape(m_ant, k_users * n_taps)

    def receive(shifted: np.ndarray) -> tuple[np.ndarray, int]:
        y = _complex_normal(rng, (m_ant, shifted.shape[1]))
        y *= plan.noise_std
        y += taps @ shifted
        return y, quantize_block(y.view(np.float64), design.b, config.X_int, mode, rng)

    y_pilot_q, clip_p = receive(plan.pilot_shift)
    h_hat = (y_pilot_q @ plan.correlator).reshape(m_ant, k_users, n_taps)
    h_hat *= plan.lmmse_gain

    # data phase: block-circular channel, row (k, l) is x_k[(n - l) mod N_d]
    y_data_q, clip_d = receive(x[:, plan.data_index].reshape(k_users * n_taps, n_d))
    x_hat_freq = mrc_combine(y_data_q, h_hat, n_d)
    return (
        np.vdot(x_freq, x_hat_freq),
        np.vdot(x_hat_freq, x_hat_freq).real,
        clip_p + clip_d,
    )


@dataclass(frozen=True)
class EmpiricalRate:
    """Sample-mean rate estimate with a batch-based standard error."""

    rate_bps: float
    stderr_bps: float
    gamma: float
    clip_rate: float


def _gamma_from_moments(s1: complex, s2: float, n: int) -> float:
    mean_cross = s1 / n
    signal = abs(mean_cross) ** 2
    denom = s2 / n - signal
    if denom <= 0:
        return math.inf
    return signal / denom


def empirical_rate(
    config: SystemConfig,
    design: DesignPoint,
    trials: int,
    seed,
    mode: str = "pqn",
) -> EmpiricalRate:
    """Empirical per-user rate from the use-and-then-forget sample statistic.

    The cross moment E[x* x_hat] and the output power E[|x_hat|^2] are
    replaced by sample means pooled over symbols, subcarriers, users and
    fading realizations; the effective SINR is |mean|^2 / (power - |mean|^2).
    Deterministic given the seed; trials use independent substreams reduced
    in index order.
    """
    if trials < 1:
        raise ConfigValueError(f"trials must be >= 1, got {trials}")
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = seq.spawn(trials)
    plan = plan_block(config, design)

    n_batches = min(N_BATCHES, trials)
    s1 = np.zeros(n_batches, dtype=complex)
    s2 = np.zeros(n_batches)
    batch = np.arange(trials) * n_batches // trials
    clipped = 0
    for i, child in zip(batch, children):
        cross, power, n_clipped = simulate_block(plan, np.random.default_rng(child), mode)
        s1[i] += cross
        s2[i] += power
        clipped += n_clipped
    n_obs = np.bincount(batch) * (config.K * config.n_data)  # symbols per batch

    gamma = _gamma_from_moments(s1.sum(), s2.sum(), int(n_obs.sum()))
    rate = rate_from_sinqr(config, design.B_w, gamma)

    # single-trial batches at high SINR can land on a non-finite ratio estimate
    batch_rates = np.array(
        [
            rate_from_sinqr(config, design.B_w, _gamma_from_moments(s1[i], s2[i], int(n_obs[i])))
            for i in range(n_batches)
        ]
    )
    batch_rates = batch_rates[np.isfinite(batch_rates)]
    if batch_rates.size >= 2:
        stderr = float(np.std(batch_rates, ddof=1) / math.sqrt(batch_rates.size))
    else:
        stderr = math.nan  # undefined below two finite batches, e.g. at one trial
    return EmpiricalRate(
        rate_bps=rate,
        stderr_bps=stderr,
        gamma=gamma,
        clip_rate=clipped / (trials * 2 * design.M * (config.n_pilot + config.n_data)),
    )
