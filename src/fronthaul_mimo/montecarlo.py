"""Link-level simulator: multipath channel draws, constant-amplitude
orthogonal pilots, AGC + quantization (true uniform quantizer or its
additive-noise surrogate), per-tap LMMSE estimation, MRC combining, and
the use-and-then-forget empirical rate.  A coherence block is one received
(M, N) array, as the antennas digitize it: pilots in columns [0, N_p), data
in [N_p, N), through one quantizer call.

Everything downstream of the ADC lives in the "ADC domain": each real rail
is scaled to unit variance before quantization (the complex sample is
multiplied by sqrt(2*mu) with mu = 1/P_rx), so X_int is the no-overload
half-width in units of the rail standard deviation and the additive
surrogate adds variance E per rail.  The rate statistic is scale invariant,
and the LMMSE gain is the closed form's c times this domain's least-squares
gain, so the closed-form predictions apply unchanged.  The block pipeline
never forms the unscaled received signal: the AGC factor and the amplitude
sqrt(P/B_w) sit in the small shift matrices and in the noise scale.  Both
quantizers work in place on real rails, the received array on its
interleaved real view.  Blocks use the uniform power delay profile, as the
closed form does.

Reproducibility: each trial draws from its own counter-derived substream
(SeedSequence spawn keyed by trial index) and aggregates are reduced in
trial order, so results do not depend on scheduling.  Within a trial the
draws come in this order: the data symbols x (K, N_d), the channel taps
(M, K, L), the noise (M, N), and last, only when a ``pqn`` row is
simulated, one unit-uniform array of the shape of the noise's interleaved
real view.  Each complex array is one standard-normal draw into its
interleaved real view, real and imaginary part of each entry in turn.  x
and the taps are drawn in float64, the noise and the unit uniforms in
float32.

Precision: every (M, .) array of a block -- the received array and its
working buffer, the ``pqn`` unit uniforms, the plan's shift matrix and
correlator, the gathered symbols, the channel estimates and the MRC output
-- has the dtype ``PIPELINE_DTYPE``, complex64 on float32 rails: the
statistic's MC standard error, near 1%, is far above float32 rounding
(6e-8).  The small (K, N_d) symbols and (M, K*L) taps are drawn in float64
and cast.  The moment sums stay in float64: the MRC output is widened to
complex128 before the two ``np.vdot``, because gamma divides by
power - |cross|^2, which cancels at high SINR.  ``plan_block`` refuses a
quantizer whose range, from its step to X_int, leaves float32, and a block
whose working set passes ``BLOCK_BUDGET``, before anything of size M is
allocated.

Rows that share (B_w, M) -- every resolution b and both modes of an
``mc-validate`` point -- share each trial's block: none of these draws
depends on b or on the mode, so ``empirical_rate`` draws them once and
every row quantizes, estimates and combines on its own.  A ``pqn`` row at
resolution b adds (step_b/2)*(2u - 1) from the shared unit uniforms u, with
step_b = ``sysmodel.quantizer_step``.  Every row is bit for bit a call with
its design and mode alone at the same seed: a group of one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigValueError
from .linkrate import estimation_quality, rate_from_sinqr
from .sysmodel import Design, SystemConfig, link_budget, quantizer_step

QUANTIZE_MODES = ("uniform", "pqn")
N_BATCHES = 10  # trial batches behind the standard error
PIPELINE_DTYPE = np.dtype(np.complex64)  # every (M, .) array of a block
RAIL_DTYPE = np.finfo(PIPELINE_DTYPE).dtype  # of its real rails, float32
RAIL_MAX = float(np.finfo(RAIL_DTYPE).max)
# The quantizer's range, from its step to X_int, keeps this factor inside the
# rails' range on both sides: a rail up to 2**10 standard deviations divides
# by the step without overflow, and the pilot correlator's sums of rails of
# size X_int stay finite.
RAIL_HEADROOM = 2.0**10
BLOCK_BUDGET = 2**30  # bytes: the largest working set plan_block admits


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


def _complex_normal(
    rng: np.random.Generator, shape: tuple[int, ...], dtype: np.dtype = np.dtype(complex)
) -> np.ndarray:
    """Complex array whose real and imaginary parts are i.i.d. standard
    normal, drawn in one call into its interleaved real view."""
    z = np.empty(shape, dtype=dtype)
    rails = z.view(np.finfo(dtype).dtype)
    rng.standard_normal(out=rails, dtype=rails.dtype)
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
    """Uniform midrise quantizer of step ``quantizer_step(b, x_int)`` over
    [-x_int, x_int], in place on a real float32 or float64 array.  Inputs
    beyond the interval saturate to the outermost level and are counted as
    clip events.  Returns the clip count."""
    step = quantizer_step(b, x_int)
    top = x_int - 0.5 * step
    n_clipped = int(np.count_nonzero(rails >= x_int) + np.count_nonzero(rails <= -x_int))
    rails /= step
    np.floor(rails, out=rails)
    rails += 0.5
    rails *= step
    np.clip(rails, -top, top, out=rails)
    return n_clipped


def quantize_block(
    rails: np.ndarray,
    b: int,
    x_int: float,
    mode: str,
    unit: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> int:
    """Quantize ADC-domain real rails, in place or into ``out``, and return
    the clip count.

    The rails are already scaled to unit variance (a complex array passes
    its interleaved real view, float32 for a complex64 array).  ``uniform``
    applies the midrise quantizer per rail; ``pqn`` adds uniform noise of
    variance E per rail instead, (step/2)*(2u - 1) from the unit-uniform draws
    ``unit`` of the rails' shape, and clips nothing.  In place, the noise is
    formed in ``unit``, which it overwrites; into ``out``, the draws are kept.
    """
    if mode == "uniform":
        if out is not None:
            np.copyto(out, rails)
            rails = out
        return midrise_quantize(rails, b, x_int)
    if mode != "pqn":
        raise ConfigValueError(f"mode must be one of {QUANTIZE_MODES}, got {mode!r}")
    if unit is None:
        raise ConfigValueError("pqn mode needs unit-uniform draws")
    noise = np.multiply(unit, 2.0, out=unit if out is None else out)
    noise -= 1.0  # exact: u is a multiple of eps/2 of its dtype in [0, 1)
    noise *= quantizer_step(b, x_int) / 2.0  # uniform over one step: variance E
    if out is None:
        rails += noise
    else:
        out += rails  # the same sum as in place: IEEE addition commutes
    return 0


def lmmse_estimate(config: SystemConfig, design: Design) -> float:
    """Per-tap LMMSE gain on the unit-gain pilot correlator outputs, uniform
    power delay profile, ADC domain: c = ``linkrate.estimation_quality`` times
    the least-squares gain 1/sqrt(a2), a2 = 2*mu*(P/B_w)*N_p the pilot energy
    per tap.  The estimates have error variance (1 - c) / L per tap."""
    mu = link_budget(config, design.B_w, design.b).mu
    a2 = 2.0 * mu * (config.P / design.B_w) * config.n_pilot
    return estimation_quality(config, design) / math.sqrt(a2)


def mrc_combine(y_q: np.ndarray, h_hat: np.ndarray, n_data: int) -> np.ndarray:
    """MRC as the L-tap matched filter in time, c[k, n] =
    sum_{m,l} conj(h_hat[m, k, l]) * y[m, (n + l) mod N_d], whose unitary
    DFT is the frequency-domain output sum_m conj(H_hat[m, k, v]) * Y[m, v].

    The sum over antennas is one product for all taps, z[k, l, n] =
    sum_m conj(h_hat[m, k, l]) * y[m, n]; each tap's (K, N_d) slice is then
    advanced by its lag and summed.
    """
    m_ant, k_users, n_taps = h_hat.shape
    z = (h_hat.reshape(m_ant, k_users * n_taps).conj().T @ y_q).reshape(
        k_users, n_taps, n_data
    )
    c = z[:, 0].copy()
    for lag in range(1, n_taps):
        c[:, : n_data - lag] += z[:, lag, lag:]
        c[:, n_data - lag :] += z[:, lag, :lag]
    return c


@dataclass(frozen=True)
class BlockPlan:
    """What every block of one group shares; ``plan_block`` builds it once
    per ``empirical_rate`` call.

    A group is one row per (design, mode), design-major, over designs that
    share (B_w, M).  The AGC factor, the amplitudes and the noise depend on
    B_w alone, so every row reads the same received array and differs only
    in its quantizer and its LMMSE gain.  The pilot shift matrix and
    ``data_gain`` carry the AGC factor sqrt(2*mu) and the amplitude
    sqrt(P/B_w), and ``noise_std`` is the ADC-domain noise standard
    deviation per rail, so the received array is synthesized directly in
    the ADC domain.
    """

    config: SystemConfig
    B_w: float
    M: int
    rows: tuple[tuple[int, str, float], ...]  # (b, mode, LMMSE gain) per row
    pdp: PowerDelayProfile
    pilot_shift: np.ndarray  # (K*L, N_p) ADC-domain shifted pilots, PIPELINE_DTYPE
    correlator: np.ndarray  # (N_p, K*L) unit-gain pilot correlator, PIPELINE_DTYPE
    data_index: np.ndarray  # (L, N_d) gather index (n - l) mod N_d
    data_gain: float  # ADC-domain amplitude of a standard complex normal symbol
    noise_std: float


def plan_block(
    config: SystemConfig, designs: Sequence[Design], modes: Sequence[str]
) -> BlockPlan:
    """Build the shared block set-up of the rows designs x modes, uniform
    power delay profile.  The designs must share (B_w, M), and each
    quantizer's range must fit the rails' dtype with ``RAIL_HEADROOM``."""
    b_w, m_ant = designs[0].B_w, designs[0].M
    if any((d.B_w, d.M) != (b_w, m_ant) for d in designs):
        raise ConfigValueError("the designs of one block must share B_w and M")
    for d in designs:
        step = quantizer_step(d.b, config.X_int)  # 0.0 below the float range
        if not (config.X_int * RAIL_HEADROOM <= RAIL_MAX and step * RAIL_MAX >= RAIL_HEADROOM):
            raise ConfigValueError(
                f"X_int={config.X_int} at b={d.b} (quantizer step {step}) leaves the "
                f"{RAIL_DTYPE} range of the simulator's rails"
            )
    n_p, n_d, n_taps = config.n_pilot, config.n_data, config.L
    # peak working set: the (M, N) received array, then the larger of a
    # synthesis product and the rows' (M, N) working buffer and unit uniforms;
    # the (M, K*L) taps and estimates; the (K*L, N_d) gather and MRC product
    k_l = config.K * n_taps
    extra = (len(designs) * len(modes) > 1) + ("pqn" in modes)
    per_antenna = config.N + max(n_p, n_d, extra * config.N) + 2 * k_l
    block_bytes = PIPELINE_DTYPE.itemsize * (m_ant * float(per_antenna) + 2 * k_l * n_d)
    if block_bytes > BLOCK_BUDGET:
        raise ConfigValueError(f"a block at B_w={b_w}, M={m_ant} needs {block_bytes:.3g} "
                               f"bytes, above the simulator's budget of {BLOCK_BUDGET}")
    phi = generate_pilots(config.K, n_taps, n_p)
    # row (k, l) of the shift matrix is phi_k[(n - l) mod N_p]
    shift = np.stack([np.roll(phi, lag, axis=1) for lag in range(n_taps)], axis=1)
    shift = shift.reshape(config.K * n_taps, n_p)
    agc = math.sqrt(2.0 * link_budget(config, b_w, designs[0].b).mu)  # mu needs B_w only
    amp = agc * math.sqrt(config.P / b_w)
    gains = [lmmse_estimate(config, d) for d in designs]
    return BlockPlan(
        config=config,
        B_w=b_w,
        M=m_ant,
        rows=tuple((d.b, mode, gain) for d, gain in zip(designs, gains) for mode in modes),
        pdp=PowerDelayProfile.uniform(n_taps),
        pilot_shift=(amp * shift).astype(PIPELINE_DTYPE),
        correlator=(shift.conj().T / math.sqrt(n_p)).astype(PIPELINE_DTYPE),
        data_index=(np.arange(n_d)[None, :] - np.arange(n_taps)[:, None]) % n_d,
        data_gain=amp / math.sqrt(2.0),  # the symbols are drawn with variance 2
        noise_std=agc * math.sqrt(0.5),  # unit noise, half per rail
    )


def simulate_block(
    plan: BlockPlan, rng: np.random.Generator
) -> list[tuple[complex, float, int]]:
    """Simulate one coherence block for every row of the plan's group.

    Channel-inversion power control is folded into a common received
    amplitude sqrt(P/B_w) per user; the AGC gain is the analytic 1/P_rx.
    The group draws its block once, in the order of the module docstring:
    one (M, N) noise array, onto whose pilot and data columns the two cyclic
    convolutions are added, each one matrix product of the (M, K*L) taps
    with a (K*L, N_p) or (K*L, N_d) matrix of shifted sequences, so memory
    grows as O(M*N).  Every row but the last quantizes the array into one
    working buffer shared by the rows; the last row quantizes it in place.

    Returns, per row, the moment sums sum(conj(x) * c) and sum(|c|^2) over
    the block's K*N_d unit-power symbols x and matched-filter outputs c, in
    time (by Parseval, the sums over subcarriers of their unitary DFTs), and
    the number of clipped rails out of 2*M*(N_p + N_d).
    """
    config = plan.config
    n_p, n_d, m_ant, k_users, n_taps = config.n_pilot, config.n_data, plan.M, config.K, config.L

    x = _complex_normal(rng, (k_users, n_d))
    symbols = x / math.sqrt(2.0)  # unit power, complex128 for the moment sums
    x = (x * plan.data_gain).astype(PIPELINE_DTYPE)
    taps = draw_channel(rng, m_ant, k_users, plan.pdp).reshape(m_ant, k_users * n_taps)
    taps = taps.astype(PIPELINE_DTYPE)
    y = _complex_normal(rng, (m_ant, config.N), PIPELINE_DTYPE)  # pilots, then data
    y *= plan.noise_std
    y[:, :n_p] += taps @ plan.pilot_shift
    # data phase: block-circular channel, row (k, l) is x_k[(n - l) mod N_d]
    y[:, n_p:] += taps @ x[:, plan.data_index].reshape(k_users * n_taps, n_d)
    rails = y.view(RAIL_DTYPE)
    last = len(plan.rows) - 1
    work = np.empty_like(rails) if last else None
    unit = None  # drawn by the first pqn row

    sums = []
    for row, (b, mode, lmmse_gain) in enumerate(plan.rows):
        if mode == "pqn" and unit is None:
            unit = rng.random(rails.shape, dtype=RAIL_DTYPE)
        out = work if row < last else None
        clipped = quantize_block(rails, b, config.X_int, mode, unit, out)
        if out is None:
            unit = None  # the last row is done with the draws
        y_q = (rails if out is None else out).view(PIPELINE_DTYPE)
        h_hat = (y_q[:, :n_p] @ plan.correlator).reshape(m_ant, k_users, n_taps)
        h_hat *= lmmse_gain
        # gamma divides by power - |cross|^2, which cancels at high SINR
        c = mrc_combine(y_q[:, n_p:], h_hat, n_d).astype(complex)
        sums.append((np.vdot(symbols, c), np.vdot(c, c).real, clipped))
    return sums


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
    designs: Sequence[Design],
    trials: int,
    seed,
    modes: Sequence[str],
) -> list[EmpiricalRate]:
    """Empirical per-user rate from the use-and-then-forget sample statistic,
    one estimate per row designs x modes, design-major.

    The cross moment E[x* x_hat] and the output power E[|x_hat|^2] are
    replaced by sample means pooled over symbols, subcarriers, users and
    fading realizations; the effective SINR is |mean|^2 / (power - |mean|^2).
    Deterministic given the seed; trials use independent substreams reduced
    in index order.

    The designs must share (B_w, M).  The rows then share every trial's
    block (common random numbers), and each row is bit for bit the estimate
    of a call with its design and mode alone at the same seed.
    """
    if trials < 1:
        raise ConfigValueError(f"trials must be >= 1, got {trials}")
    plan = plan_block(config, designs, modes)
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = seq.spawn(trials)

    n_rows = len(plan.rows)
    n_batches = min(N_BATCHES, trials)
    s1 = np.zeros((n_rows, n_batches), dtype=complex)
    s2 = np.zeros((n_rows, n_batches))
    batch = np.arange(trials) * n_batches // trials
    clipped = [0] * n_rows
    for i, child in zip(batch, children):
        for row, (cross, power, n_clipped) in enumerate(
            simulate_block(plan, np.random.default_rng(child))
        ):
            s1[row, i] += cross
            s2[row, i] += power
            clipped[row] += n_clipped
    n_obs = np.bincount(batch) * (config.K * config.n_data)  # symbols per batch

    n_rails = trials * 2 * plan.M * (config.n_pilot + config.n_data)
    rates = []
    for row_s1, row_s2, row_clipped in zip(s1, s2, clipped):
        gamma = _gamma_from_moments(row_s1.sum(), row_s2.sum(), int(n_obs.sum()))
        # single-trial batches at high SINR can land on a non-finite ratio estimate
        batch_rates = np.array(
            [
                rate_from_sinqr(config, plan.B_w, _gamma_from_moments(c, p, int(n)))
                for c, p, n in zip(row_s1, row_s2, n_obs)
            ]
        )
        batch_rates = batch_rates[np.isfinite(batch_rates)]
        if batch_rates.size >= 2:
            with np.errstate(over="raise"):  # an error, not a warning, near the float limit
                stderr = float(np.std(batch_rates, ddof=1) / math.sqrt(batch_rates.size))
        else:
            stderr = math.nan  # undefined below two finite batches, e.g. at one trial
        rates.append(
            EmpiricalRate(
                rate_bps=rate_from_sinqr(config, plan.B_w, gamma),
                stderr_bps=stderr,
                gamma=gamma,
                clip_rate=row_clipped / n_rails,
            )
        )
    return rates
