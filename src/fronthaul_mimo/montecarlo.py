"""Link-level simulator: multipath channel draws, constant-amplitude
orthogonal pilots, AGC + quantization (true uniform quantizer or its
additive-noise surrogate), per-tap LMMSE estimation, MRC combining, and
the use-and-then-forget empirical rate.  A coherence block is the N
samples of each of M antennas, as they digitize them: pilots at times
[0, N_p), data at [N_p, N).  It is received in chunks of antennas, each one
time-major (N, chunk) array through one quantizer call per row.

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
block runs over chunks of ``ANTENNA_CHUNK`` antennas, a module constant, and
the draws come in this order: first the data symbols x (N_d, K); then, per
chunk, its channel taps (chunk, K, L), its noise, and last, only when a
``pqn`` row is simulated, one unit-uniform array of the shape of the noise's
interleaved real view.  A group without a ``pqn`` row advances the
generator past those uniforms instead, so that the next chunk's draws do not
depend on the modes simulated.  x and the taps are each one float64
standard-normal draw into the interleaved real view of a complex128 array,
real and imaginary part of each entry in turn.  The noise is drawn by
Box-Muller (G. E. P. Box and M. E. Muller, Ann. Math. Statist. 29(2), 1958)
from float32 uniforms: sqrt(-2 ln(1 - u1)) * (cos, sin)(2 pi u2).  A float32
uniform is a multiple of 2**-24, so the noise is cut at sqrt(48 ln 2), about
5.77 standard deviations per rail: the normal's mass beyond it is about 8e-9
and the cut lowers the noise variance by about 3e-7 relative, far below the
statistic's MC standard error.

Precision: every array of a chunk -- the received array and its working
buffer, the ``pqn`` unit uniforms, the taps, the channel estimates -- and
the plan's shift matrix and correlator, the gathered symbols and the
rows' matched-filter products have the dtype ``PIPELINE_DTYPE``, complex64
on float32 rails: the statistic's MC standard error, near 1%, is far above
float32 rounding (6e-8).  The small (N_d, K) symbols and the taps are drawn
in float64 and cast.  The moment sums stay in float64: the lag combine of
each row's product is summed in complex128 before the two ``np.vdot``,
because gamma divides by power - |cross|^2, which cancels at high SINR.
``plan_block`` refuses a quantizer whose range, from its step to X_int,
leaves float32, and a block whose draws and kept products pass
``BLOCK_BUDGET``, before anything of size M is allocated.  A block holds one
chunk at a time, so its memory does not grow with M; the budget bounds the
work of a block, which does.  ``empirical_rate`` bounds the work of a run
the same way before its first block: the trials times a block's draws and
kept products must fit ``RUN_BUDGET``.

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
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigValueError
from .linkrate import estimation_quality, rate_from_sinqr
from .sysmodel import QUANTIZE_MODES, Design, SystemConfig, link_budget, quantizer_step

N_BATCHES = 10  # trial batches behind the standard error
PIPELINE_DTYPE = np.dtype(np.complex64)  # every (M, .) array of a block
RAIL_DTYPE = np.finfo(PIPELINE_DTYPE).dtype  # of its real rails, float32
RAIL_MAX = float(np.finfo(RAIL_DTYPE).max)
# The quantizer's range, from its step to X_int, keeps this factor inside the
# rails' range on both sides: a rail up to 2**10 standard deviations divides
# by the step without overflow, and the pilot correlator's sums of rails of
# size X_int stay finite.
RAIL_HEADROOM = 2.0**10
BLOCK_BUDGET = 2**30  # bytes: the largest draws and kept products plan_block admits
# bytes: the most that all the blocks of one empirical_rate call draw and
# keep; about an hour of blocks on one core of a 2-vCPU x86-64 host, which
# runs them at about 4 GB/s (the default config's M = 4 block, 21 MB at six
# rows, takes about 5.4 ms)
RUN_BUDGET = 2**44
ANTENNA_CHUNK = 128  # antennas per chunk of a block, so its memory is flat in M


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
    """Complex128 array whose real and imaginary parts are i.i.d. standard
    normal, drawn in one call into its interleaved real view."""
    z = np.empty(shape, dtype=complex)
    rng.standard_normal(out=z.view(float))
    return z


def _box_muller(rng: np.random.Generator, rails: np.ndarray, std: float) -> None:
    """Fill the contiguous real array ``rails``, of even size, with i.i.d.
    normals of standard deviation ``std`` by the Box-Muller transform of one
    uniform draw (u1, u2) in the rails' dtype, each half the rails' size:
    std*sqrt(-2 ln(1 - u1)) times cos(2 pi u2) fills the first half of the
    rails and times sin(2 pi u2) the second.  The uniforms are drawn into
    the rails themselves.  A float32 uniform is a multiple of 2**-24 below
    1, so no value exceeds std*sqrt(48 ln 2), about 5.77 std.
    """
    flat = rails.reshape(-1)
    half = flat.size // 2
    rng.random(out=flat, dtype=flat.dtype)
    radius, angle = flat[:half], flat[half:]
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    radius *= -2.0 * std * std
    np.sqrt(radius, out=radius)
    angle *= 2.0 * math.pi
    cosine = np.cos(angle)
    np.sin(angle, out=angle)
    angle *= radius
    radius *= cosine


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


def mrc_combine(z: np.ndarray) -> np.ndarray:
    """MRC as the L-tap matched filter in time, c[n, k] =
    sum_{m,l} conj(h_hat[m, k, l]) * y[m, (n + l) mod N_d], whose unitary
    DFT is the frequency-domain output sum_m conj(H_hat[m, k, v]) * Y[m, v].

    Takes the antenna sums z[n, l, k] = sum_m conj(h_hat[m, k, l]) * y[m, n],
    shape (N_d, L, K): each tap's (N_d, K) slice is advanced by its lag and
    summed, in complex128.
    """
    n_data, n_taps, _ = z.shape
    c = z[:, 0].astype(complex)
    for lag in range(1, n_taps):
        c[: n_data - lag] += z[lag:, lag]
        c[n_data - lag :] += z[:lag, lag]
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
    the ADC domain.  The matrices are time-major, as the received chunks
    are: one row per sample, one column per antenna or per tap and user
    (l, k), tap-major.

    ``scratch`` is the working memory of one chunk: its received rails, then
    the ``pqn`` unit uniforms when a ``pqn`` row runs, and last the rows'
    working copy when the group has more than one row.  Every block of the
    group reuses it, so that no block allocates and frees these arrays (which
    made the allocator return and refetch their pages on every block), and
    a plan simulates one block at a time.
    """

    config: SystemConfig
    B_w: float
    M: int
    rows: tuple[tuple[int, str, float], ...]  # (b, mode, LMMSE gain) per row
    pdp: PowerDelayProfile
    pilot_shift: np.ndarray  # (N_p, L*K) ADC-domain shifted pilots, PIPELINE_DTYPE
    correlator: np.ndarray  # (L*K, N_p) unit-gain pilot correlator, PIPELINE_DTYPE
    data_index: np.ndarray  # (N_d, L) gather index (n - l) mod N_d
    data_gain: float  # ADC-domain amplitude of a standard complex normal symbol
    noise_std: float
    scratch: np.ndarray  # (1 to 3, 2*N*chunk) RAIL_DTYPE: received[, unit uniforms][, copy]
    block_bytes: float  # what one block draws and keeps, within BLOCK_BUDGET


def plan_block(
    config: SystemConfig, designs: Sequence[Design], modes: Sequence[str]
) -> BlockPlan:
    """Build the shared block set-up of the rows designs x modes, uniform
    power delay profile.  The designs must share (B_w, M), each quantizer's
    range must fit the rails' dtype with ``RAIL_HEADROOM``, and the block
    must fit ``BLOCK_BUDGET``."""
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
    k_users, n_p, n_d, n_taps = config.K, config.n_pilot, config.n_data, config.L
    k_l = k_users * n_taps
    # what a block draws: x, then per antenna its taps, its Box-Muller
    # uniforms and, with a pqn row, its unit uniforms; and what it keeps at
    # any M: the gathered symbols and one (N_d, L*K) product per row
    normal = np.dtype(complex).itemsize  # x and the taps are complex128
    uniforms = 2 * config.N * RAIL_DTYPE.itemsize * (1 + ("pqn" in modes))
    drawn = normal * k_users * n_d + m_ant * (normal * k_l + float(uniforms))
    kept = PIPELINE_DTYPE.itemsize * k_l * n_d * (1 + len(designs) * len(modes))
    if drawn + kept > BLOCK_BUDGET:
        raise ConfigValueError(f"a block at B_w={b_w}, M={m_ant} needs {drawn + kept:.3g} "
                               f"bytes, above the simulator's budget of {BLOCK_BUDGET}")
    phi = generate_pilots(k_users, n_taps, n_p)
    # row (l, k) of the shift matrix is phi_k[(n - l) mod N_p]
    shift = np.stack([np.roll(phi, lag, axis=1) for lag in range(n_taps)]).reshape(k_l, n_p)
    agc = math.sqrt(2.0 * link_budget(config, b_w, designs[0].b).mu)  # mu needs B_w only
    amp = agc * math.sqrt(config.P / b_w)
    gains = [lmmse_estimate(config, d) for d in designs]
    return BlockPlan(
        config=config,
        B_w=b_w,
        M=m_ant,
        rows=tuple((d.b, mode, gain) for d, gain in zip(designs, gains) for mode in modes),
        pdp=PowerDelayProfile.uniform(n_taps),
        pilot_shift=(amp * shift.T).astype(PIPELINE_DTYPE, order="C"),
        correlator=(shift.conj() / math.sqrt(n_p)).astype(PIPELINE_DTYPE),
        data_index=(np.arange(n_d)[:, None] - np.arange(n_taps)) % n_d,
        data_gain=amp / math.sqrt(2.0),  # the symbols are drawn with variance 2
        noise_std=agc * math.sqrt(0.5),  # unit noise, half per rail
        scratch=np.empty((1 + ("pqn" in modes) + (len(designs) * len(modes) > 1),
                          2 * config.N * min(m_ant, ANTENNA_CHUNK)), RAIL_DTYPE),
        block_bytes=drawn + kept,
    )


def simulate_block(
    plan: BlockPlan, rng: np.random.Generator
) -> list[tuple[complex, float, int]]:
    """Simulate one coherence block for every row of the plan's group.

    Channel-inversion power control is folded into a common received
    amplitude sqrt(P/B_w) per user; the AGC gain is the analytic 1/P_rx.
    The group draws its block once, in the order of the module docstring,
    over chunks of ``ANTENNA_CHUNK`` antennas.  A chunk is one time-major
    (N, chunk) noise array, onto whose pilot and data rows the two cyclic
    convolutions are added, each one matrix product of an (N_p, L*K) or
    (N_d, L*K) matrix of shifted sequences with the chunk's (L*K, chunk)
    taps.  Every row but the last quantizes the chunk into one working
    buffer shared by the rows; the last row quantizes it in place.  Each row
    adds its chunk's matched-filter product to its own (N_d, L*K) sum, and
    the lag combine runs once per row, after the last chunk.

    Returns, per row, the moment sums sum(conj(x) * c) and sum(|c|^2) over
    the block's K*N_d unit-power symbols x and matched-filter outputs c, in
    time (by Parseval, the sums over subcarriers of their unitary DFTs), and
    the number of clipped rails out of 2*M*(N_p + N_d).
    """
    config = plan.config
    n_p, n_d, k_users = config.n_pilot, config.n_data, config.K
    x = _complex_normal(rng, (n_d, k_users))
    symbols = x / math.sqrt(2.0)  # unit power, complex128 for the moment sums
    x = (x * plan.data_gain).astype(PIPELINE_DTYPE)
    # data phase: block-circular channel, column (l, k) is x_k[(n - l) mod N_d]
    gathered = x[plan.data_index].reshape(n_d, -1)
    draws_unit = any(mode == "pqn" for _, mode, _ in plan.rows)
    last = len(plan.rows) - 1
    products = [None] * len(plan.rows)  # per row, its (N_d, L*K) sum over antennas
    clipped = [0] * len(plan.rows)
    for start in range(0, plan.M, ANTENNA_CHUNK):
        m_chunk = min(ANTENNA_CHUNK, plan.M - start)
        taps = draw_channel(rng, m_chunk, k_users, plan.pdp).transpose(2, 1, 0)
        taps = taps.astype(PIPELINE_DTYPE, order="C").reshape(-1, m_chunk)  # (L*K, chunk)
        # time-major (N, chunk) views of the plan's scratch: pilots, then data
        rails, *slots = plan.scratch[:, : 2 * config.N * m_chunk].reshape(-1, config.N, 2 * m_chunk)
        unit = slots[0] if draws_unit else None
        work = slots[-1] if last else None
        y = rails.view(PIPELINE_DTYPE)
        _box_muller(rng, rails, plan.noise_std)
        y[:n_p] += plan.pilot_shift @ taps
        y[n_p:] += gathered @ taps
        if draws_unit:
            rng.random(out=unit, dtype=RAIL_DTYPE)
        else:  # as if drawn, so the next chunk's draws do not depend on the modes
            rng.bit_generator.advance(rails.size // 2)  # two float32 per 64-bit output
        for row, (b, mode, lmmse_gain) in enumerate(plan.rows):
            out = work if row < last else None
            clipped[row] += quantize_block(rails, b, config.X_int, mode, unit, out)
            y_q = (rails if out is None else out).view(PIPELINE_DTYPE)
            # MRC weights: the conjugate (L*K, chunk) channel estimates
            weights = plan.correlator @ y_q[:n_p]
            np.conjugate(weights, out=weights)
            weights *= lmmse_gain
            # the sum over the chunk's antennas, freed as soon as it is added
            if products[row] is None:
                products[row] = y_q[n_p:] @ weights.T
            else:
                products[row] += y_q[n_p:] @ weights.T
    sums = []
    for product, n_clipped in zip(products, clipped):
        # gamma divides by power - |cross|^2, which cancels at high SINR
        c = mrc_combine(product.reshape(n_d, config.L, k_users))
        sums.append((np.vdot(symbols, c), np.vdot(c, c).real, n_clipped))
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
    of a call with its design and mode alone at the same seed.  A run whose
    trials times ``BlockPlan.block_bytes`` pass ``RUN_BUDGET`` is refused
    before its first block.
    """
    if not 1 <= trials <= sys.maxsize:
        raise ConfigValueError(f"trials must be in [1, {sys.maxsize}], got {trials}")
    plan = plan_block(config, designs, modes)
    if trials * plan.block_bytes > RUN_BUDGET:
        raise ConfigValueError(
            f"{trials} trials of a block at B_w={plan.B_w}, M={plan.M} need "
            f"{trials * plan.block_bytes:.3g} bytes, above the simulator's run budget "
            f"of {RUN_BUDGET}"
        )
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)

    n_rows = len(plan.rows)
    n_batches = min(N_BATCHES, trials)
    s1 = np.zeros((n_rows, n_batches), dtype=complex)
    s2 = np.zeros((n_rows, n_batches))
    n_obs = [0] * n_batches  # symbols per batch
    clipped = [0] * n_rows
    for i in (trial * n_batches // trials for trial in range(trials)):
        n_obs[i] += config.K * config.n_data
        # one child at a time, none kept: spawn(1) n times gives spawn(n)'s children
        for row, (cross, power, n_clipped) in enumerate(
            simulate_block(plan, np.random.default_rng(seq.spawn(1)[0]))
        ):
            s1[row, i] += cross
            s2[row, i] += power
            clipped[row] += n_clipped

    n_rails = trials * 2 * plan.M * (config.n_pilot + config.n_data)
    rates = []
    for row_s1, row_s2, row_clipped in zip(s1, s2, clipped):
        gamma = _gamma_from_moments(row_s1.sum(), row_s2.sum(), sum(n_obs))
        # single-trial batches at high SINR can land on a non-finite ratio estimate
        batch_rates = np.array(
            [
                rate_from_sinqr(config, plan.B_w, _gamma_from_moments(c, p, n))
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
