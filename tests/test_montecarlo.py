import math
import sys
import tracemalloc

import numpy as np
import pytest

from fronthaul_mimo import montecarlo
from fronthaul_mimo.errors import ConfigValueError
from fronthaul_mimo.linkrate import achievable_rate, estimation_quality
from fronthaul_mimo.montecarlo import (
    PowerDelayProfile,
    draw_channel,
    empirical_rate,
    generate_pilots,
    lmmse_estimate,
    midrise_quantize,
    mrc_combine,
    plan_block,
    quantize_block,
    simulate_block,
)
from fronthaul_mimo.optimizer import optimize_full
from fronthaul_mimo.sysmodel import (
    DesignPoint,
    SystemConfig,
    quantization_distortion_variance,
)

from conftest import max_orthogonality_defect, mrc_combine_time, pilot_correlations


def small_config(**overrides):
    fields = dict(K=2, L=2, N=128, theta=1.0, X_int=2.5, C_f=500e9)
    fields.update(overrides)
    return SystemConfig.from_reference_snr(15.0, **fields)


def complex_normal(rng, shape, dtype=np.float64):
    return rng.standard_normal(shape, dtype) + 1j * rng.standard_normal(shape, dtype)


def pilot_phase(plan, rng):
    """Channel taps and their LMMSE estimates from one pilot phase of the
    plan's one row, built from the plan and the stages a block uses, in the
    block's dtype."""
    cfg, m_ant = plan.config, plan.M
    ((b, mode, lmmse_gain),) = plan.rows
    h = draw_channel(rng, m_ant, cfg.K, plan.pdp)
    taps = h.transpose(2, 1, 0).reshape(-1, m_ant)  # (L*K, M), tap-major as the plan
    y = plan.noise_std * complex_normal(rng, (cfg.n_pilot, m_ant), montecarlo.RAIL_DTYPE)
    y += plan.pilot_shift @ taps.astype(montecarlo.PIPELINE_DTYPE)
    assert y.dtype == montecarlo.PIPELINE_DTYPE
    rails = y.view(montecarlo.RAIL_DTYPE)
    quantize_block(rails, b, cfg.X_int, mode, rng.random(rails.shape, montecarlo.RAIL_DTYPE))
    h_hat = (plan.correlator @ y).reshape(cfg.L, cfg.K, m_ant).transpose(2, 1, 0) * lmmse_gain
    return h, h_hat


def block_peak(cfg, m_ant, bits, modes):
    """Traced peak of the plan and one block at (C_f/M, M) for the rows
    bits x modes, after an untraced block has set up what numpy keeps."""
    designs = [DesignPoint(B_w=cfg.C_f / m_ant, M=m_ant, b=b) for b in bits]
    simulate_block(plan_block(cfg, designs, modes), np.random.default_rng(1))
    tracemalloc.start()
    try:
        simulate_block(plan_block(cfg, designs, modes), np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def block_memory_bound(cfg, rows):
    """Bytes a plan and its block of ``rows`` rows may hold at any M: the
    rows' (N_d, L*K) products, the gathered symbols and one more product;
    and five arrays of one full chunk's (N, ANTENNA_CHUNK) received samples,
    up to three of them the plan's scratch."""
    itemsize = montecarlo.PIPELINE_DTYPE.itemsize
    product = cfg.n_data * cfg.K * cfg.L * itemsize
    chunk = cfg.N * montecarlo.ANTENNA_CHUNK * itemsize
    return (rows + 2) * product + 5 * chunk


def matched_filter(y, h_hat):
    """MRC of the (M, N_d) data y with the (M, K, L) estimates h_hat, through
    ``mrc_combine``: shape (N_d, K)."""
    return mrc_combine(np.einsum("mkl,mn->nlk", h_hat.conj(), y))


class TestPowerDelayProfile:
    def test_normalized_on_construction(self):
        pdp = PowerDelayProfile(np.array([3.0, 1.0]))
        assert pdp.sigma2.sum() == pytest.approx(1.0, rel=1e-15)
        assert pdp.sigma2[0] == pytest.approx(0.75, rel=1e-15)

    def test_rejects_negative_taps(self):
        with pytest.raises(ConfigValueError):
            PowerDelayProfile(np.array([1.0, -0.1]))

    def test_empirical_tap_variance(self):
        rng = np.random.default_rng(0)
        pdp = PowerDelayProfile(np.array([0.5, 0.3, 0.2]))
        h = draw_channel(rng, 500, 200, pdp)  # 1e5 draws per tap
        emp = np.mean(np.abs(h) ** 2, axis=(0, 1))
        assert np.all(np.abs(emp / pdp.sigma2 - 1.0) < 0.03)


class TestBoxMuller:
    def test_moments_and_tail_bound(self):
        # 2**22 float32 normals: mean 0, variance 1 and fourth moment 3, each
        # within about six standard errors, and the tail bound; std scales
        # the same draws
        rails = np.empty(2**22, dtype=np.float32)
        montecarlo._box_muller(np.random.default_rng(5), rails, 1.0)
        z = rails.astype(np.float64)
        assert abs(z.mean()) < 3e-3
        assert abs(z.var() - 1.0) < 5e-3
        assert abs(np.mean(z**4) - 3.0) < 0.03
        assert np.max(np.abs(z)) <= math.sqrt(48.0 * math.log(2.0))
        std_one, std_half = np.empty((2, 2**10), dtype=np.float32)
        montecarlo._box_muller(np.random.default_rng(6), std_one, 1.0)
        montecarlo._box_muller(np.random.default_rng(6), std_half, 0.5)
        assert np.allclose(std_half, 0.5 * std_one, rtol=1e-6, atol=0.0)

    def test_largest_uniform_gives_the_bound(self):
        # a float32 uniform is at most 1 - 2**-24, so no value passes
        # std*sqrt(-2 ln 2**-24) = std*sqrt(48 ln 2), about 5.77 std
        class Largest:
            def random(self, out, dtype):
                out[:] = np.nextafter(dtype.type(1.0), dtype.type(0.0))

        rails = np.empty(4, dtype=np.float32)
        montecarlo._box_muller(Largest(), rails, 2.0)
        bound = 2.0 * math.sqrt(48.0 * math.log(2.0))
        assert rails[0] == pytest.approx(bound, rel=1e-6)
        assert np.all(np.abs(rails) <= bound * (1.0 + 1e-6))


class TestPilots:
    def test_single_user_single_tap(self):
        phi = generate_pilots(1, 1, 1)
        assert phi.shape == (1, 1)
        assert phi[0, 0] == pytest.approx(1.0 + 0j, abs=1e-15)

    def test_two_users_two_taps(self):
        corr = pilot_correlations(generate_pilots(2, 2, 4), 2)
        assert corr[0, 0, 0] == pytest.approx(4.0, abs=1e-12)
        assert corr[1, 1, 0] == pytest.approx(4.0, abs=1e-12)
        assert abs(corr[0, 1, 0]) < 1e-12
        assert abs(corr[0, 0, 1]) < 1e-12
        assert abs(corr[0, 1, 1]) < 1e-12

    def test_random_shapes_orthogonal(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            k = int(rng.integers(1, 9))
            l = int(rng.integers(1, 7))
            theta = float(rng.uniform(1.0, 3.0))
            n_p = max(k * l, int(np.floor(theta * k * l + 0.5)))
            assert max_orthogonality_defect(generate_pilots(k, l, n_p), l) < 1e-9

    def test_too_short_rejected(self):
        with pytest.raises(ConfigValueError):
            generate_pilots(4, 4, 15)


class TestQuantizer:
    # both quantizers work in place; each case quantizes a copy
    def test_high_resolution_transparent(self):
        rng = np.random.default_rng(2)
        y = complex_normal(rng, 4000) * 0.2
        scaled = np.sqrt(2.0 / np.mean(np.abs(y) ** 2)) * y  # unit-variance rails
        y_q = scaled.copy()
        quantize_block(y_q.view(np.float64), 24, 3.0, "uniform")
        keep = (np.abs(scaled.real) < 3.0) & (np.abs(scaled.imag) < 3.0)
        assert np.max(np.abs(y_q[keep] - scaled[keep])) < 1e-6

    def test_one_bit_two_levels(self):
        rng = np.random.default_rng(3)
        y_q = complex_normal(rng, 1000)
        quantize_block(y_q.view(np.float64), 1, 1.0, "uniform")
        assert set(np.round(np.unique(y_q.real), 12)) == {-0.5, 0.5}
        assert set(np.round(np.unique(y_q.imag), 12)) == {-0.5, 0.5}

    def test_uniform_input_distortion_matches_model(self):
        rng = np.random.default_rng(4)
        u = rng.uniform(-1.0, 1.0, 10**6)
        for b in (1, 3, 5):
            q = u.copy()
            n_clip = midrise_quantize(q, b, 1.0)
            emp = np.mean((q - u) ** 2)
            model = (1.0 / 3.0) * 4.0**-b
            assert emp == pytest.approx(model, rel=0.05)
            assert n_clip == 0

    def test_quarter_per_bit_empirical(self):
        rng = np.random.default_rng(5)
        u = rng.uniform(-2.0, 2.0, 10**6)
        prev = None
        for b in range(1, 8):
            q = u.copy()
            midrise_quantize(q, b, 2.0)
            emp = np.mean((q - u) ** 2)
            if prev is not None:
                assert 0.23 < emp / prev < 0.27
            prev = emp

    def test_clipping_counted(self):
        q = np.array([-5.0, -0.2, 0.2, 5.0])
        assert midrise_quantize(q, 2, 1.0) == 2
        assert q[0] == -0.75 and q[3] == 0.75

    def test_interleaved_rails_match_per_rail_quantizer(self):
        rng = np.random.default_rng(7)
        y = 1.5 * complex_normal(rng, (6, 500))
        for b in (1, 2, 4):
            y_q, q_re, q_im = y.copy(), y.real.copy(), y.imag.copy()
            n_clip = quantize_block(y_q.view(np.float64), b, 1.7, "uniform")
            c_re = midrise_quantize(q_re, b, 1.7)
            c_im = midrise_quantize(q_im, b, 1.7)
            assert np.array_equal(y_q.real, q_re) and np.array_equal(y_q.imag, q_im)
            assert n_clip == c_re + c_im > 0

    def test_into_out_equals_in_place(self):
        # quantizing into a buffer leaves the rails and the draws as they
        # were and gives the in-place result bit for bit
        rng = np.random.default_rng(8)
        rails = 1.5 * rng.standard_normal((4, 300))
        unit = rng.random(rails.shape)
        kept_rails, kept_unit = rails.copy(), unit.copy()
        for mode in ("uniform", "pqn"):
            out = np.empty_like(rails)
            n_out = quantize_block(rails, 2, 1.7, mode, unit, out)
            assert np.array_equal(rails, kept_rails) and np.array_equal(unit, kept_unit)
            in_place, spent = rails.copy(), unit.copy()
            assert quantize_block(in_place, 2, 1.7, mode, spent) == n_out
            assert np.array_equal(out, in_place), mode

    def test_float32_rails_quantize_to_float64_levels(self):
        # away from the cell edges, +-X_int among them, a float32 rail and
        # a float64 rail quantize to the same level and clip alike
        rng = np.random.default_rng(14)
        x_int = 2.5
        for b in range(1, 13):
            step = 2.0 * x_int / 2**b
            rails = 3.0 * rng.standard_normal(20000)
            cell = rails / step - np.floor(rails / step)
            rails = rails[np.minimum(cell, 1.0 - cell) * step > 1e-5 * x_int]
            q64, q32 = rails.copy(), rails.astype(np.float32)
            n64, n32 = midrise_quantize(q64, b, x_int), midrise_quantize(q32, b, x_int)
            assert q32.dtype == np.float32
            assert n32 == n64 > 0, b
            assert np.array_equal(np.round(q32 / step - 0.5), np.round(q64 / step - 0.5)), b
            assert np.max(np.abs(q32 - q64)) <= np.finfo(np.float32).eps * x_int, b

    def test_pqn_noise_exact_for_float32_uniforms(self):
        # 2u - 1 is exact for float32 uniforms; with a power-of-two
        # half-width the float32 noise equals the exact float64 value
        unit = np.random.default_rng(15).random(10**5, dtype=np.float32)
        unit[:2] = 0.0, 1.0 - 2.0**-24  # the ends of the draw's range
        rails = np.zeros_like(unit)
        quantize_block(rails, 3, 2.0, "pqn", unit.copy())
        assert rails.dtype == np.float32
        assert np.array_equal(rails, (2.0 * unit.astype(np.float64) - 1.0) * 0.25)

    def test_pqn_noise_variance(self):
        for b in (1, 2):
            y_q = np.zeros(200000, dtype=complex)
            unit = np.random.default_rng(b).random(2 * y_q.size)
            n_clip = quantize_block(y_q.view(np.float64), b, 2.5, "pqn", unit)
            e = (2.5**2) * 4.0**-b / 3.0
            assert n_clip == 0
            assert np.var(y_q.real) == pytest.approx(e, rel=0.02)
            assert np.var(y_q.imag) == pytest.approx(e, rel=0.02)


class TestLmmse:
    def test_gain_is_quality_times_least_squares_gain(self):
        # the correlator output of a tap h is sqrt(a2)*h plus noise, a2 =
        # 2*mu*(P/B_w)*N_p, so the least-squares gain is 1/sqrt(a2); the
        # LMMSE gain is c times it, and equals the per-tap derivation
        rng = np.random.default_rng(41)
        for _ in range(300):
            cfg = SystemConfig.from_reference_snr(
                float(rng.uniform(-20.0, 40.0)), K=int(rng.integers(1, 30)),
                L=int(rng.integers(1, 12)), N=4000, theta=float(rng.uniform(1.0, 8.0)),
                X_int=float(rng.uniform(0.5, 5.0)),
            )
            design = DesignPoint(B_w=10.0 ** rng.uniform(5.0, 10.0), M=64,
                                 b=int(rng.integers(1, 13)))
            mu = 1.0 / (cfg.K * cfg.P / design.B_w + 1.0)
            a2 = 2.0 * mu * (cfg.P / design.B_w) * cfg.n_pilot
            gain = lmmse_estimate(cfg, design)
            c = estimation_quality(cfg, design)
            assert gain * math.sqrt(a2) == pytest.approx(c, rel=1e-15)
            e = quantization_distortion_variance(design.b, cfg.X_int)
            per_tap = math.sqrt(a2) / cfg.L / (a2 / cfg.L + 2.0 * e + 2.0 * mu)
            assert gain == pytest.approx(per_tap, rel=1e-14)

    def test_error_variance_matches_model(self):
        cfg = small_config(L=4)
        design = DesignPoint(B_w=50e6, M=200, b=2)
        plan = plan_block(cfg, [design], ["pqn"])
        errors = []
        for child in np.random.SeedSequence(3).spawn(25):
            h, h_hat = pilot_phase(plan, np.random.default_rng(child))
            errors.append((h - h_hat).reshape(-1, cfg.L))
        eps = np.concatenate(errors)  # 10**4 realizations per tap
        target = (1.0 - estimation_quality(cfg, design)) / cfg.L
        emp = np.mean(np.abs(eps) ** 2, axis=0)
        assert np.all(np.abs(emp / target - 1.0) < 0.03)

    def test_estimate_error_uncorrelated(self):
        cfg = small_config(L=4)
        design = DesignPoint(B_w=50e6, M=200, b=2)
        plan = plan_block(cfg, [design], ["pqn"])
        eps, est = [], []
        # 4*10**4 realizations per tap: a correlation's standard error is
        # about 0.005, so the 0.02 bound sits near 4 standard errors
        for child in np.random.SeedSequence(9).spawn(100):
            h, h_hat = pilot_phase(plan, np.random.default_rng(child))
            eps.append((h - h_hat).reshape(-1, cfg.L))
            est.append(h_hat.reshape(-1, cfg.L))
        eps = np.concatenate(eps)
        est = np.concatenate(est)
        corr = np.abs(np.mean(est.conj() * eps, axis=0)) / np.sqrt(
            np.mean(np.abs(est) ** 2, axis=0) * np.mean(np.abs(eps) ** 2, axis=0)
        )
        assert np.all(corr < 0.02)

    def test_perfect_csi_limit(self):
        # no quantization noise and ever longer pilots drive the error to zero
        gaps = []
        for theta in (10.0, 100.0, 1000.0):
            cfg = small_config(theta=theta, N=8192)
            plan = plan_block(cfg, [DesignPoint(B_w=50e6, M=64, b=30)], ["pqn"])
            h, h_hat = pilot_phase(plan, np.random.default_rng(12))
            gaps.append(float(np.mean(np.abs(h - h_hat) ** 2) * cfg.L))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3


class TestMrc:
    def test_single_antenna_perfect_csi_proportional(self):
        # flat channel, no noise, no quantization: the matched-filter output
        # is a positive multiple of the transmitted symbols, in time
        rng = np.random.default_rng(11)
        n_d = 64
        x = (rng.standard_normal(n_d) + 1j * rng.standard_normal(n_d)) / np.sqrt(2)
        h = np.array([[[0.8 - 0.3j]]])  # (M=1, K=1, L=1)
        y = h[0, 0, 0] * x[None, :]
        c = matched_filter(y, h)
        ratio = c[:, 0] / x
        assert np.allclose(ratio, abs(h[0, 0, 0]) ** 2, atol=1e-12)

    def test_time_and_frequency_paths_agree(self):
        # the unitary DFT of the matched-filter output is the FIR reference's
        # frequency-domain MRC output
        rng = np.random.default_rng(13)
        n_d = 116
        y = complex_normal(rng, (6, n_d))
        h_hat = complex_normal(rng, (6, 2, 3))
        freq = np.fft.fft(matched_filter(y, h_hat).T, axis=1) / np.sqrt(n_d)
        time = mrc_combine_time(y, h_hat, n_d)
        assert np.max(np.abs(freq - time)) < 1e-9

    def test_block_memory_flat_in_antennas(self):
        # paper-scale block, one row: the peak at M=1024 (eight chunks) is
        # no higher than at M=256 (two), and within the bound of
        # block_memory_bound
        cfg = SystemConfig.from_reference_snr(15.0)
        for mode in ("uniform", "pqn"):
            peaks = [block_peak(cfg, m_ant, (1,), [mode]) for m_ant in (256, 1024)]
            assert peaks[1] <= 1.01 * peaks[0], (mode, peaks)
            assert peaks[1] < block_memory_bound(cfg, rows=1), (mode, peaks)

    def test_group_block_memory_flat_in_antennas(self):
        # three resolutions x two modes share one paper-scale block: the
        # peak does not grow with M either, and only the rows' products add
        # to the lone row's bound
        cfg = SystemConfig.from_reference_snr(15.0)
        peaks = [block_peak(cfg, m_ant, (1, 2, 3), ["pqn", "uniform"]) for m_ant in (256, 1024)]
        assert peaks[1] <= 1.01 * peaks[0], peaks
        assert peaks[1] < block_memory_bound(cfg, rows=6), peaks

    @pytest.mark.parametrize("bits, modes, slots", [
        ((1,), ["uniform"], 1),
        ((1,), ["pqn"], 2),
        ((1, 2), ["uniform"], 2),
        ((1,), ["pqn", "uniform"], 3),
        ((1, 2, 3), ["pqn"], 3),
    ])
    def test_scratch_holds_what_the_rows_use(self, bits, modes, slots):
        # the received rails; the unit uniforms only when a pqn row runs; the
        # working copy only when more than one row reads the received rails
        cfg = small_config()
        plan = plan_block(cfg, [DesignPoint(B_w=1e8, M=16, b=b) for b in bits], modes)
        assert plan.scratch.shape == (slots, 2 * cfg.N * 16)

    def test_plan_sizes_the_block_before_allocating(self):
        # M = 6021, the largest one-bit optimum over SNR {0, 15, 30} dB x C_f
        # {50, 500} Gbit/s, fits with three resolutions and both modes; 10^8
        # antennas are refused before any block array
        cfg = SystemConfig.from_reference_snr(15.0)
        designs = [DesignPoint(B_w=cfg.C_f / 6021, M=6021, b=b) for b in (1, 2, 3)]
        plan_block(cfg, designs, ["pqn", "uniform"])
        with pytest.raises(ConfigValueError, match="M=100000000 needs"):
            plan_block(cfg, [DesignPoint(B_w=1e6, M=10**8, b=1)], ["uniform"])

    def test_array_gain_linear_in_antennas(self):
        cfg = small_config()
        sizes = [16, 32, 64, 128, 256]
        gammas = [
            empirical_rate(
                cfg, [DesignPoint(B_w=100e6, M=m, b=2)], trials=40, seed=9, modes=["pqn"]
            )[0].gamma
            for m in sizes
        ]
        slope = np.polyfit(np.log(sizes), np.log(gammas), 1)[0]
        assert abs(slope - 1.0) < 0.1


class TestEmpiricalRate:
    def test_surrogate_mode_tracks_closed_form(self):
        cfg = small_config(K=4, L=4, N=256)
        design = DesignPoint(B_w=200e6, M=64, b=2)
        closed = achievable_rate(cfg, design).rate_bps
        [mc] = empirical_rate(cfg, [design], trials=150, seed=21, modes=["pqn"])
        assert abs(mc.rate_bps - closed) / closed < 0.03

    def test_true_quantizer_tracks_closed_form(self):
        cfg = small_config(K=4, L=4, N=256)
        design = DesignPoint(B_w=200e6, M=64, b=3)
        closed = achievable_rate(cfg, design).rate_bps
        [mc] = empirical_rate(cfg, [design], trials=150, seed=22, modes=["uniform"])
        assert abs(mc.rate_bps - closed) / closed < 0.10
        assert 0.0 < mc.clip_rate < 0.05

    def test_tracks_closed_form_at_optimizer_optimum(self):
        # the design the optimizer recommends, not a toy one (M=606, b=1)
        cfg = SystemConfig.from_reference_snr(15.0)
        design = optimize_full(cfg).best
        assert design.M > 500
        closed = achievable_rate(cfg, design).rate_bps
        [mc] = empirical_rate(cfg, [design], trials=4, seed=31, modes=["pqn"])
        assert abs(mc.rate_bps - closed) / closed < 0.03

    def test_sinqr_error_shrinks_with_trials(self):
        cfg = small_config()
        design = DesignPoint(B_w=100e6, M=16, b=2)
        target = achievable_rate(cfg, design).gamma
        mean_err = {}
        for trials in (8, 32, 128):
            errs = [
                abs(
                    empirical_rate(cfg, [design], trials, seed=100 + s, modes=["pqn"])[0].gamma
                    - target
                )
                / target
                for s in range(6)
            ]
            mean_err[trials] = float(np.mean(errs))
        assert mean_err[32] < mean_err[8]
        assert mean_err[128] < 0.55 * mean_err[8]

    def test_zero_power_zero_rate(self):
        # vanishing transmit power: the estimate collapses to the sample-mean
        # noise floor, orders of magnitude below the powered link
        cfg = small_config().replace(P=1e-30)
        design = DesignPoint(B_w=100e6, M=8, b=2)
        [mc] = empirical_rate(cfg, [design], trials=5, seed=1, modes=["pqn"])
        [powered] = empirical_rate(small_config(), [design], trials=5, seed=1, modes=["pqn"])
        assert mc.gamma < 5e-3
        assert mc.rate_bps < 0.01 * powered.rate_bps

    def test_deterministic_given_seed(self):
        cfg = small_config()
        design = DesignPoint(B_w=100e6, M=8, b=1)
        [a] = empirical_rate(cfg, [design], trials=10, seed=77, modes=["uniform"])
        [b] = empirical_rate(cfg, [design], trials=10, seed=77, modes=["uniform"])
        assert a.rate_bps == b.rate_bps
        assert a.gamma == b.gamma

    def test_stage_calls(self, monkeypatch):
        # the plan is built once per group, and each trial simulates one
        # block for all of the group's rows, chunk by chunk: x is drawn once
        # per block, and the taps (Gaussian) and the noise (Box-Muller) once
        # per chunk, however many rows share them.  Every row quantizes each
        # chunk through the public quantizer stages, a pqn row too, and
        # combines once per block
        cfg = small_config()
        trials = 3
        stages = {name: getattr(montecarlo, name) for name in
                  ("quantize_block", "midrise_quantize", "lmmse_estimate", "generate_pilots",
                   "simulate_block", "draw_channel", "mrc_combine", "_complex_normal",
                   "_box_muller")}
        for m_ant, chunks in ((8, 1), (montecarlo.ANTENNA_CHUNK + 8, 2)):
            designs = [DesignPoint(B_w=100e6, M=m_ant, b=b) for b in (1, 2)]
            for group, modes, rows, n_uniform, n_designs in (
                (designs[:1], ["uniform"], 1, 1, 1),
                (designs[:1], ["pqn"], 1, 0, 1),
                (designs, ["pqn", "uniform"], 4, 2, 2),
            ):
                calls = dict.fromkeys(stages, 0)
                for name, fn in stages.items():
                    def counted(*args, _name=name, _fn=fn, **kwargs):
                        calls[_name] += 1
                        return _fn(*args, **kwargs)

                    monkeypatch.setattr(montecarlo, name, counted)
                empirical_rate(cfg, group, trials=trials, seed=4, modes=modes)
                assert calls == {
                    "quantize_block": rows * chunks * trials,
                    "midrise_quantize": n_uniform * chunks * trials,
                    "lmmse_estimate": n_designs,
                    "generate_pilots": 1,
                    "simulate_block": trials,
                    "draw_channel": chunks * trials,
                    "mrc_combine": rows * trials,
                    "_complex_normal": (1 + chunks) * trials,
                    "_box_muller": chunks * trials,
                }, (m_ant, modes)

    def test_group_rows_equal_lone_calls(self):
        # one chunk, and three: a lone uniform row draws no pqn uniforms, yet
        # its later chunks draw what the group's do
        for cfg, m_ant in ((small_config(K=4, L=4, N=256), 64),
                           (small_config(N=64), 2 * montecarlo.ANTENNA_CHUNK + 1)):
            designs = [DesignPoint(B_w=200e6, M=m_ant, b=b) for b in (1, 2, 3)]
            modes = ("pqn", "uniform")
            group = empirical_rate(cfg, designs, trials=5, seed=8, modes=modes)
            rows = [(d, m) for d in designs for m in modes]
            assert len(group) == len(rows)
            for (design, mode), shared in zip(rows, group):
                assert [shared] == empirical_rate(cfg, [design], trials=5, seed=8, modes=[mode])

    def test_group_needs_one_antenna_count_and_bandwidth(self):
        cfg = small_config()
        for other in (DesignPoint(B_w=1e8, M=8, b=2), DesignPoint(B_w=2e8, M=4, b=2)):
            with pytest.raises(ConfigValueError):
                empirical_rate(cfg, [DesignPoint(B_w=1e8, M=4, b=1), other], 2, 0, ["pqn"])

    def test_memory_flat_in_trials(self, monkeypatch):
        # each trial's SeedSequence child is spawned when the trial runs and
        # dropped after it: a child holds about 440 B, so children spawned up
        # front would make the peak grow by 1.2 MB from 300 to 3,000 trials
        # (and 10^8 trials ask for 44 GB); the block is stubbed, since only
        # the loop's own memory is measured
        monkeypatch.setattr(montecarlo, "simulate_block", lambda plan, rng: [(1j, 2.0, 0)])
        cfg = small_config()
        design = DesignPoint(B_w=1e8, M=4, b=1)
        peaks = []
        for trials in (300, 3000):
            tracemalloc.start()
            try:
                empirical_rate(cfg, [design], trials, seed=0, modes=["pqn"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 50_000

    def test_rejects_trial_count_out_of_range(self):
        cfg = small_config()
        for trials in (0, sys.maxsize + 1):
            with pytest.raises(ConfigValueError, match="trials must be in"):
                empirical_rate(cfg, [DesignPoint(B_w=1e8, M=4, b=1)], trials, 0, ["pqn"])

    def test_run_budget_bounds_trials_times_block(self, monkeypatch):
        # the most trials a block admits run; one more is refused before the
        # first block (the block is stubbed: only the count is checked)
        monkeypatch.setattr(montecarlo, "simulate_block", lambda plan, rng: [(1j, 2.0, 0)])
        cfg = small_config()
        design = DesignPoint(B_w=1e8, M=4, b=1)
        block = plan_block(cfg, [design], ["pqn"]).block_bytes
        most = int(montecarlo.RUN_BUDGET // block)
        monkeypatch.setattr(montecarlo, "RUN_BUDGET", 3 * block)
        assert most > 10**6
        empirical_rate(cfg, [design], 3, seed=0, modes=["pqn"])
        with pytest.raises(ConfigValueError, match="4 trials of a block at B_w=100000000.0, M=4"):
            empirical_rate(cfg, [design], 4, seed=0, modes=["pqn"])

    def test_rejects_bad_mode(self):
        cfg = small_config()
        with pytest.raises(ConfigValueError):
            empirical_rate(cfg, [DesignPoint(B_w=1e8, M=4, b=1)], trials=2, seed=0, modes=["x"])
