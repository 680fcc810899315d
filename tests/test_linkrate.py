import math

import numpy as np
import pytest

from fronthaul_mimo.errors import PilotOverheadError
from fronthaul_mimo.linkrate import (
    achievable_rate,
    estimation_quality,
    rate_from_sinqr,
    sinqr,
)
from fronthaul_mimo.sysmodel import DesignPoint, SystemConfig, link_budget

from conftest import estimation_quality_tapwise


def random_setup(rng):
    cfg = SystemConfig.from_reference_snr(
        float(rng.uniform(-5, 30)),
        K=int(rng.integers(1, 40)),
        L=int(rng.integers(1, 12)),
        N=4000,
        theta=float(rng.uniform(1.0, 3.0)),
        X_int=float(rng.uniform(0.5, 3.0)),
    )
    design = DesignPoint(
        B_w=10.0 ** float(rng.uniform(6, 10)),
        M=int(rng.integers(1, 3000)),
        b=int(rng.integers(1, 13)),
    )
    return cfg, design


class TestEstimationQuality:
    def test_perfect_limit(self):
        # no quantization noise (huge b), pilot excess and power large
        cfg = SystemConfig.from_reference_snr(60.0, theta=9.0, N=10**6)
        c = estimation_quality(cfg, DesignPoint(B_w=1e6, M=10, b=30))
        assert c > 0.999999

    def test_vanishing_power(self):
        cfg = SystemConfig(P=1e-30)
        c = estimation_quality(cfg, DesignPoint(B_w=1e8, M=10, b=2))
        assert c < 1e-12

    def test_tapwise_sum_matches_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            cfg, design = random_setup(rng)
            uniform = np.full(cfg.L, 1.0 / cfg.L)
            c_taps = estimation_quality_tapwise(cfg, design, uniform)
            c_closed = estimation_quality(cfg, design)
            assert c_taps == pytest.approx(c_closed, rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            cfg, design = random_setup(rng)
            c = estimation_quality(cfg, design)
            assert 0.0 <= c < 1.0

    def test_monotone_in_pilot_excess(self):
        cfg = SystemConfig.from_reference_snr(10.0, N=4000)
        design = DesignPoint(B_w=1e8, M=64, b=2)
        values = [
            estimation_quality(cfg.replace(theta=t), design) for t in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_nonuniform_profile_supported(self):
        cfg = SystemConfig.from_reference_snr(15.0, L=4)
        design = DesignPoint(B_w=1e8, M=64, b=2)
        exponential = np.exp(-0.5 * np.arange(4.0))
        profile = exponential / exponential.sum()
        c = estimation_quality_tapwise(cfg, design, profile)
        assert 0.0 < c < 1.0
        # the per-tap quality d*sigma2 is convex in the tap power, so a
        # profile with unequal taps is estimated better than the uniform one
        assert c > estimation_quality(cfg, design)


class TestSinqr:
    def test_linear_in_antennas(self, base_config):
        d1 = DesignPoint(B_w=2e8, M=100, b=2)
        d2 = DesignPoint(B_w=2e8, M=200, b=2)
        assert sinqr(base_config, d2) == pytest.approx(2.0 * sinqr(base_config, d1), rel=1e-14)

    def test_unquantized_perfect_csi_form(self):
        # with E -> 0 and c -> 1, gamma -> M*(P/B_w)/(I+1)
        cfg = SystemConfig.from_reference_snr(15.0, K=2, L=2, theta=30.0)
        budget = link_budget(cfg, 1e6, 30)
        g = sinqr(cfg, DesignPoint(B_w=1e6, M=100, b=30))
        ideal = 100 * (cfg.P / 1e6) / (budget.I_total + 1.0)
        assert g == pytest.approx(ideal, rel=2e-3)

    def test_two_algebraic_forms_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            cfg, design = random_setup(rng)
            budget = link_budget(cfg, design.B_w, design.b)
            c = estimation_quality(cfg, design)
            form_a = c * design.M * (cfg.P / design.B_w) / (
                budget.I_total + 1.0 + budget.P_rx * budget.E
            )
            form_b = c * design.M * (cfg.P / design.B_w) / (
                (budget.I_total + 1.0) * (1.0 + budget.E)
            )
            assert form_a == pytest.approx(form_b, rel=1e-12)
            assert sinqr(cfg, design) == pytest.approx(form_a, rel=1e-12)


class TestMonotonicity:
    """The two monotonicities the search rests on, over random designs far
    beyond the paper's: the optimum lies on the constraint curve because the
    rate rises with M at fixed (B_w, b), and
    ``optimizer.unquantized_bound_below`` bounds every design at b bits by
    the E = 0 rate because the rate falls as E grows at fixed (B_w, M)."""

    @staticmethod
    def wide_setup(rng):
        cfg = SystemConfig.from_reference_snr(
            float(rng.uniform(-10, 40)), K=int(rng.integers(1, 40)), L=int(rng.integers(1, 12)),
            N=4000, theta=float(rng.uniform(1.0, 3.0)),
        )
        return cfg, 10.0 ** float(rng.uniform(5, 11)), int(rng.integers(1, 13))

    def test_rate_rises_with_antennas(self):
        rng = np.random.default_rng(151)
        for _ in range(200):
            cfg, b_w, b = self.wide_setup(rng)
            cfg = cfg.replace(X_int=10.0 ** float(rng.uniform(-1, 1)))
            antennas = np.unique(np.round(10.0 ** rng.uniform(0, 9, 8))).astype(int).tolist()
            rates = [achievable_rate(cfg, DesignPoint(B_w=b_w, M=m, b=b)).rate_bps
                     for m in antennas]
            assert all(0.0 < r < r_next for r, r_next in zip(rates, rates[1:])), (cfg, b_w, b)

    def test_rate_falls_as_distortion_grows(self):
        rng = np.random.default_rng(152)
        for _ in range(200):
            cfg, b_w, b = self.wide_setup(rng)
            design = DesignPoint(B_w=b_w, M=int(10.0 ** rng.uniform(0, 7)), b=b)
            # E = (X_int*2**(1 - b))**2/12 grows with X_int at fixed b; an
            # X_int of 1e-30 has E = 0 in every sum the rate takes
            x_ints = [1e-30, *np.sort(10.0 ** rng.uniform(-1, 1.5, 6)).tolist()]
            rates = [achievable_rate(cfg.replace(X_int=x), design).rate_bps for x in x_ints]
            assert all(r > r_next > 0.0 for r, r_next in zip(rates, rates[1:])), (cfg, design)


class TestAchievableRate:
    def test_zero_sinqr_zero_rate(self, base_config):
        assert rate_from_sinqr(base_config, 1e8, 0.0) == 0.0

    def test_prelog_linear_in_bandwidth(self, base_config):
        r1 = rate_from_sinqr(base_config, 1e8, 3.0)
        r2 = rate_from_sinqr(base_config, 2e8, 3.0)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-14)

    def test_sum_rate(self, base_config):
        out = achievable_rate(base_config, DesignPoint(B_w=2e8, M=500, b=1))
        assert out.sum_rate_bps == pytest.approx(base_config.K * out.rate_bps, rel=1e-15)
        assert out.rate_bps == pytest.approx(
            2e8 * (base_config.n_data / base_config.N) * math.log2(1.0 + out.gamma),
            rel=1e-12,
        )

    def test_strictly_increasing_in_antennas_and_bits(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            cfg, design = random_setup(rng)
            base = achievable_rate(cfg, design).rate_bps
            more_m = DesignPoint(B_w=design.B_w, M=design.M + 1, b=design.b)
            more_b = DesignPoint(B_w=design.B_w, M=design.M, b=design.b + 1)
            assert achievable_rate(cfg, more_m).rate_bps > base
            assert achievable_rate(cfg, more_b).rate_bps > base

    def test_increasing_in_bandwidth_when_interference_dominates(self):
        # unconstrained bandwidth growth helps while interference outweighs
        # noise; in the noise-limited regime the estimation quality collapses
        # faster than the pre-log grows and the trend reverses.
        cfg = SystemConfig.from_reference_snr(15.0, K=20)
        grid = np.linspace(5e7, 3e8, 12)  # I in [2.1, 12.6]
        rates = [
            achievable_rate(cfg, DesignPoint(B_w=float(bw), M=200, b=2)).rate_bps
            for bw in grid
        ]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_decreasing_in_bandwidth_when_noise_dominates(self):
        cfg = SystemConfig.from_reference_snr(15.0, K=20)
        low = achievable_rate(cfg, DesignPoint(B_w=1e11, M=100, b=2)).rate_bps
        high = achievable_rate(cfg, DesignPoint(B_w=1e12, M=100, b=2)).rate_bps
        assert high < low

    def test_overhead_exhaustion_signalled(self):
        with pytest.raises(PilotOverheadError):
            SystemConfig(K=20, L=10, theta=10.0, N=1000)
