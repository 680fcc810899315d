import math

import numpy as np
import pytest

from fronthaul_mimo import optimizer
from fronthaul_mimo.cli import SweepSpec, run_sweep
from fronthaul_mimo.errors import InfeasibleError, SweepPointError
from fronthaul_mimo.linkrate import achievable_rate
from fronthaul_mimo.optimizer import (
    antenna_condition,
    bandwidth_condition,
    curve_bandwidth,
    interference_noise_ratio,
    maximize_over_s,
    optimize_full,
    pade_bandwidth_condition,
    rate_of_s,
    rate_of_s_derivative,
    one_bit_always_optimal,
    threshold_f,
)
from fronthaul_mimo.sysmodel import DesignPoint, SystemConfig

from conftest import exact_gain_config, threshold_f_alt


def best_bits_at_bandwidth(cfg: SystemConfig, b_w: float) -> int:
    """Brute force over b with every antenna the fronthaul carries at B_w."""
    rates = {
        b: achievable_rate(
            cfg, DesignPoint(B_w=b_w, M=int(cfg.C_f // (b_w * b)), b=b)
        ).rate_bps
        for b in range(1, 13)
        if cfg.C_f // (b_w * b) >= 1
    }
    return max(rates, key=rates.get)


def antenna_trajectory(cfg: SystemConfig, m: int) -> list[DesignPoint]:
    """Designs at fixed M on the cap, B_w = C_f/(M*b), for b = 1..12."""
    return [DesignPoint(B_w=cfg.C_f / (m * b), M=m, b=b) for b in range(1, 13)]


class TestThresholdFunction:
    def test_one_bit_above_one(self):
        f1 = threshold_f(1, 1.0)
        assert f1 > 1.0
        assert f1 == pytest.approx(1.0032, abs=1e-3)

    def test_below_one_for_two_bits_and_up(self):
        for b in range(2, 13):
            assert threshold_f(b, 1.0) < 1.0

    def test_two_bits_value(self):
        assert threshold_f(2, 1.0) == pytest.approx(0.9515, abs=1e-3)

    def test_two_forms_agree(self):
        for b in range(1, 65):
            assert threshold_f(b, 1.0) == pytest.approx(threshold_f_alt(b, 1.0), rel=1e-12)

    def test_limit_is_sqrt_alpha(self):
        for b in (20, 30):
            assert abs(threshold_f(b, 1.0) - math.sqrt(b / (b + 1.0))) < 1e-8
            assert threshold_f(b, 1.0) < 1.0

    def test_parts_positive_up_to_64_bits(self):
        for b in range(1, 65):
            al = b / (b + 1.0)
            sq = math.sqrt(al)
            e = (1.0 / 3.0) * 4.0**-b
            num = al * (-1.0 - e / 4.0 + 1.0 / sq + e / sq)
            den = 1.0 + e / 4.0 - sq - e * sq
            assert num > 0.0
            assert den > 0.0


class TestBandwidthCondition:
    def test_interference_dominated_true(self):
        cfg = SystemConfig.from_reference_snr(30.0, K=20)
        assert bandwidth_condition(cfg, DesignPoint(B_w=1e8, M=100, b=2))

    def test_half_ratio_false_at_two_bits(self):
        # I/N_0 = 0.5 sits below the two-bit threshold ~0.95
        cfg = exact_gain_config(K=1, P_max=0.5)
        assert interference_noise_ratio(cfg, 1.0) == 0.5
        assert not bandwidth_condition(cfg, DesignPoint(B_w=1.0, M=10, b=2))

    def test_boundary_is_strict(self):
        f2 = threshold_f(2, 1.0)
        cfg = exact_gain_config(K=1, P_max=f2)
        assert interference_noise_ratio(cfg, 1.0) == f2
        assert not bandwidth_condition(cfg, DesignPoint(B_w=1.0, M=10, b=2))

    def test_wide_interval_never_certified(self):
        # at X_int = 4 the one-bit threshold inequality has no solutions
        cfg = exact_gain_config(K=1, P_max=1e12, X_int=4.0)
        assert not bandwidth_condition(cfg, DesignPoint(B_w=1.0, M=10, b=1))


class TestFixedBandwidthOptimum:
    def test_reference_scenario(self):
        cfg = SystemConfig.from_reference_snr(15.0, K=20, C_f=500e9)
        assert best_bits_at_bandwidth(cfg, 2e8) == 1
        assert int(cfg.C_f // 2e8) == 2500

    def test_brute_force_agreement(self):
        # one bit on every antenna the fronthaul carries wins at a fixed B_w
        rng = np.random.default_rng(5)
        for _ in range(20):
            cfg = SystemConfig.from_reference_snr(
                float(rng.uniform(-5, 30)),
                K=int(rng.integers(2, 40)),
                theta=float(rng.choice([1.0, 1.5, 2.0])),
                N=4000,
            )
            b_w = 10.0 ** float(rng.uniform(7, 9.3))
            assert best_bits_at_bandwidth(cfg, b_w) == 1

    def test_infeasible_when_no_antenna_fits(self):
        # the program's fixed-bandwidth path: a sweep with M bound to the cap
        spec = SweepSpec(axis="b", values=(1.0,), bind="antennas", B_w=2e6)
        with pytest.raises(SweepPointError, match="no antenna fits"):
            run_sweep(SystemConfig(C_f=1e6), spec)

    def test_small_pilot_excess_rejected(self, monkeypatch):
        # below unit pilot excess the search may not fix b = 1 outright, even
        # where the certificate holds at theta = 1
        evaluated = []

        def spy(config, design):
            evaluated.append(design)
            return achievable_rate(config, design)

        monkeypatch.setattr(optimizer, "achievable_rate", spy)
        res = optimize_full(SystemConfig.from_reference_snr(30.0, K=20, C_f=50e9, theta=0.5))
        assert not res.fixed_one_bit
        assert {d.b for d in evaluated} == set(range(1, 13))
        assert res.trace_points == len(evaluated)


class TestFixedAntennasOptimum:
    def test_reference_scenario_candidate(self):
        cfg = SystemConfig.from_reference_snr(15.0, K=20, C_f=500e9)
        one_bit = antenna_trajectory(cfg, 200)[0]
        assert one_bit.B_w == pytest.approx(2.5e9, rel=1e-12)
        # I/N_0 = 0.253 at 2.5 GHz sits below the one-bit threshold, so the
        # sufficient condition cannot certify this candidate.
        assert not bandwidth_condition(cfg, one_bit)

    def test_low_snr_not_applicable(self):
        cfg = SystemConfig.from_reference_snr(-10.0, K=20, C_f=500e9)
        assert not all(bandwidth_condition(cfg, d) for d in antenna_trajectory(cfg, 200))

    def test_brute_force_agreement_when_certified(self):
        # one bit wins at M = 20000 where the condition certifies the whole
        # trajectory
        cfg = SystemConfig.from_reference_snr(15.0, K=20, C_f=500e9)
        trajectory = antenna_trajectory(cfg, 20000)
        assert all(bandwidth_condition(cfg, d) for d in trajectory)
        rates = [achievable_rate(cfg, d).rate_bps for d in trajectory]
        assert max(range(len(rates)), key=rates.__getitem__) == 0


class TestRateOfS:
    def test_matches_linkrate_at_integer_antennas(self, base_config):
        for theta in (1.0, 2.0):  # the pilot-excess term of omega vanishes at 1
            cfg = base_config.replace(theta=theta)
            for b in (1, 2, 3):
                for m in (3, 17, 100, 381, 2500, 40000):
                    s = 1.0 / m
                    design = DesignPoint(B_w=cfg.C_f * s / b, M=m, b=b)
                    direct = achievable_rate(cfg, design).rate_bps
                    assert rate_of_s(cfg, s, b) == pytest.approx(direct, rel=1e-10)

    def test_vanishes_at_lower_boundary(self, base_config):
        tiny = rate_of_s(base_config, 2.0 / base_config.C_f, 1)
        assert 0.0 < tiny < 1e-6 * rate_of_s(base_config, 1e-3, 1)

    def test_domain_error(self, base_config):
        with pytest.raises(ValueError):
            rate_of_s(base_config, 0.5 / base_config.C_f, 1)
        with pytest.raises(ValueError):
            rate_of_s(base_config, 1.5, 1)

    def test_constraint_product_invariant(self, base_config):
        for b in (1, 3):
            for s in (1e-6, 1e-3, 0.3, 1.0):
                b_w = curve_bandwidth(base_config, s, b)
                assert (1.0 / s) * b_w * b == pytest.approx(base_config.C_f, rel=1e-12)


class TestDerivative:
    def test_matches_finite_differences(self, base_config):
        rng = np.random.default_rng(17)
        for _ in range(100):
            s = 10.0 ** float(rng.uniform(-9, -0.05))
            b = int(rng.integers(1, 5))
            h = s * 1e-6
            fd = (rate_of_s(base_config, s + h, b) - rate_of_s(base_config, s - h, b)) / (
                2.0 * h
            )
            an = rate_of_s_derivative(base_config, s, b)
            assert an == pytest.approx(fd, rel=1e-6)

    def test_single_sign_change(self, base_config):
        for theta in (1.0, 2.0, 4.0):
            cfg = base_config.replace(theta=theta)
            grid = np.logspace(-9, 0, 4000)
            signs = np.sign([rate_of_s_derivative(cfg, s, 1) for s in grid])
            changes = np.count_nonzero(np.diff(signs))
            assert changes == 1

    def test_stationary_at_maximizer(self, base_config):
        s_star = maximize_over_s(base_config, 1)
        scale = abs(rate_of_s_derivative(base_config, s_star * 0.5, 1))
        assert abs(rate_of_s_derivative(base_config, s_star, 1)) < 1e-6 * scale


class TestMaximizeOverS:
    def test_boundary_when_derivative_positive_everywhere(self):
        # very high SNR and tiny fronthaul: more bandwidth always wins
        cfg = SystemConfig.from_reference_snr(60.0, K=2, L=2, C_f=1e4)
        assert maximize_over_s(cfg, 1) == 1.0

    def test_interior_optimum_reference(self, base_config):
        s_star = maximize_over_s(base_config, 1)
        assert 1.0 / base_config.C_f < s_star < 1.0
        assert rate_of_s_derivative(base_config, s_star * 0.9, 1) > 0
        assert rate_of_s_derivative(base_config, min(1.0, s_star * 1.1), 1) < 0

    def test_pilot_excess_moves_optimum_toward_bandwidth(self, base_config):
        stars = [
            maximize_over_s(base_config.replace(theta=t), 1) for t in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a < b for a, b in zip(stars, stars[1:]))


class TestSufficientConditions:
    def test_pade_true_at_high_snr_long_pilots(self):
        cfg = SystemConfig.from_reference_snr(30.0, K=20, theta=4.0, N=4000)
        assert pade_bandwidth_condition(cfg, DesignPoint(B_w=1e8, M=1000, b=3))

    def test_pade_large_antenna_limit(self):
        # as M grows the right side approaches 1: reduces to I > N_0
        cfg = SystemConfig.from_reference_snr(15.0, K=20)
        above = DesignPoint(B_w=1e8, M=10**9, b=1)  # I/N_0 = 6.3
        below = DesignPoint(B_w=1e11, M=10**9, b=1)  # I/N_0 = 0.0063
        assert pade_bandwidth_condition(cfg, above)
        assert not pade_bandwidth_condition(cfg, below)

    def test_pade_implies_positive_derivative(self, base_config):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(400):
            s = 10.0 ** float(rng.uniform(-8, -0.01))
            b = int(rng.integers(1, 5))
            m = max(1, int(round(1.0 / s)))
            design = DesignPoint(B_w=base_config.C_f * s / b, M=m, b=b)
            if pade_bandwidth_condition(base_config, design):
                checked += 1
                assert rate_of_s_derivative(base_config, s, b) > 0.0
        assert checked > 20

    def test_antenna_condition_small_arrays(self, base_config):
        assert antenna_condition(base_config, DesignPoint(B_w=1e9, M=2, b=1))

    def test_antenna_threshold_grows_with_bandwidth(self, base_config):
        # the largest M satisfying the condition increases with B_w
        def max_m(b_w):
            m = 1
            while antenna_condition(base_config, DesignPoint(B_w=b_w, M=m, b=1)):
                m *= 2
            return m

        thresholds = [max_m(b) for b in (1e8, 1e9, 1e10)]
        assert all(a < b for a, b in zip(thresholds, thresholds[1:]))

    def test_antenna_condition_implies_negative_derivative(self, base_config):
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(400):
            s = 10.0 ** float(rng.uniform(-8, -0.01))
            b = int(rng.integers(1, 5))
            m = max(1, int(round(1.0 / s)))
            design = DesignPoint(B_w=base_config.C_f * s / b, M=m, b=b)
            if antenna_condition(base_config, design):
                checked += 1
                assert rate_of_s_derivative(base_config, s, b) < 0.0
        assert checked > 20


class TestOneBitCertificate:
    def test_high_snr_unit_theta(self):
        # optimum lands where interference dominates: certificate holds
        cfg = SystemConfig.from_reference_snr(30.0, K=20, C_f=50e9)
        assert one_bit_always_optimal(cfg)

    def test_small_theta_false(self):
        assert not one_bit_always_optimal(SystemConfig(theta=0.5))

    def test_certified_matches_brute_force(self):
        cfg = SystemConfig.from_reference_snr(30.0, K=20, C_f=50e9)
        assert one_bit_always_optimal(cfg)
        best = optimize_full(cfg)
        grid = np.logspace(math.log10(1.5 / cfg.C_f), 0, 60)
        for b in range(1, 13):
            for s in grid:
                m = max(1, int(round(1.0 / s)))
                d = DesignPoint(B_w=cfg.C_f / (m * b), M=m, b=b)
                assert achievable_rate(cfg, d).rate_bps <= best.rate.rate_bps * (1 + 1e-9)
        assert best.best.b == 1


class TestOptimizeFull:
    def test_reference_interior_optimum(self, base_config):
        res = optimize_full(base_config)
        assert res.best.b == 1
        assert res.binding
        assert res.best.is_feasible(base_config.C_f)
        assert 1 < res.best.M
        assert res.best.B_w < base_config.C_f

    @pytest.mark.parametrize("x_int", [1.0, 4.0])
    def test_beats_lattice(self, base_config, x_int):
        # at X_int = 4 the optimum has b > 1, where the relaxed search must
        # follow the b-bit constraint curve to land near the lattice optimum
        cfg = base_config.replace(X_int=x_int)
        res = optimize_full(cfg)
        s_grid = np.logspace(math.log10(2.0 / cfg.C_f), 0, 200)
        for b in range(1, 13):
            for s in s_grid:
                m = max(1, int(round(1.0 / s)))
                d = DesignPoint(B_w=cfg.C_f / (m * b), M=m, b=b)
                assert achievable_rate(cfg, d).rate_bps <= res.rate.rate_bps * (1 + 1e-9)

    def test_more_fronthaul_more_rate(self, base_config):
        r1 = optimize_full(base_config).rate.rate_bps
        r2 = optimize_full(base_config.replace(C_f=2.0 * base_config.C_f)).rate.rate_bps
        assert r2 > r1

    def test_infeasible_capacity(self):
        with pytest.raises(InfeasibleError):
            optimize_full(SystemConfig(C_f=0.5))

    def test_single_point_capacity(self):
        # C_f = 1 leaves one design, s = 1 at both ends of the curve's domain
        res = optimize_full(SystemConfig(C_f=1.0))
        assert res.best == DesignPoint(B_w=1.0, M=1, b=1)
        assert res.relaxed_s == 1.0

    def test_trace_and_relaxed_reported(self, base_config):
        res = optimize_full(base_config)
        assert res.trace_points >= 5
        assert 1.0 / base_config.C_f < res.relaxed_s <= 1.0
        assert res.relaxed_rate_bps >= res.rate.rate_bps * (1 - 1e-6)


class TestConcavityAndDominance:
    def test_concave_through_ascent_convex_tail(self, base_config):
        # the curve is concave up to (and through) its maximizer; far into
        # the decay it flattens like 1/(noise*bandwidth)^2, which is convex,
        # so global concavity fails while unimodality holds.
        for b in (1, 2, 3, 4):
            for theta in (1.0, 2.0, 4.0):
                cfg = base_config.replace(theta=theta)
                s_star = maximize_over_s(cfg, b)
                ascent = np.linspace(s_star * 1e-3, s_star, 1000)
                r = np.array([rate_of_s(cfg, s, b) for s in ascent.tolist()])
                assert np.diff(r, 2).max() <= 1e-9 * np.abs(r).max()
        full = np.linspace(1e-3, 1.0, 1000)
        r_full = np.array([rate_of_s(base_config, s, 1) for s in full.tolist()])
        assert np.diff(r_full, 2).max() > 1e-9 * np.abs(r_full).max()  # convex tail

    def test_one_bit_dominance_on_bandwidth_grid(self, base_config):
        for theta in (1.0, 2.0):
            cfg = base_config.replace(theta=theta)
            for b_w in np.logspace(7, 9.3, 10):
                m1 = int(cfg.C_f // b_w)
                base = achievable_rate(cfg, DesignPoint(B_w=b_w, M=m1, b=1)).rate_bps
                for b in range(2, 13):
                    m = int(cfg.C_f // (b_w * b))
                    other = achievable_rate(cfg, DesignPoint(B_w=b_w, M=m, b=b)).rate_bps
                    assert base >= other
