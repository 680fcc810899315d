import collections
import contextlib
import itertools
import math

import numpy as np
import pytest

from fronthaul_mimo import optimizer
from fronthaul_mimo.cli import SweepSpec, run_sweep
from fronthaul_mimo.errors import ConfigValueError, InfeasibleError, SweepPointError
from fronthaul_mimo.linkrate import achievable_rate
from fronthaul_mimo.optimizer import (
    antenna_condition,
    bandwidth_condition,
    constraint_curve,
    curve_bandwidth,
    maximize_over_s,
    optimize_full,
    pade_bandwidth_condition,
    rate_of_s,
    rate_of_s_derivative,
    one_bit_always_optimal,
    threshold_f,
    unquantized_bound_below,
)
from fronthaul_mimo.sysmodel import (
    DesignPoint,
    SystemConfig,
    link_budget,
    quantization_distortion_variance,
)

from conftest import optimize_every_resolution, threshold_f_alt


@pytest.fixture
def searched(monkeypatch) -> list[int]:
    """The resolutions that optimizer.maximize_over_s is called for, in order."""
    calls = []

    def spy(config, b):
        calls.append(b)
        return maximize_over_s(config, b)

    monkeypatch.setattr(optimizer, "maximize_over_s", spy)
    return calls


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

    def test_parts_memo_is_bounded_and_holds_no_error(self):
        parts = optimizer._threshold_parts
        assert parts.cache_info().maxsize is not None
        for _ in range(2):
            assert threshold_f(2, 1.0) == pytest.approx(0.9515, abs=1e-3)
            for b, x_int in ((1.5, 1.0), (0, 1.0), (-1, 1.0), (2, 0.0)):
                with pytest.raises(ConfigValueError):
                    parts(b, x_int)
                with pytest.raises(ConfigValueError):
                    threshold_f(b, x_int)

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
        # I = 0.5 sits below the two-bit threshold ~0.95
        cfg = SystemConfig(K=1, P=0.5)
        assert link_budget(cfg, 1.0, 2).I_total == 0.5
        assert not bandwidth_condition(cfg, DesignPoint(B_w=1.0, M=10, b=2))

    def test_boundary_is_strict(self):
        f2 = threshold_f(2, 1.0)
        cfg = SystemConfig(K=1, P=f2)
        assert link_budget(cfg, 1.0, 2).I_total == f2
        assert not bandwidth_condition(cfg, DesignPoint(B_w=1.0, M=10, b=2))

    def test_wide_interval_never_certified(self):
        # at X_int = 4 the one-bit threshold inequality has no solutions
        cfg = SystemConfig(K=1, P=1e12, X_int=4.0)
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
        per_b = collections.Counter(d.b for d in evaluated)
        assert sorted(per_b) == list(range(1, len(per_b) + 1))  # stopped at some k
        assert max(per_b.values()) <= 2  # floor and ceil of 1/s* only
        assert res.trace_points == len(evaluated)


class TestFixedAntennasOptimum:
    def test_reference_scenario_candidate(self):
        cfg = SystemConfig.from_reference_snr(15.0, K=20, C_f=500e9)
        one_bit = antenna_trajectory(cfg, 200)[0]
        assert one_bit.B_w == pytest.approx(2.5e9, rel=1e-12)
        # I = 0.253 at 2.5 GHz sits below the one-bit threshold, so the
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


def reference_omega_terms(config, s, b):
    """omega(s) and its derivative, every constant recomputed per call."""
    slope = config.C_f / b
    p = config.P
    kp = config.K * p
    e = quantization_distortion_variance(b, config.X_int)
    one = 1.0 + e
    te = config.theta_eff
    u = kp + slope * s
    denom = one * u * ((te - 1.0) * kp + one * u)
    denom_dot = one * slope * ((te - 1.0) * kp + 2.0 * one * u)
    a = p * p * config.n_pilot / config.L
    g = s * denom
    omega = a / g
    omega_dot = -omega * (denom + s * denom_dot) / g
    return omega, omega_dot


def reference_upsilon(config, b):
    return config.n_data * (config.C_f / b) / (config.N * math.log(2.0))


def reference_rate_of_s(config, s, b):
    omega, _ = reference_omega_terms(config, s, b)
    return reference_upsilon(config, b) * s * math.log1p(omega)


def reference_rate_of_s_derivative(config, s, b):
    omega, omega_dot = reference_omega_terms(config, s, b)
    return reference_upsilon(config, b) * (
        math.log1p(omega) + s * omega_dot / (1.0 + omega)
    )


def reference_maximize_over_s(config, b):
    """The plain bisection on the per-call reference derivative, every
    midpoint evaluated; a derivative that is not finite raises as the
    search does."""

    def derivative(s):
        d = reference_rate_of_s_derivative(config, s, b)
        if not math.isfinite(d):
            raise ConfigValueError(
                f"dR/ds at s={s}, b={b} is not finite: C_f={config.C_f} or "
                f"P={config.P} is beyond the float range of the constraint-curve search"
            )
        return d

    hi = 1.0
    lo = min(hi, 1.0 / (config.C_f / b) * (1.0 + 1e-9))
    d_lo, d_hi = derivative(lo), derivative(hi)
    if d_lo <= 0.0 and d_hi <= 0.0:
        return lo
    if d_lo >= 0.0 and d_hi >= 0.0:
        return hi
    while hi - lo > min(1e-10, 1e-6 * lo):
        mid = 0.5 * (lo + hi)
        if derivative(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_unquantized_bound_below(config, b, best_bps):
    """The capacity bound with omega and dR/ds computed apart."""
    curve = optimizer._curve(config, b, 0.0)

    def log_rate(s):
        ou = curve.one * (curve.kp + curve.slope * s)
        return math.log1p(curve.a / (s * (ou * (curve.te_kp + ou))))

    lo, hi = 1.0 / curve.slope, 1.0
    log_lo = log_rate(lo)
    while True:
        bound = curve.upsilon * hi * log_lo
        if bound < math.inf and best_bps >= bound * (1.0 + 1e-12):
            return True
        if not hi - lo > min(1e-10, 1e-6 * lo):
            return False
        mid = 0.5 * (lo + hi)
        log_mid = log_rate(mid)
        if curve.upsilon * mid * log_mid > best_bps:
            return False
        d = rate_of_s_derivative(curve, mid)
        if 0.0 < d < math.inf:
            lo, log_lo = mid, log_mid
        elif -math.inf < d <= 0.0:
            hi = mid
        else:
            return False


def outcome(function, *args):
    """A call's value, or its exception's type and message; repr keeps every bit."""
    try:
        return repr(function(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def random_configs(seed, count):
    """Seeded configs beyond the paper grid, every fourth one extreme: SNR
    to +-300 dB, C_f to 1e300, X_int 1e+-30."""
    rng = np.random.default_rng(seed)
    configs = []
    while len(configs) < count:
        extreme = len(configs) % 4 == 0
        keys = dict(
            K=int(rng.integers(1, 50)),
            L=int(rng.integers(1, 20)),
            N=int(rng.integers(2000, 5000)),
            theta=float(rng.uniform(1.0, 10.0)),
        )
        if extreme:
            snr = float(rng.uniform(-300.0, 300.0))
            keys.update(C_f=10.0 ** rng.uniform(0.0, 300.0), X_int=10.0 ** rng.uniform(-30, 30))
        else:
            snr = float(rng.uniform(-20.0, 50.0))
            keys.update(C_f=10.0 ** rng.uniform(8.0, 13.0), X_int=float(rng.uniform(0.5, 5.0)))
        with contextlib.suppress(ConfigValueError):
            configs.append(SystemConfig.from_reference_snr(snr, **keys))
    return configs


def gamma_band_configs(seed, count):
    """Configs whose relaxed optimum often has a SINQR near 1e-16, where
    dR/ds near the root is rounding noise: SNR 100-140 dB, X_int 1e4-1e7."""
    rng = np.random.default_rng(seed)
    return [
        SystemConfig.from_reference_snr(
            float(rng.uniform(100.0, 140.0)),
            C_f=10.0 ** rng.uniform(4.0, 13.0),
            X_int=10.0 ** rng.uniform(4.0, 7.0),
            theta=float(rng.uniform(1.0, 4.0)),
        )
        for _ in range(count)
    ]


def relaxed_sinqr(config, b, s):
    ou = (1.0 + quantization_distortion_variance(b, config.X_int)) * (
        config.K * config.P + config.C_f / b * s
    )
    te_kp = (config.theta_eff - 1.0) * config.K * config.P
    return config.P * config.P * config.n_pilot / config.L / (s * ou * (te_kp + ou))


class TestCurveKernelBitExact:
    def test_matches_per_call_reference(self, base_config):
        # configs that differ in one field each; calls interleave across them,
        # so constants cached under less than the whole config would leak
        configs = [
            base_config,
            base_config.replace(theta=2.0),
            base_config.replace(theta=1.37),
            base_config.replace(X_int=2.5),
            base_config.replace(P=3.0e7),
            base_config.replace(C_f=50e9),
            base_config.replace(K=4, L=5, theta=1.37),  # N_p rounds: theta_eff != theta
            SystemConfig.from_reference_snr(30.0),
        ]
        for b in range(1, 13):
            grids = []
            for cfg in configs:
                lo = 1.0 / (cfg.C_f / b)
                grids.append([lo, *np.geomspace(lo, 1.0, 41)[1:-1].tolist(), 1.0])
            for i in range(len(grids[0])):
                for cfg, grid in zip(configs, grids):
                    s = grid[i]
                    curve = constraint_curve(cfg, b)
                    assert rate_of_s_derivative(curve, s) == reference_rate_of_s_derivative(
                        cfg, s, b
                    )
                    assert rate_of_s(cfg, s, b) == reference_rate_of_s(cfg, s, b)
                    assert curve_bandwidth(cfg, s, b) == (cfg.C_f / b) * s
            for cfg in configs:
                with pytest.raises(ValueError):
                    rate_of_s_derivative(constraint_curve(cfg, b), 1.5)
                with pytest.raises(ValueError):
                    rate_of_s_derivative(constraint_curve(cfg, b), 0.5 * b / cfg.C_f)

    def test_search_matches_plain_bisection_on_paper_grid(self):
        for snr, c_f, theta, x_int in itertools.product(
            (0.0, 15.0, 30.0), (50e9, 500e9), (1.0, 2.0, 4.0, 8.0), (1.0, 2.5, 4.0)
        ):
            cfg = SystemConfig.from_reference_snr(
                snr, K=20, L=10, N=2000, C_f=c_f, theta=theta, X_int=x_int
            )
            for b in range(1, 13):
                assert maximize_over_s(cfg, b) == reference_maximize_over_s(cfg, b), (cfg, b)


class TestReplayedSearch:
    """``maximize_over_s`` replays the plain bisection from a located root:
    the same s*, bit for bit, and the same error, everywhere."""

    def test_matches_plain_bisection_on_random_configs(self):
        configs = random_configs(29, 2400)
        for cfg in configs:
            for b in (1, 2, 3, 7, 12):
                if cfg.C_f / b >= 1.0:
                    assert outcome(maximize_over_s, cfg, b) == outcome(
                        reference_maximize_over_s, cfg, b
                    ), (cfg, b)

    def test_matches_plain_bisection_where_the_sign_is_noise(self):
        in_band = 0
        for cfg in gamma_band_configs(31, 400):
            for b in (1, 2, 3):
                want = outcome(reference_maximize_over_s, cfg, b)
                assert outcome(maximize_over_s, cfg, b) == want, (cfg, b)
                s = float(want)
                if 1e-18 < relaxed_sinqr(cfg, b, s) < 1e-14 and b / cfg.C_f < s < 1.0:
                    in_band += 1
        assert in_band >= 100  # the band is covered, not only near it

    def test_optimize_full_matches_plain_search(self, monkeypatch):
        configs = random_configs(37, 400) + gamma_band_configs(41, 100)
        new = [outcome(optimize_full, cfg) for cfg in configs]
        monkeypatch.setattr(optimizer, "maximize_over_s", reference_maximize_over_s)
        monkeypatch.setattr(optimizer, "unquantized_bound_below", reference_unquantized_bound_below)
        plain = [outcome(optimize_full, cfg) for cfg in configs]
        for cfg, got, want in zip(configs, new, plain):
            assert got == want, cfg
        assert sum(isinstance(o, str) for o in new) >= 300  # most are designs, not errors

    def test_few_derivatives_on_the_paper_grid(self, monkeypatch):
        # every paper-grid search locates its root: two ends, two window
        # edges and the few midpoints inside the window, not 36 midpoints
        calls = []

        def counted(curve, s):
            calls.append(s)
            return rate_of_s_derivative(curve, s)

        monkeypatch.setattr(optimizer, "rate_of_s_derivative", counted)
        per_search = []
        for snr, c_f, theta, x_int in itertools.product(
            (0.0, 15.0, 30.0), (50e9, 500e9), (1.0, 2.0, 4.0, 8.0), (1.0, 2.5, 4.0)
        ):
            cfg = SystemConfig.from_reference_snr(snr, C_f=c_f, theta=theta, X_int=x_int)
            for b in range(1, 13):
                before = len(calls)
                maximize_over_s(cfg, b)
                per_search.append(len(calls) - before)
        assert max(per_search) <= 10
        assert sum(per_search) <= 6 * len(per_search)


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
            an = rate_of_s_derivative(constraint_curve(base_config, b), s)
            assert an == pytest.approx(fd, rel=1e-6)

    def test_single_sign_change(self, base_config):
        for theta in (1.0, 2.0, 4.0):
            cfg = base_config.replace(theta=theta)
            grid = np.logspace(-9, 0, 4000)
            curve = constraint_curve(cfg, 1)
            signs = np.sign([rate_of_s_derivative(curve, s) for s in grid])
            changes = np.count_nonzero(np.diff(signs))
            assert changes == 1

    def test_stationary_at_maximizer(self, base_config):
        s_star = maximize_over_s(base_config, 1)
        curve = constraint_curve(base_config, 1)
        scale = abs(rate_of_s_derivative(curve, s_star * 0.5))
        assert abs(rate_of_s_derivative(curve, s_star)) < 1e-6 * scale


class TestMaximizeOverS:
    def test_boundary_when_derivative_positive_everywhere(self):
        # very high SNR and tiny fronthaul: more bandwidth always wins
        cfg = SystemConfig.from_reference_snr(60.0, K=2, L=2, C_f=1e4)
        assert maximize_over_s(cfg, 1) == 1.0

    def test_interior_optimum_reference(self, base_config):
        s_star = maximize_over_s(base_config, 1)
        assert 1.0 / base_config.C_f < s_star < 1.0
        curve = constraint_curve(base_config, 1)
        assert rate_of_s_derivative(curve, s_star * 0.9) > 0
        assert rate_of_s_derivative(curve, min(1.0, s_star * 1.1)) < 0

    def test_pilot_excess_moves_optimum_toward_bandwidth(self, base_config):
        stars = [
            maximize_over_s(base_config.replace(theta=t), 1) for t in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a < b for a, b in zip(stars, stars[1:]))


class TestSufficientConditions:
    def test_conditions_equal_their_formulas(self):
        # both conditions read K*P, 1 + E and P^2*N_p/L from the constraint
        # curve; these are the formulas as derived, each constant inline
        rng = np.random.default_rng(37)
        seen = collections.Counter()
        for _ in range(600):
            cfg = SystemConfig.from_reference_snr(
                float(rng.uniform(-10.0, 40.0)), K=int(rng.integers(1, 30)),
                L=int(rng.integers(1, 12)), N=4000, theta=float(rng.uniform(1.0, 8.0)),
                X_int=float(rng.uniform(0.5, 5.0)), C_f=10.0 ** rng.uniform(9.0, 12.0),
            )
            design = DesignPoint(B_w=10.0 ** rng.uniform(5.0, 11.0),
                                 M=int(10.0 ** rng.uniform(0.0, 5.0)), b=int(rng.integers(1, 13)))
            kp = cfg.K * cfg.P
            u = kp + design.B_w
            one = 1.0 + quantization_distortion_variance(design.b, cfg.X_int)
            pilot = cfg.P**2 * cfg.n_pilot
            pade = kp / design.B_w > 4.0 * one * one * u * u * cfg.L / (design.M * pilot) + 1.0
            antenna = design.M < 4.0 * one * one * u * design.B_w * cfg.L / pilot
            assert pade_bandwidth_condition(cfg, design) == pade
            assert antenna_condition(cfg, design) == antenna
            seen[pade, antenna] += 1
        # the grid reaches every outcome the two conditions can give
        assert seen[True, False] and seen[False, True] and seen[False, False], seen

    def test_pade_true_at_high_snr_long_pilots(self):
        cfg = SystemConfig.from_reference_snr(30.0, K=20, theta=4.0, N=4000)
        assert pade_bandwidth_condition(cfg, DesignPoint(B_w=1e8, M=1000, b=3))

    def test_pade_large_antenna_limit(self):
        # as M grows the right side approaches 1: reduces to I > 1
        cfg = SystemConfig.from_reference_snr(15.0, K=20)
        above = DesignPoint(B_w=1e8, M=10**9, b=1)  # I = 6.3
        below = DesignPoint(B_w=1e11, M=10**9, b=1)  # I = 0.0063
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
                assert rate_of_s_derivative(constraint_curve(base_config, b), s) > 0.0
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
                assert rate_of_s_derivative(constraint_curve(base_config, b), s) < 0.0
        assert checked > 20


class TestOneBitCertificate:
    def test_high_snr_unit_theta(self):
        # optimum lands where interference dominates: certificate holds
        cfg = SystemConfig.from_reference_snr(30.0, K=20, C_f=50e9)
        assert one_bit_always_optimal(cfg, maximize_over_s(cfg, 1))

    def test_small_theta_false(self):
        cfg = SystemConfig(theta=0.5)
        assert not one_bit_always_optimal(cfg, maximize_over_s(cfg, 1))

    def test_certified_matches_brute_force(self, searched):
        # uncertified at the default config, where the capacity bound alone
        # stops the search after b = 1
        assert not optimize_full(SystemConfig.from_reference_snr(15.0)).fixed_one_bit
        assert searched == [1]
        searched.clear()
        cfg = SystemConfig.from_reference_snr(30.0, K=20, C_f=50e9)
        best = optimize_full(cfg)
        # the certificate reads the b = 1 search; nothing is searched twice
        assert best.fixed_one_bit and searched == [1]
        grid = np.logspace(math.log10(1.5 / cfg.C_f), 0, 60)
        for b in range(1, 13):
            for s in grid:
                m = max(1, int(round(1.0 / s)))
                d = DesignPoint(B_w=cfg.C_f / (m * b), M=m, b=b)
                assert achievable_rate(cfg, d).rate_bps <= best.rate.rate_bps * (1 + 1e-9)
        assert best.best.b == 1


def small_capacity_configs():
    """Seeded configs whose every lattice design is cheap to evaluate: three
    quantizer intervals (b* >= 2 at X_int = 4) times three pilot excesses
    (the certificate never holds below 1)."""
    rng = np.random.default_rng(21)
    for x_int, theta in itertools.product((1.0, 2.5, 4.0), (0.5, 1.0, 3.0)):
        c_f = float(10.0 ** rng.uniform(1.5, math.log10(3e3)))
        yield SystemConfig.from_reference_snr(
            15.0 + 10.0 * math.log10(c_f / 500e9) + float(rng.uniform(0.0, 30.0)),
            K=int(rng.integers(1, 9)), L=int(rng.integers(1, 5)), N=400,
            theta=theta, X_int=x_int, C_f=c_f,
        )


class TestCapacityBound:
    def test_no_design_at_b_or_above_is_pruned_below_its_rate(self):
        best_bits = set()
        for cfg in small_capacity_configs():
            rates = {
                b: max(achievable_rate(cfg, DesignPoint(B_w=cfg.C_f / (m * b), M=m, b=b)).rate_bps
                       for m in range(1, math.floor(cfg.C_f / b) + 1))
                for b in range(1, 13)
                if cfg.C_f / b >= 1.0
            }
            best_bits.add(max(rates, key=rates.get))
            for b in range(2, max(rates) + 1):
                above = max(rate for k, rate in rates.items() if k >= b)
                # a design at rate `above` beats anything below it
                assert not unquantized_bound_below(cfg, b, math.nextafter(above, 0.0)), (cfg, b)
        assert max(best_bits) >= 2  # the grid holds optima above one bit

    @pytest.mark.parametrize("x_int, theta", [(1.0, 1.0), (4.0, 1.0), (4.0, 0.5)])
    def test_paper_scale_designs_at_b_and_above(self, base_config, x_int, theta):
        cfg = base_config.replace(X_int=x_int, theta=theta)
        m_grid = sorted({max(1, round(1.0 / s)) for s in np.logspace(-8.0, 0.0, 120)})
        for b in range(2, 13):
            above = max(
                achievable_rate(cfg, DesignPoint(B_w=cfg.C_f / (m * k), M=m, b=k)).rate_bps
                for k in range(b, 13)
                for m in m_grid
            )
            assert not unquantized_bound_below(cfg, b, math.nextafter(above, 0.0)), b

    def test_tight_at_the_unquantized_maximum(self):
        # G(C_f/b) from the one-bit search of an ADC whose E underflows in 1 + E
        for cfg in small_capacity_configs():
            for b in (2, 3):
                flat = cfg.replace(C_f=cfg.C_f / b, X_int=1e-30)
                g = rate_of_s(flat, maximize_over_s(flat, 1), 1)
                assert unquantized_bound_below(cfg, b, g * (1.0 + 1e-4)), (cfg, b)
                assert not unquantized_bound_below(cfg, b, g * (1.0 - 1e-9)), (cfg, b)

    def test_search_equals_every_resolution_search(self):
        # a third of the configs at extremes, where formulas leave the float
        # range and both searches must fail alike
        def outcome(search, cfg):
            try:
                res = search(cfg)
            except (ValueError, ArithmeticError) as exc:
                return type(exc).__name__
            if isinstance(res, tuple):
                return repr(res)
            return repr((res.best, res.rate, res.relaxed_s, res.relaxed_rate_bps,
                         res.fixed_one_bit))

        rng = np.random.default_rng(2117)
        kinds = collections.Counter()
        for i in range(150):
            snr, log_cf, log_x = (
                (rng.uniform(-300.0, 300.0), rng.uniform(-1.0, 300.0), rng.uniform(-30.0, 30.0))
                if i % 3 == 0
                else (rng.uniform(-20.0, 50.0), rng.uniform(3.0, 14.0), rng.uniform(-0.5, 0.7))
            )
            cfg = SystemConfig.from_reference_snr(
                float(snr), C_f=float(10.0 ** log_cf), X_int=float(10.0 ** log_x),
                K=int(rng.integers(1, 21)), L=int(rng.integers(1, 11)),
                N=int(rng.integers(500, 5001)), theta=float(rng.uniform(0.3, 2.0)),
            )
            expected = outcome(optimize_every_resolution, cfg)
            assert outcome(optimize_full, cfg) == expected, cfg
            kinds[expected.startswith("(")] += 1
        assert min(kinds.values()) >= 10  # both results and errors are compared


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

    def test_matches_exhaustive_lattice(self):
        # every (M, b) the fronthaul carries, on small capacities where the
        # scan is cheap; the SNR tracks C_f so that about half the optima
        # are interior, and the rest sit at M = 1 or at the cap
        rng = np.random.default_rng(2024)
        for _ in range(40):
            c_f = float(10.0 ** rng.uniform(1.0, math.log10(3e3)))
            cfg = SystemConfig.from_reference_snr(
                15.0 + 10.0 * math.log10(c_f / 500e9) + float(rng.uniform(-10.0, 40.0)),
                K=int(rng.integers(1, 9)),
                L=int(rng.integers(1, 5)),
                N=int(rng.integers(150, 400)),
                theta=float(rng.uniform(0.5, 4.0)),
                X_int=float(rng.uniform(0.5, 5.0)),
                C_f=c_f,
            )
            lattice = min(
                (-achievable_rate(cfg, DesignPoint(B_w=c_f / (m * b), M=m, b=b)).rate_bps, b, m)
                for b in range(1, 13)
                for m in range(1, math.floor(c_f / b) + 1)
            )
            res = optimize_full(cfg)
            assert (-res.rate.rate_bps, res.best.b, res.best.M) == lattice, cfg

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

    def test_trace_and_relaxed_reported(self, base_config, searched):
        res = optimize_full(base_config)
        assert res.trace_points == 2 * len(searched)  # floor and ceil of 1/s* at each b
        assert 1.0 / base_config.C_f < res.relaxed_s <= 1.0
        assert res.relaxed_rate_bps >= res.rate.rate_bps * (1 - 1e-6)

    def test_one_checked_design_per_search(self, monkeypatch):
        # the candidates are plain Designs, valid by construction; only the
        # best one a search returns is built as a checked DesignPoint
        built = []
        new = DesignPoint.__new__
        monkeypatch.setattr(DesignPoint, "__new__",
                            lambda cls, *args, **kwargs: built.append(args or kwargs)
                            or new(cls, *args, **kwargs))
        for snr, c_f, theta, x_int in itertools.product(
            (0.0, 15.0, 30.0), (50e9, 500e9), (1.0, 2.0, 4.0, 8.0), (1.0, 2.5, 4.0)
        ):
            cfg = SystemConfig.from_reference_snr(
                snr, K=20, L=10, N=2000, C_f=c_f, theta=theta, X_int=x_int
            )
            before = len(built)
            res = optimize_full(cfg)
            assert len(built) == before + 1 and type(res.best) is DesignPoint
            assert built[-1] == tuple(res.best)
        assert len(built) == 72


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
