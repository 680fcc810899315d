import dataclasses
import math

import numpy as np
import pytest

from fronthaul_mimo.cli import KNOWN_KEYS
from fronthaul_mimo.errors import ConfigValueError, PilotOverheadError
from fronthaul_mimo.sysmodel import (
    Design,
    DesignPoint,
    SystemConfig,
    link_budget,
    quantization_distortion_variance,
    quantizer_step,
    reference_snr_from_power,
    reference_snr_to_power,
)


class TestQuantizationDistortion:
    def test_one_bit_unit_interval(self):
        assert quantization_distortion_variance(1, 1.0) == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_four_bits(self):
        e4 = quantization_distortion_variance(4, 1.0)
        assert e4 == pytest.approx((1.0 / 3.0) * 2.0**-8, rel=1e-15)
        assert e4 == quantization_distortion_variance(3, 1.0) / 4.0

    def test_sqrt3_interval(self):
        assert quantization_distortion_variance(1, math.sqrt(3.0)) == pytest.approx(0.25, rel=1e-15)

    def test_quarter_per_bit_exact(self):
        for x_int in (0.5, 1.0, 2.5, 7.0):
            for b in range(1, 20):
                e_b = quantization_distortion_variance(b, x_int)
                e_next = quantization_distortion_variance(b + 1, x_int)
                assert e_next == e_b / 4.0  # exact, powers of two

    def test_strictly_decreasing_in_bits(self):
        values = [quantization_distortion_variance(b, 1.3) for b in range(1, 16)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_bad_inputs(self):
        # memoized per (b, X_int): invalid input raises on every call, before
        # and after valid calls, and the memo cannot grow without limit
        assert quantization_distortion_variance.cache_info().maxsize is not None
        for _ in range(2):
            assert quantization_distortion_variance(2, 1.0) == 1.0 / 48.0
            for b, x_int in ((0, 1.0), (1.5, 1.0), (2, 0.0), (2, -1.0)):
                with pytest.raises(ConfigValueError):
                    quantization_distortion_variance(b, x_int)
                with pytest.raises(ConfigValueError):
                    quantizer_step(b, x_int)

    def test_step_defines_distortion(self):
        # E = step^2/12 = 4*E(b+1) = X_int^2*4^-b/3, bitwise wherever E is a
        # normal float.  The square is a product: ** goes through the C
        # library's pow, which is not correctly rounded on every platform.
        for b in range(1, 31):
            for decade in range(-100, 101):
                for mantissa in (1.0, 1.7, 3.3, 7.9):
                    x_int = mantissa * 10.0**decade
                    step = quantizer_step(b, x_int)
                    assert step == 2.0 * x_int / 2.0**b
                    e = quantization_distortion_variance(b, x_int)
                    assert e == step * step / 12.0 == (x_int * x_int) * 4.0**-b / 3.0
                    assert e == 4.0 * quantization_distortion_variance(b + 1, x_int)


class TestSystemConfig:
    def test_pilot_rounding(self):
        cfg = SystemConfig(K=4, L=5, theta=1.5, N=200)
        assert cfg.n_pilot == 30
        assert cfg.n_data == 170

    def test_pilot_clamped_to_minimum(self):
        cfg = SystemConfig(K=4, L=5, theta=0.5, N=200)
        assert cfg.n_pilot == 20
        assert cfg.theta_eff == 1.0

    def test_pilot_overhead_rejected(self):
        with pytest.raises(PilotOverheadError):
            SystemConfig(K=20, L=10, theta=10.0, N=2000)

    def test_degenerate_users_rejected(self):
        with pytest.raises(ConfigValueError):
            SystemConfig(K=0)

    def test_positive_fields_enforced(self):
        for field, value in [("C_f", 0.0), ("P", -1.0), ("P", 0.0), ("X_int", 0.0)]:
            with pytest.raises(ConfigValueError):
                SystemConfig(**{field: value})
        for field in ("C_f", "theta", "P", "X_int"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigValueError, match="finite"):
                    SystemConfig(**{field: value})
        with pytest.raises(ConfigValueError, match="finite"):
            SystemConfig.from_reference_snr(math.nan)


class TestDerivedQuantities:
    def test_recomputed_after_replace(self):
        base = SystemConfig(K=4, L=5, theta=1.37, N=200)
        assert (base.n_pilot, base.n_data, base.theta_eff) == (27, 173, 27 / 20)
        assert base.theta_eff != base.theta  # round(27.4) = 27
        cases = [
            ({"theta": 2.0}, 40, 160, 2.0),
            ({"theta": 0.5}, 20, 180, 1.0),  # clamped to K*L
            ({"K": 6}, 41, 159, 41 / 30),  # round(41.1)
            ({"L": 3}, 16, 184, 16 / 12),  # round(16.44)
            ({"N": 300}, 27, 273, 27 / 20),
        ]
        for changes, n_pilot, n_data, theta_eff in cases:
            cfg = base.replace(**changes)
            assert (cfg.n_pilot, cfg.n_data, cfg.theta_eff) == (n_pilot, n_data, theta_eff)

    def test_not_fields_or_keys(self):
        names = {f.name for f in dataclasses.fields(SystemConfig)}
        assert names == {"K", "C_f", "N", "L", "theta", "P", "X_int"}
        for derived in ("n_pilot", "n_data", "theta_eff"):
            assert derived not in KNOWN_KEYS

    def test_equality_reads_fields_only(self):
        a = SystemConfig(K=4, L=5, theta=1.37, N=200)
        assert a == SystemConfig(K=4, L=5, theta=1.37, N=200)
        assert hash(a) == hash(SystemConfig(K=4, L=5, theta=1.37, N=200))
        b = a.replace(theta=1.36)  # round(27.2): the same derived quantities
        assert (b.n_pilot, b.n_data, b.theta_eff) == (a.n_pilot, a.n_data, a.theta_eff)
        assert a != b
        assert a != a.replace(P=2.0 * a.P)


class TestReferenceSnr:
    def test_zero_db(self):
        assert reference_snr_to_power(0.0) == 1e6

    def test_round_trip(self, base_config):
        for db in (-10.0, 0.0, 7.3, 15.0, 30.0):
            cfg = base_config.replace(P=reference_snr_to_power(db))
            assert reference_snr_from_power(cfg) == pytest.approx(db, abs=1e-12)
        for db in (0.0, 15.0, 30.0):  # the paper's three values print exactly
            cfg = base_config.replace(P=reference_snr_to_power(db))
            assert reference_snr_from_power(cfg) == db

    def test_fifteen_db(self, base_config):
        cfg = SystemConfig.from_reference_snr(15.0)
        # oracle: 10**1.5 * 1e6
        assert cfg.P == pytest.approx(31.6228e6, rel=1e-4)

    def test_default_is_fifteen_db(self):
        assert SystemConfig() == SystemConfig.from_reference_snr(15.0)
        assert SystemConfig(K=4, L=2) == SystemConfig.from_reference_snr(15.0, K=4, L=2)


class TestLinkBudget:
    def test_received_power_identity(self, base_config):
        rng = np.random.default_rng(1)
        for _ in range(200):
            b_w = 10.0 ** rng.uniform(6, 10)
            b = int(rng.integers(1, 13))
            budget = link_budget(base_config, b_w, b)
            assert budget.P_rx - (budget.I_total + 1.0) == 0.0
            assert budget.mu * budget.P_rx == pytest.approx(1.0, rel=1e-15)

    def test_noise_free_limit(self):
        cfg = SystemConfig(K=10, P=1e30)
        budget = link_budget(cfg, 1e6, 2)
        assert budget.mu == pytest.approx(1e6 / (10 * 1e30), rel=1e-12)

    def test_reference_scenario_interference(self):
        # K=20, 15 dB reference, B_w = 200 MHz: I = 20 * 31.623e6 / 2e8
        cfg = SystemConfig.from_reference_snr(15.0, K=20)
        budget = link_budget(cfg, 2e8, 1)
        assert budget.I_total == pytest.approx(3.16228, rel=1e-4)

    def test_design_point_load(self):
        d = DesignPoint(B_w=2e8, M=2500, b=1)
        assert d.fronthaul_load == pytest.approx(5e11, rel=1e-15)
        assert d.is_feasible(5e11)
        assert not d.is_feasible(4.9e11)
        for field in ("B_w", "M", "b"):
            for value in (math.nan, math.inf):
                with pytest.raises(ConfigValueError, match=f"{field} must be"):
                    DesignPoint(**{"B_w": 2e8, "M": 2500, "b": 1, field: value})


def _bad_designs(field, rule, values):
    """(field, value), message: a finite value is echoed, a non-finite one
    named only."""
    return [((field, v), f"{rule}, got {field}={v}" if math.isfinite(v) else rule)
            for v in (math.nan, math.inf, -math.inf, *values)]


# every input a design point refused as a frozen dataclass
_BAD_DESIGNS = [
    *_bad_designs("B_w", "B_w must be positive and finite", (0.0, -2e8)),
    *_bad_designs("M", "M must be a positive integer", (0, -64, 0.5, 64.5)),
    *_bad_designs("b", "b must be a positive integer", (0, -1, 1.5)),
]


class TestDesign:
    def test_design_point_is_a_checked_design(self):
        d = DesignPoint(B_w=2e8, M=64.0, b=2.0)
        assert isinstance(d, Design) and d == Design(2e8, 64, 2)
        assert (type(d.M), type(d.b)) == (int, int)  # integral floats, as ints
        for copy in (d._replace(M=32.0), DesignPoint._make((2e8, 32.0, 2.0))):
            assert type(copy) is DesignPoint and copy == (2e8, 32, 2)
            assert (type(copy.M), type(copy.b)) == (int, int)

    def test_design_holds_arrays(self):
        # a plain Design is unchecked: a constraint curve's arrays at one b
        d = Design(B_w=np.array([1e8, 2e8]), M=np.array([10, 20]), b=2)
        assert d.fronthaul_load.tolist() == [2e9, 8e9]
        assert d.is_feasible(2e9).tolist() == [True, False]

    @pytest.mark.parametrize("change, message", _BAD_DESIGNS)
    def test_every_constructor_checks(self, change, message):
        field, value = change
        good = {"B_w": 2e8, "M": 64, "b": 1}
        bad = {**good, field: value}
        for build in (lambda: DesignPoint(**bad),
                      lambda: DesignPoint._make(bad.values()),
                      lambda: DesignPoint(**good)._replace(**{field: value})):
            with pytest.raises(ConfigValueError) as info:
                build()
            assert str(info.value) == message
