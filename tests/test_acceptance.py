"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The interior-optimum bracket criterion is asserted twice: once literally
(known unattainable: on the constraint curve M*B_w = C_f, a 500 Gbit/s
fronthaul makes the two stated brackets mutually exclusive, so the test is
an expected failure), and once at the 50 Gbit/s capacity that the brackets
and the caption product M* x B_w* actually correspond to.
"""

import math
import time

import numpy as np
import pytest

from fronthaul_mimo.cli import main
from fronthaul_mimo.linkrate import achievable_rate
from fronthaul_mimo.montecarlo import empirical_rate
from fronthaul_mimo.optimizer import (
    constraint_curve,
    maximize_over_s,
    optimize_full,
    rate_of_s,
    rate_of_s_derivative,
    threshold_f,
)
from fronthaul_mimo.sysmodel import DesignPoint, SystemConfig

from conftest import threshold_f_alt


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def test_one_bit_argmax_across_constraint_grid():
    """b=1 maximizes the rate at every point of the constraint-curve grid."""
    start = time.time()
    bandwidths = np.logspace(math.log10(10e6), math.log10(2e9), 20)
    failures = 0
    points = 0
    for theta in (1.0, 2.0):
        for snr_db in (0.0, 15.0, 30.0):
            cfg = SystemConfig.from_reference_snr(
                snr_db, K=20, C_f=500e9, theta=theta, N=2000, L=10
            )
            for b_w in bandwidths:
                rates = {}
                for b in range(1, 13):
                    m = int(cfg.C_f // (b_w * b))
                    if m < 1:
                        continue
                    rates[b] = achievable_rate(
                        cfg, DesignPoint(B_w=float(b_w), M=m, b=b)
                    ).rate_bps
                points += 1
                if max(rates, key=rates.get) != 1:
                    failures += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 5.0
    report(
        "one-bit-argmax-grid",
        ok,
        f"({points} grid points, {failures} violations, {elapsed:.2f}s)",
    )
    assert failures == 0
    assert elapsed < 5.0


def test_threshold_function_values():
    """f(1) > 1 and f(b) < 1 for b in 2..12 at unit interval; two algebraic
    forms agree to 1e-12."""
    ok = threshold_f(1, 1.0) > 1.0
    for b in range(2, 13):
        ok = ok and threshold_f(b, 1.0) < 1.0
    worst = max(
        abs(threshold_f(b, 1.0) - threshold_f_alt(b, 1.0)) / abs(threshold_f(b, 1.0))
        for b in range(1, 13)
    )
    ok = ok and worst < 1e-12
    report("bandwidth-threshold", ok, f"(f(1)={threshold_f(1):.4f}, form gap {worst:.1e})")
    assert threshold_f(1, 1.0) > 1.0
    for b in range(2, 13):
        assert threshold_f(b, 1.0) < 1.0
    assert worst < 1e-12


def test_constraint_curve_unimodal_and_concave_ascent():
    """What the concave search actually relies on, and what the rate curve
    actually satisfies: a single derivative sign change over the whole
    domain, and non-positive second differences on a 1000-point grid through
    the ascent up to the maximizer."""
    start = time.time()
    worst = -math.inf
    for b in (1, 2, 3, 4):
        for theta in (1.0, 2.0, 4.0):
            cfg = SystemConfig.from_reference_snr(15.0, K=20, C_f=500e9, theta=theta)
            curve = constraint_curve(cfg, b)
            signs = np.sign([rate_of_s_derivative(curve, s) for s in np.logspace(-9, 0, 500)])
            assert int(np.count_nonzero(np.diff(signs))) == 1
            s_star = maximize_over_s(cfg, b)
            grid = np.linspace(s_star * 1e-3, s_star, 1000)
            r = np.array([rate_of_s(cfg, s, b) for s in grid.tolist()])
            worst = max(worst, float(np.diff(r, 2).max() / np.abs(r).max()))
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    report(
        "rate-unimodal-concave-ascent",
        ok,
        f"(worst scaled second diff {worst:.2e}, {elapsed:.2f}s)",
    )
    assert worst <= 1e-9
    assert elapsed < 1.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="unattainable as stated: past its maximum the constraint-curve "
    "rate decays like 1/B_w^2, which is convex, so second differences "
    "on a full-domain grid are positive in the tail (verified symbolically); "
    "the curve is concave through the ascent and unimodal everywhere, which "
    "is what the derivative-sign bisection needs (see the companion test).",
)
def test_constraint_curve_rate_concavity_literal():
    """Literal criterion: second differences non-positive on a 1000-point
    uniform grid over the whole s domain."""
    grid = np.linspace(1e-3, 1.0, 1000)
    worst = -math.inf
    for b in (1, 2, 3, 4):
        for theta in (1.0, 2.0, 4.0):
            cfg = SystemConfig.from_reference_snr(15.0, K=20, C_f=500e9, theta=theta)
            r = np.array([rate_of_s(cfg, s, b) for s in grid.tolist()])
            worst = max(worst, float(np.diff(r, 2).max() / np.abs(r).max()))
    report(
        "rate-concavity(global,literal)",
        worst <= 1e-9,
        f"(worst scaled second diff {worst:.2e}; positive in the decay tail)",
    )
    assert worst <= 1e-9


def test_derivative_matches_finite_differences():
    """Closed-form dR/ds within 1e-6 relative of central differences at 100
    random interior points."""
    cfg = SystemConfig.from_reference_snr(15.0, K=20, C_f=500e9)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        s = 10.0 ** float(rng.uniform(-8.5, -0.05))
        b = int(rng.integers(1, 5))
        h = s * 1e-6
        fd = (rate_of_s(cfg, s + h, b) - rate_of_s(cfg, s - h, b)) / (2.0 * h)
        an = rate_of_s_derivative(constraint_curve(cfg, b), s)
        worst = max(worst, abs(an - fd) / max(abs(an), abs(fd)))
    ok = worst < 1e-6
    report("derivative-check", ok, f"(worst rel err {worst:.2e})")
    assert worst < 1e-6


def test_simulator_matches_closed_form():
    """Surrogate-noise mode within 3% and true-quantizer mode within 10% of
    the closed form at (M, K, L) = (64, 4, 4), b in {1, 2, 3}, 500 trials.

    Scenario: 15 dB reference SNR, 200 MHz, X_int = 2.5 (a practical
    converter loading; both sides of the comparison use the same value).
    """
    start = time.time()
    cfg = SystemConfig.from_reference_snr(
        15.0, K=4, L=4, N=256, theta=1.0, X_int=2.5, C_f=500e9
    )
    ok = True
    lines = []
    for b in (1, 2, 3):
        design = DesignPoint(B_w=200e6, M=64, b=b)
        closed = achievable_rate(cfg, design).rate_bps
        [pqn] = empirical_rate(cfg, [design], trials=500, seed=7, modes=["pqn"])
        [uni] = empirical_rate(cfg, [design], trials=500, seed=7, modes=["uniform"])
        err_p = abs(pqn.rate_bps - closed) / closed
        err_u = abs(uni.rate_bps - closed) / closed
        lines.append(f"b={b}: pqn {err_p * 100:.2f}%, uniform {err_u * 100:.2f}%")
        ok = ok and err_p < 0.03 and err_u < 0.10
        assert err_p < 0.03, f"surrogate mode off by {err_p:.3%} at b={b}"
        assert err_u < 0.10, f"true quantizer off by {err_u:.3%} at b={b}"
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    report("simulator-agreement", ok, f"({'; '.join(lines)}; {elapsed:.0f}s)")
    assert elapsed < 120.0


def _one_bit_interior_optimum(cfg: SystemConfig):
    """Integer (M*, B_w*) on the one-bit constraint curve, plus a uniqueness
    check for the interior maximum."""
    grid = np.logspace(math.log10(1.5 / cfg.C_f), 0, 3000)
    curve = constraint_curve(cfg, 1)
    signs = np.sign([rate_of_s_derivative(curve, s) for s in grid])
    sign_changes = int(np.count_nonzero(np.diff(signs)))
    s_star = maximize_over_s(cfg, 1)
    interior = 1.0 / cfg.C_f < s_star < 1.0
    m_bar = int(1.0 / s_star)
    best = None
    for m in range(max(1, m_bar - 2), m_bar + 3):
        d = DesignPoint(B_w=cfg.C_f / m, M=m, b=1)
        r = achievable_rate(cfg, d).rate_bps
        if best is None or r > best[0]:
            best = (r, d)
    return best[1], sign_changes == 1 and interior


def test_interior_optimum_brackets_consistent_capacity():
    """At the capacity the brackets describe (50 Gbit/s; their product
    identity M*B_w = C_f only holds there), the documented calibration
    N=2000, L=10, theta=1, X_int=4 lands the one-bit optimum inside
    M* in [200, 600] and B_w* in [80, 250] MHz."""
    cfg = SystemConfig.from_reference_snr(
        15.0, K=20, C_f=50e9, N=2000, L=10, theta=1.0, X_int=4.0
    )
    best, unique = _one_bit_interior_optimum(cfg)
    ok = unique and 200 <= best.M <= 600 and 80e6 <= best.B_w <= 250e6
    report(
        "interior-optimum-brackets(50G)",
        ok,
        f"(M*={best.M}, B_w*={best.B_w / 1e6:.0f} MHz, unique={unique})",
    )
    assert unique
    assert 200 <= best.M <= 600
    assert 80e6 <= best.B_w <= 250e6


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="unattainable as stated: with M*B_w = C_f = 500 Gbit/s binding, "
    "M in [200, 600] forces B_w in [0.83, 2.5] GHz, disjoint from the "
    "[80, 250] MHz bracket; the brackets are mutually consistent only at "
    "C_f = 50 Gbit/s (see the companion test).",
)
def test_interior_optimum_brackets_literal():
    """Literal criterion: 500 Gbit/s fronthaul, both brackets."""
    cfg = SystemConfig.from_reference_snr(
        15.0, K=20, C_f=500e9, N=2000, L=10, theta=1.0, X_int=1.0
    )
    best, unique = _one_bit_interior_optimum(cfg)
    report(
        "interior-optimum-brackets(500G,literal)",
        unique and 200 <= best.M <= 600 and 80e6 <= best.B_w <= 250e6,
        f"(M*={best.M}, B_w*={best.B_w / 1e6:.0f} MHz, unique={unique}; "
        "brackets are mutually exclusive on this constraint curve)",
    )
    assert unique  # the interior maximum itself is real and unique
    assert 200 <= best.M <= 600
    assert 80e6 <= best.B_w <= 250e6


def test_pilot_excess_trend():
    """Optimal s* non-decreasing in theta, and the rate gain from theta 1->2
    exceeds the gain from 2->4."""
    stars, rates = [], []
    for theta in (1.0, 2.0, 4.0, 8.0):
        cfg = SystemConfig.from_reference_snr(
            15.0, K=20, C_f=500e9, N=2000, L=10, theta=theta
        )
        res = optimize_full(cfg)
        stars.append(res.relaxed_s)
        rates.append(res.rate.rate_bps)
    monotone = all(a <= b for a, b in zip(stars, stars[1:]))
    gain_12 = rates[1] - rates[0]
    gain_24 = rates[2] - rates[1]
    ok = monotone and gain_12 > gain_24
    report(
        "pilot-excess-trend",
        ok,
        f"(s*: {', '.join(f'{s:.3e}' for s in stars)}; gains {gain_12:.3e} vs {gain_24:.3e})",
    )
    assert monotone
    assert gain_12 > gain_24


DETERMINISM_CONFIG = """
K = 2
L = 2
N = 128
C_f = 1e9
X_int = 2.5
B_w = 1e7
sweep_axis = b
sweep_values = 1,2,3,4
bind = antennas
trials = 8
seed = 11
mc_mode = uniform
"""


def test_cli_determinism(tmp_path):
    """Identical CLI invocations produce byte-identical CSV at any thread count."""
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(DETERMINISM_CONFIG, encoding="utf-8")
    outputs = []
    for threads, name in ((1, "a.csv"), (4, "b.csv"), (1, "c.csv")):
        out = tmp_path / name
        code = main(
            ["sweep", "--config", str(cfg_path), "--out", str(out), "--threads", str(threads)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report("cli-determinism", ok, f"({len(outputs[0])} bytes)")
    assert ok
