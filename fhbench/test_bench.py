"""Tests of the benchmark's oracle and checks.

    python3 -m pytest fhbench/test_bench.py -q

The oracle is compared with the package here, and only here: the
benchmark's checks trust it because these tests pass.
"""

import json
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from fronthaul_mimo import DesignPoint, SystemConfig, achievable_rate, threshold_f  # noqa: E402


def _config(sc: oracle.Scenario) -> SystemConfig:
    return SystemConfig.from_reference_snr(
        sc.snr_db, K=sc.K, N=sc.N, L=sc.L, theta=sc.theta, X_int=sc.X_int, C_f=sc.C_f
    )


def test_rate_agrees_with_linkrate_at_random_feasible_points():
    rng = random.Random(20171)
    for _ in range(500):
        sc = oracle.Scenario(
            K=rng.randint(1, 40), N=rng.choice((256, 2000, 4000)), L=rng.randint(1, 12),
            theta=rng.uniform(1.0, 4.0), snr_db=rng.uniform(-10.0, 35.0),
            X_int=rng.uniform(0.5, 4.0), C_f=10.0 ** rng.uniform(9.0, 12.0),
        )
        if sc.n_pilot >= sc.N:
            continue
        b = rng.randint(1, 12)
        m = rng.randint(1, 5000)
        b_w = sc.C_f / (m * b) * rng.uniform(0.01, 1.0)  # on or inside the cap
        ref = oracle.rate(sc, b_w, m, b)
        got = achievable_rate(_config(sc), DesignPoint(B_w=b_w, M=m, b=b))
        assert got.c == pytest.approx(ref.c, rel=1e-12)
        assert got.gamma == pytest.approx(ref.gamma, rel=1e-12)
        assert got.rate_bps == pytest.approx(ref.rate_bps, rel=1e-12)


def test_threshold_agrees_with_optimizer():
    for b in range(1, 13):
        for x_int in (0.5, 1.0, 2.5, 4.0):
            assert threshold_f(b, x_int) == pytest.approx(oracle.threshold_f(b, x_int), rel=1e-12)


@pytest.mark.parametrize(
    "sc",
    [
        oracle.Scenario(snr_db=-40.0, C_f=2e4),
        oracle.Scenario(snr_db=-40.0, C_f=2e4, X_int=4.0),
        oracle.Scenario(snr_db=-45.0, C_f=1.5e4, theta=4.0, X_int=2.5),
        oracle.Scenario(K=4, L=4, N=256, snr_db=-30.0, C_f=2e4, X_int=4.0),
        oracle.Scenario(snr_db=-20.0, C_f=5e3),
    ],
)
def test_lattice_search_matches_exhaustive_search(sc):
    fast = oracle.lattice_optimum(sc)
    full = oracle.exhaustive_optimum(sc)
    assert (fast.M, fast.b) == (full.M, full.b)
    assert fast.rate_bps == full.rate_bps


def test_exhaustive_cases_have_interior_optima():
    """At least one small case peaks away from the lattice ends and above b=1."""
    sc = oracle.Scenario(snr_db=-40.0, C_f=2e4, X_int=4.0)
    full = oracle.exhaustive_optimum(sc)
    assert full.b > 1 and 1 < full.M < sc.C_f / full.b


def _report(design: oracle.Design, sc: oracle.Scenario) -> str:
    r = oracle.rate(sc, design.B_w, design.M, design.b)
    return json.dumps({
        "best": {"B_w_hz": design.B_w, "M": design.M, "b": design.b},
        "rate_bps": r.rate_bps, "c": r.c, "gamma": r.gamma,
    })


def test_optimize_check_passes_the_oracle_optimum_on_the_paper_grid():
    for snr, c_f, theta, x_int in workloads.PAPER_GRID:
        sc = oracle.Scenario(snr_db=snr, C_f=c_f, theta=theta, X_int=x_int)
        best = oracle.lattice_optimum(sc)
        assert workloads.check_optimize(sc, best, 0, _report(best, sc)) == []


def test_optimize_check_tells_suboptimal_from_wrong():
    sc = oracle.Scenario(snr_db=15.0, C_f=50e9, X_int=4.0)
    best = oracle.lattice_optimum(sc)
    worse = oracle.Design(B_w=sc.C_f / (159 * 2), M=159, b=2, rate_bps=0.0)
    assert [k for k, _ in workloads.check_optimize(sc, best, 0, _report(worse, sc))] == [
        workloads.SUBOPTIMAL
    ]
    over = oracle.Design(B_w=2 * best.B_w, M=best.M, b=best.b, rate_bps=0.0)
    kinds = {k for k, _ in workloads.check_optimize(sc, best, 0, _report(over, sc))}
    assert workloads.WRONG in kinds
    assert workloads.check_optimize(sc, best, 2, '{"error": "model"}')[0][0] == workloads.WRONG


def test_figure_check_accepts_the_program_and_rejects_a_changed_rate(tmp_path):
    from fronthaul_mimo import cli

    path = tmp_path / "fig5.csv"
    assert cli.main(["preset", "fig5", "--out", str(path)]) == 0
    rows = workloads.read_csv(str(path))
    assert workloads.check_figure("fig5", rows) == []
    rows[7]["rate_bps"] = repr(float(rows[7]["rate_bps"]) * (1 + 1e-7))
    assert [k for k, _ in workloads.check_figure("fig5", rows)] == [workloads.WRONG]
    assert workloads.check_figure("fig5", rows[:-1])


@pytest.fixture
def restore_package():
    """Undo a Tracer.install: put every rebound name back."""
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("fronthaul_mimo")]
    saved = [(m, dict(vars(m))) for m in modules]
    yield
    for m, names in saved:
        vars(m).update(names)


def test_tracer_catches_calls_between_modules_and_marks_absent(restore_package):
    import numpy as np
    from fronthaul_mimo import montecarlo, optimizer
    from tracing import Tracer

    tracer = Tracer("fronthaul_mimo", [
        "linkrate.achievable_rate", "sysmodel.link_budget", "montecarlo.draw_channel",
        "linkrate.no_such_function",
    ])
    tracer.install()
    optimizer.optimize_full(SystemConfig.from_reference_snr(15.0))
    assert tracer.absent == ["linkrate.no_such_function"]
    calls = tracer.calls["linkrate.achievable_rate"]
    assert calls > 0  # reached through the name optimizer.achievable_rate
    assert tracer.calls["sysmodel.link_budget"] >= 3 * calls
    assert tracer.self_s["linkrate.achievable_rate"] < tracer.total_s["linkrate.achievable_rate"]

    pdp = montecarlo.PowerDelayProfile.uniform(10)
    rng = np.random.default_rng(0)
    tracer.measure_memory(lambda: montecarlo.draw_channel(rng, 1000, 20, pdp))
    assert tracer.peak_alloc_mb("montecarlo.draw_channel") >= 1000 * 20 * 10 * 16 / 2**20
    assert tracer.calls["montecarlo.draw_channel"] == 0  # the memory pass is not counted


def test_absent_function_is_reported_as_absent():
    import run

    spec = [{"name": "linkrate.gone.calls", "unit": "count"},
            {"name": "linkrate.achievable_rate.calls", "unit": "count"}]
    trace = {"functions": {"linkrate.achievable_rate": {"calls": 3}},
             "untraced_s": 0.0, "overhead_ratio": 1.0}
    out = run._per_layer_metrics(spec, trace)
    assert out["linkrate.gone.calls"] == {"value": 0, "unit": "count", "absent": True}
    assert out["linkrate.achievable_rate.calls"] == {"value": 3, "unit": "count"}


def test_traced_functions_come_from_the_per_layer_metrics():
    import worker

    with open(os.path.join(worker.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    functions = worker.traced_functions()
    assert len(functions) == len(set(functions))
    assert set(functions) == {n.rpartition(".")[0] for n in names if not n.startswith("trace.")}


def test_a_crash_is_a_failed_operation_not_the_end_of_the_run():
    import worker

    class Cli:
        def main(self, argv):
            if argv == ["boom"]:
                raise ValueError("bad input")
            print("ok")
            return 0

    runner = worker.Runner(Cli(), None)
    runner.run_op(workloads.Op([["fine"], ["boom"]], 1, lambda res: []))
    runner.run_op(workloads.Op([["fine"]], 1, lambda res: [] if res == [(0, "ok\n")] else 1 / 0))
    runner.run_op(workloads.Op([["fine"]], 1, lambda res: 1 / 0))
    assert (runner.attempted, runner.failed) == (3, 2)
    assert runner.problems == ["['boom']: ValueError: bad input",
                               "check: ZeroDivisionError: division by zero"]


def test_each_round_records_its_time_per_operation_and_a_reference_time():
    import worker

    class Cli:
        def main(self, argv):
            return 0

    class Wl:
        def round(self):
            return [workloads.Op([["a"]], 1, lambda res: []), workloads.Op([["b"]], 1, lambda res: [])]

    class Ref:
        def time_s(self):
            return 0.5

    runner = worker.Runner(Cli(), Wl(), Ref())
    assert runner.run_rounds(0.0) == 1
    assert runner.attempted == 2 and runner.reference_s == [0.5]
    assert runner.round_op_s == [pytest.approx(sum(runner.op_s) / 2)]
    assert worker.Reference().time_s() > 0
