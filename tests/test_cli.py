import collections
import csv
import dataclasses
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fronthaul_mimo
from fronthaul_mimo.cli import (
    CSV_COLUMNS,
    KNOWN_KEYS,
    PRESETS,
    SweepRun,
    SweepSpec,
    effective_config_text,
    main,
    parse_config_text,
    run_preset,
    run_sweep,
    rows_to_csv,
)
from fronthaul_mimo.errors import ConfigSyntaxError, ConfigValueError, SweepPointError
from fronthaul_mimo.linkrate import achievable_rate
from fronthaul_mimo import montecarlo
from fronthaul_mimo.montecarlo import empirical_rate
from fronthaul_mimo.optimizer import S_TOLERANCE
from fronthaul_mimo.sysmodel import DesignPoint, SystemConfig, reference_snr_from_power

from conftest import (
    preset_rows_point_by_point,
    reference_csv,
    rows_of,
    sweep_rows_point_by_point,
)


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def strict_json(text):
    """Parse one JSON document, refusing the NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def number(cell):
    """A CSV cell as a float; 0.0 for a text or empty cell."""
    try:
        return float(cell)
    except ValueError:
        return 0.0


def assert_model_error(code, out):
    assert code == 2
    assert out.count("\n") == 1
    assert strict_json(out)["error"] == "model"


# every (sweep axis, bind mode) pair a sweep accepts
AXIS_BINDS = [
    ("b", "none"), ("b", "antennas"), ("b", "bandwidth"),
    ("B_w", "none"), ("B_w", "antennas"),
    ("M", "none"), ("M", "bandwidth"),
    ("s", "none"),
    ("theta", "none"), ("theta", "antennas"), ("theta", "bandwidth"),
    ("snr_db", "none"), ("snr_db", "antennas"), ("snr_db", "bandwidth"),
]


def random_sweep(rng, axis, bind):
    """A random config and a sweep along axis under bind, at most 30 points,
    every design in the model's range."""
    c_f = 10 ** rng.uniform(10, 12)
    config = SystemConfig.from_reference_snr(
        rng.uniform(-10.0, 40.0), K=rng.randint(1, 30), C_f=c_f, N=4000,
        theta=rng.choice((0.5, 1.0, 1.3, 2.0, 4.0)), X_int=rng.choice((1.0, 2.5, 4.0)),
    )
    n, b = rng.randint(2, 30), rng.randint(1, 12)
    grid = {
        "b": lambda: rng.sample(range(1, 13), min(n, 12)),
        "B_w": lambda: [10 ** rng.uniform(5, 8.5) for _ in range(n)],
        "M": lambda: rng.sample(range(1, 5000), n),
        "s": lambda: [10 ** rng.uniform(math.log10(b / c_f), 0) for _ in range(n)],
        "theta": lambda: [rng.uniform(0.5, 6.0) for _ in range(n)],
        "snr_db": lambda: [rng.uniform(-20.0, 50.0) for _ in range(n)],
    }[axis]
    fields = dict(axis=axis, values=tuple(sorted(set(map(float, grid())))), bind=bind)
    if axis != "b":
        fields["b"] = b
    if axis not in ("B_w", "s") and bind != "bandwidth":
        fields["B_w"] = 10 ** rng.uniform(6, 8.5)
    if axis not in ("M", "s") and bind != "antennas":
        fields["M"] = rng.randint(1, 2000)
    return config, SweepSpec(**fields)


def outcome(sweep):
    """A sweep's rows, every cell as its type and repr (equal means equal bit
    for bit), or the message of the SweepPointError it raises."""
    try:
        rows = sweep()
    except SweepPointError as exc:
        return str(exc)
    return [{key: (type(value), repr(value)) for key, value in row.items()} for row in rows]


def csv_outcome(config, spec, threads=1):
    """The CSV text of a sweep and of its point-by-point reference, or the
    message of the SweepPointError each raises."""
    def text(write):
        try:
            return write()
        except SweepPointError as exc:
            return str(exc)

    return (text(lambda: rows_to_csv(run_sweep(config, spec, threads=threads))),
            text(lambda: reference_csv(sweep_rows_point_by_point(config, spec))))


class TestParseConfig:
    def test_empty_gives_defaults(self):
        config, spec = parse_config_text("")
        assert config.K == 20
        assert config.C_f == 500e9
        assert reference_snr_from_power(config) == pytest.approx(15.0, abs=1e-9)
        assert spec.axis is None

    def test_negative_users_rejected_with_key_and_line(self):
        with pytest.raises(ConfigValueError, match=r"'K'.*line 2"):
            parse_config_text("# comment\nK = -1\n")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigSyntaxError, match=r"'bandwidth'.*line 1"):
            parse_config_text("bandwidth = 1e8\n")

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigSyntaxError, match=r"'K'.*line 1"):
            parse_config_text("K = twenty\n")

    def test_pilot_rounding_applied(self):
        config, _ = parse_config_text("K = 4\nL = 5\ntheta = 1.5\nN = 200\n")
        assert config.n_pilot == 30

    def test_power_keys_exclusive(self, tmp_path, capsys):
        with pytest.raises(ConfigValueError, match="mutually exclusive"):
            parse_config_text("P = 1e6\ngamma_ref_db = 10\n")
        cfg = write_config(tmp_path, "gamma_ref_db = 0\nP = 1e6\n")
        for argv in (["optimize"], ["rate", "--bw", "2e8", "--m", "64"]):
            code = main([*argv, "--config", cfg])
            out = capsys.readouterr().out
            assert_model_error(code, out)
            assert "mutually exclusive (lines 2 and 1)" in strict_json(out)["detail"]

    def test_removed_link_keys_unknown(self, tmp_path, capsys):
        # the link is set by P (or gamma_ref_db) alone
        for key in ("N_0", "P_max", "cell_radius_km", "pathloss_intercept_db",
                    "pathloss_slope"):
            cfg = write_config(tmp_path, f"K = 20\n{key} = 1.0\n")
            assert main(["optimize", "--config", cfg]) == 1
            out = capsys.readouterr().out
            assert strict_json(out)["error"] == "config"
            assert f"unknown key '{key}' (line 2)" in strict_json(out)["detail"]

    def test_readme_key_table_lists_known_keys(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        lines = Path(readme).read_text(encoding="utf-8").splitlines()
        start = lines.index("| key | default | meaning |") + 2
        keys = set()
        for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
            keys.update(name.strip("` ") for name in line.split("|")[1].split(","))
        assert keys == KNOWN_KEYS

    def test_swept_axis_cannot_be_fixed(self):
        with pytest.raises(ConfigValueError, match="must not also be fixed"):
            parse_config_text("sweep_axis = b\nsweep_values = 1,2\nb = 1\nB_w = 1e8\nM = 10\n")

    def test_grid_must_increase(self):
        with pytest.raises(ConfigValueError, match="strictly increasing"):
            parse_config_text("sweep_axis = b\nsweep_values = 2,1\nB_w = 1e8\nM = 10\n")

class TestSweep:
    def test_constraint_rebinding_antennas(self):
        config, _ = parse_config_text("")
        spec = SweepSpec(axis="b", values=(1.0, 2.0, 4.0), bind="antennas", B_w=2e8)
        rows = rows_of(run_sweep(config, spec))
        for row in rows:
            assert row["M"] == math.floor(config.C_f / (2e8 * row["b"]))
            assert row["B_w_hz"] * row["M"] * row["b"] <= config.C_f * (1 + 1e-9)

    def test_rows_carry_conditions_and_threshold(self):
        config, _ = parse_config_text("")
        spec = SweepSpec(axis="b", values=(1.0, 2.0), bind="antennas", B_w=2e8)
        rows = rows_of(run_sweep(config, spec))
        assert rows[0]["f_b"] > 1.0 > rows[1]["f_b"]
        for row in rows:
            assert row["bandwidth_cond"] in (True, False)

    def test_csv_cells(self):
        # None is empty, a bool 1 or 0, anything else its str: an int as
        # digits, a float as its shortest round-trip repr, text as it is; a
        # shared value fills every row of its run, a list one cell per row
        shared = {"preset": "fig2", "axis": "s", "K": 20, "C_f_bps": 5e11, "c": 0.1,
                  "pade_cond": False, "antenna_cond": True, "mc_mode": "pqn", "trials": 3}
        grid = [1e-4, 0.5]
        per_row = {"axis_value": grid, "s": grid, "M": [10000, 2], "gamma": [1e-300, 2.0],
                   "rate_bps": [123456789.125, 1.5], "bandwidth_cond": [True, False],
                   "mc_rate_bps": [3.0, 4.0], "mc_stderr_bps": [None, 0.25]}
        run = SweepRun(2, dict.fromkeys(CSV_COLUMNS) | shared | per_row)
        # a one-row run, every column a shared value: its second row alone
        point = SweepRun(1, run.columns | {k: v[1] for k, v in per_row.items()}
                         | {"axis": "b", "s": None})
        header, *lines = rows_to_csv([run, point]).splitlines()[1:]
        cells = [dict(zip(header.split(","), line.split(","))) for line in lines]
        common = {col: "" for col in CSV_COLUMNS} | {
            "preset": "fig2", "axis": "s", "K": "20", "C_f_bps": "500000000000.0", "c": "0.1",
            "pade_cond": "0", "antenna_cond": "1", "mc_mode": "pqn", "trials": "3",
        }
        assert cells == [
            common | {"axis_value": "0.0001", "s": "0.0001", "M": "10000", "gamma": "1e-300",
                      "rate_bps": "123456789.125", "bandwidth_cond": "1",
                      "mc_rate_bps": "3.0"},
            common | {"axis_value": "0.5", "s": "0.5", "M": "2", "gamma": "2.0",
                      "rate_bps": "1.5", "bandwidth_cond": "0", "mc_rate_bps": "4.0",
                      "mc_stderr_bps": "0.25"},
            common | {"axis": "b", "axis_value": "0.5", "M": "2", "gamma": "2.0",
                      "rate_bps": "1.5", "bandwidth_cond": "0", "mc_rate_bps": "4.0",
                      "mc_stderr_bps": "0.25"},
        ]

    def test_csv_shape(self):
        config, _ = parse_config_text("")
        spec = SweepSpec(axis="b", values=(1.0, 2.0), bind="antennas", B_w=2e8)
        text = rows_to_csv(run_sweep(config, spec))
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 4

    @pytest.mark.parametrize("text, argv", [
        ("bind = antennas\nB_w = 2e8\nM = 64\nsweep_axis = b\nsweep_values = 1,2\n", ["sweep"]),
        ("bind = antennas\nB_w = 2e8\nsweep_axis = M\nsweep_values = 16,64\n", ["sweep"]),
        ("bind = antennas\nsweep_axis = s\nsweep_values = 0.01,0.1\n", ["sweep"]),
        ("bind = bandwidth\nM = 64\nB_w = 2e8\nsweep_axis = b\nsweep_values = 1,2\n", ["sweep"]),
        ("bind = bandwidth\nM = 64\nsweep_axis = B_w\nsweep_values = 1e8,2e8\n", ["sweep"]),
        ("bind = bandwidth\nsweep_axis = s\nsweep_values = 0.01,0.1\n", ["sweep"]),
        ("bind = antennas\nB_w = 2e8\n", ["rate", "--m", "64"]),
    ], ids=["antennas-fixed-M", "antennas-swept-M", "antennas-swept-s", "bandwidth-fixed-B_w",
            "bandwidth-swept-B_w", "bandwidth-swept-s", "antennas-rate-flag-m"])
    def test_bind_conflict_exit_2(self, tmp_path, capsys, text, argv):
        # a value that bind would overwrite is refused, not ignored
        cfg = write_config(tmp_path, text)
        code = main([argv[0], "--config", cfg, *argv[1:]])
        out = capsys.readouterr().out
        assert_model_error(code, out)
        assert "must not also be fixed or swept" in strict_json(out)["detail"]

    def test_fractional_grid_value_rejected(self, tmp_path, capsys):
        # b and M are checked where the design is built, not truncated first
        for text in ("sweep_axis = b\nsweep_values = 1.5,2.5\nbind = antennas\nB_w = 2e8\n",
                     "sweep_axis = M\nsweep_values = 64.9,65.2\nB_w = 2e8\n"):
            cfg = write_config(tmp_path, text)
            code, out = main(["sweep", "--config", cfg]), capsys.readouterr().out
            assert_model_error(code, out)
            assert "grid index 0" in strict_json(out)["detail"]

    @pytest.mark.parametrize("text, threads", [
        ("sweep_axis = b\nsweep_values = 1,2\nB_w = 2e8\n", 1),
        ("sweep_axis = M\nsweep_values = 16,64\nb = 1\ntrials = 2\n", 2),
    ], ids=["point-axis", "curve-axis-monte-carlo"])
    def test_no_design_exit_1_as_in_rate(self, tmp_path, capsys, monkeypatch, text, threads):
        # no B_w or M at any point is a usage error, not a failing grid
        # point: rate's exit code and detail, and no block is simulated
        blocks = []
        monkeypatch.setattr(montecarlo, "simulate_block", lambda *args: blocks.append(args))
        assert main(["rate"]) == 1
        rate = capsys.readouterr().out
        cfg = write_config(tmp_path, text)
        code = main(["sweep", "--config", cfg, "--threads", str(threads)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, rate, "")
        assert strict_json(out)["detail"].startswith("a design point needs B_w and M")
        assert blocks == []

    def test_threads_below_one_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep_axis = b\nsweep_values = 1,2\nB_w = 2e8\nM = 64\n")
        for argv in (["sweep", "--config", cfg, "--threads", "0"],
                     ["preset", "fig4", "--threads", "-3"]):
            code, out = main(argv), capsys.readouterr().out
            assert code == 1
            assert out.count("\n") == 1
            error = strict_json(out)
            assert error["error"] == "config"
            assert "--threads" in error["detail"]


class TestCurveRuns:
    """A sweep along B_w, M or s evaluates its closed forms once, on arrays;
    its rows and errors are those of a point-by-point sweep."""

    @pytest.mark.parametrize("axis, bind", AXIS_BINDS)
    def test_rows_equal_point_by_point(self, axis, bind):
        rng = random.Random(f"{axis}/{bind}")
        for _ in range(8):
            config, spec = random_sweep(rng, axis, bind)
            assert outcome(lambda: rows_of(run_sweep(config, spec))) == outcome(
                lambda: sweep_rows_point_by_point(config, spec)
            ), spec
            text, reference = csv_outcome(config, spec)
            assert text == reference, spec

    def test_extreme_grids_equal_point_by_point(self):
        # the Monte Carlo input grid's sweeps in closed form: inputs from the
        # bottom to the top of the float range, rows or the same error
        sweeps = [parse_config_text(text) for text, argv in mc_input_grid(seed=2024, count=60)
                  if argv[0] == "sweep"]
        for config, spec in sweeps:
            spec = dataclasses.replace(spec, trials=0)
            assert outcome(lambda: rows_of(run_sweep(config, spec))) == outcome(
                lambda: sweep_rows_point_by_point(config, spec)
            ), spec
            text, reference = csv_outcome(config, spec)
            assert text == reference, spec

    @pytest.mark.parametrize("axis, values, bind", [
        ("M", (2.0, 8.0, 32.0), "bandwidth"),
        ("s", (1 / 32, 1 / 8, 1 / 2), "none"),
        ("B_w", (4e8, 1e9, 3e9), "antennas"),
    ])
    def test_monte_carlo_rows(self, axis, values, bind):
        # closed-form columns from the arrays, one simulation per row on its
        # grid index's substream
        config = SystemConfig.from_reference_snr(15.0, K=2, L=2, N=48, C_f=1e10, X_int=2.5)
        spec = SweepSpec(axis=axis, values=values, bind=bind, b=1, trials=2, seed=9,
                         mc_mode="uniform")
        rows = rows_of(run_sweep(config, spec, threads=2))
        assert outcome(lambda: rows) == outcome(lambda: sweep_rows_point_by_point(config, spec))
        assert csv_outcome(config, spec, threads=2) == (rows_to_csv(run_sweep(config, spec)),) * 2
        for index, row in enumerate(rows):
            design = DesignPoint(B_w=row["B_w_hz"], M=row["M"], b=row["b"])
            seq = np.random.SeedSequence(entropy=9, spawn_key=(index,))
            [mc] = empirical_rate(config, [design], 2, seq, ["uniform"])
            assert (row["mc_rate_bps"], row["clip_rate"]) == (mc.rate_bps, mc.clip_rate)

    @pytest.mark.parametrize("name, calls", [
        ("fig2", 12), ("fig4", 12), ("fig5", 1), ("fig6", 36), ("fig8", 4),
    ])
    def test_one_rate_call_per_run(self, monkeypatch, name, calls):
        # a curve is one run; along b each point is a run of its own
        from fronthaul_mimo import cli

        seen = []
        monkeypatch.setattr(cli, "achievable_rate",
                            lambda *args: seen.append(args) or achievable_rate(*args))
        run_preset(name)
        assert len(seen) == calls

    @pytest.mark.parametrize("text, detail", [
        ("sweep_axis = b\nsweep_values = 1,2.5\nbind = antennas\nB_w = 2e8\n",
         "b=2.5 (grid index 1): b must be a positive integer, got b=2.5"),
        ("sweep_axis = M\nsweep_values = 64,64.5\nB_w = 2e8\n",
         "M=64.5 (grid index 1): M must be a positive integer, got M=64.5"),
        ("sweep_axis = M\nsweep_values = 64,64.5\nbind = bandwidth\n",
         "M=64.5 (grid index 1): M must be a positive integer, got M=64.5"),
        ("sweep_axis = s\nsweep_values = 0.5,2\n",
         "s=2.0 (grid index 1): s must lie in [b/C_f, 1] = [2e-12, 1] at b=1"),
        ("sweep_axis = B_w\nsweep_values = 1e8,1e12\nbind = antennas\n",
         "B_w=1000000000000.0 (grid index 1): no antenna fits at B_w=1000000000000.0, b=1, "
         "C_f=500000000000.0"),
        # B_w = C_f/(M*b) is subnormal, too coarse to keep the load within the cap
        ("P = 1e-160\nC_f = 1e-320\nbind = bandwidth\nsweep_axis = M\nsweep_values = 1,3\n",
         "M=3.0 (grid index 1): constraint violated: load 1.0005e-320 > C_f 1e-320"),
        ("sweep_axis = B_w\nsweep_values = 2e8,1e300\nM = 64\n",
         "B_w=1e+300 (grid index 1): rate_bps=0.0: an input is beyond the float range"),
        ("K = 4\nL = 3\nN = 62\ntheta = 0.5\nX_int = 1e-30\nsweep_axis = M\n"
         "sweep_values = 1,256\nB_w = 1e-300\n",
         "M=256.0 (grid index 1): rate_bps is not finite: an input is beyond the float range"),
        # P*P underflows: a condition divides by zero at every point, as
        # Python does and numpy would not without being told to raise
        ("P = 1e-165\nsweep_axis = B_w\nsweep_values = 1e-170,2e-170\nM = 64\n",
         "B_w=1e-170 (grid index 0): float division by zero"),
        # B_w = C_f/M overflows: named, not echoed
        ("sweep_axis = M\nsweep_values = 1e-320,1\nbind = bandwidth\n",
         "M=1e-320 (grid index 0): B_w must be positive and finite"),
        # a simulated rate fails at index 1 before the fractional M at index 2
        ("K = 2\nL = 2\nN = 33\ntheta = 1.3\ntrials = 3\nmc_mode = uniform\nseed = 0\n"
         "sweep_axis = M\nsweep_values = 64,4096,4096.5\nB_w = 2e8\nb = 2\n",
         "M=4096.0 (grid index 1): mc_rate_bps is not finite: the simulated rate left the "
         "float range"),
    ], ids=["fractional_b", "fractional_M", "fractional_M_bound", "s_outside_curve",
            "no_antenna", "broken_cap", "zero_rate", "non_finite_rate", "zero_division",
            "infinite_bandwidth", "monte_carlo_first"])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_first_failing_point_named(self, tmp_path, capsys, text, detail, threads):
        cfg = write_config(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--config", cfg, "--threads", threads])
        captured = capsys.readouterr()
        assert_model_error(code, captured.out)
        assert strict_json(captured.out)["detail"] == detail
        assert captured.err == ""


class TestPresets:
    def test_axis_values_are_python_floats(self):
        # no numpy scalar reaches the CSV writer, which writes str(value) (a
        # numpy bool as True): every axis value is a float, and every cell of
        # every preset and of a sweep under each axis and bind a Python float,
        # int, bool, str or None
        rng = random.Random(5)
        runs = {name: rows_of(run_preset(name)) for name in PRESETS}
        runs.update({f"{axis}/{bind}": rows_of(run_sweep(*random_sweep(rng, axis, bind)))
                     for axis, bind in AXIS_BINDS})
        for name, rows in runs.items():
            assert all(type(row["axis_value"]) is float for row in rows), name
            types = {type(value) for row in rows for value in row.values()}
            assert types <= {float, int, bool, str, type(None)}, (name, types)

    def test_fig2_peaks_at_one_bit(self):
        rows = rows_of(run_preset("fig2"))
        best = max(rows, key=lambda r: r["rate_bps"])
        assert best["b"] == 1
        assert rows[0]["M"] == 2500

    def test_fig3_threshold_column(self):
        rows = rows_of(run_preset("fig3"))
        by_bits = {row["b"]: row["f_b"] for row in rows}
        assert by_bits[1] > 1.0
        assert all(by_bits[b] < 1.0 for b in range(2, 13))

    def test_fig4_constraint_binding_and_uncertified_peak(self):
        # at 15 dB the one-bit point of this trajectory sits below the
        # bandwidth threshold (I = 0.25 < f(1)), so the one-bit shortcut
        # is uncertified and the curve genuinely peaks at b = 2
        rows = rows_of(run_preset("fig4"))
        for row in rows:
            assert row["B_w_hz"] == pytest.approx(500e9 / (200 * row["b"]), rel=1e-12)
        by_bits = {row["b"]: row for row in rows}
        assert not by_bits[1]["bandwidth_cond"]
        best = max(rows, key=lambda r: r["rate_bps"])
        assert best["b"] == 2

    def test_fig5_interior_argmax(self):
        rows = rows_of(run_preset("fig5"))
        best = max(range(len(rows)), key=lambda i: rows[i]["rate_bps"])
        assert 0 < best < len(rows) - 1  # interior, not a grid endpoint
        assert rows[best]["b"] == 1
        assert 200 <= rows[best]["M"] <= 600

    def test_fig8_pilot_excess_trend(self):
        rows = rows_of(run_preset("fig8"))
        argmax_s, peak = {}, {}
        for theta in (1.0, 2.0, 4.0, 8.0):
            sub = [r for r in rows if r["theta"] == theta]
            best = max(sub, key=lambda r: r["rate_bps"])
            argmax_s[theta] = best["s"]
            peak[theta] = best["rate_bps"]
        assert argmax_s[1.0] < argmax_s[2.0] < argmax_s[4.0] < argmax_s[8.0]
        gain_12 = peak[2.0] - peak[1.0]
        gain_24 = peak[4.0] - peak[2.0]
        assert gain_12 > gain_24

    def test_fig6_fig7_snr_families(self):
        for name, anchor in (("fig6", "M"), ("fig7", "B_w_hz")):
            rows = rows_of(run_preset(name))
            assert len(rows) == 36  # 12 resolutions x 3 reference SNRs
            snrs = sorted({r["snr_db"] for r in rows})
            assert snrs == [0.0, 15.0, 30.0]  # exact, so each cell prints as typed
            for row in rows:
                assert row["B_w_hz"] * row["M"] * row["b"] <= 500e9 * (1 + 1e-9)

    def test_unknown_preset(self):
        with pytest.raises(ConfigSyntaxError):
            run_preset("fig99")

class TestByteReference:
    """The CSV bytes of a run, column by column, equal those of the
    point-by-point rows written one row dict at a time."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_closed_form(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        assert main(["preset", name, "--out", str(out)]) == 0
        assert out.read_bytes() == reference_csv(preset_rows_point_by_point(name)).encode()

    @pytest.mark.parametrize("trials, threads", [(1, ("1",)), (2, ("1", "2"))])
    def test_preset_monte_carlo(self, tmp_path, trials, threads):
        # one trial leaves every standard error undefined, an empty cell
        expected = reference_csv(preset_rows_point_by_point("fig4", trials=trials)).encode()
        for count in threads:
            out = tmp_path / f"fig4-{count}.csv"
            argv = ["preset", "fig4", "--trials", str(trials), "--threads", count]
            assert main([*argv, "--out", str(out)]) == 0
            assert out.read_bytes() == expected


class TestPathErrors:
    """A path that cannot be read or written is one JSON line naming it,
    exit 1, and nothing on stderr."""

    def test_unreadable_config_exit_1(self, tmp_path, capsys):
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"K = 2\n\xff\n")
        for path, reason in ((tmp_path / "missing.cfg", "No such file or directory"),
                             (tmp_path, "Is a directory"),
                             (binary, "can't decode byte 0xff")):
            for argv in (["optimize"], ["sweep"], ["rate", "--bw", "2e8", "--m", "64"]):
                code = main([*argv, "--config", str(path)])
                out, err = capsys.readouterr()
                assert code == 1 and out.count("\n") == 1 and err == ""
                error = strict_json(out)
                assert error["error"] == "config"
                assert error["detail"].startswith(f"cannot read config {path}: ")
                assert reason in error["detail"]

    def test_unwritable_out_exit_1(self, tmp_path, capsys):
        missing = str(tmp_path / "missing" / "x.csv")
        for argv, path, reason in (
            (["preset", "fig2"], missing, "No such file or directory"),
            (["optimize"], missing, "No such file or directory"),
            (["rate", "--bw", "2e8", "--m", "64"], missing, "No such file or directory"),
            (["preset", "fig2"], str(tmp_path), "Is a directory"),
        ):
            code = main([*argv, "--out", path])
            out, err = capsys.readouterr()
            assert code == 1 and out.count("\n") == 1 and err == ""
            assert strict_json(out) == {"error": "config",
                                        "detail": f"cannot write {path}: {reason}"}
        assert not os.path.exists(os.path.dirname(missing))

    def test_sweep_out_pair_written_whole_or_not_at_all(self, tmp_path, capsys):
        text = "sweep_axis = b\nsweep_values = 1,2\nB_w = 2e8\nM = 64\n"
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "--config", cfg]) == 0
        csv = capsys.readouterr().out
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == csv
        assert Path(f"{out}.effective").read_text(encoding="utf-8") == effective_config_text(
            *parse_config_text(text))
        # either file unwritable: exit 1, and neither left on disk
        for name, blocked in (("y.csv", "y.csv.effective"), ("z.csv", "z.csv")):
            (tmp_path / blocked).mkdir()
            code = main(["sweep", "--config", cfg, "--out", str(tmp_path / name)])
            line, err = capsys.readouterr()
            assert code == 1 and err == ""
            assert strict_json(line) == {
                "error": "config", "detail": f"cannot write {tmp_path / blocked}: Is a directory"}
            assert sorted(p.name for p in tmp_path.glob(name + "*")) == [blocked]


class TestMainRate:
    def test_rate_json(self, capsys):
        code = main(["rate", "--bw", "2e8", "--m", "2500", "--b", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["design"]["M"] == 2500
        assert out["rate_bps"] > 0
        assert out["fronthaul_load_bps"] == pytest.approx(5e11)

    def test_rate_honours_bind(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bind = antennas\nB_w = 2e8\nb = 2\n")
        assert main(["rate", "--config", cfg]) == 0
        design = strict_json(capsys.readouterr().out)["design"]
        assert design == {"B_w_hz": 2e8, "M": math.floor(500e9 / (2e8 * 2)), "b": 2}

    def test_module_entry_point(self, capsys):
        # an uninstalled checkout runs the CLI as python -m fronthaul_mimo or
        # python -m fronthaul_mimo.cli
        assert main(["rate", "--bw", "2e8", "--m", "64"]) == 0
        expected = capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["optimise"])
        usage_error = capsys.readouterr().out
        src = os.path.dirname(os.path.dirname(os.path.abspath(fronthaul_mimo.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        for module in ("fronthaul_mimo", "fronthaul_mimo.cli"):
            for argv, code, out in (
                (["rate", "--bw", "2e8", "--m", "64"], 0, expected),
                (["optimise"], 1, usage_error),
            ):
                proc = subprocess.run([sys.executable, "-m", module, *argv],
                                      capture_output=True, text=True, env=env)
                assert (proc.returncode, proc.stdout) == (code, out)

    @pytest.mark.parametrize("text, argv, detail", [
        ("", ["rate", "--bw", "inf", "--m", "64"], "B_w must be finite"),
        ("gamma_ref_db = nan\n", ["optimize"], "gamma_ref_db must be finite"),
        ("C_f = inf\n", ["optimize"], "C_f must be finite"),
        ("C_f = -inf\n", ["optimize"], "C_f must be finite"),
        ("sweep_axis = b\nsweep_values = 1,inf\nB_w = 2e8\nM = 64\n", ["sweep"],
         "values must be finite"),
    ], ids=["bw-inf", "gamma-nan", "c_f-inf", "c_f-minus-inf", "grid-inf"])
    def test_non_finite_input_named_not_echoed(self, tmp_path, capsys, text, argv, detail):
        cfg = write_config(tmp_path, text)
        code = main([argv[0], "--config", cfg, *argv[1:]])
        out = capsys.readouterr().out
        assert_model_error(code, out)
        assert strict_json(out)["detail"] == detail

    @pytest.mark.parametrize("text, argv, detail", [
        ("K = inf\n", ["optimize"], "cannot parse value for key 'K' (line 1): a non-finite value"),
        ("seed = nan\n", ["optimize"],
         "cannot parse value for key 'seed' (line 1): a non-finite value"),
        ("sweep_values = 1,-inf,x\n", ["optimize"],
         "cannot parse value for key 'sweep_values' (line 1): a non-finite value"),
        ("", ["rate", "--bw", "2e8", "--m", "inf"], "argument --m: invalid int value: "
         "a non-finite value"),
        ("", ["rate", "--bw", "2e8", "--m", "-inf"], "argument --m: invalid int value: "
         "a non-finite value"),
        ("", ["sweep", "--seed", "nan"], "argument --seed: invalid int value: a non-finite value"),
        ("", ["mc-validate", "--bits", "1,inf"],
         "--bits must be a comma list of integers, got a non-finite value"),
        ("", ["rate", "--bw", "2e8", "--m", "64.5"], "argument --m: invalid int value: '64.5'"),
    ], ids=["K-inf", "seed-nan", "grid-minus-inf", "m-inf", "m-minus-inf", "seed-flag-nan",
            "bits-inf", "m-fraction"])
    def test_non_finite_literal_named_not_echoed(self, tmp_path, capsys, text, argv, detail):
        # an integer key or flag (or a grid) that cannot hold the literal: a
        # usage error that names it, with no inf or nan token; a finite
        # literal is still echoed
        cfg = write_config(tmp_path, text)
        try:
            code = main([argv[0], "--config", cfg, *argv[1:]])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        out = capsys.readouterr().out
        assert code == 1 and out.count("\n") == 1
        assert strict_json(out) == {"error": "config", "detail": detail}

    @pytest.mark.parametrize("command, value", [
        ("rate", "-1e8"), ("rate", "-1E+8"), ("rate", "-.5"), ("rate", "-inf"),
        ("mc-validate", "-inf"), ("mc-validate", "-nan"), ("mc-validate", "-1e8"),
    ])
    def test_negative_flag_value_after_a_space(self, capsys, command, value):
        # "--bw -1e8" is the value -1e8, as "--bw=-1e8" is: one model error
        # line, not argparse's missing value
        results = []
        for flag in (["--bw", value], [f"--bw={value}"]):
            code = main([command, *flag, "--m", "64"])
            results.append((code, capsys.readouterr().out))
        assert results[0] == results[1]
        assert_model_error(*results[0])

    def test_non_finite_input_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "gamma_ref_db = nan\n")
        huge = write_config(tmp_path, "gamma_ref_db = 4000\n", "huge.cfg")  # 10**400
        for argv in (
            ["rate", "--config", cfg, "--bw", "2e8", "--m", "64"],
            ["rate", "--config", huge, "--bw", "2e8", "--m", "64"],
            ["rate", "--bw", "inf", "--m", "64"],
            ["rate", "--bw", "1e-300", "--m", "64"],  # finite, but the rate is not
        ):
            assert_model_error(main(argv), capsys.readouterr().out)
        # every system key, from zero to beyond the float range: a finite
        # positive rate (in every sweep row, with every numeric cell finite),
        # or one JSON error line; no traceback, warning or stderr
        keys = [f.name for f in dataclasses.fields(SystemConfig)] + ["gamma_ref_db"]
        values = ("0", "1e-300", "1e-30", "0.5", "3", "1e30", "1e300", "-1", "nan", "inf")
        failures = []
        for key in keys:
            for value in values:
                cfg = write_config(tmp_path, f"{key} = {value}\n", "grid.cfg")
                sweep = write_config(tmp_path, f"{key} = {value}\nsweep_axis = b\n"
                                     "sweep_values = 1,2\nbind = antennas\nB_w = 2e8\n",
                                     "sweep.cfg")
                for argv in (["rate", "--config", cfg, "--bw", "2e8", "--m", "64"],
                             ["optimize", "--config", cfg],
                             ["sweep", "--config", sweep]):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            code = main(argv)
                        except Exception as exc:  # a traceback, or a warning raised
                            code = repr(exc)
                    out, err = capsys.readouterr()
                    if code == 0 and argv[0] == "sweep":
                        header, *rows = [line.split(",") for line in out.splitlines()[1:]]
                        rows = [dict(zip(header, row)) for row in rows]
                        ok = all(float(row["rate_bps"]) > 0
                                 and all(math.isfinite(number(cell)) for cell in row.values())
                                 for row in rows)
                    elif code == 0:
                        ok = strict_json(out)["rate_bps"] > 0
                    else:
                        ok = code in (1, 2) and out.count("\n") == 1 and "error" in strict_json(out)
                    if not ok or err:
                        failures.append(f"{argv[0]} {key}={value}: exit {code} {out[:60]!r}")
        assert not failures, failures

class TestMainOptimize:
    def test_report_fields(self, capsys):
        code = main(["optimize"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["best"]["b"] == 1
        assert out["binding"] is True
        assert out["relaxed"]["s"] > 0

    def test_zero_capacity_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "C_f = 0\n")
        code = main(["optimize", "--config", cfg])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"] == "model"
        # a capacity whose constraint-curve derivative overflows
        huge = write_config(tmp_path, "C_f = 1e300\n", "huge.cfg")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["optimize", "--config", huge])
        captured = capsys.readouterr()
        assert_model_error(code, captured.out)
        assert "C_f" in strict_json(captured.out)["detail"]
        assert not caught and captured.err == ""
        # a zero flag is a given value, not a missing one
        for argv in (
            ["rate", "--bw", "0", "--m", "64"],
            ["rate", "--bw", "2e8", "--m", "64", "--b", "0"],
        ):
            assert_model_error(main(argv), capsys.readouterr().out)

    def test_huge_capacity_converges(self, tmp_path, capsys):
        # the optimum s* is about 1e-35, far below an absolute width of 1e-10
        cfg = write_config(tmp_path, "C_f = 1e60\n")
        assert main(["optimize", "--config", cfg]) == 0
        out = strict_json(capsys.readouterr().out)
        assert math.isfinite(out["rate_bps"]) and out["rate_bps"] > 0
        assert out["relaxed"]["rate_bps"] >= out["rate_bps"]

    def test_doubling_capacity_raises_rate(self, tmp_path, capsys):
        cfg1 = write_config(tmp_path, "C_f = 100e9\n", "a.cfg")
        cfg2 = write_config(tmp_path, "C_f = 200e9\n", "b.cfg")
        main(["optimize", "--config", cfg1])
        r1 = json.loads(capsys.readouterr().out)["rate_bps"]
        main(["optimize", "--config", cfg2])
        r2 = json.loads(capsys.readouterr().out)["rate_bps"]
        assert r2 > r1

    def test_usage_error_exit_1(self, capsys):
        # argparse's reason, as one JSON line on stdout, nothing on stderr
        for argv, reason in ((["optimise"], "invalid choice: 'optimise'"),
                             (["rate", "--bw", "2e8", "--m", "64.5"], "--m: invalid int value"),
                             ([], "required: command")):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 1
            out, stderr = capsys.readouterr()
            assert out.count("\n") == 1 and stderr == ""
            error = strict_json(out)
            assert error["error"] == "config" and reason in error["detail"], error

SWEEP_MC = """
K = 2
L = 2
N = 128
C_f = 1e9
X_int = 2.5
B_w = 1e7
sweep_axis = b
sweep_values = 1,2,3,4,5,6
bind = antennas
trials = 8
seed = 7
mc_mode = pqn
"""

class TestDeterminism:
    def test_threaded_sweep_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_MC)
        out1 = str(tmp_path / "t1.csv")
        out4 = str(tmp_path / "t4.csv")
        assert main(["sweep", "--config", cfg, "--out", out1, "--threads", "1"]) == 0
        assert main(["sweep", "--config", cfg, "--out", out4, "--threads", "4"]) == 0
        b1 = Path(out1).read_bytes()
        b4 = Path(out4).read_bytes()
        assert b1 == b4

    def test_threaded_first_load_byte_identical(self, tmp_path, capsys):
        # the CLI loads the simulator on first use; a fresh process whose
        # first Monte Carlo rows run in a pool must load it before the pool
        # starts, or a thread reads a half-executed module
        cfg = write_config(tmp_path, SWEEP_MC)
        argvs = (["sweep", "--config", cfg], ["preset", "fig4", "--trials", "1"])
        env = dict(os.environ, PYTHONPATH=str(Path(fronthaul_mimo.__file__).parent.parent))
        fresh = [subprocess.Popen([sys.executable, "-m", "fronthaul_mimo", *argv,
                                   "--threads", "3"], stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, env=env)
                 for argv in argvs]
        for argv, proc in zip(argvs, fresh):
            assert main([*argv, "--threads", "1"]) == 0
            out, err = proc.communicate(timeout=120)
            assert (proc.returncode, err) == (0, "")
            assert out == capsys.readouterr().out

    def test_repeat_run_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_MC)
        out1 = str(tmp_path / "r1.csv")
        out2 = str(tmp_path / "r2.csv")
        main(["sweep", "--config", cfg, "--out", out1])
        main(["sweep", "--config", cfg, "--out", out2])
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_effective_config_echo(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_MC)
        out = str(tmp_path / "e.csv")
        main(["sweep", "--config", cfg, "--out", out])
        echo = Path(out + ".effective").read_text(encoding="utf-8")
        assert "K = 2" in echo
        assert "sweep_axis = b" in echo
        assert "N_p = 4" in echo
        # the echo is a config that reruns the same sweep, and echoes itself
        rerun = str(tmp_path / "rerun.csv")
        assert main(["sweep", "--config", out + ".effective", "--out", rerun]) == 0
        assert Path(rerun).read_bytes() == Path(out).read_bytes()
        assert Path(rerun + ".effective").read_text(encoding="utf-8") == echo

    def test_effective_echo_reference_snr_exact(self, tmp_path):
        for db, power in (("0", "1000000.0"), ("15", "31622776.60168379"),
                          ("30", "1000000000.0")):
            cfg = write_config(tmp_path, f"gamma_ref_db = {db}\nsweep_axis = b\n"
                               "sweep_values = 1,2\nB_w = 2e8\nM = 100\n")
            out = str(tmp_path / "snr.csv")
            assert main(["sweep", "--config", cfg, "--out", out]) == 0
            echo = Path(out + ".effective").read_text(encoding="utf-8").splitlines()
            assert echo[1] == f"# gamma_ref_db = {float(db)!r}, N_p = 200"
            assert f"P = {power}" in echo

    def test_flag_overrides_config(self, tmp_path):
        # --trials 0 drops the MC columns; --seed changes the MC outcome
        cfg = write_config(tmp_path, SWEEP_MC)
        out_mc = str(tmp_path / "mc.csv")
        out_plain = str(tmp_path / "plain.csv")
        out_reseed = str(tmp_path / "reseed.csv")
        main(["sweep", "--config", cfg, "--out", out_mc])
        main(["sweep", "--config", cfg, "--out", out_plain, "--trials", "0"])
        main(["sweep", "--config", cfg, "--out", out_reseed, "--seed", "99"])
        plain_rows = Path(out_plain).read_text(encoding="utf-8").strip().split("\n")[2:]
        assert all(row.endswith(",,,,") for row in plain_rows)
        assert Path(out_mc).read_bytes() != Path(out_reseed).read_bytes()

class TestMcValidate:
    def test_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "K = 2\nL = 2\nN = 128\nX_int = 2.5\nB_w = 1e8\nM = 16\ntrials = 30\nseed = 3\n",
        )
        code = main(["mc-validate", "--config", cfg, "--bits", "1,2", "--mode", "pqn"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["points"]) == 2
        for point in out["points"]:
            assert point["rel_err"] < 0.2
        # a given --trials is used as it is: zero trials is a model error
        code = main(["mc-validate", "--config", cfg, "--bits", "1", "--trials", "0"])
        assert_model_error(code, capsys.readouterr().out)
        # an unparsable resolution list is a usage error, not a traceback
        code = main(["mc-validate", "--config", cfg, "--bits", "x"])
        out = capsys.readouterr().out
        assert code == 1 and out.count("\n") == 1
        assert strict_json(out)["error"] == "config"
        # so is a repeated resolution, which would print the same row twice
        code = main(["mc-validate", "--config", cfg, "--bits", "1,2,1"])
        out = capsys.readouterr().out
        assert code == 1 and out.count("\n") == 1
        assert strict_json(out)["error"] == "config"

    @pytest.mark.parametrize("anchor, design", [
        ("B_w = 1e8\nM = 16\n", lambda b: DesignPoint(B_w=1e8, M=16, b=b)),
        ("B_w = 1e8\nbind = antennas\n", lambda b: DesignPoint(B_w=1e8, M=64 // b, b=b)),
        ("M = 16\nbind = bandwidth\n", lambda b: DesignPoint(B_w=6.4e9 / (16 * b), M=16, b=b)),
    ], ids=["fixed", "bind_antennas", "bind_bandwidth"])
    def test_rows_equal_lone_calls(self, tmp_path, capsys, anchor, design):
        # every row shares the report's seed, and rows at one (B_w, M) share
        # each trial's block, yet each equals its lone call bit for bit
        text = "K = 2\nL = 2\nN = 128\nX_int = 2.5\nC_f = 6.4e9\nseed = 7\n" + anchor
        cfg = write_config(tmp_path, text)
        argv = ["mc-validate", "--config", cfg, "--bits", "1,2,3", "--trials", "6"]
        assert main(argv + ["--mode", "both"]) == 0
        points = strict_json(capsys.readouterr().out)["points"]
        assert [(p["b"], p["mode"]) for p in points] == [
            (b, mode) for b in (1, 2, 3) for mode in ("pqn", "uniform")
        ]
        config, _ = parse_config_text(text)
        for point in points:
            [lone] = empirical_rate(config, [design(point["b"])], 6, 7, [point["mode"]])
            assert point["closed_form_bps"] == achievable_rate(config, design(point["b"])).rate_bps
            assert (point["mc_bps"], point["stderr_bps"], point["clip_rate"]) == (
                lone.rate_bps, lone.stderr_bps, lone.clip_rate
            )
        # a uniform row does not depend on whether pqn rows ran beside it
        assert main(argv + ["--mode", "uniform"]) == 0
        alone = strict_json(capsys.readouterr().out)["points"]
        assert alone == [p for p in points if p["mode"] == "uniform"]

    def test_config_trials(self, tmp_path, capsys):
        # trials = 0 in a config is a given value, as --trials 0 is; no
        # trials key runs 100
        base = "K = 2\nL = 2\nN = 128\nX_int = 2.5\nB_w = 1e8\nM = 16\n"
        zero = write_config(tmp_path, base + "trials = 0\n", "zero.cfg")
        code = main(["mc-validate", "--config", zero, "--bits", "1", "--mode", "pqn"])
        assert_model_error(code, capsys.readouterr().out)
        unset = write_config(tmp_path, base, "unset.cfg")
        assert main(["mc-validate", "--config", unset, "--bits", "1", "--mode", "pqn"]) == 0
        assert strict_json(capsys.readouterr().out)["trials"] == 100

    def test_bind_resolves_each_resolution(self, tmp_path, capsys):
        # bind = antennas takes M from the cap at each b, as a sweep row does
        cfg = write_config(tmp_path, "K = 2\nL = 2\nN = 128\nX_int = 2.5\nC_f = 6.4e9\n"
                                     "B_w = 1e8\nbind = antennas\n")
        code = main(["mc-validate", "--config", cfg, "--bits", "1,2", "--mode", "pqn",
                     "--trials", "2"])
        assert code == 0
        config, _ = parse_config_text(Path(cfg).read_text(encoding="utf-8"))
        for point, m in zip(strict_json(capsys.readouterr().out)["points"], (64, 32)):
            closed = achievable_rate(config, DesignPoint(B_w=1e8, M=m, b=point["b"]))
            assert point["closed_form_bps"] == closed.rate_bps

    @pytest.mark.parametrize("text, argv", [
        # batch rates near 1e299, whose standard error overflows
        ("K = 2\nL = 2\nN = 33\ntheta = 1.3\ngamma_ref_db = 60\nC_f = 1e300\n"
         "bind = bandwidth\n", ["--trials", "3", "--m", "16"]),
        # M = C_f/B_w = 1e300 antennas: the block's sizing refuses it before it allocates
        ("K = 2\nL = 3\nN = 64\ntheta = 0.5\nX_int = 3\ngamma_ref_db = -30\nC_f = 1e300\n"
         "bind = antennas\n", ["--trials", "1", "--bw", "1"]),
    ], ids=["stderr_overflow", "block_too_large"])
    def test_extreme_input_one_json_line(self, tmp_path, capsys, text, argv):
        cfg = write_config(tmp_path, text)
        code = main(["mc-validate", "--config", cfg, "--bits", "1", "--mode", "pqn", *argv])
        captured = capsys.readouterr()
        assert_model_error(code, captured.out)
        assert captured.err == ""
        if "--bw" in argv:
            assert "B_w=1.0, M=" in strict_json(captured.out)["detail"]

    @pytest.mark.parametrize("trials", [10**20, 10**400], ids=["above_maxsize", "above_float"])
    def test_trial_count_beyond_range_named(self, tmp_path, capsys, trials):
        # a count no index holds ends in one line naming trials, before any
        # block, whether or not a float holds it
        sweep = write_config(tmp_path, f"B_w = 1e8\nM = 4\nsweep_axis = b\nsweep_values = 1\n"
                                       f"trials = {trials}\n")
        for argv in (["mc-validate", "--bw", "1e8", "--m", "4", "--trials", str(trials)],
                     ["sweep", "--config", sweep]):
            code = main(argv)
            captured = capsys.readouterr()
            assert_model_error(code, captured.out)
            assert "trials must be in [1, " in strict_json(captured.out)["detail"]

    def test_block_beyond_budget_exits_2_before_allocating(self, tmp_path, capsys):
        # 10^8 antennas at the default block need terabytes: mc-validate and
        # a sweep's MC row refuse the block, naming M and its bytes, before
        # any antenna-sized array is allocated
        sweep = write_config(tmp_path, "B_w = 1e6\nsweep_axis = M\nsweep_values = 100000000\n"
                                       "trials = 1\n")
        for argv in (["mc-validate", "--bw", "1e6", "--m", "100000000", "--bits", "1",
                      "--trials", "1"],
                     ["sweep", "--config", sweep]):
            code = main(argv)
            captured = capsys.readouterr()
            assert_model_error(code, captured.out)
            assert captured.err == ""
            assert "M=100000000 needs" in strict_json(captured.out)["detail"]

    @pytest.mark.parametrize("x_int", [1e39, 1e-39], ids=["x_int_too_large", "step_too_small"])
    def test_quantizer_range_beyond_rails_exit_2(self, tmp_path, capsys, x_int):
        # float32 rails cannot hold X_int = 1e39, and at X_int = 1e-39 a
        # rail over the step overflows: mc-validate and a sweep's MC row
        # refuse both before the first block
        text = f"K = 2\nL = 2\nN = 64\nX_int = {x_int!r}\nB_w = 2e8\nM = 4\n"
        cfg = write_config(tmp_path, text)
        sweep = write_config(tmp_path, text + "sweep_axis = b\nsweep_values = 1,2\n"
                             "trials = 3\nmc_mode = uniform\n", "sweep.cfg")
        for argv in (["mc-validate", "--config", cfg, "--bits", "1", "--trials", "3",
                      "--mode", "both"],
                     ["sweep", "--config", sweep]):
            code = main(argv)
            captured = capsys.readouterr()
            assert_model_error(code, captured.out)
            assert captured.err == ""
            assert "float32 range" in strict_json(captured.out)["detail"]

    def test_single_trial_stderr_is_null(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "K = 2\nL = 2\nN = 128\nX_int = 2.5\nB_w = 1e8\nM = 16\n")
        code = main(["mc-validate", "--config", cfg, "--bits", "1", "--mode", "pqn",
                     "--trials", "1"])
        assert code == 0
        (point,) = strict_json(capsys.readouterr().out)["points"]
        assert point["stderr_bps"] is None
        assert point["mc_bps"] > 0
        # in a sweep's CSV, an empty cell, not nan
        out = str(tmp_path / "fig4.csv")
        assert main(["preset", "fig4", "--trials", "1", "--out", out]) == 0
        header, *rows = Path(out).read_text(encoding="utf-8").splitlines()[1:]
        column = header.split(",").index("mc_stderr_bps")
        assert len(rows) == 12 and all(row.split(",")[column] == "" for row in rows)


    def test_closed_form_checked_before_any_trial(self, tmp_path, capsys, monkeypatch):
        # the closed-form rate underflows to zero at B_w = 1e300: one JSON
        # line naming rate_bps, before any block is simulated
        blocks = []
        simulate = montecarlo.simulate_block
        monkeypatch.setattr(montecarlo, "simulate_block",
                            lambda *args: blocks.append(args) or simulate(*args))
        cfg = write_config(tmp_path, "K = 4\nL = 2\nN = 53\ntheta = 2\nX_int = 2.5\n"
                                     "gamma_ref_db = -15\nB_w = 1e300\nM = 256\n")
        code = main(["mc-validate", "--config", cfg, "--bits", "1", "--mode", "uniform",
                     "--trials", "1"])
        captured = capsys.readouterr()
        assert_model_error(code, captured.out)
        assert captured.err == ""
        assert "rate_bps=0.0" in strict_json(captured.out)["detail"]
        assert blocks == []

    def test_non_finite_row_named(self, tmp_path, capsys):
        # 3 trials of 168 symbols zero the plug-in ratio's denominator at
        # b = 1: the error names the row and the field, not the JSON writer
        cfg = write_config(tmp_path, "K = 2\nL = 2\nN = 33\ntheta = 1.3\n")
        code = main(["mc-validate", "--config", cfg, "--bits", "1,2,12", "--mode", "uniform",
                     "--trials", "3", "--bw", "2e8", "--m", "4096", "--seed", "2"])
        captured = capsys.readouterr()
        assert_model_error(code, captured.out)
        assert captured.err == ""
        assert strict_json(captured.out)["detail"] == "b=1, mode=uniform: mc_bps is not finite"

    @pytest.mark.parametrize("text, detail", [
        # 168 symbols at b = 2 zero the plug-in ratio's denominator
        ("K = 2\nL = 2\nN = 33\ntheta = 1.3\ntrials = 3\nmc_mode = uniform\n"
         "sweep_axis = b\nsweep_values = 1,2,12\nB_w = 2e8\nM = 4096\n",
         "b=2.0 (grid index 1): mc_rate_bps is not finite"),
        # a per-sample SNR near 1e307 overflows the closed-form SINR
        ("K = 4\nL = 3\nN = 62\ntheta = 0.5\nX_int = 1e-30\nsweep_axis = M\n"
         "sweep_values = 1,256\nB_w = 1e-300\n",
         "M=256.0 (grid index 1): rate_bps is not finite"),
    ], ids=["monte_carlo", "closed_form"])
    def test_non_finite_sweep_rate_exit_2(self, tmp_path, capsys, text, detail):
        # the field is named, not its value: no output line holds inf or nan
        code = main(["sweep", "--config", write_config(tmp_path, text)])
        captured = capsys.readouterr()
        assert_model_error(code, captured.out)
        assert captured.err == ""
        assert detail in strict_json(captured.out)["detail"]
        assert not re.search(r"\b(inf|nan)\b", captured.out, re.IGNORECASE)


# magnitudes from the bottom to the top of the float range
EXTREMES = (1e-300, 1e-30, 1e-3, 0.5, 1.0, 2.5, 15.0, 1e3, 1e30, 1e300)


def mc_input_grid(seed: int, count: int) -> list[tuple[str, list[str]]]:
    """(config text, argv tail) for small-block mc-validate and MC-sweep
    cases: K <= 4, L <= 3, N <= 64, at most 256 antennas, 1-3 trials,
    X_int, C_f and gamma_ref_db over the float range, every bind."""
    rng = random.Random(seed)

    def draw(*typical):  # an extreme a third of the time, so most cases simulate
        return rng.choice(EXTREMES if rng.random() < 1 / 3 else typical)

    cases = []
    for i in range(count):
        bind = ("none", "antennas", "bandwidth")[i % 3]
        c_f = draw(1e9, 6.4e9, 500e9)
        m = rng.choice((1, 2, 16, 64, 256))
        keys = {
            "K": rng.randint(1, 4), "L": rng.randint(1, 3), "N": rng.randint(8, 64),
            "theta": rng.choice((0.5, 1.0, 1.3, 2.0)), "X_int": draw(1.0, 2.5, 4.0),
            "C_f": c_f, "gamma_ref_db": rng.choice((-1.0, 1.0)) * draw(0.0, 15.0, 30.0),
            "bind": bind, "trials": rng.randint(1, 3), "seed": i,
        }
        if bind == "antennas":  # M = floor(C_f/(B_w*b)) <= m
            keys["B_w"] = c_f / m
        elif bind == "bandwidth":
            keys["M"] = m
        else:
            keys.update(B_w=rng.choice(EXTREMES + (2e8,)), M=m)
        if i % 2:
            keys["mc_mode"] = rng.choice(("pqn", "uniform"))
            axis, values = rng.choice([("b", "1,2,12"), ("theta", "0.5,1,3"),
                                       ("snr_db", "-300,0,60")])
            if bind == "none" and rng.random() < 0.5:  # sweep the design itself
                axis = rng.choice(("B_w", "M"))
                values = "1e-300,2e8,1e300" if axis == "B_w" else "1,3,256"
                del keys[axis]
            keys.update(sweep_axis=axis, sweep_values=values)
            argv = ["sweep"]
        else:
            argv = ["mc-validate", "--bits", rng.choice(("1", "1,2", "1,2,3", "2,12")),
                    "--mode", rng.choice(("pqn", "uniform", "both"))]
        text = "".join(f"{key} = {value}\n" for key, value in keys.items())
        cases.append((text, argv))
    return cases


class TestMcInputGrid:
    def test_every_case_ends_cleanly(self, tmp_path, capsys):
        # every case exits 0 with every number finite (JSON with no NaN or
        # Infinity token, CSV cells finite or empty), or prints one JSON
        # error line with exit 1 or 2; no traceback, warning or stderr
        failures = []
        outcomes = collections.Counter()
        for i, (text, argv) in enumerate(mc_input_grid(seed=2024, count=60)):
            cfg = write_config(tmp_path, text, f"case{i}.cfg")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    code = main([argv[0], "--config", cfg, *argv[1:]])
                except Exception as exc:  # a traceback, or a warning raised
                    code = repr(exc)
            out, err = capsys.readouterr()
            try:
                if code == 0 and argv[0] == "sweep":
                    cells = [line.split(",") for line in out.splitlines()[2:]]
                    ok = all(cell == "" or math.isfinite(number(cell))
                             for row in cells for cell in row)
                elif code == 0:
                    ok = all(math.isfinite(value)
                             for point in strict_json(out)["points"]
                             for value in point.values()
                             if isinstance(value, float))
                else:
                    ok = code in (1, 2) and out.count("\n") == 1 and "error" in strict_json(out)
            except ValueError:  # a NaN or Infinity token
                ok = False
            outcomes[argv[0], code] += 1
            if not ok or err:
                failures.append(f"case {i} {argv}: exit {code} {out[:120]!r} {err[:120]!r}")
        assert not failures, failures
        # the grid reaches the simulator in both commands, not only errors
        assert outcomes["sweep", 0] and outcomes["mc-validate", 0], outcomes


# scale exponents k of the 2**k rescalings, from far below to far above 1
SCALES = (-20, -3, 1, 7, 30)
# the outputs that scale with (C_f, P, B_w); snr_db shifts by 10*k*log10(2) dB
SCALED = {"C_f_bps", "B_w_hz", "fronthaul_load_bps", "rate_bps", "sum_rate_bps",
          "closed_form_bps", "mc_bps", "stderr_bps", "mc_rate_bps", "mc_stderr_bps"}


def random_link(rng):
    """A config's keys at a random link: SNR -10 to 40 dB in 1 MHz, C_f 1 to
    10**4 Gbit/s, where every 2**k rescaling of SCALES stays in the float
    range and the search resolves an integer optimum."""
    return dict(
        K=rng.randint(1, 20), L=rng.randint(1, 10), N=rng.choice((1000, 2000, 4000)),
        theta=rng.choice((0.5, 1.0, 1.37, 2.0, 4.0)), X_int=rng.choice((0.5, 1.0, 2.5, 4.0)),
        P=10 ** rng.uniform(5.0, 10.0), C_f=10 ** rng.uniform(9.0, 13.0),
    )


class TestScaleInvariance:
    """Every closed form, the search and the simulator read the power P and
    a bandwidth B_w only through P/B_w, and the cap as B_w*M*b = C_f.  So
    scaling (C_f, P), and a given B_w, by 2**k poses the same problem, and
    floating point scales by a power of two exactly: through ``main``, every
    design, count, c, gamma, condition and clip rate is the same, and every
    bandwidth and rate exactly 2**k times larger.  Only the relaxed search
    may move, within its bisection width, since its bracket starts at b/C_f."""

    @staticmethod
    def run(tmp_path, capsys, argv, keys, k):
        """Stdout, or the CSV that ``--out`` names, of ``main`` on a config of
        ``keys`` with C_f, P and B_w scaled by 2**k."""
        text = "".join(f"{key} = {math.ldexp(value, k) if key in ('C_f', 'P', 'B_w') else value}\n"
                       for key, value in keys.items())
        cfg = write_config(tmp_path, text, f"scaled{k}.cfg")
        out = tmp_path / f"scaled{k}.csv"
        extra = ["--out", str(out)] if argv[0] == "sweep" else []
        assert main([argv[0], "--config", cfg, *argv[1:], *extra]) == 0
        return out.read_text(encoding="utf-8") if extra else capsys.readouterr().out

    def assert_scaled(self, base, scaled, k, key=None):
        if isinstance(base, dict):
            assert base.keys() == scaled.keys()
            for name in base:
                self.assert_scaled(base[name], scaled[name], k, name)
        elif isinstance(base, list):
            assert len(base) == len(scaled)
            for item, scaled_item in zip(base, scaled):
                self.assert_scaled(item, scaled_item, k, key)
        elif key in SCALED:
            assert scaled == math.ldexp(base, k), (key, k)
        else:
            assert (type(scaled), scaled) == (type(base), base), (key, k)

    def test_optimize(self, tmp_path, capsys):
        rng = random.Random(2027)
        for _ in range(40):
            keys = random_link(rng)
            base = strict_json(self.run(tmp_path, capsys, ["optimize"], keys, 0))
            relaxed = base.pop("relaxed")
            for k in SCALES:
                scaled = strict_json(self.run(tmp_path, capsys, ["optimize"], keys, k))
                moved = scaled.pop("relaxed")
                self.assert_scaled(base, scaled, k)
                # within the width at which maximize_over_s stops
                width = min(S_TOLERANCE, 1e-6 * relaxed["s"])
                assert abs(moved["s"] - relaxed["s"]) <= width, (keys, k)
                assert math.ldexp(moved["rate_bps"], -k) == pytest.approx(
                    relaxed["rate_bps"], rel=1e-12, abs=0.0), (keys, k)

    def test_rate(self, tmp_path, capsys):
        rng = random.Random(2028)
        for _ in range(30):
            keys = dict(random_link(rng), B_w=10 ** rng.uniform(3.0, 12.0),
                        M=rng.randint(1, 10**6), b=rng.randint(1, 12))
            base = strict_json(self.run(tmp_path, capsys, ["rate"], keys, 0))
            for k in SCALES:
                scaled = strict_json(self.run(tmp_path, capsys, ["rate"], keys, k))
                self.assert_scaled(base, scaled, k)

    def sweep_rows(self, tmp_path, capsys, keys, k):
        """The rows of a scaled ``sweep`` CSV, below its version line."""
        text = self.run(tmp_path, capsys, ["sweep"], keys, k)
        return list(csv.DictReader(text.splitlines()[1:]))

    @pytest.mark.parametrize("axis", ["s", "M"])
    def test_curve_sweep(self, tmp_path, capsys, axis):
        rng = random.Random(2029)
        for _ in range(6):
            keys = random_link(rng)
            b = rng.randint(1, 12)
            if axis == "s":  # on the curve at every scale: s >= b/(C_f*2**-20)
                low = math.log10(b * 2.0**20 / keys["C_f"])
                grid = [10 ** rng.uniform(low, 0.0) for _ in range(8)]
            else:
                grid = rng.sample(range(1, 10**5), 8)
                keys.update(bind="bandwidth")
            keys.update(b=b, sweep_axis=axis, sweep_values=",".join(map(repr, sorted(set(grid)))))
            base = self.sweep_rows(tmp_path, capsys, keys, 0)
            for k in SCALES:
                scaled = self.sweep_rows(tmp_path, capsys, keys, k)
                assert len(scaled) == len(base)
                for row, scaled_row in zip(base, scaled):
                    for name, cell in row.items():
                        if name in SCALED and cell:  # not an empty Monte Carlo cell
                            assert float(scaled_row[name]) == math.ldexp(float(cell), k), name
                        elif name != "snr_db":
                            assert scaled_row[name] == cell, (name, k)

    def test_seeded_mc_validate(self, tmp_path, capsys):
        rng = random.Random(2030)
        argv = ["mc-validate", "--bits", "1,2", "--mode", "both", "--trials", "3"]
        for seed in range(3):
            keys = dict(random_link(rng), K=rng.randint(1, 4), L=2, N=rng.choice((64, 128)),
                        theta=1.0, B_w=10 ** rng.uniform(6.0, 9.0), M=rng.choice((8, 16, 32)),
                        seed=seed)
            base = strict_json(self.run(tmp_path, capsys, argv, keys, 0))
            for k in SCALES:
                scaled = strict_json(self.run(tmp_path, capsys, argv, keys, k))
                self.assert_scaled(base, scaled, k)


class TestParserReuse:
    """main builds its parser once per process; no value a call gives
    carries over into the next call."""

    def test_no_value_carries_over(self, tmp_path, capsys):
        from fronthaul_mimo.cli import _build_parser

        assert _build_parser() is _build_parser()
        cfg = write_config(
            tmp_path, "K = 2\nL = 2\nN = 128\nX_int = 2.5\nB_w = 1e8\nM = 16\ntrials = 2\n"
        )
        mc = ["mc-validate", "--config", cfg, "--bits", "1", "--mode", "pqn"]
        assert main(mc + ["--trials", "3", "--seed", "5"]) == 0
        assert strict_json(capsys.readouterr().out)["trials"] == 3
        assert main(mc) == 0
        report = strict_json(capsys.readouterr().out)
        assert (report["trials"], report["seed"]) == (2, 0)

        assert main(["rate", "--config", cfg, "--bw", "2e8", "--m", "64", "--b", "2"]) == 0
        design = strict_json(capsys.readouterr().out)["design"]
        assert design == {"B_w_hz": 2e8, "M": 64, "b": 2}
        assert main(["rate", "--config", cfg]) == 0
        design = strict_json(capsys.readouterr().out)["design"]
        assert design == {"B_w_hz": 1e8, "M": 16, "b": 1}

        # a usage error that has already read --bw, then a valid call: its
        # stdout is what the call prints as the first of a fresh process
        with pytest.raises(SystemExit) as err:
            main(["rate", "--config", cfg, "--bw", "3e8", "--m"])
        assert err.value.code == 1
        error = strict_json(capsys.readouterr().out)
        assert error == {"error": "config", "detail": "argument --m: expected one argument"}
        assert main(["rate", "--config", cfg]) == 0
        again = capsys.readouterr().out
        src = os.path.dirname(os.path.dirname(os.path.abspath(fronthaul_mimo.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "fronthaul_mimo", "rate", "--config", cfg],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert (proc.returncode, proc.stdout) == (0, again)
