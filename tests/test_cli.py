import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import fronthaul_mimo
from fronthaul_mimo.cli import (
    CSV_COLUMNS,
    SweepSpec,
    main,
    parse_config_text,
    run_preset,
    run_sweep,
    rows_to_csv,
)
from fronthaul_mimo.errors import ConfigSyntaxError, ConfigValueError
from fronthaul_mimo.sysmodel import SystemConfig, reference_snr_from_power

def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def strict_json(text):
    """Parse one JSON document, refusing the NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def assert_model_error(code, out):
    assert code == 2
    assert out.count("\n") == 1
    assert strict_json(out)["error"] == "model"

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

    def test_power_keys_exclusive(self):
        with pytest.raises(ConfigValueError, match="mutually exclusive"):
            parse_config_text("P_max = 1.0\ngamma_ref_db = 10\n")

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
        rows = run_sweep(config, spec)
        for row in rows:
            assert row["M"] == math.floor(config.C_f / (2e8 * row["b"]))
            assert row["B_w_hz"] * row["M"] * row["b"] <= config.C_f * (1 + 1e-9)

    def test_rows_carry_conditions_and_threshold(self):
        config, _ = parse_config_text("")
        spec = SweepSpec(axis="b", values=(1.0, 2.0), bind="antennas", B_w=2e8)
        rows = run_sweep(config, spec)
        assert rows[0]["f_b"] > 1.0 > rows[1]["f_b"]
        for row in rows:
            assert row["bandwidth_cond"] in (True, False)

    def test_csv_shape(self):
        config, _ = parse_config_text("")
        spec = SweepSpec(axis="b", values=(1.0, 2.0), bind="antennas", B_w=2e8)
        text = rows_to_csv(run_sweep(config, spec))
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 4

class TestPresets:
    def test_fig2_peaks_at_one_bit(self):
        rows = run_preset("fig2")
        best = max(rows, key=lambda r: r["rate_bps"])
        assert best["b"] == 1
        assert rows[0]["M"] == 2500

    def test_fig3_threshold_column(self):
        rows = run_preset("fig3")
        by_bits = {row["b"]: row["f_b"] for row in rows}
        assert by_bits[1] > 1.0
        assert all(by_bits[b] < 1.0 for b in range(2, 13))

    def test_fig4_constraint_binding_and_uncertified_peak(self):
        # at 15 dB the one-bit point of this trajectory sits below the
        # bandwidth threshold (I/N_0 = 0.25 < f(1)), so the one-bit shortcut
        # is uncertified and the curve genuinely peaks at b = 2
        rows = run_preset("fig4")
        for row in rows:
            assert row["B_w_hz"] == pytest.approx(500e9 / (200 * row["b"]), rel=1e-12)
        by_bits = {row["b"]: row for row in rows}
        assert not by_bits[1]["bandwidth_cond"]
        best = max(rows, key=lambda r: r["rate_bps"])
        assert best["b"] == 2

    def test_fig5_interior_argmax(self):
        rows = run_preset("fig5")
        best = max(range(len(rows)), key=lambda i: rows[i]["rate_bps"])
        assert 0 < best < len(rows) - 1  # interior, not a grid endpoint
        assert rows[best]["b"] == 1
        assert 200 <= rows[best]["M"] <= 600

    def test_fig8_pilot_excess_trend(self):
        rows = run_preset("fig8")
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
            rows = run_preset(name)
            assert len(rows) == 36  # 12 resolutions x 3 reference SNRs
            snrs = sorted({round(r["snr_db"], 6) for r in rows})
            assert snrs == [0.0, 15.0, 30.0]
            for row in rows:
                assert row["B_w_hz"] * row["M"] * row["b"] <= 500e9 * (1 + 1e-9)

    def test_unknown_preset(self):
        with pytest.raises(ConfigSyntaxError):
            run_preset("fig99")

class TestMainRate:
    def test_rate_json(self, capsys):
        code = main(["rate", "--bw", "2e8", "--m", "2500", "--b", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["design"]["M"] == 2500
        assert out["rate_bps"] > 0
        assert out["fronthaul_load_bps"] == pytest.approx(5e11)

    def test_module_entry_point(self, capsys):
        # an uninstalled checkout runs the CLI as python -m fronthaul_mimo or
        # python -m fronthaul_mimo.cli
        assert main(["rate", "--bw", "2e8", "--m", "64"]) == 0
        expected = capsys.readouterr().out
        src = os.path.dirname(os.path.dirname(os.path.abspath(fronthaul_mimo.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        for module in ("fronthaul_mimo", "fronthaul_mimo.cli"):
            for argv, code, out in (
                (["rate", "--bw", "2e8", "--m", "64"], 0, expected),
                (["optimise"], 1, ""),
            ):
                proc = subprocess.run([sys.executable, "-m", module, *argv],
                                      capture_output=True, text=True, env=env)
                assert (proc.returncode, proc.stdout) == (code, out)

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
        # positive rate, or one JSON error line; no traceback, warning or stderr
        keys = [f.name for f in dataclasses.fields(SystemConfig)] + ["gamma_ref_db"]
        values = ("0", "1e-300", "1e-30", "0.5", "3", "1e30", "1e300", "-1", "nan", "inf")
        failures = []
        for key in keys:
            for value in values:
                cfg = write_config(tmp_path, f"{key} = {value}\n", "grid.cfg")
                for argv in (["rate", "--config", cfg, "--bw", "2e8", "--m", "64"],
                             ["optimize", "--config", cfg]):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            code = main(argv)
                        except Exception as exc:  # a traceback, or a warning raised
                            code = repr(exc)
                    out, err = capsys.readouterr()
                    if code == 0:
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

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as err:
            main(["optimise"])
        assert err.value.code == 1

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
        b1 = open(out1, "rb").read()
        b4 = open(out4, "rb").read()
        assert b1 == b4

    def test_repeat_run_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_MC)
        out1 = str(tmp_path / "r1.csv")
        out2 = str(tmp_path / "r2.csv")
        main(["sweep", "--config", cfg, "--out", out1])
        main(["sweep", "--config", cfg, "--out", out2])
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_effective_config_echo(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_MC)
        out = str(tmp_path / "e.csv")
        main(["sweep", "--config", cfg, "--out", out])
        echo = open(out + ".effective", "r", encoding="utf-8").read()
        assert "K = 2" in echo
        assert "sweep_axis = 'b'" in echo
        assert "N_p = 4" in echo

    def test_flag_overrides_config(self, tmp_path):
        # --trials 0 drops the MC columns; --seed changes the MC outcome
        cfg = write_config(tmp_path, SWEEP_MC)
        out_mc = str(tmp_path / "mc.csv")
        out_plain = str(tmp_path / "plain.csv")
        out_reseed = str(tmp_path / "reseed.csv")
        main(["sweep", "--config", cfg, "--out", out_mc])
        main(["sweep", "--config", cfg, "--out", out_plain, "--trials", "0"])
        main(["sweep", "--config", cfg, "--out", out_reseed, "--seed", "99"])
        plain_rows = open(out_plain).read().strip().split("\n")[2:]
        assert all(row.endswith(",,,,") for row in plain_rows)
        assert open(out_mc, "rb").read() != open(out_reseed, "rb").read()

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

    def test_single_trial_stderr_is_null(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "K = 2\nL = 2\nN = 128\nX_int = 2.5\nB_w = 1e8\nM = 16\n")
        code = main(["mc-validate", "--config", cfg, "--bits", "1", "--mode", "pqn",
                     "--trials", "1"])
        assert code == 0
        (point,) = strict_json(capsys.readouterr().out)["points"]
        assert point["stderr_bps"] is None
        assert point["mc_bps"] > 0
