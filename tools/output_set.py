"""Write the byte-identity output set of one source tree, or compare two.

    python3 tools/output_set.py OUTDIR [--src SRC]
    python3 tools/output_set.py OUTDIR --against OTHER [--src SRC]

Runs ``fronthaul_mimo.cli.main`` in this one interpreter, with the package
imported from ``SRC/src`` (default: the checkout this script is in), and
writes every output into OUTDIR: one file per command (its standard output,
or the file its ``--out`` names) and ``exit_codes.txt``.  Two trees print
the same numbers when ``diff -r`` of their two OUTDIRs prints nothing.

With ``--against OTHER`` the script writes both sets with its own command
list, SRC's into ``OUTDIR/src`` and OTHER's into ``OUTDIR/against``, each in
a fresh interpreter, and prints the files that differ in two groups:
closed form, and Monte Carlo (``mc_validate*.json`` and ``*trials*.csv``,
whose seeded values a change to the simulator's draws may move).  Then it
prints one line per differing ``.json`` file that both sets hold as JSON,
naming the keys whose values differ (``optimize_grid07.json:
trace_points``; a nested key as ``points[0].mc_bps``), and for two floats
their distance in units in the last place of OTHER's value
(``optimize_grid05.json: relaxed.rate_bps (1 ulp)``).  It exits 1 when a
closed-form file differs, and 0 otherwise.

The set: the 72 paper-grid ``optimize`` runs (SNR {0, 15, 30} dB x C_f
{50, 500} Gbit/s x theta {1, 2, 4, 8} x X_int {1, 2.5, 4}, K=20, L=10,
N=2000), default ``optimize``, ``optimize`` at C_f = 1e60 and at C_f =
1e300 (an error line), the seven preset CSVs, ``preset fig4`` with
``--trials 1`` (an undefined standard error, an empty cell) and with
``--trials 2``, two ``rate`` calls, three seeded ``mc-validate`` runs:
both modes and ``--mode uniform`` at one ``(B_w, M)`` (rows that share a
block), and ``bind = antennas`` (one ``M``, so one group of rows, per ``b``),
two ``mc-validate`` error lines (``mc_validate_err_*.json``, exit 2): a
closed-form rate that underflows to zero, and a row whose simulated rate is
not finite; closed-form ``sweep`` CSVs along ``B_w``, ``M``, ``theta`` and
``snr_db`` (the axes no preset sweeps) under each ``bind`` the axis takes,
each with its ``.effective`` echo; nine ``sweep`` error lines
(``sweep_err_*.json``, exit 2), one per way a grid point fails: fractional
``b`` or ``M``, ``s`` off the curve, no antenna under the cap, a load over
the cap, a zero rate, a rate that is not finite, a division by zero, and a
bound bandwidth beyond the float range; a
seeded Monte Carlo ``sweep`` along ``s`` (``sweep_s_trials2.csv``, the
curve run's simulated cells); three non-finite input lines
(``rate_err_*.json`` and ``optimize_err_*.json``, exit 2): ``--bw inf``,
``gamma_ref_db = nan`` and ``C_f = inf``; two non-finite literals given to
integer keys (``config_err_k_inf.json`` and ``config_err_seed_nan.json``,
exit 1); two negative flag values after a space (exit 2): ``rate --bw
-1e8`` and ``mc-validate --bw -inf`` (``rate_err_bw_minus_1e8.json`` and
``mc_validate_err_bw_minus_inf.json``); an ``mc-validate`` of 10^8 trials
that passes the simulator's run budget (``mc_validate_err_run_budget.json``,
exit 2); two path error lines
(``path_err_*.json``, exit 1): a config that cannot be read and an
``--out`` that cannot be written; a sweep with no ``M`` at any point
(``config_err_sweep_no_design.json``, exit 1); and three syntax error lines
(exit 1): the usage error of an unknown flag, ``rate --bogus``
(``config_err_usage.json``), a config that sets a key twice
(``config_err_duplicate_key.json``) and a config line without ``=``
(``config_err_no_equals.json``).

A command that raises out of ``main`` (a tree that prints a traceback
where this one prints an error line) is recorded in ``exit_codes.txt`` as
``raised`` and the exception's type, and its output file stays empty.  So
is one that runs past ``COMMAND_TIMEOUT_S`` (a tree without the run budget
would simulate the 10^8 blocks for days), recorded as ``timed out``.  A
usage error, which ``main`` ends with ``SystemExit`` as argparse does, is
recorded with its exit code and its output line.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import fnmatch
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

PAPER_GRID = [
    (snr, c_f, theta, x_int)
    for snr in (0.0, 15.0, 30.0)
    for c_f in (50e9, 500e9)
    for theta in (1.0, 2.0, 4.0, 8.0)
    for x_int in (1.0, 2.5, 4.0)
]
PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")
MONTE_CARLO = ("mc_validate*.json", "*trials*.csv")
COMMAND_TIMEOUT_S = 10  # every command of the set runs in well under a second
# (axis, grid, {bind: fixed keys}) of the sweeps along the axes no preset sweeps
SWEEP_AXES = (
    ("B_w", "1e7,5e7,2e8,1e9,5e9", {"none": dict(M=256, b=2), "antennas": dict(b=1)}),
    ("M", "16,64,256,1024,4096", {"none": dict(B_w=2e8, b=3), "bandwidth": dict(b=1)}),
    ("theta", "1,1.3,2,4,8", {"none": dict(B_w=2e8, M=256, b=2), "antennas": dict(B_w=2e8, b=2),
                              "bandwidth": dict(M=256, b=2)}),
    ("snr_db", "-10,0,15,30,45", {"none": dict(B_w=2e8, M=256), "antennas": dict(B_w=2e8),
                                  "bandwidth": dict(M=256)}),
)
# one sweep per way a grid point fails, each after a point that does not
# (the zero division fails at every point, and an infinite bandwidth at the
# first)
SWEEP_ERRORS = {
    "fractional_b": dict(sweep_axis="b", sweep_values="1,2.5", bind="antennas", B_w=2e8),
    "fractional_m": dict(sweep_axis="M", sweep_values="64,64.5", B_w=2e8),
    "s_outside_curve": dict(sweep_axis="s", sweep_values="0.5,2"),
    "no_antenna": dict(sweep_axis="B_w", sweep_values="1e8,1e12", bind="antennas"),
    "broken_cap": dict(P=1e-160, C_f=1e-320, bind="bandwidth", sweep_axis="M",
                       sweep_values="1,3"),
    "zero_rate": dict(sweep_axis="B_w", sweep_values="2e8,1e300", M=64),
    "non_finite_rate": dict(K=4, L=3, N=62, theta=0.5, X_int=1e-30, sweep_axis="M",
                            sweep_values="1,256", B_w=1e-300),
    "zero_division": dict(P=1e-165, sweep_axis="B_w", sweep_values="1e-170,2e-170", M=64),
    "infinite_bandwidth": dict(bind="bandwidth", sweep_axis="M", sweep_values="1e-320,1"),
}


def _config_text(cfg_dir: str, name: str, text: str) -> str:
    path = os.path.join(cfg_dir, name + ".cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _config(cfg_dir: str, name: str, **keys) -> str:
    return _config_text(cfg_dir, name, "".join(f"{k} = {v if isinstance(v, str) else repr(v)}\n"
                                               for k, v in keys.items()))


def commands(cfg_dir: str, out_dir: str) -> list[tuple[str, list[str]]]:
    """(output name, argv) for every command of the set; a name ending in
    ``.csv`` is written by the command's ``--out``."""
    cmds = []
    for i, (snr, c_f, theta, x_int) in enumerate(PAPER_GRID):
        path = _config(cfg_dir, f"grid{i:02d}", gamma_ref_db=snr, C_f=c_f, theta=theta,
                       X_int=x_int, K=20, N=2000, L=10)
        cmds.append((f"optimize_grid{i:02d}.json", ["optimize", "--config", path]))
    cmds.append(("optimize_default.json", ["optimize"]))
    for tag, c_f in (("1e60", 1e60), ("1e300", 1e300)):
        path = _config(cfg_dir, "cf_" + tag, C_f=c_f)
        cmds.append((f"optimize_cf_{tag}.json", ["optimize", "--config", path]))
    for name in PRESETS:
        cmds.append((f"preset_{name}.csv", ["preset", name]))
    for trials in ("1", "2"):
        cmds.append((f"preset_fig4_trials{trials}.csv", ["preset", "fig4", "--trials", trials]))
    cmds.append(("rate_default.json", ["rate", "--bw", "2e8", "--m", "2500", "--b", "1"]))
    path = _config(cfg_dir, "rate", gamma_ref_db=30.0, theta=1.37, X_int=2.5, C_f=50e9)
    cmds.append(("rate_theta137.json",
                 ["rate", "--config", path, "--bw", "1e9", "--m", "200", "--b", "3"]))
    path = _config(cfg_dir, "mc", K=4, L=4, N=256, X_int=2.5, B_w=2e8, M=64)
    mc_argv = ["mc-validate", "--config", path, "--trials", "8", "--seed", "12345"]
    cmds.append(("mc_validate.json", mc_argv))
    cmds.append(("mc_validate_uniform.json", mc_argv + ["--mode", "uniform"]))
    path = _config(cfg_dir, "mc_bind", K=4, L=4, N=256, X_int=2.5, C_f=25.6e9, B_w=2e8,
                   bind="antennas")
    cmds.append(("mc_validate_bind_antennas.json",
                 ["mc-validate", "--config", path, "--trials", "8", "--seed", "12345"]))
    path = _config(cfg_dir, "mc_zero_rate", K=4, L=2, N=53, theta=2, X_int=2.5,
                   gamma_ref_db=-15, B_w=1e300, M=256)
    cmds.append(("mc_validate_err_zero_rate.json",
                 ["mc-validate", "--config", path, "--bits", "1", "--mode", "uniform",
                  "--trials", "1"]))
    path = _config(cfg_dir, "mc_short_block", K=2, L=2, N=33, theta=1.3)
    cmds.append(("mc_validate_err_non_finite.json",
                 ["mc-validate", "--config", path, "--bits", "1,2,12", "--mode", "uniform",
                  "--trials", "3", "--bw", "2e8", "--m", "4096", "--seed", "2"]))
    for axis, values, fixed in SWEEP_AXES:
        for bind, anchors in fixed.items():
            path = _config(cfg_dir, f"sweep_{axis}_{bind}", sweep_axis=axis, sweep_values=values,
                           bind=bind, **anchors)
            cmds.append((f"sweep_{axis}_{bind}.csv", ["sweep", "--config", path]))
    for kind, keys in SWEEP_ERRORS.items():
        path = _config(cfg_dir, "sweep_err_" + kind, **keys)
        cmds.append((f"sweep_err_{kind}.json", ["sweep", "--config", path]))
    path = _config(cfg_dir, "sweep_s_trials2", K=4, L=4, N=256, X_int=2.5, C_f=12.8e9,
                   sweep_axis="s", sweep_values="0.015625,0.03125,0.0625", b=1, trials=2,
                   seed=3)
    cmds.append(("sweep_s_trials2.csv", ["sweep", "--config", path]))
    cmds.append(("rate_err_bw_inf.json", ["rate", "--bw", "inf", "--m", "64"]))
    for name, keys in (("gamma_nan", dict(gamma_ref_db="nan")), ("cf_inf", dict(C_f="inf"))):
        path = _config(cfg_dir, "non_finite_" + name, **keys)
        cmds.append((f"optimize_err_{name}.json", ["optimize", "--config", path]))
    for name, keys in (("k_inf", dict(K="inf")), ("seed_nan", dict(seed="nan"))):
        path = _config(cfg_dir, "non_finite_" + name, **keys)
        cmds.append((f"config_err_{name}.json", ["optimize", "--config", path]))
    # a negative flag value with an exponent, or an infinity, after a space
    cmds.append(("rate_err_bw_minus_1e8.json", ["rate", "--bw", "-1e8", "--m", "64"]))
    cmds.append(("mc_validate_err_bw_minus_inf.json",
                 ["mc-validate", "--bw", "-inf", "--m", "64"]))
    # 10^8 blocks pass the simulator's run budget: refused before the first
    cmds.append(("mc_validate_err_run_budget.json",
                 ["mc-validate", "--bw", "2e8", "--m", "4", "--trials", "100000000"]))
    # fixed paths, so that the error lines of two runs compare byte for byte
    cmds.append(("path_err_config.json", ["optimize", "--config", "/nonexistent/fhmimo.cfg"]))
    cmds.append(("path_err_out.json", ["preset", "fig2", "--out", "/nonexistent/fhmimo.csv"]))
    path = _config(cfg_dir, "sweep_no_design", sweep_axis="b", sweep_values="1,2", B_w=2e8)
    cmds.append(("config_err_sweep_no_design.json", ["sweep", "--config", path]))
    # the command line's own syntax errors: an unknown flag, and two config
    # lines the parser refuses, whose details name the line, not the path
    cmds.append(("config_err_usage.json", ["rate", "--bogus"]))
    for name, text in (("duplicate_key", "K = 4\nK = 5\n"), ("no_equals", "K 4\n")):
        path = _config_text(cfg_dir, "syntax_" + name, text)
        cmds.append((f"config_err_{name}.json", ["optimize", "--config", path]))
    return [
        (name, argv + ["--out", os.path.join(out_dir, name)] if name.endswith(".csv") else argv)
        for name, argv in cmds
    ]


class TimedOut(BaseException):
    """A command ran past ``COMMAND_TIMEOUT_S``; a BaseException, so that no
    ``except Exception`` of the program under test swallows it."""


def _time_out(signum, frame):
    raise TimedOut


def write_set(outdir: str, src: str) -> int:
    pkg_root = os.path.abspath(os.path.join(src, "src"))
    sys.path.insert(0, pkg_root)
    from fronthaul_mimo import cli

    if not os.path.abspath(cli.__file__).startswith(pkg_root + os.sep):
        print(f"fronthaul_mimo was imported from {cli.__file__}, not {pkg_root}", file=sys.stderr)
        return 2
    os.makedirs(outdir, exist_ok=True)
    codes = []
    signal.signal(signal.SIGALRM, _time_out)
    with tempfile.TemporaryDirectory() as cfg_dir:
        for name, argv in commands(cfg_dir, outdir):
            buf = io.StringIO()
            signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except SystemExit as exc:  # a usage error: argparse's line, then exit 1
                code = exc.code
            except TimedOut:
                code, buf = "timed out", io.StringIO()
            except Exception as exc:
                code, buf = f"raised {type(exc).__name__}", io.StringIO()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if not name.endswith(".csv"):
                with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
                    fh.write(buf.getvalue())
            codes.append(f"{name} {code}\n")
    with open(os.path.join(outdir, "exit_codes.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(codes)
    return 0


def differing_keys(a, b, path: str = "") -> list[str]:
    """Paths of the values that differ between two parsed JSON documents,
    each of two floats with its distance in ulps of ``b``'s value."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [key for k in sorted(a.keys() | b.keys())
                for key in differing_keys(a.get(k), b.get(k), f"{path}.{k}" if path else k)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [key for i, (x, y) in enumerate(zip(a, b))
                for key in differing_keys(x, y, f"{path}[{i}]")]
    if a == b and type(a) is type(b):
        return []
    if type(a) is float and type(b) is float:
        return [f"{path or '(document)'} ({abs(a - b) / math.ulp(b):g} ulp)"]
    return [path or "(document)"]


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def compare_sets(outdir: str, src: str, against: str) -> int:
    """Write both trees' sets, each in a fresh interpreter, and list the
    files that differ; 1 when a closed-form file does."""
    sides = {"src": src, "against": against}
    for side, tree in sides.items():
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        os.path.join(outdir, side), "--src", tree], check=True)

    def same(name: str) -> bool:
        paths = [os.path.join(outdir, side, name) for side in sides]
        return all(map(os.path.exists, paths)) and filecmp.cmp(*paths, shallow=False)

    names = sorted(set().union(*(os.listdir(os.path.join(outdir, side)) for side in sides)))
    differ = [name for name in names if not same(name)]
    monte_carlo = [n for n in differ if any(fnmatch.fnmatch(n, p) for p in MONTE_CARLO)]
    closed_form = [n for n in differ if n not in monte_carlo]
    print(f"{len(names) - len(differ)} of {len(names)} files byte-identical")
    print("closed form differs:", " ".join(closed_form) or "none")
    print("Monte Carlo differs:", " ".join(monte_carlo) or "none")
    for name in (n for n in differ if n.endswith(".json")):
        docs = [_load_json(os.path.join(outdir, side, name)) for side in sides]
        if None not in docs:
            print(f"{name}: {', '.join(differing_keys(*docs)) or 'same values, other bytes'}")
    return 1 if closed_form else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir")
    parser.add_argument("--src", default=os.path.dirname(HERE),
                        help="source tree holding src/fronthaul_mimo (default: this checkout)")
    parser.add_argument("--against", help="a second source tree to write and compare with")
    args = parser.parse_args()
    if args.against:
        return compare_sets(args.outdir, args.src, args.against)
    return write_set(args.outdir, args.src)


if __name__ == "__main__":
    sys.exit(main())
