"""Write the byte-identity output set of one source tree.

    python3 tools/output_set.py OUTDIR [--src SRC]

Runs ``fronthaul_mimo.cli.main`` in this one interpreter, with the package
imported from ``SRC/src`` (default: the checkout this script is in), and
writes every output into OUTDIR: one file per command (its standard output,
or the file its ``--out`` names) and ``exit_codes.txt``.  Two trees print
the same numbers when ``diff -r`` of their two OUTDIRs prints nothing.

The set: the 72 paper-grid ``optimize`` runs (SNR {0, 15, 30} dB x C_f
{50, 500} Gbit/s x theta {1, 2, 4, 8} x X_int {1, 2.5, 4}, K=20, L=10,
N=2000), default ``optimize``, ``optimize`` at C_f = 1e60 and at C_f =
1e300 (an error line), the seven preset CSVs, ``preset fig4 --trials 2``,
two ``rate`` calls, and three seeded ``mc-validate`` runs: both modes and
``--mode uniform`` at one ``(B_w, M)`` (rows that share a block), and
``bind = antennas`` (one ``M``, so one group of rows, per ``b``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
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


def _config(cfg_dir: str, name: str, **keys) -> str:
    path = os.path.join(cfg_dir, name + ".cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{k} = {v if isinstance(v, str) else repr(v)}\n"
                         for k, v in keys.items()))
    return path


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
    cmds.append(("preset_fig4_trials2.csv", ["preset", "fig4", "--trials", "2"]))
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
    return [
        (name, argv + ["--out", os.path.join(out_dir, name)] if name.endswith(".csv") else argv)
        for name, argv in cmds
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir")
    parser.add_argument("--src", default=os.path.dirname(HERE),
                        help="source tree holding src/fronthaul_mimo (default: this checkout)")
    args = parser.parse_args()

    pkg_root = os.path.abspath(os.path.join(args.src, "src"))
    sys.path.insert(0, pkg_root)
    from fronthaul_mimo import cli

    if not os.path.abspath(cli.__file__).startswith(pkg_root + os.sep):
        print(f"fronthaul_mimo was imported from {cli.__file__}, not {pkg_root}", file=sys.stderr)
        return 2
    os.makedirs(args.outdir, exist_ok=True)
    codes = []
    with tempfile.TemporaryDirectory() as cfg_dir:
        for name, argv in commands(cfg_dir, args.outdir):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if not name.endswith(".csv"):
                with open(os.path.join(args.outdir, name), "w", encoding="utf-8") as fh:
                    fh.write(buf.getvalue())
            codes.append(f"{name} {code}\n")
    with open(os.path.join(args.outdir, "exit_codes.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(codes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
