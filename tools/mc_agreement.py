"""Seeded Monte Carlo agreement of two source trees over many seeds.

    python3 tools/mc_agreement.py --src PARENT [--seeds N] [--first-seed S] [-- MC_ARGS...]

Runs ``fhmimo mc-validate MC_ARGS --seed s`` for s = S .. S+N-1 in this
checkout and in the tree at PARENT (each tree's package imported from its
``src/``, one process per tree), and prints, per row (b, mode), the mean and
standard deviation of ``mc_bps`` over the seeds on each side, each side's
gap to the closed form, and z, the difference of the two means over its
standard error sqrt(sd_parent^2/N + sd_this^2/N).  The two trees may draw
different random streams at the same seed; within the seeds' spread, |z|
stays below about 3.

Without MC_ARGS the point is fhbench's ``mc_small``: K=4, L=4, N=256,
theta=1, 15 dB, X_int=2.5, B_w=200 MHz, M=64, ``--bits 1,2,3 --mode both
--trials 8``.  The last line of standard output is the per-row statistics
as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
MC_SMALL_CONFIG = ("K = 4\nL = 4\nN = 256\ntheta = 1.0\ngamma_ref_db = 15.0\nX_int = 2.5\n"
                   "B_w = 200e6\nM = 64\n")
MC_SMALL_ARGS = ["--bits", "1,2,3", "--mode", "both", "--trials", "8"]


def collect(src: str, mc_args: list[str], seeds: range) -> dict:
    """Per row "b/mode": the closed form and the seeds' ``mc_bps``, from the
    package in SRC/src, in this process."""
    pkg_root = os.path.abspath(os.path.join(src, "src"))
    sys.path.insert(0, pkg_root)
    from fronthaul_mimo import cli

    if not os.path.abspath(cli.__file__).startswith(pkg_root + os.sep):
        raise SystemExit(f"fronthaul_mimo was imported from {cli.__file__}, not {pkg_root}")
    rows: dict[str, dict] = {}
    for seed in seeds:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["mc-validate", *mc_args, "--seed", str(seed)])
        if code != 0:
            raise SystemExit(f"{src}: seed {seed} exited {code}: {buf.getvalue().strip()}")
        for p in json.loads(buf.getvalue())["points"]:
            row = rows.setdefault(f"{p['b']}/{p['mode']}",
                                  {"closed_form_bps": p["closed_form_bps"], "mc_bps": []})
            row["mc_bps"].append(p["mc_bps"])
    return rows


def _run_tree(src: str, mc_args: list[str], seeds: range) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--collect", src,
         "--seeds", str(len(seeds)), "--first-seed", str(seeds.start), "--", *mc_args],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def compare(parent: dict, this: dict) -> dict:
    """Per row: closed form, [mean, sd] of each side, and z."""
    out = {}
    for key, p_row in parent.items():
        p, t = p_row["mc_bps"], this[key]["mc_bps"]
        mp, sp = statistics.fmean(p), statistics.stdev(p)
        mt, st = statistics.fmean(t), statistics.stdev(t)
        out[key] = {
            "closed_form_bps": p_row["closed_form_bps"],
            "parent": [mp, sp],
            "this": [mt, st],
            "z": (mt - mp) / math.sqrt(sp**2 / len(p) + st**2 / len(t)),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="the other source tree, holding src/fronthaul_mimo")
    parser.add_argument("--seeds", type=int, default=300)
    parser.add_argument("--first-seed", type=int, default=50000)
    parser.add_argument("--collect", metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("mc_args", nargs=argparse.REMAINDER,
                        help="mc-validate arguments after --, without --seed")
    args = parser.parse_args()
    mc_args = args.mc_args[1:] if args.mc_args[:1] == ["--"] else args.mc_args
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    if args.collect:
        json.dump(collect(args.collect, mc_args, seeds), sys.stdout)
        return 0
    if args.src is None or args.seeds < 2:
        parser.error("--src is required and --seeds must be at least 2")
    with tempfile.TemporaryDirectory() as tmp:
        if not mc_args:
            path = os.path.join(tmp, "mc_small.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(MC_SMALL_CONFIG)
            mc_args = ["--config", path, *MC_SMALL_ARGS]
        rows = compare(_run_tree(args.src, mc_args, seeds),
                       _run_tree(os.path.dirname(HERE), mc_args, seeds))
    print(f"{len(seeds)} seeds {seeds.start}..{seeds.stop - 1}; mc-validate {' '.join(mc_args)}")
    print("| row | closed form, Mbit/s | parent mean (sd) | parent gap "
          "| this mean (sd) | this gap | z |")
    print("|---|---|---|---|---|---|---|")
    for key, r in rows.items():
        cf, (mp, sp), (mt, st) = r["closed_form_bps"], r["parent"], r["this"]
        print(f"| {key} | {cf / 1e6:.2f} | {mp / 1e6:.2f} ({sp / 1e6:.2f}) | {mp / cf - 1:+.2%} "
              f"| {mt / 1e6:.2f} ({st / 1e6:.2f}) | {mt / cf - 1:+.2%} | {r['z']:+.2f} |")
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
