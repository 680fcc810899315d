"""The benchmark's four workloads.

Each makes its inputs from the seed, builds its configurations through the
program (the timed set-up), and issues operations that each call
``fronthaul_mimo.cli.main`` with the arguments a user gives ``fhmimo``.
Every operation's output is checked against ``oracle`` or against a
property of the paper's model; nothing is compared with a stored copy of
an earlier output.

A check returns a list of ``(kind, message)`` problems.  ``SUBOPTIMAL`` is
the one kind a run may count as a failed operation and still be correct:
it is how the known constraint-curve fault of ``optimizer`` for b >= 2
shows.  Any other problem makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
from dataclasses import dataclass
from typing import Callable

import oracle

SUBOPTIMAL = "suboptimal"
WRONG = "wrong"

REL_TOL = 1e-9  # closed forms agree to ~1e-15; this leaves room for CSV round trips


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


@dataclass
class Op:
    """One operation: ``cli.main`` calls, the work units they complete, and
    the check of their (exit code, stdout) results."""

    argvs: list[list[str]]
    units: int
    check: Callable[[list[tuple[int, str]]], list[tuple[str, str]]]


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _config_text(**keys) -> str:
    return "".join(f"{k} = {v!r}\n" for k, v in keys.items())


class Workload:
    name: str

    def setup(self, cli) -> None:
        """Build the configurations through the program; timed as set-up."""

    def prepare_checks(self) -> None:
        """Compute what the checks need; not timed."""

    def round(self) -> list[Op]:
        """The operations of one round; every run attempts whole rounds."""
        raise NotImplementedError

    def run_problems(self) -> list[str]:
        """Checks on the whole run, after its last operation."""
        return []


# --- optimize ----------------------------------------------------------------

PAPER_GRID = [
    (snr, c_f, theta, x_int)
    for snr in (0.0, 15.0, 30.0)
    for c_f in (50e9, 500e9)
    for theta in (1.0, 2.0, 4.0, 8.0)
    for x_int in (1.0, 2.5, 4.0)
]


def check_optimize(sc: oracle.Scenario, best: oracle.Design, code: int, out: str):
    """Feasible, rated as the oracle rates it, and no worse than the lattice optimum."""
    if code != 0:
        return [(WRONG, f"exit {code}: {out.strip()}")]
    rep = json.loads(out)
    b_w, m, b = rep["best"]["B_w_hz"], rep["best"]["M"], rep["best"]["b"]
    if not (isinstance(m, int) and m >= 1 and isinstance(b, int) and 1 <= b <= oracle.B_MAX
            and b_w > 0):
        return [(WRONG, f"not a design: B_w={b_w}, M={m}, b={b}")]
    problems = []
    if b_w * m * b > sc.C_f * (1.0 + REL_TOL):
        problems.append((WRONG, f"infeasible: {b_w}*{m}*{b} > C_f={sc.C_f}"))
    ref = oracle.rate(sc, b_w, m, b)
    for key in ("c", "gamma", "rate_bps"):
        if not _close(rep[key], getattr(ref, key)):
            problems.append((WRONG, f"{key}={rep[key]!r}, oracle {getattr(ref, key)!r}"))
    if rep["rate_bps"] < best.rate_bps * (1.0 - REL_TOL):
        problems.append((
            SUBOPTIMAL,
            f"b={b}, M={m} at {rep['rate_bps']:.6g} bit/s; lattice optimum "
            f"b={best.b}, M={best.M} at {best.rate_bps:.6g} bit/s",
        ))
    return problems


class Optimize(Workload):
    """The 72 points of the paper grid, one ``fhmimo optimize`` each."""

    name = "optimize"

    def __init__(self, seed: int, workdir: str):
        points = list(PAPER_GRID)
        random.Random(seed).shuffle(points)
        self.scenarios = [
            oracle.Scenario(snr_db=snr, C_f=c_f, theta=theta, X_int=x_int)
            for snr, c_f, theta, x_int in points
        ]
        self.paths = [
            _write(
                os.path.join(workdir, f"opt{i:02d}.cfg"),
                _config_text(gamma_ref_db=sc.snr_db, C_f=sc.C_f, theta=sc.theta,
                             X_int=sc.X_int, K=sc.K, N=sc.N, L=sc.L),
            )
            for i, sc in enumerate(self.scenarios)
        ]
        self.best: list[oracle.Design] = []

    def setup(self, cli) -> None:
        for path in self.paths:
            cli.parse_config(path)

    def prepare_checks(self) -> None:
        self.best = [oracle.lattice_optimum(sc) for sc in self.scenarios]

    def round(self) -> list[Op]:
        return [
            Op(
                argvs=[["optimize", "--config", path]],
                units=1,
                check=lambda res, sc=sc, best=best: check_optimize(sc, best, *res[0]),
            )
            for path, sc, best in zip(self.paths, self.scenarios, self.best)
        ]


# --- sweep ------------------------------------------------------------------

FIGURE_ROWS = {"fig2": 12, "fig3": 12, "fig4": 12, "fig5": 200, "fig6": 36, "fig7": 36,
               "fig8": 800}
BOUND_FIGURES = {"fig2", "fig3", "fig4", "fig6", "fig7"}  # M or B_w set by the cap
CSV_HEADER = "# fhmimo-sweep-csv v1"


def read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: first line is not {CSV_HEADER!r}")
    columns = lines[1].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[2:]]


def _argmax(rows: list[dict]) -> dict:
    return max(rows, key=lambda r: float(r["rate_bps"]))


def _groups(rows: list[dict], key: str) -> list[list[dict]]:
    out: dict[float, list[dict]] = {}
    for r in rows:
        out.setdefault(float(r[key]), []).append(r)
    return [out[k] for k in sorted(out)]


def check_figure(name: str, rows: list[dict]) -> list[tuple[str, str]]:
    problems = []
    if len(rows) != FIGURE_ROWS[name]:
        problems.append((WRONG, f"{name}: {len(rows)} rows, expected {FIGURE_ROWS[name]}"))
    for i, r in enumerate(rows):
        sc = oracle.Scenario(
            K=int(r["K"]), N=int(r["N"]), L=int(r["L"]), theta=float(r["theta"]),
            snr_db=float(r["snr_db"]), X_int=float(r["x_int"]), C_f=float(r["C_f_bps"]),
        )
        b_w, m, b = float(r["B_w_hz"]), int(r["M"]), int(r["b"])
        ref = oracle.rate(sc, b_w, m, b)
        expected = {"c": ref.c, "gamma": ref.gamma, "rate_bps": ref.rate_bps,
                    "f_b": oracle.threshold_f(b, sc.X_int)}
        for key, value in expected.items():
            if not _close(float(r[key]), value):
                problems.append((WRONG, f"{name} row {i}: {key}={r[key]}, oracle {value!r}"))
        if int(r["N_p"]) != sc.n_pilot:
            problems.append((WRONG, f"{name} row {i}: N_p={r['N_p']}, oracle {sc.n_pilot}"))
        if name in BOUND_FIGURES and b_w * m * b > sc.C_f * (1.0 + REL_TOL):
            problems.append((WRONG, f"{name} row {i}: load {b_w * m * b} > C_f {sc.C_f}"))
    if not rows or problems:
        return problems
    if name in ("fig2", "fig6"):
        for group in _groups(rows, "snr_db"):
            top = _argmax(group)
            if int(top["b"]) != 1:
                problems.append((WRONG, f"{name}: peak at b={top['b']} at {top['snr_db']} dB"))
    if name == "fig5":
        top = _argmax(rows)
        if not (200 <= int(top["M"]) <= 600 and 80e6 <= float(top["B_w_hz"]) <= 250e6):
            problems.append((WRONG, f"fig5: optimum M={top['M']}, B_w={top['B_w_hz']}"))
    if name == "fig8":
        s_star = [float(_argmax(g)["s"]) for g in _groups(rows, "theta")]
        if any(b < a for a, b in zip(s_star, s_star[1:])):
            problems.append((WRONG, f"fig8: arg-max s falls as theta grows: {s_star}"))
    return problems


class Sweep(Workload):
    """All seven figure presets in closed form, one ``fhmimo preset`` each."""

    name = "sweep"

    def __init__(self, seed: int, workdir: str):
        self.names = sorted(FIGURE_ROWS)
        random.Random(seed).shuffle(self.names)
        self.paths = [os.path.join(workdir, f"{name}.csv") for name in self.names]

    def setup(self, cli) -> None:
        for name in self.names:
            cli.PRESETS[name](0, 0)

    def _check(self, results):
        problems = []
        for name, path, (code, out) in zip(self.names, self.paths, results):
            if code != 0:
                problems.append((WRONG, f"preset {name}: exit {code}: {out.strip()}"))
            else:
                problems.extend(check_figure(name, read_csv(path)))
        return problems

    def round(self) -> list[Op]:
        return [
            Op(
                argvs=[["preset", n, "--out", p] for n, p in zip(self.names, self.paths)],
                units=sum(FIGURE_ROWS.values()),
                check=self._check,
            )
        ]


# --- mc-validate --------------------------------------------------------------

PQN_BIAS = 0.01  # finite-trial bias of the ratio statistic; measured -0.5% .. +0.1%
UNIFORM_BOUND = 0.10  # the repository's bound for the true quantizer at X_int = 2.5
CLIP_TOL = 0.10  # relative, around erfc(X_int / sqrt 2); measured +2.3%
Z = 4.0  # standard errors of the run mean


@dataclass
class McScenario:
    name: str
    sc: oracle.Scenario
    B_w: float
    M: int
    bits: tuple[int, ...]
    modes: tuple[str, ...]
    trials: int


MC_SMALL = McScenario(
    name="mc_small",
    sc=oracle.Scenario(K=4, N=256, L=4, theta=1.0, snr_db=15.0, X_int=2.5, C_f=500e9),
    B_w=200e6, M=64, bits=(1, 2, 3), modes=("pqn", "uniform"), trials=8,
)
MC_PAPER = McScenario(
    name="mc_paper",
    sc=oracle.Scenario(snr_db=15.0, C_f=500e9),
    B_w=500e9 / 128, M=128, bits=(1,), modes=("pqn",), trials=2,
)


class McValidate(Workload):
    """One ``fhmimo mc-validate`` per operation, a fresh seed each time."""


    def __init__(self, scenario: McScenario, seed: int, workdir: str):
        self.s = scenario
        self.name = scenario.name
        self.rng = random.Random(seed)
        sc = scenario.sc
        self.path = _write(
            os.path.join(workdir, f"{scenario.name}.cfg"),
            _config_text(K=sc.K, N=sc.N, L=sc.L, theta=sc.theta, X_int=sc.X_int,
                         C_f=sc.C_f, gamma_ref_db=sc.snr_db, B_w=scenario.B_w, M=scenario.M),
        )
        self.closed = {b: oracle.rate(sc, scenario.B_w, scenario.M, b).rate_bps
                       for b in scenario.bits}
        self.samples: dict[tuple[int, str], list[dict]] = {
            (b, mode): [] for b in scenario.bits for mode in scenario.modes
        }

    def setup(self, cli) -> None:
        cli.parse_config(self.path)

    def _check(self, seed: int, results):
        code, out = results[0]
        if code != 0:
            return [(WRONG, f"exit {code}: {out.strip()}")]
        rep = json.loads(out)
        problems = []
        if rep["trials"] != self.s.trials or rep["seed"] != seed:
            problems.append((WRONG, f"echo trials={rep['trials']}, seed={rep['seed']}"))
        keys = sorted((p["b"], p["mode"]) for p in rep["points"])
        if keys != sorted(self.samples):
            problems.append((WRONG, f"points {keys}, expected {sorted(self.samples)}"))
            return problems
        for p in rep["points"]:
            where = f"b={p['b']} {p['mode']}"
            if not _close(p["closed_form_bps"], self.closed[p["b"]]):
                problems.append((WRONG, f"{where}: closed form {p['closed_form_bps']!r}, "
                                        f"oracle {self.closed[p['b']]!r}"))
            if not (math.isfinite(p["mc_bps"]) and p["mc_bps"] > 0):
                problems.append((WRONG, f"{where}: MC rate {p['mc_bps']!r}"))
            if not (math.isfinite(p["stderr_bps"]) and p["stderr_bps"] >= 0):
                problems.append((WRONG, f"{where}: standard error {p['stderr_bps']!r}"))
            if p["mode"] == "pqn" and p["clip_rate"] != 0:
                problems.append((WRONG, f"{where}: clip rate {p['clip_rate']!r}"))
            if not 0 <= p["clip_rate"] < 1:
                problems.append((WRONG, f"{where}: clip rate {p['clip_rate']!r}"))
            self.samples[(p["b"], p["mode"])].append(p)
        return problems

    def round(self) -> list[Op]:
        seed = self.rng.getrandbits(32)
        argv = [
            "mc-validate", "--config", self.path,
            "--bits", ",".join(map(str, self.s.bits)),
            "--mode", "both" if len(self.s.modes) == 2 else self.s.modes[0],
            "--trials", str(self.s.trials), "--seed", str(seed),
        ]
        units = len(self.s.bits) * len(self.s.modes) * self.s.trials
        return [Op(argvs=[argv], units=units,
                   check=lambda res, seed=seed: self._check(seed, res))]

    def run_problems(self) -> list[str]:
        """Agreement of the run's mean MC rate with the closed form, per point.

        The tolerance is Z standard errors of the mean, taken from the spread
        of the operations' rates, plus the allowance for the point's mode.
        """
        problems = []
        clip_expected = math.erfc(self.s.sc.X_int / math.sqrt(2.0))
        for (b, mode), points in self.samples.items():
            if not points:
                continue
            rates = [p["mc_bps"] for p in points]
            mean = statistics.fmean(rates)
            if len(rates) >= 2:
                se = statistics.stdev(rates) / math.sqrt(len(rates))
            else:
                se = points[0]["stderr_bps"]
            closed = self.closed[b]
            allowance = PQN_BIAS if mode == "pqn" else UNIFORM_BOUND
            if abs(mean - closed) > allowance * closed + Z * se:
                problems.append(
                    f"b={b} {mode}: mean MC rate {mean:.6g} over {len(rates)} operations "
                    f"vs closed form {closed:.6g} (standard error {se:.3g})"
                )
            if mode == "uniform":
                clip = statistics.fmean(p["clip_rate"] for p in points)
                if abs(clip - clip_expected) > CLIP_TOL * clip_expected:
                    problems.append(f"b={b} uniform: clip rate {clip:.4g}, "
                                    f"erfc(X_int/sqrt 2) = {clip_expected:.4g}")
        return problems


WORKLOADS = ("optimize", "sweep", "mc_small", "mc_paper")


def make(name: str, seed: int, workdir: str):
    if name == "optimize":
        return Optimize(seed, workdir)
    if name == "sweep":
        return Sweep(seed, workdir)
    if name == "mc_small":
        return McValidate(MC_SMALL, seed, workdir)
    if name == "mc_paper":
        return McValidate(MC_PAPER, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
