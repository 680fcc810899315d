"""One workload in one fresh process; ``run.py`` starts it.

    python3 fhbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints one JSON line.  ``--setup-only`` times the set-up and stops.
Otherwise it runs one warm-up operation, then whole rounds of operations
until ``--seconds`` have passed, checking every output.  With ``--trace 1``
the time is split: half untraced (for the tracing overhead), half traced,
after one operation under tracemalloc for the allocation peaks.

Only the standard library is imported before the set-up timer starts, so
the set-up includes the package's own imports (numpy among them).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402  (stdlib only)
import workloads  # noqa: E402  (stdlib and the oracle only)


def traced_functions() -> list[str]:
    """The ``module.function`` names that BENCHMARK.json's per-layer metrics
    are taken from, in order, each once; ``trace.*`` metrics are the tracer's own."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    functions = [n.rpartition(".")[0] for n in names if not n.startswith("trace.")]
    return list(dict.fromkeys(functions))


class Reference:
    """A fixed computation, timed after every round in the same process.

    On a shared host the wall time of the same work moves by up to 1.7x from
    one minute to the next, and the phases last longer than a run.  A round's
    time over the time of this computation, taken right after it, moves far
    less.  Half of it is pure Python (the oracle's rate along a fixed
    constraint curve, like the optimizer's scalar code) and half is
    small-array numpy (like the simulator's per-block code).  It uses nothing
    from the package, so no change to the program moves it.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        k = np.arange(16 * 4 * 64, dtype=float).reshape(16, 4, 64)
        self.block = np.cos(0.37 * k) + 1j * np.sin(0.91 * k)  # numpy.random costs 6 MB of RSS
        self.sc = oracle.Scenario(snr_db=15.0, C_f=50e9, X_int=2.5)

    def time_s(self) -> float:
        np, block, sc = self.np, self.block, self.sc
        start = time.perf_counter()
        for m in range(1, 2401):
            oracle.rate(sc, sc.C_f / (2 * m), m, 2)
        for _ in range(150):
            np.einsum("mkn,mjn->kj", block, block.conj())
            np.sign(block.real).sum(axis=2)
        return time.perf_counter() - start


class Runner:
    """Issues operations back to back and keeps their times and outcomes."""

    def __init__(self, cli, wl, reference: Reference | None = None):
        self.cli = cli
        self.wl = wl
        self.reference = reference
        self.op_s: list[float] = []
        self.round_op_s: list[float] = []  # a round's wall time per operation
        self.reference_s: list[float] = []  # the reference, timed after each round
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # anything but the known fault

    def run_op(self, op, count: bool = True) -> None:
        results = []
        elapsed = 0.0
        try:
            for argv in op.argvs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    start = time.perf_counter()
                    try:
                        code = self.cli.main(argv)
                    finally:
                        elapsed += time.perf_counter() - start
                results.append((code, buf.getvalue()))
            found = op.check(results)
        except Exception as exc:  # a crash is a wrong output, not the end of the run
            where = op.argvs[len(results)] if len(results) < len(op.argvs) else "check"
            found = [(workloads.WRONG, f"{where}: {type(exc).__name__}: {exc}")]
        for kind, message in found:
            if kind != workloads.SUBOPTIMAL:
                self.problems.append(message)
        if count:
            self.op_s.append(elapsed)
            self.units += op.units
            self.attempted += 1
            self.failed += bool(found)

    def run_rounds(self, seconds: float) -> int:
        """Whole rounds until ``seconds`` have passed; at least one."""
        deadline = time.perf_counter() + seconds
        rounds = 0
        while True:
            ops = self.wl.round()
            first = len(self.op_s)
            for op in ops:
                self.run_op(op)
            self.round_op_s.append(math.fsum(self.op_s[first:]) / len(ops))
            if self.reference is not None:
                self.reference_s.append(self.reference.time_s())
            rounds += 1
            if time.perf_counter() >= deadline:
                return rounds


def _per_layer(tracer, rounds: int, untraced_p50: float, traced_p50: float,
               op_s: float) -> dict:
    funcs = {}
    for name in tracer.calls:
        calls, rem = divmod(tracer.calls[name], rounds)
        if rem:
            raise RuntimeError(f"{name}: {tracer.calls[name]} calls over {rounds} equal rounds")
        funcs[name] = {
            "calls": calls,
            "total_s": tracer.total_s[name] / rounds,
            "self_s": tracer.self_s[name] / rounds,
            "peak_alloc_mb": tracer.peak_alloc_mb(name),
        }
    return {
        "functions": funcs,
        "absent": tracer.absent,
        "untraced_s": (op_s - tracer.top_level_s) / rounds,
        "overhead_ratio": traced_p50 / untraced_p50,
        "rounds": rounds,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        start = time.perf_counter()
        import fronthaul_mimo.cli as cli

        wl.setup(cli)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        wl.prepare_checks()
        reference = Reference()
        reference.time_s()  # warm-up
        runner = Runner(cli, wl, reference)
        runner.run_op(wl.round()[0], count=False)  # warm-up
        result = {"setup_s": setup_s}
        if args.trace:
            from tracing import Tracer

            runner.run_rounds(args.seconds / 2)
            untraced_p50 = statistics.median(runner.op_s)
            tracer = Tracer("fronthaul_mimo", traced_functions())
            tracer.install()
            tracer.measure_memory(lambda: runner.run_op(wl.round()[0], count=False))
            n_before = len(runner.op_s)
            tracer.record = True
            for op in wl.round():
                runner.run_op(op)
            tracer.record = False
            rounds = 1 + runner.run_rounds(args.seconds / 2)
            traced = runner.op_s[n_before:]
            result["trace"] = _per_layer(
                tracer, rounds, untraced_p50, statistics.median(traced), sum(traced)
            )
            _write_trace(args, tracer, result["trace"])
        else:
            runner.run_rounds(args.seconds)
        result.update(
            op_s=runner.op_s,
            round_op_s=runner.round_op_s,
            reference_s=runner.reference_s,
            units=runner.units,
            attempted=runner.attempted,
            failed=runner.failed,
            problems=runner.problems + wl.run_problems(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        print(json.dumps(result))
        return 0
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _write_trace(args, tracer, summary: dict) -> None:
    """The first traced round's spans and the per-function table, as JSON."""
    origin = min((span[3] for span in tracer.spans), default=0.0)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "per_round": summary,
        "span_fields": ["id", "parent", "name", "start_s", "end_s"],
        "spans": [
            [sid, parent, name, round(t0 - origin, 9), round(t1 - origin, 9)]
            for sid, parent, name, t0, t1 in tracer.spans
        ],
    }
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
