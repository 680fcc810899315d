"""Benchmark of the fhmimo design search, figure sweeps and simulator.

    python3 fhbench/run.py --workload optimize --seed 1 --seconds 35 --trace 0
    python3 fhbench/run.py                         # all four workloads in turn, 35 s each

Run from any directory of a checkout; the package is imported from its
``src``.  A workload runs in a fresh worker process (``worker.py``), between
two halves of ``SETUP_PROBES`` more fresh processes that only time the
set-up; ``setup_s`` is the median over all of them.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  Detail (the
p90, problems found) goes to standard error.  Exit code 0 means the
workload ran; whether its outputs were right is ``correct``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Fresh processes that only time the set-up: half before the worker, half after,
# so that the median samples two moments of the host's load, a run apart.
SETUP_PROBES = 16
TIME_LIMIT_S = 170.0
# One BLAS/OpenMP thread: on a shared 2-core machine it gives the steadiest times.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    # Bytecode caching on, as for an installed package: set-up times an
    # import, not a compile, whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _per_layer_metrics(spec: list[dict], trace: dict) -> dict:
    out = {}
    for m in spec:
        name, unit = m["name"], m["unit"]
        if name.startswith("trace."):
            out[name] = _metric(trace[name[len("trace."):]], unit)
        else:
            function, _, stat = name.rpartition(".")
            if function in trace["functions"]:
                out[name] = _metric(trace["functions"][function][stat], unit)
            else:
                out[name] = {"value": 0, "unit": unit, "absent": True}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    probe = base + ["--seconds", "0", "--setup-only"]
    setups = [_worker(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    res = _worker(base + ["--seconds", repr(seconds), "--trace", str(int(trace))], deadline)
    setups.append(res["setup_s"])
    setups += [_worker(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    ops_ms = [t * 1e3 for t in res["op_s"]]
    round_op_ms = [t * 1e3 for t in res["round_op_s"]]
    cost = [t / ref for t, ref in zip(res["round_op_s"], res["reference_s"])]
    p90 = statistics.quantiles(ops_ms, n=10)[-1] if len(ops_ms) >= 2 else ops_ms[0]
    print(
        f"{workload}: {res['attempted']} operations, {res['failed']} failed, "
        f"{len(round_op_ms)} rounds; for information only: op p50 "
        f"{statistics.median(round_op_ms):.3f} ms, p90 of single operations {p90:.3f} ms, "
        f"{res['units'] / math.fsum(res['op_s']):.5g} units of work per s, reference p50 "
        f"{statistics.median(res['reference_s']) * 1e3:.3f} ms, "
        f"set-up {['%.4f' % s for s in setups]} s",
        file=sys.stderr,
    )
    for problem in res["problems"]:
        print(f"{workload}: PROBLEM {problem}", file=sys.stderr)

    if trace:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)["per_layer"]
        metrics = _per_layer_metrics(spec, res["trace"])
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "op_cost_p50": _metric(statistics.median(cost), "ref"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }
    return {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fronthaul_mimo", "cli.py")):
        print(f"no fronthaul_mimo package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"{name}: benchmark could not run: {exc}", file=sys.stderr)
            return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
