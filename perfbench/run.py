#!/usr/bin/env python3
"""Benchmark of exactci: closed-loop workloads with checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in fresh single-threaded worker processes (see
``worker.py``): ``SETUP_RUNS - 1`` processes that only set up, then one that
sets up and runs whole rounds of the workload's operation sequence until
``--seconds`` have passed. A traced run starts only the second kind. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones, and
the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("interactive", "large-support", "audit")
# Set-up is measured in this many fresh processes and reported as the median.
SETUP_RUNS = 3
# A worker may overrun --seconds by up to one round, a traced pair of rounds
# on large-support, and then checks its outputs.
WORKER_MARGIN_S = 120
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchmarkError(RuntimeError):
    pass


def _worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    timeout = 3 * seconds + WORKER_MARGIN_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired as e:
        raise BenchmarkError(f"{workload} worker did not finish in {timeout:g} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        main = _worker(workload, seed, seconds, trace, False)
        metrics = main["per_layer"]
    else:
        setups = [_worker(workload, seed, seconds, trace, True)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        main = _worker(workload, seed, seconds, trace, False)
        setups.append(main["setup_s"])
        metrics = {name: {"value": main[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items() if name != "setup_s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return {"correct": main["correct"], "attempted": main["attempted"],
            "failed": main["failed"], "metrics": metrics}


def _report(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "exactci" / "__init__.py").is_file():
        print(f"error: no exactci sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
            _report(workload, results[workload])
    except BenchmarkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(final, indent=1) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
