"""One workload in one process: set up, run whole rounds, check, report.

Started by ``run.py``; prints one JSON line on stdout. Set-up time runs from
the monotonic time the parent passed as ``--t0`` (taken just before the
process was started) to the moment the first timed operation would begin:
imports, model construction with its lazy log-weight tables, and a warm-up
pass. Output checks run after the timed loop, and peak RSS is read before
they start, so neither the checks nor their imports are measured.

With ``--trace 1`` the rounds alternate between untraced and traced, and
only per-layer metrics are reported; the tracing overhead is the traced
minus the untraced time per operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_round(runner, ops, op_ids, tracer=None):
    """Run one round; returns [(op index, seconds, output, error)]."""
    clock = time.perf_counter
    done = []
    for i, op in zip(op_ids, ops):
        if tracer is not None:
            tracer.op = i
        error = None
        output = None
        t = clock()
        try:
            output = runner.run(op)
        except Exception as e:  # an operation's failure is data, not a crash
            error = f"{type(e).__name__}: {e}"
        done.append((i, clock() - t, output, error))
    if tracer is not None:
        tracer.op = None
    return done


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import exactci.bounds
    import exactci.cli
    import exactci.coverage
    import exactci.models
    import exactci.sterne

    import workloads

    modules = argparse.Namespace(bounds=exactci.bounds, cli=exactci.cli,
                                 coverage=exactci.coverage, models=exactci.models,
                                 sterne=exactci.sterne)
    ops = workloads.build(args.workload, args.seed)
    runner = workloads.Runner(modules)
    runner.prepare(ops)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        runner.prepare(ops)
        tracer.uninstall()
    for op in workloads.warm_up_ops(args.workload):
        runner.run(op)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ids = list(range(len(ops)))
    results = []
    untraced_s = traced_s = 0.0
    traced_ops = 0
    start = time.perf_counter()
    while True:
        if tracer is None:
            results += _timed_round(runner, ops, ids)
        else:
            plain = _timed_round(runner, ops, ids)
            tracer.install()
            traced = _timed_round(runner, ops, ids, tracer)
            tracer.uninstall()
            untraced_s += sum(r[1] for r in plain)
            traced_s += sum(r[1] for r in traced)
            traced_ops += len(traced)
            results += plain + traced
        if time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    peak_rss = _peak_rss_mb()

    import checks

    memo = {}
    failures = []
    unexpected = []
    for i, _, output, error in results:
        op = ops[i]
        if error is None:
            key = (i, hashlib.blake2b(pickle.dumps(output)).digest())
            if key not in memo:
                memo[key] = checks.check(op, output, runner, args.seed)
            problems = memo[key]
        else:
            problems = [error]
        if problems:
            failures.append((i, problems))
            if op.fault is None:
                unexpected.append((i, problems))

    seen = set()
    for i, problems in failures:
        if i in seen:
            continue
        seen.add(i)
        tag = "known fault" if ops[i].fault else "FAILED"
        print(f"{tag}: op {i} {ops[i].kind} {ops[i].spec} x={ops[i].x} alpha={ops[i].alpha} "
              f"method={ops[i].method}: {'; '.join(problems[:3])}", file=sys.stderr)

    summary = {
        "setup_s": setup_s,
        "attempted": len(results),
        "failed": len(failures),
        "correct": not unexpected,
    }
    if tracer is None:
        times = [r[1] for r in results]
        summary["ops_per_s"] = len(results) / wall
        summary["latency_p50_ms"] = 1e3 * statistics.median(times)
        summary["peak_rss_mb"] = peak_rss
    else:
        metrics = tracer.per_layer(traced_ops)
        name, unit = tracing.OVERHEAD
        metrics[name] = {"value": 1e3 * (traced_s - untraced_s) / traced_ops, "unit": unit}
        summary["per_layer"] = metrics
        if tracer.absent:
            print("absent from the package: " + ", ".join(tracer.absent), file=sys.stderr)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
