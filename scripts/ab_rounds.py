#!/usr/bin/env python3
"""Time two checkouts of exactci against each other in one process.

Both checkouts' ``src/exactci`` packages are loaded side by side, as
``exactci_a`` and ``exactci_b``. Each repeat runs one round of a
``perfbench/workloads.py`` workload for the given seed, and each operation
runs once on A and once on B, in an order that alternates from one operation
to the next and from one repeat to the next, so both sides see the same
machine state. It prints each side's
sum over the operations of their minimum times, the ratio B / A, and on how
many operations B's minimum was lower. An A/A run, one checkout named twice,
shows the noise floor of the ratio:

    python scripts/ab_rounds.py OLD NEW --workload audit --seed 1 --repeats 5
    python scripts/ab_rounds.py NEW NEW --workload audit --seed 1 --repeats 5

The workloads come from this checkout's ``perfbench/``, which is only read.
"""

import argparse
import importlib
import importlib.util
import math
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("bounds", "cli", "coverage", "models", "sterne")


def load(checkout: Path, name: str) -> argparse.Namespace:
    """The modules a ``workloads.Runner`` calls, from ``checkout/src/exactci``, as ``name``."""
    package = checkout / "src" / "exactci"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return argparse.Namespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a", type=Path, help="checkout A, the baseline")
    ap.add_argument("b", type=Path, help="checkout B, the change")
    ap.add_argument("--workload", required=True, choices=("interactive", "large-support", "audit"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    sys.dont_write_bytecode = True  # leave no cache files in either checkout or perfbench
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    ops = workloads.build(args.workload, args.seed)
    runners = [workloads.Runner(load(path, f"exactci_{tag}")) for tag, path in (("a", args.a), ("b", args.b))]
    for runner in runners:
        runner.prepare(ops)
        for op in workloads.warm_up_ops(args.workload):
            runner.run(op)
    best = [[math.inf] * len(ops) for _ in runners]
    failed = [set(), set()]
    for r in range(args.repeats):
        for i, op in enumerate(ops):
            for side in (0, 1) if (r + i) % 2 == 0 else (1, 0):
                t = time.perf_counter()
                try:
                    runners[side].run(op)
                except Exception:  # a failing operation is timed like any other, and counted
                    failed[side].add(i)
                best[side][i] = min(best[side][i], time.perf_counter() - t)
    a, b = map(sum, best)
    wins = sum(tb < ta for ta, tb in zip(*best))
    print(f"{args.workload}, seed {args.seed}, {args.repeats} repeats of {len(ops)} operations")
    print(f"A {args.a}: {a:.4f} s, sum of per-operation minimum times")
    print(f"B {args.b}: {b:.4f} s")
    print(f"B / A = {b / a:.4f}; B faster on {wins} of {len(ops)} operations")
    print(f"operations that raised: A {len(failed[0])}, B {len(failed[1])}")


if __name__ == "__main__":
    main()
