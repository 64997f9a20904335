"""The package's reductions call no BLAS, so no output depends on a thread count."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Windows of about 1.2e4 (binomial 1e5) and 7.7e4 points (Poisson 1e6), past the
# size where OpenBLAS threads a dot product, and one block of coverage sums.
CASE = """
import numpy as np
from exactci import clopper_pearson, exact_coverage, make_binomial, make_poisson, sterne_interval

big, out = make_binomial(10**5), []
for ci in (sterne_interval(big, 50_000, 0.05), clopper_pearson(big, 50_000, 0.05),
           sterne_interval(make_poisson(), 10**6, 0.05)):
    out += [ci.theta_lo, ci.theta_hi, ci.natural_lo, ci.natural_hi, ci.pvalue_lo, ci.pvalue_hi]
report = exact_coverage(make_binomial(1000), "sterne", 0.05, np.linspace(-0.5, 0.5, 7))
out += report.coverage.tolist() + report.expected_length.tolist()
print(" ".join(float(v).hex() for v in out))
"""


def run_case(threads: int) -> list[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", CASE], env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return done.stdout.split()


def test_outputs_do_not_depend_on_the_blas_thread_count():
    one, two = run_case(1), run_case(2)
    assert len(one) > 20 and one == two


BLAS_CALLS = {"dot", "vecdot", "inner", "matmul"}


def test_the_package_calls_no_blas():
    found = []
    for path in sorted((SRC / "exactci").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            op = getattr(node, "op", None)
            func = node.func if isinstance(node, ast.Call) else None
            name = getattr(func, "attr", getattr(func, "id", None))
            if isinstance(op, ast.MatMult) or name in BLAS_CALLS:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
