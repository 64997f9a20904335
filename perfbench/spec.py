"""Model descriptions shared by the workloads and the checks.

This module imports only the standard library, so that describing a
workload adds nothing to the set-up time or the memory of the process that
runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    """A shipped model: ``binomial`` (n), ``poisson``, or ``oddsratio`` (n1, n2, s)."""

    kind: str
    n: int = 0
    n1: int = 0
    n2: int = 0
    s: int = 0

    def support(self) -> tuple[int, int | None]:
        """(lo, hi) of the outcome support; hi is None when unbounded."""
        if self.kind == "binomial":
            return 0, self.n
        if self.kind == "poisson":
            return 0, None
        return max(0, self.s - self.n2), min(self.n1, self.s)

    def to_theta(self, natural: float) -> float:
        if self.kind == "binomial":
            if natural <= 0.0:
                return -math.inf
            if natural >= 1.0:
                return math.inf
            return math.log(natural) - math.log1p(-natural)
        if natural <= 0.0:
            return -math.inf
        return math.log(natural)

    def to_natural(self, theta: float) -> float:
        if self.kind == "binomial":
            if theta >= 0.0:
                return 1.0 / (1.0 + math.exp(-theta))
            e = math.exp(theta)
            return e / (1.0 + e)
        if theta > 709.0:
            return math.inf
        return math.exp(theta)
