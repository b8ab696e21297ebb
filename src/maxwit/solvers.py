"""The table of maximum-witness solvers.

Every entry is called as ``run(a, b, ell, beta, seed)`` and returns
``(WitnessMatrix, AlgoStats | None)``; a solver ignores the parameters it
does not take. Exact solvers must equal the oracle on every entry. The
simulated ones err on an entry with probability at most n^-beta, so a check
over the n*n entries allows that rate plus three binomial standard
deviations.

Entries look the solvers up in this module's globals at call time, so a
wrapper bound to one of these names (a tracer, say) sees every call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .boolmat import max_witness_oracle
from .qsim import algorithm1, algorithm2, algorithm3, algorithm4
from .witness import exact_max_witness_strips

__all__ = ["Solver", "SOLVERS", "binomial_tolerance"]


def binomial_tolerance(p: float, trials: int) -> float:
    """Rate p plus three standard deviations of a binomial over ``trials``."""
    return p + 3.0 * math.sqrt(p * (1.0 - p) / max(trials, 1))


@dataclass(frozen=True)
class Solver:
    run: Callable
    exact: bool

    def tolerance(self, n: int, beta: float) -> float:
        """Largest disagreement rate with the oracle a correct run may show."""
        return 0.0 if self.exact else binomial_tolerance(n ** (-beta), n * n)


SOLVERS = {
    "oracle": Solver(lambda a, b, ell, beta, seed: (max_witness_oracle(a, b), None), True),
    "strips": Solver(lambda a, b, ell, beta, seed: (exact_max_witness_strips(a, b, ell), None), True),
    "alg1": Solver(lambda a, b, ell, beta, seed: algorithm1(a, b, beta, seed), False),
    "alg2": Solver(lambda a, b, ell, beta, seed: algorithm2(a, b, beta, seed), False),
    "alg3": Solver(lambda a, b, ell, beta, seed: algorithm3(a, b, beta, seed), False),
    "alg4": Solver(lambda a, b, ell, beta, seed: algorithm4(a, b, ell, beta, seed), False),
}
