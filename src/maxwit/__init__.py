"""Maximum witnesses of Boolean matrix products.

Exact bit-parallel oracles, strip-decomposition solvers, randomized
approximation schemes, a query-counted simulator of quantum minimum finding
(one vectorized engine behind ``durr_hoyer_batch`` and the four witness
algorithms, plus the scalar reference ``durr_hoyer_min``), and graph
applications (all-pairs LCA in dags, extreme-weight triangles, two-edge
paths).

The package exports every name in the ``__all__`` of ``boolmat``, ``graphs``,
``qsim`` and ``witness``.
"""
from __future__ import annotations

from . import boolmat, graphs, qsim, witness
from .boolmat import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .qsim import *  # noqa: F401,F403
from .witness import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *boolmat.__all__, *graphs.__all__, *qsim.__all__, *witness.__all__]
