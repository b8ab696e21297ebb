"""Deterministic random stream derivation.

Every randomized routine in this package draws from a stream keyed by an
integer seed plus a path of integer tags (round number, repetition index,
strip index, ...). Streams are backed by Philox, a counter-based generator,
so any (seed, *path) key yields the same sequence regardless of how many
other streams were opened before it. That is what makes reports reproducible
under any scheduling of independent trials. Each call of the minimum-finding
engine (``qsim._dh_positions``, or ``qsim._dh_position_batch`` for the loop
alone) seeds one SFC64 generator from the Philox stream it is given and
draws every uniform from it: one per run for the lengths that take the exact
law (inverse CDF of ``qsim._dh_law``, lengths in ascending order), then the
loop's draws for the other runs. So its draws are keyed by (seed, *path) too.
"""
from __future__ import annotations

import random

import numpy as np

__all__ = ["np_stream", "py_stream", "spawn_seed"]


def np_stream(seed: int, *path: int) -> np.random.Generator:
    """Return a numpy generator for the stream keyed by (seed, *path)."""
    ss = np.random.SeedSequence(entropy=(int(seed),) + tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def spawn_seed(seed: int, *path: int) -> int:
    """Derive a well-mixed 63-bit integer seed from (seed, *path)."""
    ss = np.random.SeedSequence(entropy=(int(seed),) + tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def py_stream(seed: int, *path: int) -> random.Random:
    """Return a stdlib Random for scalar loops; same keying as np_stream."""
    return random.Random(spawn_seed(seed, *path))
