"""Seeded random-number-generation helpers.

All stochastic components of the library (graph generators, Monte Carlo
diffusion, RR-set sampling, pivot placement) accept either an integer seed,
an existing :class:`numpy.random.Generator`, or ``None``.  This module
centralises the coercion so every component behaves identically.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RandomLike = Union[int, np.random.Generator, None]


def as_generator(seed: RandomLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged (shared state), an
    int creates a fresh deterministic generator, and ``None`` creates an
    OS-entropy-seeded generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_seed_sequence(seed: RandomLike) -> np.random.SeedSequence:
    """Coerce ``seed`` into a root :class:`numpy.random.SeedSequence`.

    An int maps to the canonical sequence for that seed and ``None`` draws
    OS entropy.  A generator contributes one 63-bit draw — deterministic
    given the generator's state — so components seeded from a shared
    generator inherit its reproducibility without entangling their
    streams with the parent's future output.
    """
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    return np.random.SeedSequence(seed)


def as_int_seed(seed: RandomLike) -> int:
    """Coerce ``seed`` into the integer seed of a counter-based sampler.

    An int passes through unchanged; a generator or ``None`` contributes
    one 63-bit draw through :func:`as_seed_sequence`.
    """
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return int(as_seed_sequence(seed).entropy) & (2**63 - 1)
