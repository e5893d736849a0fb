"""Tests for repro.rng."""

import numpy as np

from repro.rng import as_generator, as_int_seed


class TestAsGenerator:
    def test_int_seed_is_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).random(5)
        b = as_generator(2).random(5)
        assert not np.array_equal(a, b)

    def test_generator_passes_through(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_none_creates_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestAsIntSeed:
    def test_int_passes_through(self):
        assert as_int_seed(42) == 42
        assert as_int_seed(np.int64(-3)) == -3

    def test_generator_contributes_one_63_bit_draw(self):
        g, twin = np.random.default_rng(5), np.random.default_rng(5)
        seed = as_int_seed(g)
        assert seed == int(twin.integers(0, 2**63 - 1))
        assert g.random() == twin.random()  # exactly one draw consumed

    def test_none_draws_a_63_bit_seed(self):
        seeds = {as_int_seed(None) for _ in range(4)}
        assert all(0 <= s < 2**63 for s in seeds)
        assert len(seeds) > 1
