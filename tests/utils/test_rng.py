"""Tests for the reproducible RNG streams."""

import numpy as np

from repro.utils.rng import RngStreams, spawn_generator


class TestSpawnGenerator:
    def test_same_key_same_stream(self):
        a = spawn_generator(42, "traffic", 3).random(8)
        b = spawn_generator(42, "traffic", 3).random(8)
        assert np.array_equal(a, b)

    def test_different_seed_different_stream(self):
        a = spawn_generator(1, "traffic", 3).random(8)
        b = spawn_generator(2, "traffic", 3).random(8)
        assert not np.array_equal(a, b)

    def test_different_key_different_stream(self):
        a = spawn_generator(1, "traffic", 0).random(8)
        b = spawn_generator(1, "traffic", 1).random(8)
        c = spawn_generator(1, "arbiter", 0).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_string_hash_is_stable(self):
        # FNV-1a of the component must not depend on interpreter state.
        a = spawn_generator(0, "alpha").random(4)
        b = spawn_generator(0, "alpha").random(4)
        assert np.array_equal(a, b)


class TestRngStreams:
    def test_get_caches_instances(self):
        streams = RngStreams(7)
        assert streams.get("traffic", 1) is streams.get("traffic", 1)

    def test_named_helpers_are_disjoint(self):
        streams = RngStreams(7)
        a = streams.traffic(0).random(4)
        b = streams.allocator().random(4)
        c = streams.arbiter().random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(b, c)

    def test_reproducible_across_instances(self):
        x = RngStreams(3).traffic(5).random(6)
        y = RngStreams(3).traffic(5).random(6)
        assert np.array_equal(x, y)


class TestExponentialTape:
    def test_readers_replay_exponential_draws_at_any_scale(self):
        """Scalar and block draws, interleaved, match a fresh stream's."""
        from repro.utils.rng import ExponentialTape

        tape = ExponentialTape(spawn_generator(3, "traffic", 1))
        for scale in (0.5, 7.25, 1e3):
            ref = spawn_generator(3, "traffic", 1)
            reader = tape.reader()
            assert reader.exponential(scale) == ref.exponential(scale)
            got = reader.exponential(scale, size=100)
            assert got.tolist() == ref.exponential(scale, size=100).tolist()
            assert reader.exponential(scale) == ref.exponential(scale)
