"""Pre-drawn workload blocks: seed-stream parity and batch invariance.

The array backend draws arrival instants and destinations in blocks
(``draw_block`` / ``destinations_block``) instead of one variate per
event.  The contract (docs/simulation.md): a block of k draws consumes
the underlying Generator stream exactly like k scalar draws, so results
are independent of block size — and a replication inside a heterogeneous
batch is bit-identical to the same config run alone.
"""

import numpy as np
import pytest

from repro.routing import EnhancedNbc
from repro.simulation import (
    ArraySimulator,
    SimulationConfig,
    simulate,
    simulate_many,
)
from repro.utils.rng import RngStreams
from repro.workloads.spatial import available_spatial, make_spatial
from repro.workloads.temporal import available_temporal, make_temporal


def small_config(**overrides):
    base = dict(
        message_length=16,
        generation_rate=0.004,
        total_vcs=5,
        warmup_cycles=300,
        measure_cycles=1_500,
        drain_cycles=2_500,
        seed=7,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def result_key(res):
    """Every deterministic headline number of a run."""
    return (
        res.mean_latency,
        res.mean_network_latency,
        res.mean_source_wait,
        res.messages_measured,
        res.messages_generated,
        res.messages_completed,
        res.accepted_rate,
        res.mean_multiplexing,
        res.channel_utilization,
        res.cycles_run,
        res.backlog,
    )

#: Representative parameters per temporal process (defaults elsewhere).
_TEMPORAL_PARAMS = {
    "poisson": {},
    "deterministic": {},
    "onoff": {"duty": 0.4, "burst": 6.0},
    "batch": {"size": 3},
}

#: Spatial patterns with per-draw RNG use, and the params they need.
_SPATIAL_PARAMS = {
    "uniform": {},
    "hotspot": {},
    "locality": {},
    "permutation": {},
    "shift": {"offset": 5},
}


class TestTemporalBlockParity:
    @pytest.mark.parametrize("name", sorted(_TEMPORAL_PARAMS))
    def test_draw_block_matches_scalar_stream(self, name):
        """draw_block(k) == k pop_next() calls, bit for bit."""
        params = _TEMPORAL_PARAMS[name]
        scalar = make_temporal(
            name, 0.01, np.random.default_rng(42), params=params
        )
        block = make_temporal(
            name, 0.01, np.random.default_rng(42), params=params
        )
        expected = [scalar.pop_next() for _ in range(257)]
        got = block.draw_block(100) + block.draw_block(57) + block.draw_block(100)
        assert got == expected

    def test_temporal_coverage(self):
        """Every registered temporal process is exercised above."""
        assert set(_TEMPORAL_PARAMS) == set(available_temporal())

    def test_zero_rate_block_is_empty_safe(self):
        proc = make_temporal("poisson", 0.0, np.random.default_rng(1))
        assert proc.draw_block(0) == []


class TestSpatialBlockParity:
    @pytest.mark.parametrize("name", sorted(_SPATIAL_PARAMS))
    def test_destinations_block_matches_scalar_stream(self, name, star4):
        pattern = make_spatial(
            name, topology=star4, params=_SPATIAL_PARAMS[name]
        )
        if not pattern.block_safe:
            pytest.skip("pattern opts out of block buffering")
        src = 3
        scalar_rng = np.random.default_rng(99)
        block_rng = np.random.default_rng(99)
        expected = [pattern.destination(src, scalar_rng) for _ in range(200)]
        got = pattern.destinations_block(
            src, 64, block_rng
        ) + pattern.destinations_block(src, 136, block_rng)
        assert got == expected
        assert src not in got

    def test_spatial_coverage(self):
        """Every block-safe registered pattern is exercised above."""
        assert set(_SPATIAL_PARAMS) <= set(available_spatial())


class TestBlockSizeInvariance:
    def test_results_independent_of_gen_block_size(self, star4, monkeypatch):
        """Shrinking the pre-draw block must not change any result."""
        import repro.simulation.kernels as kernels_mod

        cfg = small_config(seed=11, workload="uniform+onoff(duty=0.5,burst=4)")
        baseline = ArraySimulator(star4, EnhancedNbc(), cfg).run()[0]
        monkeypatch.setattr(kernels_mod, "_GEN_BLOCK", 3)
        small_blocks = ArraySimulator(star4, EnhancedNbc(), cfg).run()[0]
        assert result_key(small_blocks) == result_key(baseline)


class TestRaggedBatchInvariance:
    def test_heterogeneous_batch_matches_solo_runs(self, star4):
        """Per-rep configs (rate, seed, windows, batches) never couple."""
        configs = [
            small_config(seed=21),
            small_config(
                seed=22,
                generation_rate=0.006,
                warmup_cycles=200,
                measure_cycles=900,
                drain_cycles=1_500,
                batches=4,
            ),
            small_config(seed=23, generation_rate=0.002, measure_cycles=2_000),
        ]
        batched = ArraySimulator(star4, EnhancedNbc(), configs=configs).run()
        for cfg, got in zip(configs, batched):
            solo = ArraySimulator(star4, EnhancedNbc(), cfg).run()[0]
            assert result_key(got) == result_key(solo)
            assert got.latency_ci == solo.latency_ci or (
                np.isnan(got.latency_ci) and np.isnan(solo.latency_ci)
            )

    @pytest.mark.parametrize("block", [None, 3])
    def test_shared_seed_reps_draw_their_solo_streams(self, star4, monkeypatch, block):
        """Reps sharing a seed share destination blocks and Poisson
        traffic tapes, never values: each rep's generation events equal
        its solo run's."""
        import repro.simulation.kernels as kernels_mod

        if block is not None:
            monkeypatch.setattr(kernels_mod, "_GEN_BLOCK", block)
        # Same seed: the faster rep draws each node's blocks first until
        # its shorter window stops it; the slower reps then draw the rest.
        configs = [
            small_config(seed=5, generation_rate=0.006, measure_cycles=600),
            small_config(seed=5, generation_rate=0.004),
            small_config(seed=5, generation_rate=0.003, measure_cycles=2_500),
            small_config(seed=6, generation_rate=0.004),
        ]

        def events(sim):
            out = {rep: [] for rep in range(len(sim.configs))}
            sim._gen_hook = lambda rep, node, t, dst: out[rep].append((node, t, dst))
            sim.run()
            return out

        batched = events(ArraySimulator(star4, EnhancedNbc(), configs=configs))
        for rep, cfg in enumerate(configs):
            solo = events(ArraySimulator(star4, EnhancedNbc(), cfg))[0]
            assert solo and batched[rep] == solo

    def test_simulate_many_matches_solo_and_object_order(self, star4):
        configs = [
            small_config(seed=31, engine="array"),
            small_config(seed=32, generation_rate=0.005, engine="array"),
        ]
        many = simulate_many(star4, EnhancedNbc(), configs)
        assert len(many) == 2
        for cfg, got in zip(configs, many):
            solo = simulate(star4, EnhancedNbc(), cfg, engine="array")
            assert result_key(got) == result_key(solo)

    def test_simulate_many_object_engine_sequential(self, star4):
        configs = [small_config(seed=41), small_config(seed=42)]
        many = simulate_many(star4, EnhancedNbc(), configs, engine="object")
        for cfg, got in zip(configs, many):
            solo = simulate(star4, EnhancedNbc(), cfg, engine="object")
            assert result_key(got) == result_key(solo)

    def test_structural_mismatch_rejected(self, star4):
        from repro.utils.exceptions import ConfigurationError

        configs = [small_config(seed=1), small_config(seed=2, message_length=32)]
        with pytest.raises(ConfigurationError):
            ArraySimulator(star4, EnhancedNbc(), configs=configs)
