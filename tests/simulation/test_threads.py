"""Kernel worker-thread determinism and the threads/jobs knobs.

The compiled megakernel may partition replications across a persistent
worker pool, but every mutable word of state is per-replication and the
phase-5 reduction merges in fixed replication order — so the thread
count is a pure resource knob.  These tests pin that contract three
ways: per-cycle full-state digests, end-to-end result equality, and
batch invariance (a replication's result never depends on what it was
batched with).  The precedence and validation of the knobs themselves
(``threads=``, ``STARNET_THREADS``, ``config.threads``) are covered at
the bottom.
"""

import warnings

import pytest

from repro.routing import EnhancedNbc
from repro.simulation import ArraySimulator, SimulationConfig
from repro.simulation import kernels as kernels_mod
from repro.simulation.ckernel import load_bundle
from repro.simulation.config import resolve_threads
from repro.simulation.spec import SimSpec
from repro.simulation.trace import run_digests, state_digest
from repro.utils.exceptions import ConfigurationError

needs_kernel = pytest.mark.skipif(
    load_bundle() is None, reason="no C compiler available"
)


def small_config(**overrides):
    base = dict(
        message_length=16,
        generation_rate=0.01,
        total_vcs=5,
        warmup_cycles=300,
        measure_cycles=1_500,
        drain_cycles=2_500,
        seed=5,
    )
    base.update(overrides)
    return SimulationConfig(**base)


@needs_kernel
class TestThreadDigestParity:
    """threads=1 and threads=N agree on every cycle's complete state."""

    @pytest.mark.parametrize("threads", [2, 7])
    def test_per_cycle_digests_identical(self, star3, threads):
        cfg = small_config()
        seeds = [5, 6, 7, 8, 9]
        serial = ArraySimulator(star3, EnhancedNbc(), cfg, seeds=seeds, threads=1)
        pooled = ArraySimulator(
            star3, EnhancedNbc(), cfg, seeds=seeds, threads=threads
        )
        assert state_digest(serial) == state_digest(pooled)
        ds = run_digests(serial, 600)
        dp = run_digests(pooled, 600)
        for cycle, (a, b) in enumerate(zip(ds, dp)):
            assert a == b, f"threads={threads} diverged at cycle {cycle}"

    @pytest.mark.parametrize("threads", [2, 7])
    def test_results_bit_identical(self, star4, threads):
        cfg = small_config(generation_rate=0.004)
        seeds = [0, 1, 2, 3]
        serial = ArraySimulator(
            star4, EnhancedNbc(), cfg, seeds=seeds, threads=1
        ).run()
        pooled = ArraySimulator(
            star4, EnhancedNbc(), cfg, seeds=seeds, threads=threads
        ).run()
        for a, b in zip(serial, pooled):
            assert a.as_dict() == b.as_dict()

    def test_more_threads_than_replications(self, star3):
        """A pool wider than R degrades to fewer busy workers, not chaos."""
        cfg = small_config(measure_cycles=500, drain_cycles=800)
        serial = ArraySimulator(star3, EnhancedNbc(), cfg, seeds=[5], threads=1)
        pooled = ArraySimulator(star3, EnhancedNbc(), cfg, seeds=[5], threads=7)
        assert run_digests(serial, 400) == run_digests(pooled, 400)


@needs_kernel
class TestBatchInvariance:
    """Replication i is a pure function of seeds[i], at any thread count."""

    @pytest.mark.parametrize("threads", [1, 2, 7])
    def test_batched_equals_solo(self, star3, threads):
        cfg = small_config(generation_rate=0.006)
        seeds = [3, 11, 4]
        batched = ArraySimulator(
            star3, EnhancedNbc(), cfg, seeds=seeds, threads=threads
        ).run()
        for seed, from_batch in zip(seeds, batched):
            solo = ArraySimulator(
                star3, EnhancedNbc(), cfg, seeds=[seed], threads=1
            ).run()[0]
            assert solo.as_dict() == from_batch.as_dict()


class TestNumpyFallback:
    """Without the C kernel, thread counts are silently meaningless."""

    def test_fallback_ignores_threads_silently(self, star3, monkeypatch):
        # What STARNET_NO_CKERNEL=1 produces at load time: no bundle.
        monkeypatch.setattr(kernels_mod, "load_bundle", lambda: None)
        cfg = small_config(measure_cycles=500, drain_cycles=800)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pooled = ArraySimulator(
                star3, EnhancedNbc(), cfg, seeds=[5, 6], threads=7
            )
            serial = ArraySimulator(
                star3, EnhancedNbc(), cfg, seeds=[5, 6], threads=1
            )
            assert pooled._ck is None and pooled._pool_ptr == 0
            results_p = pooled.run()
            results_s = serial.run()
        for a, b in zip(results_s, results_p):
            assert a.as_dict() == b.as_dict()

    @needs_kernel
    def test_numpy_matches_threaded_c(self, star3, monkeypatch):
        """The numpy path and the threaded C path share every digest."""
        cfg = small_config(measure_cycles=500, drain_cycles=800)
        seeds = [5, 6, 7]
        threaded = ArraySimulator(
            star3, EnhancedNbc(), cfg, seeds=seeds, threads=2
        )
        monkeypatch.setattr(kernels_mod, "load_bundle", lambda: None)
        numpy_only = ArraySimulator(
            star3, EnhancedNbc(), cfg, seeds=seeds, threads=7
        )
        assert run_digests(threaded, 400) == run_digests(numpy_only, 400)


class TestThreadsKnob:
    """Precedence: explicit arg > STARNET_THREADS > config.threads > 1."""

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("STARNET_THREADS", raising=False)
        assert resolve_threads() == 1

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("STARNET_THREADS", "3")
        assert resolve_threads(2) == 2

    def test_env_beats_config(self, monkeypatch):
        monkeypatch.setenv("STARNET_THREADS", "3")
        assert resolve_threads(None, 5) == 3

    def test_config_beats_default(self, monkeypatch):
        monkeypatch.delenv("STARNET_THREADS", raising=False)
        assert resolve_threads(None, 5) == 5

    @pytest.mark.parametrize("env", ["auto", "0", "AUTO"])
    def test_auto_clamps_to_cpu_count(self, monkeypatch, env):
        import os

        monkeypatch.setenv("STARNET_THREADS", env)
        assert resolve_threads() == max(1, os.cpu_count() or 1)

    def test_zero_explicit_clamps_to_cpu_count(self):
        import os

        assert resolve_threads(0) == max(1, os.cpu_count() or 1)

    @pytest.mark.parametrize("env", ["-1", "2.5", "many", ""])
    def test_invalid_env(self, monkeypatch, env):
        monkeypatch.setenv("STARNET_THREADS", env)
        if env == "":
            assert resolve_threads() == 1  # unset-equivalent
        else:
            with pytest.raises(ConfigurationError):
                resolve_threads()

    @pytest.mark.parametrize("bad", [-2, True, "4"])
    def test_invalid_explicit(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_threads(bad)

    def test_invalid_config_field(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(threads=-1)

    def test_threads_never_enters_campaign_keys(self):
        """threads is a resource knob: to_params omits it entirely."""
        base = SimSpec(
            topology="star",
            order=4,
            config=SimulationConfig(message_length=16, total_vcs=5),
        )
        threaded = SimSpec(
            topology="star",
            order=4,
            config=SimulationConfig(message_length=16, total_vcs=5, threads=8),
        )
        assert base.to_params() == threaded.to_params()
        assert "threads" not in threaded.to_params()
