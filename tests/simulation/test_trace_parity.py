"""Trace-diff parity: per-cycle state digests across backend kernels.

Result equality is a weak oracle — two kernels could diverge mid-run in
state the results never read.  These tests walk short runs cycle by
cycle and compare SHA-256 digests of the *complete* mutable state
(:mod:`repro.simulation.trace`), so any divergence is caught at the
first cycle it appears, not at the end of the run.  On the compiled
side each step is ``starnet_run`` itself, bounded to one cycle.
"""

import json

import pytest

import repro.simulation.kernels as kernels_mod
from repro.routing import EnhancedNbc
from repro.simulation import ArraySimulator, SimulationConfig, WormholeSimulator
from repro.simulation.ckernel import load_bundle
from repro.simulation.trace import run_digests, state_digest

needs_kernel = pytest.mark.skipif(load_bundle() is None, reason="no C compiler available")


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


def assert_same_digests(compiled, numpy_only, cycles):
    numpy_only._ck = None
    assert compiled._ck is not None
    assert state_digest(compiled) == state_digest(numpy_only)
    dc = run_digests(compiled, cycles)
    dn = run_digests(numpy_only, cycles)
    for cycle, (a, b) in enumerate(zip(dc, dn)):
        assert a == b, f"state diverged at cycle {cycle}"


def assert_same_runs(topology, cfg, seeds=None):
    """Compiled and numpy ``run()`` results are equal, and the compiled
    run never ran a cycle in Python."""
    compiled = ArraySimulator(topology, EnhancedNbc(), cfg, seeds=seeds)
    numpy_only = ArraySimulator(topology, EnhancedNbc(), cfg, seeds=seeds)
    numpy_only._ck = None
    for a, b in zip(compiled.run(), numpy_only.run()):
        assert repr(a.as_dict()) == repr(b.as_dict())  # exact, NaN-safe
    prof = compiled.phase_profile()
    assert prof["py_cycles"] == 0
    return prof


@needs_kernel
class TestNumpyVsCDigests:
    def test_per_cycle_digests_identical_s3(self, star3):
        """numpy and C kernels agree on *every* cycle's full state."""
        cfg = small_config(seed=5, generation_rate=0.01)
        seeds = [5, 6, 7]
        with_c = ArraySimulator(star3, EnhancedNbc(), cfg, seeds=seeds)
        numpy_only = ArraySimulator(star3, EnhancedNbc(), cfg, seeds=seeds)
        assert_same_digests(with_c, numpy_only, 600)

    def test_refill_returns_keep_digests_identical(self, star3, monkeypatch):
        """Every refill the C loop returns for — message-pool growth, a
        uniform-buffer refill, ejection-row growth — plus the arrival and
        destination block refills it calls back for, is serviced in
        Python and re-entered at the same cycle without a digest change."""
        monkeypatch.setattr(kernels_mod, "_GEN_BLOCK", 3)
        monkeypatch.setattr(kernels_mod, "_UNIFORMS", 8)
        monkeypatch.setattr(kernels_mod, "_EJ_ROWS", 2)
        # Past saturation: source queues back up until the pool grows.
        cfg = small_config(seed=5, generation_rate=0.2)
        seeds = [5, 6, 7]
        with_c = ArraySimulator(star3, EnhancedNbc(), cfg, seeds=seeds)
        numpy_only = ArraySimulator(star3, EnhancedNbc(), cfg, seeds=seeds)
        assert_same_digests(with_c, numpy_only, 600)
        prof = with_c.phase_profile()
        for kind in ("pool", "uniforms", "ej_rows", "blocks"):
            assert prof[f"refills_{kind}"] > 0, kind
        assert prof["returns_punt"] > 0 and prof["py_cycles"] == 0

    def test_refill_returns_keep_runs_identical(self, star3, monkeypatch):
        """The same refills through ``run()``, whose stop check repeats on
        every re-entered cycle."""
        monkeypatch.setattr(kernels_mod, "_GEN_BLOCK", 3)
        monkeypatch.setattr(kernels_mod, "_UNIFORMS", 8)
        monkeypatch.setattr(kernels_mod, "_EJ_ROWS", 2)
        cfg = small_config(
            seed=5, generation_rate=0.2, measure_cycles=400, drain_cycles=600
        )
        prof = assert_same_runs(star3, cfg, seeds=[5, 6, 7])
        for kind in ("pool", "uniforms", "ej_rows", "blocks"):
            assert prof[f"refills_{kind}"] > 0, kind

    def test_digest_sensitive_to_state(self, star3):
        """Sanity: the digest actually changes as the simulation moves."""
        cfg = small_config(seed=5, generation_rate=0.01)
        sim = ArraySimulator(star3, EnhancedNbc(), cfg)
        digests = run_digests(sim, 300)
        assert len(set(digests)) > 100


class TestObjectVsArrayGeneration:
    def test_generation_event_stream_identical(self, star4):
        """Object and array backends generate the same (node, t, dst)
        event stream per seed on an RNG-free destination pattern.

        ``shift`` destinations consume no generator draws, so the
        documented dest-stream divergence (array draws destinations on a
        dedicated ``dest`` stream) cannot bite; arrival instants come
        from the same ``traffic`` stream in both engines, duplicate
        first-arrival quirk included.
        """
        cfg = small_config(seed=13, workload="shift(offset=5)")
        obj = WormholeSimulator(star4, EnhancedNbc(), cfg)
        arr = ArraySimulator(star4, EnhancedNbc(), cfg)
        arr._ck = None  # the generation tap lives in the numpy passes
        obj_events: list[tuple] = []
        arr_events: list[tuple] = []
        obj._gen_hook = lambda node, t, dst: obj_events.append((node, t, dst))
        arr._gen_hook = lambda rep, node, t, dst: arr_events.append(
            (node, t, dst)
        )
        for _ in range(800):
            obj.step()
            arr.step()
        assert len(obj_events) > 20
        assert arr_events == obj_events


@needs_kernel
class TestInputsStayResident:
    """A stateful spatial pattern and a candidate set wider than 512 VCs
    run in the compiled loop, bit-identical to the numpy passes."""

    def test_trace_workload(self, star3, tmp_path):
        """A stateful spatial pattern draws through length-1 blocks."""
        trace = tmp_path / "pairs.json"
        trace.write_text(json.dumps({"pairs": [[0, 5], [0, 3], [1, 4], [2, 0], [4, 1]]}))
        cfg = small_config(seed=3, generation_rate=0.01, workload=f"trace(path={trace})")
        prof = assert_same_runs(star3, cfg, seeds=[3, 4])
        assert prof["refills_blocks"] > 0

    def test_free_vc_scratch_beyond_512(self, star3):
        """deg * V = 2 * 260 = 520 candidate VCs per node."""
        cfg = small_config(
            total_vcs=260, generation_rate=0.01, warmup_cycles=100,
            measure_cycles=500, drain_cycles=800,
        )
        assert star3.degree * cfg.total_vcs > 512
        assert_same_runs(star3, cfg)
