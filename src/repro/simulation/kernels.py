"""Vectorized cycle kernels: the array backend of the wormhole simulator.

:class:`ArraySimulator` advances a *batch* of R independent replications
through the same four-phase cycle as the object engine
(:mod:`repro.simulation.engine`):

1. **generation/activation** — per-node next-arrival instants feed
   per-node source queues; up to ``injection_slots`` messages per node
   are concurrently active;
2. **virtual-channel allocation** — headers consult the routing
   algorithm (profitable ports × eligible VC classes) and claim one free
   VC; contention is resolved in a random order each cycle, per
   replication;
3. **switch traversal** — at most one flit moves per physical channel,
   chosen round-robin among its busy virtual channels with a flit
   available and downstream buffer space;
4. **ejection** — flits of routing-complete messages drain into the PE.

Phases 3 and 4 are evaluated against pre-cycle state and applied
atomically, exactly like the object engine's two-phase update.

The cycle exists twice, bit-identically (asserted by the trace-diff
tests), as the simulator's only two drivers: the compiled loop
``starnet_run`` (``_ckernel.c``), which runs whole cycles in C, and the
numpy passes below — the fallback when no C compiler is present and the
bit-identity oracle.  Design choices shared by both paths:

* **Pre-drawn randomness.**  Arrival instants and destinations are drawn
  in per-node blocks from the workload objects
  (:meth:`ArrivalProcess.draw_block` /
  :meth:`SpatialPattern.destinations_block`), which reproduce the
  one-at-a-time stream bit for bit; allocation uniforms are pre-drawn
  into a per-replication buffer the kernels consume in a deterministic
  order (shuffle first, then at most one draw per header).  The C path
  therefore never touches a bit generator.
* **Route tables.**  The candidate VCs of every routing state (node,
  destination, escape floor, hops) are precomputed when the simulator
  is built, once per (topology, algorithm, V) and per process
  (:mod:`repro.simulation.routes`): the topology's symmetry-class map
  reduces each (node, destination) pair to its class, so the star
  graph's table has n!·2·floors·hops entries instead of one per node
  pair and state.  Both kernels compute a header's table index
  arithmetically at allocation time and read distances from the same
  table; nothing is resolved lazily.
* **Arbitration without a V cap.**  Round-robin winners come from a
  packed lookup table up to V = 15 and from an equivalent
  smallest-cyclic-offset scan (C) / argmin (numpy) beyond.
* **Per-replication configs.**  Replications may differ in generation
  rate, seed and measurement windows (ragged horizons); structural
  parameters (topology, V, M, buffers, workload shape) must match.
  Each replication's headline numbers are snapshotted at its own
  logical stop cycle, so batch companions never leak into its result.

Semantics match the object engine with two documented exceptions: the
round-robin arbiter cycles over *VC indices* (the classic Dally router)
rather than over VCs in acquisition order, and destination draws consume
a dedicated ``dest`` stream instead of interleaving with the arrival
stream.  Both backends remain statistically equivalent (see
``docs/simulation.md`` for the equivalence contract).  Batching is
invisible: a replication's result depends only on its own config and
seed, never on its batch companions.

Two further accelerations sit on top, both bit-identical by
construction (see docs/simulation.md, "Parallelism model"):

* **Worker threads.**  ``threads > 1`` gives the C kernel a persistent
  pthread pool that partitions replications across cores each cycle;
  per-replication work is staged and merged in fixed replication order,
  so every thread count produces the same bits.
* **The C-resident cycle loop.**  With the compiled kernel present,
  :meth:`ArraySimulator.run` hands the whole loop to ``starnet_run``
  and :meth:`ArraySimulator.step` runs it bounded to one cycle.  C
  refills arrival/destination blocks through a callback and returns to
  Python only for what Python must service — message-pool growth, a
  uniform-buffer refill or ejection-row growth (serviced, then C
  re-enters at the same cycle), channel-load sampling, stops and errors;
  :meth:`ArraySimulator.phase_profile` counts those returns and the
  refills by kind.
"""

from __future__ import annotations

import collections
import ctypes
import dataclasses
import math
import time
import weakref

import numpy as np

from repro.routing.base import RoutingAlgorithm, SelectionPolicy
from repro.simulation.ckernel import load_bundle
from repro.simulation.config import SimulationConfig, resolve_threads
from repro.simulation.metrics import (
    ChannelLoadSampler,
    HopBlockingStats,
    SimulationResult,
)
from repro.simulation.routes import route_table
from repro.simulation.state import MAX_BUFFER_DEPTH, SimState
from repro.topology.base import Topology
from repro.utils.exceptions import ConfigurationError, SimulationError
from repro.utils.rng import ExponentialTape, RngStreams

__all__ = ["ArraySimulator"]

#: Widest VC count the packed round-robin lookup table supports; wider
#: configurations use the cyclic-offset scan in both C and numpy.
_MAX_LUT_VCS = 15

#: Arrival-instant / destination block size per (replication, node).
_GEN_BLOCK = 64

#: Initial pre-drawn uniforms per replication and ejection-column rows
#: (both grow on demand).
_UNIFORMS = 4096
_EJ_ROWS = 64

#: Refill callback signature of the resident loop: ``cb(kind, rep,
#: node)`` with kind 0 = arrival-block refill, 1 = destination-block
#: refill.
_CB_TYPE = ctypes.CFUNCTYPE(
    ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64
)

#: Phase-profiling slot names of ``SimState.phase_ns`` (slots 0-3; slot
#: 5 holds the total run() wall time).  Mirrored in _ckernel.c: the C
#: loop and the numpy passes write the same slots.
_PROF_PHASES = ("generation", "activation", "route", "complete")
_PROF_TOTAL_SLOT = 5

#: Counters reported by ``phase_profile()``: resident-loop returns by
#: reason (``punt`` = a refill return; watchdog, callback and kernel
#: errors count as ``error``), refills by kind on either driver, and
#: cycles run by the numpy passes.
_COUNTER_KEYS = (
    "returns_stop",
    "returns_punt",
    "returns_sample",
    "returns_error",
    "refills_pool",
    "refills_uniforms",
    "refills_ej_rows",
    "refills_blocks",
    "py_cycles",
)

#: Structural config fields every replication of one batch must share.
_SHARED_FIELDS = (
    "message_length",
    "total_vcs",
    "buffer_depth",
    "ejection_rate",
    "traffic",
    "workload",
    "sample_interval",
    "watchdog_grace",
)


def _build_rr_lut(num_vcs: int) -> np.ndarray:
    """Round-robin winner table: ``lut[rr << V | bits]`` is the first VC
    index at or cyclically after ``rr`` whose candidate bit is set in
    ``bits`` (-1 when ``bits`` is empty).  The rr-major layout lets the
    kernel index with ``rr * 2**V + bits``, whose first operand is int32
    — the uint8 ``bits`` vector then promotes instead of overflowing."""
    V = num_vcs
    bits = np.arange(1 << V)
    lut = np.full((V, 1 << V), -1, dtype=np.int8)
    for start in range(V):
        # Nearest offset wins: write farthest first so closer overwrite.
        for step in reversed(range(V)):
            v = (start + step) % V
            lut[start, ((bits >> v) & 1) == 1] = v
    return lut.ravel()


class ArraySimulator:
    """A batch of R simulation replications advanced by vectorized passes.

    Construct with either ``config`` (+ optional ``seeds``, the classic
    homogeneous batch: one config, one seed per replication) or
    ``configs`` (heterogeneous work units: per-replication rate, seed and
    cycle windows — structural parameters must match).

    ``algorithm`` must use the stock escape-floor update: the route
    tables size their floor axis from it, so an algorithm overriding
    ``advance_floor`` raises :class:`ConfigurationError` (run it on
    ``engine='object'``).

    ``threads`` sizes the compiled kernel's worker pool (precedence:
    this argument, then ``STARNET_THREADS``, then ``config.threads``,
    then 1; 0 means one thread per core).  Results are bit-identical for
    every thread count; without the compiled kernel the numpy path runs
    single-threaded and the setting is ignored.

    ``profile=True`` turns on per-phase cycle timing: the kernel (or
    the numpy passes without it) accumulate monotonic-clock
    nanoseconds per phase into ``state.phase_ns``, surfaced through
    :meth:`phase_profile` and attached to the first replication's
    result.  Like ``threads`` it is a pure observation knob — results
    are bit-identical either way and campaign content-hash keys ignore
    it.  Off (the default) the kernel passes a NULL profiling pointer,
    so the cost is one predictable branch per phase — the guarded
    benchmarks run with it off.

    ``probe_interval=k`` turns on cycle-resolution time-series probes:
    every k cycles both kernels write per-replication in-flight,
    completed and backlog counts plus a busy-VC occupancy histogram
    into preallocated ring buffers (``state.probe_*``), surfaced as
    ``SimulationResult.timeseries`` on the first replication.  Same
    observation-only contract as ``profile``: results are bit-identical
    probed or not (asserted in tests), the kernel sees a NULL data
    pointer when probing is off, and campaign keys ignore the knob.
    """

    def __init__(
        self,
        topology: Topology,
        algorithm: RoutingAlgorithm,
        config: SimulationConfig | None = None,
        seeds: tuple[int, ...] | None = None,
        configs: list[SimulationConfig] | None = None,
        threads: int | None = None,
        profile: bool = False,
        probe_interval: int | None = None,
    ):
        if configs is not None:
            if config is not None or seeds is not None:
                raise ConfigurationError(
                    "pass either config (+ seeds) or configs, not both"
                )
            configs = list(configs)
            if not configs:
                raise ConfigurationError("ArraySimulator needs at least one config")
        else:
            if config is None:
                raise ConfigurationError("ArraySimulator needs a config")
            if seeds is None:
                seeds = (config.seed,)
            if not seeds:
                raise ConfigurationError("ArraySimulator needs at least one seed")
            configs = [
                config if int(s) == config.seed else config.with_seed(int(s))
                for s in seeds
            ]
        base = configs[0]
        for c in configs[1:]:
            for f in _SHARED_FIELDS:
                if getattr(c, f) != getattr(base, f):
                    raise ConfigurationError(
                        f"batched configs must share {f!r}: "
                        f"{getattr(c, f)!r} != {getattr(base, f)!r}"
                    )
            if c.effective_injection_slots() != base.effective_injection_slots():
                raise ConfigurationError(
                    "batched configs must share effective injection slots"
                )
        self.topology = topology
        self.algorithm = algorithm
        self.configs = configs
        self.config = base
        self.seeds = tuple(c.seed for c in configs)
        self.vc_config = algorithm.make_vc_config(base.total_vcs, topology)
        algorithm.validate(self.vc_config, topology)
        if type(algorithm).advance_floor is not RoutingAlgorithm.advance_floor:
            raise ConfigurationError(
                f"{type(algorithm).__name__} overrides advance_floor; the array "
                "engine's route tables assume the stock floor update "
                "(use engine='object')"
            )
        if base.buffer_depth > MAX_BUFFER_DEPTH:
            raise ConfigurationError(
                f"array backend supports buffer_depth <= {MAX_BUFFER_DEPTH} "
                "(use engine='object')"
            )

        R = len(configs)
        N = topology.num_nodes
        V = base.total_vcs

        self._M = base.message_length
        self._ms = np.int32(self._M << 16)  # packed-word release sentinel
        self._depth = base.buffer_depth
        self._ej_rate = base.ejection_rate
        self._slots = base.effective_injection_slots()
        self._V = V
        self._deg = topology.degree
        self._C = topology.num_channels
        self._CV = self._C * V
        self._R = R
        self.state = SimState(
            topology, V, self._M, R, initial_capacity=max(64, 2 * N * self._slots)
        )
        self.profile = bool(profile)
        #: Phase-timing accumulators, or None when profiling is off —
        #: the hot paths test this once per phase and skip the clock.
        self._prof = self.state.phase_ns if self.profile else None
        if probe_interval is not None and probe_interval < 1:
            raise ConfigurationError(
                f"probe_interval must be >= 1, got {probe_interval}"
            )
        #: Time-series probe stride in cycles, or None when probing is
        #: off (the ring buffers are allocated after the measurement
        #: windows are known, below).
        self._probe_int = None if probe_interval is None else int(probe_interval)
        self._color_py = [topology.color(u) for u in range(N)]
        self._color_np = np.array(self._color_py, dtype=np.uint8)
        #: Flat neighbor list: entry ``channel`` = node reached through it.
        self._neighbors_np = np.ascontiguousarray(
            topology.neighbor_table.ravel(), dtype=np.int32
        )
        self._neighbors_py = [int(x) for x in self._neighbors_np]
        #: Candidate VCs and distances of every routing state, shared by
        #: both kernels (memoized per topology, algorithm and V).
        self.routes = route_table(topology, algorithm, V)
        # Round-robin arbitration state: up to _MAX_LUT_VCS the winner
        # comes from a packed lookup table; wider VC counts use the
        # cyclic-offset scan/argmin in both kernels.
        if V <= _MAX_LUT_VCS:
            self._lut = _build_rr_lut(V)
            self._pow2 = (1 << np.arange(V)).astype(np.uint8 if V <= 8 else np.int32)
        else:
            self._lut = None
            self._pow2 = None
        self._policy_code = {
            SelectionPolicy.ADAPTIVE_FIRST: 0,
            SelectionPolicy.LOWEST_ESCAPE: 1,
            SelectionPolicy.RANDOM: 2,
        }[algorithm.policy]

        # -- per-replication random streams ------------------------------
        # Same (seed, name) keys as a single run with that seed, so each
        # replication's draws are a pure function of its own config.
        self.workload = base.workload_spec()
        self.spatial = self.workload.build_spatial(topology=topology)
        self._rngs = [RngStreams(c.seed) for c in configs]
        self._alloc_gen = [streams.allocator() for streams in self._rngs]
        self._buf_cap = _UNIFORMS
        self._alloc_buf = np.empty((R, self._buf_cap), dtype=np.float64)
        for rep in range(R):
            self._alloc_buf[rep] = self._alloc_gen[rep].random(self._buf_cap)
        self._alloc_pos = np.zeros(R, dtype=np.int64)
        #: Amortized shortage gate for _ensure_uniforms, shared with the
        #: C loop: {headroom, spend} — a lower bound on every row's
        #: remaining variates at the last exact check, and an upper bound
        #: on any row's consumption since.
        self._ugate = np.array([self._buf_cap, 0], dtype=np.int64)
        #: Stateful spatial patterns (trace replay) opt out of block
        #: buffering — their draw order across nodes is semantic — and
        #: draw through length-1 blocks instead.
        self._dest_blocks = getattr(self.spatial, "block_safe", True)
        #: A node's k-th destination block is a pure function of (seed,
        #: node, k): replications sharing a seed (a rate ladder's rungs)
        #: share the seed's stream and its drawn blocks.
        shared = {s for s, n in collections.Counter(self.seeds).items() if n > 1}
        by_seed = {c.seed: streams for c, streams in zip(configs, self._rngs)}
        self._dest_rng = self._rngs
        self._dst_shared: dict[int, dict[int, list[np.ndarray]]] = {}
        if self._dest_blocks:
            self._dest_rng = [by_seed[c.seed] for c in configs]
            self._dst_shared = {seed: {} for seed in shared}
        self._dst_next = np.zeros((R, N), dtype=np.int64)
        # Shared seeds share the traffic stream too when the arrival
        # process draws only exponentials: each rep replays the seed's
        # tape at its own rate.
        replay = self.workload.build_temporal(0.0, None).exponential_only
        tapes = {
            (s, u): ExponentialTape(by_seed[s].traffic(u))
            for s in (shared if replay else ())
            for u in range(N)
        }
        self._sources = [
            [
                self.workload.build_temporal(
                    c.generation_rate,
                    tapes[c.seed, u].reader() if (c.seed, u) in tapes else streams.traffic(u),
                )
                for u in range(N)
            ]
            for c, streams in zip(configs, self._rngs)
        ]
        # Generation state lives in flat arrays shared with the resident
        # C loop: pre-drawn arrival/destination blocks with cursors, the
        # next-arrival instant per node, and the linked-list source
        # queues below.  One outstanding arrival per node makes the
        # event order canonical — the smallest (instant, node) pair —
        # so an argmin over the node row finds the next event exactly.
        self._arr_buf = np.zeros((R, N, _GEN_BLOCK), dtype=np.float64)
        self._arr_pos = np.zeros((R, N), dtype=np.int32)
        self._arr_len = np.zeros((R, N), dtype=np.int32)
        self._dst_buf = np.zeros((R, N, _GEN_BLOCK), dtype=np.int32)
        self._dst_pos = np.zeros((R, N), dtype=np.int32)
        self._dst_len = np.zeros((R, N), dtype=np.int32)
        self._gen_node_t = np.full((R, N), math.inf, dtype=np.float64)
        for rep in range(R):
            for node, src in enumerate(self._sources[rep]):
                if src.rate == 0:
                    continue
                buf = src.draw_block(_GEN_BLOCK)
                self._arr_buf[rep, node, : len(buf)] = buf
                self._arr_len[rep, node] = len(buf)
                # Seed with the first instant *unconsumed* (cursor 0):
                # the engines seed their heaps with peek(), so the
                # first event re-pushes the same instant — that quirk
                # is part of the frozen per-seed generation contract.
                self._gen_node_t[rep, node] = buf[0]
        #: Per-replication minima of ``_gen_node_t``, so the generation
        #: fast path compares one float per replication.
        self._gen_next = self._gen_node_t.min(axis=1)
        #: Nodes with messages to (re)activate, as a bitmap — what the C
        #: loop walks.
        self._act = np.zeros((R, N), dtype=np.uint8)
        # Mirrors only the numpy passes keep: ``_gen_next`` as a list and
        # its minimum, and the bitmap's set coords plus a dirty flag.
        self._gen_next_list = self._gen_next.tolist()
        self._next_arrival = float(self._gen_next.min()) if R else math.inf
        self._act_set: set[tuple[int, int]] = set()
        self._act_any = False
        #: Optional generation-event tap of the numpy passes: called with
        #: (rep, node, t, dst) per generated message.
        self._gen_hook = None

        # -- pending headers / ejection columns --------------------------
        cap = self.state.capacity
        #: Per-node source queues as linked lists over message slots
        #: (resized with the pool): qnext[rep, s] chains slot s to the
        #: next queued slot of the same node, -1 terminates.
        self._qnext = np.full((R, cap), -1, dtype=np.int32)
        self._qhead = np.full((R, N), -1, dtype=np.int32)
        self._qtail = np.full((R, N), -1, dtype=np.int32)
        self._qlen = np.zeros((R, N), dtype=np.int32)
        self._need_slots = np.zeros((R, cap), dtype=np.int32)
        self._need_n = np.zeros(R, dtype=np.int64)
        self._need_total = 0
        self._ej_cap_rows = _EJ_ROWS
        self._ej_reps = np.zeros(self._ej_cap_rows, dtype=np.int64)
        self._ej_slots = np.zeros(self._ej_cap_rows, dtype=np.int64)
        self._ej_flats = np.zeros(self._ej_cap_rows, dtype=np.int64)
        self._ej_mflats = np.zeros(self._ej_cap_rows, dtype=np.int64)
        self._ej_pos = np.full((R, cap), -1, dtype=np.int64)
        self._ejecting_count = 0
        self._msg_cap = cap
        self._busy_vcs = 0
        self.cycle = 0
        self._sample_int = self.config.sample_interval
        self._Nn = N
        # Raveled views of the per-event hot arrays (flat index
        # rep*cap + slot or rep*N + node): scalar access through a 1-D
        # view is markedly cheaper than tuple indexing, and every write
        # lands in the authoritative 2-D array underneath.
        self._f_qhead = self._qhead.ravel()
        self._f_qtail = self._qtail.ravel()
        self._f_qlen = self._qlen.ravel()
        self._f_act = self._act.ravel()
        self._f_ai = self.state.active_injections.ravel()
        self._f_arr_pos = self._arr_pos.ravel()
        self._f_arr_len = self._arr_len.ravel()
        self._f_arr_buf = self._arr_buf.ravel()
        self._f_dst_pos = self._dst_pos.ravel()
        self._f_dst_len = self._dst_len.ravel()
        self._f_dst_buf = self._dst_buf.ravel()
        self._rebuild_flat_views()

        # Scratch buffers for the numpy transfer kernel's dense passes.
        RC = R * self._C
        self._b_cand = np.empty((R, self._CV), dtype=bool)
        self._b_tmpb = np.empty((R, self._CV), dtype=bool)
        self._b_tmpi = np.empty((R, self._CV), dtype=np.int32)
        if self._lut is not None:
            self._b_bits = np.empty(RC, dtype=self._pow2.dtype)
            self._b_idx = np.empty(RC, dtype=np.int64)
            self._b_w = np.empty(RC, dtype=np.int8)
        else:
            self._voffs = np.arange(V, dtype=np.int32)
            self._b_key = np.empty((RC, V), dtype=np.int32)
            self._b_w = np.empty(RC, dtype=np.intp)
            self._rc_arange = np.arange(RC)
        self._b_ok = np.empty(RC, dtype=bool)

        # The compiled loop, when a C compiler is present (bit-identical
        # to the numpy passes, asserted per cycle in the test-suite);
        # ``_ck`` is None on the numpy passes.  Wide V uses the C scan,
        # so the kernel is loaded regardless of the LUT.
        self._ck_bundle = load_bundle()
        self._ck = None if self._ck_bundle is None else self._ck_bundle.run
        self._c_args: np.ndarray | None = None
        #: Scalar in/out block of the resident loop: {cycle, busy_vcs,
        #: ejecting_count, need_total, reason, aux rep, stop_at, spare}.
        self._c_rs = np.zeros(8, dtype=np.int64)
        #: Per-replication staging block of the threaded kernel.
        self._c_tstage = np.zeros(R * 8, dtype=np.int64)
        #: ctypes callback handed to starnet_run for block refills;
        #: exceptions are stashed and re-raised after the C call returns.
        self._cb_exc: BaseException | None = None
        self._c_cb = _CB_TYPE(self._cb_dispatch)
        self._c_cb_ptr = ctypes.cast(self._c_cb, ctypes.c_void_p).value or 0
        #: Observation-only counters surfaced by phase_profile().
        self._counts = dict.fromkeys(_COUNTER_KEYS, 0)

        # Kernel worker-thread pool: spawned once per simulator, freed
        # by the finalizer.  Pool creation failure (or a missing kernel)
        # degrades silently to the serial path — same bits either way.
        self._threads = resolve_threads(threads, base.threads)
        self._pool_ptr = 0
        if self._threads > 1 and self._ck_bundle is not None:
            ptr = int(self._ck_bundle.pool_new(self._threads))
            if ptr:
                self._pool_ptr = ptr
                self._pool_finalizer = weakref.finalize(
                    self, self._ck_bundle.pool_free, ptr
                )

        self._last_progress = np.zeros(R, dtype=np.int64)
        self._progress_marks = np.full(R, -1, dtype=np.int64)
        # Message/latency bookkeeping lives in flat numpy arrays shared
        # with the compiled megakernel, which handles completions (phase
        # 5) without a Python round-trip; the numpy fallback updates the
        # same arrays in the same order, so both stay bit-identical.
        self._in_flight = np.zeros(R, dtype=np.int64)
        self._measured_in_flight = np.zeros(R, dtype=np.int64)
        self._completed = np.zeros(R, dtype=np.int64)
        self._generated = np.zeros(R, dtype=np.int64)
        self._measured_generated = np.zeros(R, dtype=np.int64)
        self._injected = np.zeros(R, dtype=np.int64)
        self.alloc_attempts = np.zeros(R, dtype=np.int64)
        self.alloc_failures = np.zeros(R, dtype=np.int64)

        # Per-replication measurement windows (ragged horizons allowed).
        self._warm = [c.warmup_cycles for c in configs]
        self._horizon_per = [c.horizon for c in configs]
        self._end_per = [c.horizon + c.drain_cycles for c in configs]
        self._warm_np = np.array(self._warm, dtype=np.int64)
        self._horizon_np = np.array(self._horizon_per, dtype=np.int64)
        self._end_np = np.array(self._end_per, dtype=np.int64)
        #: 1 while the replication's result is not yet frozen (the
        #: resident loop's mirror of ``_final[rep] is None``).
        self._active_np = np.ones(R, dtype=np.uint8)
        for c in configs:
            if c.batches < 1:
                raise ValueError("batches must be >= 1")
            if c.horizon <= c.warmup_cycles:
                raise ValueError("empty measurement window")
        if self._probe_int is not None:
            # The batch never cycles past the longest drain horizon, so
            # a ring sized off it can't overflow (both kernels still
            # guard on capacity); warmup cycles are probed too — the
            # warmup-adequacy detector needs the transient.
            self.state.alloc_probes(max(self._end_per) // self._probe_int + 2)
        # Streaming latency sums (the array twin of LatencyAccumulator):
        # one scalar sum per metric plus per-batch sums for the CI, all
        # accumulated in message-completion order by whichever kernel
        # retires the message.
        Bmax = max(c.batches for c in configs)
        self._w_batches = np.array([c.batches for c in configs], dtype=np.int64)
        self._w_t0 = np.array(
            [float(c.warmup_cycles) for c in configs], dtype=np.float64
        )
        self._w_width = np.array(
            [
                (c.horizon - c.warmup_cycles) / c.batches
                for c in configs
            ],
            dtype=np.float64,
        )
        self._Bmax = Bmax
        self._lat_sum = np.zeros(R, dtype=np.float64)
        self._net_sum = np.zeros(R, dtype=np.float64)
        self._srcw_sum = np.zeros(R, dtype=np.float64)
        self._mcount = np.zeros(R, dtype=np.int64)
        self._lat_bsum = np.zeros((R, Bmax), dtype=np.float64)
        self._lat_bcount = np.zeros((R, Bmax), dtype=np.int64)
        self._sampler = [ChannelLoadSampler(self._C) for _ in range(R)]
        self._hb_max = topology.diameter()
        self._hb_req = np.zeros((R, self._hb_max + 1), dtype=np.int64)
        self._hb_blk = np.zeros((R, self._hb_max + 1), dtype=np.int64)
        self._hb_wait = np.zeros((R, self._hb_max + 1), dtype=np.int64)
        self._final: list[dict | None] = [None] * R

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> list[SimulationResult]:
        """Run every replication to completion; one result per config.

        Each replication's headline numbers are snapshotted at the first
        cycle where the object engine's run loop would have stopped it
        (its measurement window over and no measured message in flight,
        or its drain budget exhausted); the batch keeps cycling until
        every replication has stopped.  Accumulator-derived values are
        frozen in the snapshot so a replication with an early horizon is
        untouched by its companions' remaining cycles.

        With the compiled kernel the loop itself runs in C
        (``starnet_run``), re-entering Python only on refill, sample and
        stop events — one ctypes crossing per *event* instead of per
        cycle; without it, the numpy passes run each cycle.

        With ``profile=True`` the call also accumulates its wall time
        and attaches :meth:`phase_profile` to the first replication's
        result (the batch advances as one unit, so phase timing is a
        whole-batch property).
        """
        if self._prof is None and self._probe_int is None:
            return self._run_to_completion()
        t0 = time.perf_counter_ns()
        results = self._run_to_completion()
        if self._prof is not None:
            self._prof[_PROF_TOTAL_SLOT] += time.perf_counter_ns() - t0
            results[0] = dataclasses.replace(
                results[0], phase_ns=self.phase_profile()
            )
        if self._probe_int is not None:
            results[0] = dataclasses.replace(
                results[0], timeseries=self.probe_series()
            )
        return results

    def _run_to_completion(self) -> list[SimulationResult]:
        if self._ck is not None:
            if self._freeze_stopped():
                self._run_c(-1)
        else:
            min_h = min(self._horizon_per)
            while self.cycle < min_h:  # no replication can stop before this
                self._step_numpy()
            while self._freeze_stopped():
                self._step_numpy()
        return [self._result(rep) for rep in range(self._R)]

    def _freeze_stopped(self) -> int:
        """Snapshot and freeze every replication whose stop condition
        holds at the current cycle; return how many are still live."""
        cyc = self.cycle
        final = self._final
        live = 0
        for rep in range(self._R):
            if final[rep] is not None:
                continue
            if cyc >= self._horizon_per[rep] and (
                cyc >= self._end_per[rep] or self._measured_in_flight[rep] == 0
            ):
                final[rep] = self._snapshot(rep)
                self._stop_rep(rep)
            else:
                live += 1
        return live

    def phase_profile(self) -> dict:
        """Accumulated per-phase wall time in nanoseconds.

        Keys: the four phase groups (``generation``, ``activation``,
        ``route`` — VC allocation, switch traversal and ejection picking,
        phases 2-4 — and ``complete``, the serial phase-5 bookkeeping),
        plus ``other`` (driver overhead: sampling, Python/C crossings,
        refills), ``total`` and ``cycles``.  The C loop times the phases
        inside C; the numpy passes time the same split in Python.  The
        timings are all zeros when profiling is off.

        Counters, kept whether or not profiling is on: ``returns_stop``,
        ``returns_punt`` (a serviced refill), ``returns_sample`` and
        ``returns_error`` count the C loop's returns to Python by
        reason; ``refills_pool``, ``refills_uniforms``,
        ``refills_ej_rows`` and ``refills_blocks`` (arrival/destination
        blocks, refilled through the C loop's callback) count refills
        by kind on either driver; ``py_cycles`` counts the cycles run by
        the numpy passes (zero on the compiled path).
        """
        p = self.state.phase_ns
        phases = {name: int(p[i]) for i, name in enumerate(_PROF_PHASES)}
        accounted = sum(phases.values())
        total = max(int(p[_PROF_TOTAL_SLOT]), accounted)
        phases["other"] = total - accounted
        phases["total"] = total
        phases["cycles"] = int(self.cycle)
        phases.update(self._counts)
        return phases

    def _stop_rep(self, rep: int) -> None:
        """Freeze one replication: no further traffic, samples or checks."""
        self._gen_next[rep] = math.inf
        self._gen_next_list[rep] = math.inf
        self._next_arrival = min(self._gen_next_list)
        self._active_np[rep] = 0

    def _run_c(self, stop_at: int) -> None:
        """Drive ``starnet_run`` until cycle ``stop_at`` (-1: until every
        replication has stopped).

        Scalar state crosses through the run-state block.  A refill
        return is serviced here and C re-enters at the cycle it left;
        a sample return finished its cycle, whose sampling tail runs
        here; a stop return freezes the replications that stopped.
        """
        rs = self._c_rs
        rs[6] = stop_at
        counts = self._counts
        bit = self._ck_bundle.reasons
        while True:
            if self._c_args is None:
                self._refresh_c_args()
            rs[0] = self.cycle
            rs[1] = self._busy_vcs
            rs[2] = self._ejecting_count
            rs[3] = self._need_total
            self._ck(self._c_params_ptr)
            (
                self.cycle,
                self._busy_vcs,
                self._ejecting_count,
                self._need_total,
                reason,
                aux,
            ) = rs[:6].tolist()
            if not reason:
                return  # the cycle bound
            if reason & (bit["CBERR"] | bit["ERR"] | bit["WATCHDOG"]):
                counts["returns_error"] += 1
                self._raise_c_error(reason, aux)
            if reason & bit["SAMPLE"]:
                counts["returns_sample"] += 1
                self._sample(self.cycle - 1)  # the cycle C just finished
            if reason & (bit["POOL"] | bit["UNIFORMS"] | bit["EJ_ROWS"]):
                counts["returns_punt"] += 1
                if reason & bit["POOL"]:
                    self.state.grow()
                    self._sync_msg_cap()
                if reason & bit["UNIFORMS"]:
                    self._ensure_uniforms()
                if reason & bit["EJ_ROWS"]:
                    # Every pending header could finish routing and append
                    # an ejection row; C reserves room up front.
                    while self._ej_cap_rows < self._ejecting_count + self._need_total:
                        self._grow_ej_rows()
            if reason & bit["STOP"]:
                counts["returns_stop"] += 1
                if not self._freeze_stopped():
                    return
            if self.cycle == stop_at:
                return

    def _raise_c_error(self, reason: int, rep: int) -> None:
        bit = self._ck_bundle.reasons
        if reason & bit["CBERR"]:
            exc, self._cb_exc = self._cb_exc, None
            if exc is not None:
                raise exc
            raise SimulationError(
                "resident-loop refill callback failed without an exception"
            )
        if reason & bit["ERR"]:
            self._kernel_error()
        raise self._stall_error(rep, self.cycle)

    def step(self) -> None:
        """Advance every replication by one cycle.

        Unlike :meth:`run`, a step never snapshots or freezes stopped
        replications.  With the compiled kernel this is ``starnet_run``
        bounded to one cycle; otherwise one pass of the numpy phases.
        """
        if self._ck is not None:
            self._run_c(self.cycle + 1)
        else:
            self._step_numpy()

    def _step_numpy(self) -> None:
        """One cycle of the numpy passes.

        With profiling on, each phase group's wall time lands in the
        same ``phase_ns`` slots the C loop uses.
        """
        prof = self._prof
        cycle = self.cycle
        self._counts["py_cycles"] += 1
        if prof is not None:
            t0 = time.perf_counter_ns()
        if cycle >= self._next_arrival:
            self._generate(cycle)
        if prof is not None:
            t1 = time.perf_counter_ns()
            prof[0] += t1 - t0
            t0 = t1
        if self._act_any:
            self._activate()
        if prof is not None:
            t1 = time.perf_counter_ns()
            prof[1] += t1 - t0
            t0 = t1
        if self._need_total:
            self._ensure_uniforms()
            self._allocate_py(cycle)
        picks = self._pick_ejections() if self._ejecting_count else None
        if self._busy_vcs:
            self._transfer_phase()
        if prof is not None:
            t1 = time.perf_counter_ns()
            prof[2] += t1 - t0
            t0 = t1
        if picks is not None:
            self._apply_ejections(picks, cycle)
        if prof is not None:
            prof[3] += time.perf_counter_ns() - t0
        if (cycle & 31) == 0:
            self._watchdog(cycle)
        if cycle % self._sample_int == 0:
            self._sample(cycle)
        if self._probe_int is not None and cycle % self._probe_int == 0:
            self._probe_sample(cycle)
        self.cycle = cycle + 1

    def _sample(self, cycle: int) -> None:
        """Channel-load sample of ``cycle``.  A replication samples only
        inside its own post-warmup life — batch companions must not
        influence its multiplexing estimate."""
        stats = None
        final = self._final
        for rep in range(self._R):
            if final[rep] is None and cycle >= self._warm[rep]:
                if stats is None:
                    stats = self._sample_stats()
                self._sampler[rep].sample_scalars(
                    stats[0][rep], stats[1][rep], stats[2][rep]
                )

    def _probe_sample(self, cycle: int) -> None:
        """Append one probe sample — the bit-exact twin of the C
        kernel's ``probe_sample`` (same layout, same int64 values)."""
        st = self.state
        s = int(st.probe_state[0])
        if s >= st.probe_capacity:
            return
        data = st.probe_data[s]
        data[:, 0] = self._in_flight
        data[:, 1] = self._completed
        data[:, 2] = self._qlen.sum(axis=1)
        V = self._V
        for rep in range(self._R):
            data[rep, 3:] = np.bincount(st.ch_busy[rep], minlength=V + 1)
        st.probe_cycles[s] = cycle
        st.probe_state[0] = s + 1

    def probe_series(self) -> dict:
        """The probed samples as an aggregate time-series dict.

        See :func:`repro.obs.probes.build_timeseries` for the schema;
        raises when the simulator was built without ``probe_interval``.
        """
        if self._probe_int is None:
            raise ConfigurationError(
                "probe_series() needs ArraySimulator(probe_interval=k)"
            )
        from repro.obs.probes import build_timeseries

        st = self.state
        n = int(st.probe_state[0])
        return build_timeseries(
            st.probe_data[:n],
            st.probe_cycles[:n],
            interval=self._probe_int,
            num_vcs=self._V,
        )

    def _sample_stats(self) -> tuple[list[int], list[int], list[int]]:
        """Per-rep busy-channel moments off the maintained ch_busy array
        (== busy_vc_counts row reductions, in three vector passes)."""
        cb = self.state.ch_busy.astype(np.int64)
        return (
            cb.sum(axis=1).tolist(),
            (cb * cb).sum(axis=1).tolist(),
            np.count_nonzero(cb, axis=1).tolist(),
        )

    def _watchdog(self, cycle: int) -> None:
        """Periodic stall check (every 32 cycles).

        Progress is read off cumulative counters — flit transfers,
        successful allocations, completed messages — instead of a
        per-cycle flag, so the common fully-loaded cycle pays nothing.
        """
        transfers = self.state.transfers.tolist()
        marks = self._progress_marks
        last = self._last_progress
        attempts = self.alloc_attempts.tolist()
        failures = self.alloc_failures.tolist()
        completed = self._completed.tolist()
        for rep in range(self._R):
            p = transfers[rep] + completed[rep] + attempts[rep] - failures[rep]
            if p != marks[rep]:
                marks[rep] = p
                last[rep] = cycle
            elif self._in_flight[rep] > 0 and cycle - last[rep] > self._grace():
                raise self._stall_error(rep, cycle)

    def _grace(self) -> int:
        """Watchdog grace: the config's, else the object engine's module
        default, resolved late so a monkeypatched ``_WATCHDOG_GRACE``
        governs both engines."""
        grace = self.config.watchdog_grace
        if grace is None:
            from repro.simulation import engine as engine_mod

            grace = engine_mod._WATCHDOG_GRACE
        return grace

    def _stall_error(self, rep: int, cycle: int) -> SimulationError:
        return SimulationError(
            f"no progress for {self._grace()} cycles at cycle {cycle} "
            f"with {self._in_flight[rep]} messages in flight "
            f"(replication {rep}, seed {self.seeds[rep]}) — "
            "routing deadlock?"
        )

    # ------------------------------------------------------------------
    # Phase 1 — generation and activation (event-driven, per replication)
    # ------------------------------------------------------------------

    def _refill_arr(self, rep: int, node: int) -> None:
        """Refill one node's pre-drawn arrival block, cursor reset."""
        self._counts["refills_blocks"] += 1
        buf = self._sources[rep][node].draw_block(_GEN_BLOCK)
        self._arr_buf[rep, node, : len(buf)] = buf
        self._arr_len[rep, node] = len(buf)
        self._arr_pos[rep, node] = 0

    def _refill_dst(self, rep: int, node: int) -> None:
        """Refill one node's pre-drawn destination block, cursor reset
        (from the seed's shared blocks when companions share the seed;
        one destination at a time for a stateful pattern)."""
        self._counts["refills_blocks"] += 1
        cache = self._dst_shared.get(self.seeds[rep])
        if cache is None:
            buf = self.spatial.destinations_block(
                node, _GEN_BLOCK if self._dest_blocks else 1, self._dest_rng[rep].dest(node)
            )
        else:
            blocks = cache.setdefault(node, [])
            k = int(self._dst_next[rep, node])
            self._dst_next[rep, node] = k + 1
            if k == len(blocks):
                draw = self.spatial.destinations_block(
                    node, _GEN_BLOCK, self._dest_rng[rep].dest(node)
                )
                blocks.append(np.asarray(draw, dtype=np.int32))
            buf = blocks[k]
        self._dst_buf[rep, node, : len(buf)] = buf
        self._dst_len[rep, node] = len(buf)
        self._dst_pos[rep, node] = 0

    def _cb_dispatch(self, kind: int, a: int, b: int) -> int:
        """``starnet_run``'s service callback (ctypes re-acquires the GIL).

        kind 0/1 refill one node's arrival/destination block.
        Exceptions can't cross the C frame: they are stashed for
        :meth:`_run_c` to re-raise and signalled to C as -1
        (→ CBERR return).
        """
        try:
            if kind == 0:
                self._refill_arr(a, b)
            else:
                self._refill_dst(a, b)
            return 0
        except BaseException as exc:  # noqa: BLE001 — crossing a C frame
            self._cb_exc = exc
            return -1

    def _next_arrival_time(self, rep: int, node: int) -> float:
        """Pop the node's next arrival instant from its pre-drawn block."""
        k = rep * self._Nn + node
        pos = int(self._f_arr_pos[k])
        if pos >= int(self._f_arr_len[k]):
            self._refill_arr(rep, node)
            pos = 0
        self._f_arr_pos[k] = pos + 1
        return float(self._f_arr_buf[k * _GEN_BLOCK + pos])

    def _next_dest(self, rep: int, node: int) -> int:
        """Pop the node's next destination from its pre-drawn block."""
        k = rep * self._Nn + node
        pos = int(self._f_dst_pos[k])
        if pos >= int(self._f_dst_len[k]):
            self._refill_dst(rep, node)
            pos = 0
        self._f_dst_pos[k] = pos + 1
        return int(self._f_dst_buf[k * _GEN_BLOCK + pos])

    def _generate(self, cycle: int) -> None:
        st = self.state
        N = st.num_nodes
        pair_class = self.routes.pair_class
        class_dist = self.routes.class_dist
        gen_next = self._gen_next
        gnl = self._gen_next_list
        fcycle = float(cycle)
        cap = self._msg_cap
        (f_tgen, f_src, f_ejd, f_meas, f_dst, f_hdr, f_dist, f_flr,
         f_hops, f_fa, f_qnext) = self._flatc
        f_qhead = self._f_qhead
        f_qtail = self._f_qtail
        f_qlen = self._f_qlen
        f_act = self._f_act
        act_set = self._act_set
        for rep in range(self._R):
            if gnl[rep] > fcycle:
                continue
            nt = self._gen_node_t[rep]
            warm = self._warm[rep]
            horizon = self._horizon_per[rep]
            nb = rep * N
            mb = rep * cap
            g = mg = 0
            while True:
                # One outstanding arrival per node: the next event is the
                # earliest instant, ties to the lowest node — argmin's
                # first minimum, the same scan the C loop performs.
                node = int(nt.argmin())
                t = float(nt[node])
                if t > fcycle:
                    gen_next[rep] = t
                    gnl[rep] = t
                    break
                dst = self._next_dest(rep, node)
                dist = class_dist[pair_class[node * N + dst]]
                s = st.alloc_slot(rep)
                if cap != st.capacity:
                    self._sync_msg_cap()  # pool grew: views reallocated
                    cap = self._msg_cap
                    (f_tgen, f_src, f_ejd, f_meas, f_dst, f_hdr, f_dist,
                     f_flr, f_hops, f_fa, f_qnext) = self._flatc
                    mb = rep * cap
                i = mb + s
                f_tgen[i] = t
                f_src[i] = node
                f_ejd[i] = 0
                measured = warm <= t < horizon
                f_meas[i] = measured
                f_dst[i] = dst
                f_hdr[i] = node
                f_dist[i] = dist
                f_flr[i] = 0
                f_hops[i] = 0
                f_fa[i] = -1
                g += 1
                if measured:
                    mg += 1
                f_qnext[i] = -1
                k = nb + node
                tail = int(f_qtail[k])
                if tail < 0:
                    f_qhead[k] = s
                else:
                    f_qnext[mb + tail] = s
                f_qtail[k] = s
                f_qlen[k] += 1
                f_act[k] = 1
                act_set.add((rep, node))
                if self._gen_hook is not None:
                    self._gen_hook(rep, node, t, dst)
                nt[node] = self._next_arrival_time(rep, node)
            if g:
                self._generated[rep] += g
                if mg:
                    self._measured_generated[rep] += mg
                self._act_any = True
        self._next_arrival = min(gnl)

    def _activate(self) -> None:
        st = self.state
        N = st.num_nodes
        cap = self._msg_cap
        slots = self._slots
        flatc = self._flatc
        f_meas = flatc[3]
        f_qnext = flatc[10]
        f_qhead = self._f_qhead
        f_qtail = self._f_qtail
        f_qlen = self._f_qlen
        f_act = self._f_act
        f_ai = self._f_ai
        f_need_slots = self._f_need_slots
        need_n = self._need_n
        total_new = 0
        # The set mirrors the bitmap's nonzero coords, so sorted order
        # == the bitmap's row-major order (what the C loop walks).
        for rep, node in sorted(self._act_set):
            k = rep * N + node
            n = int(f_qlen[k])
            a = int(f_ai[k])
            if n and a < slots:
                mb = rep * cap
                head = int(f_qhead[k])
                nn = int(need_n[rep])
                popped = mcount = 0
                while n and a < slots:
                    s = head
                    i = mb + s
                    head = int(f_qnext[i])
                    n -= 1
                    a += 1
                    popped += 1
                    if f_meas[i]:
                        mcount += 1
                    f_need_slots[mb + nn] = s
                    nn += 1
                f_qhead[k] = head
                if head < 0:
                    f_qtail[k] = -1
                f_qlen[k] = n
                f_ai[k] = a
                need_n[rep] = nn
                self._in_flight[rep] += popped
                if mcount:
                    self._measured_in_flight[rep] += mcount
                total_new += popped
            f_act[k] = 0
        if total_new:
            self._need_total += total_new
        self._act_set.clear()
        self._act_any = False

    def _kernel_error(self) -> None:
        """Raise the error behind a compiled-kernel failure flag: the
        algorithm's own exception for a pending header in a rejected
        routing state, else a broken-invariant SimulationError."""
        st = self.state
        routes = self.routes
        for rep in range(self._R):
            for s in self._need_slots[rep, : int(self._need_n[rep])].tolist():
                routes.lookup(
                    self.topology,
                    int(st.p_header[rep, s]),
                    int(st.p_dst[rep, s]),
                    int(st.p_floor[rep, s]),
                    int(st.p_hops[rep, s]),
                )
        raise SimulationError(
            f"compiled cycle kernel invariant failure at cycle {self.cycle} "
            "(non-minimal route, or a completed message still owning channels)"
        )

    # ------------------------------------------------------------------
    # Phase 2 — virtual-channel allocation (Python/numpy fallback)
    # ------------------------------------------------------------------

    def _ensure_uniforms(self) -> None:
        """Guarantee enough pre-drawn uniforms for this cycle's allocation.

        Worst case per replication: n-1 shuffle draws plus one draw per
        header = 2n-1.  A short buffer is refilled wholesale (remaining
        variates are discarded) — deterministic, and identical for the C
        and numpy paths since both consume through this buffer.
        """
        # Cheap amortized gate first: no row can have consumed more than
        # the gate's spend since the last exact check, and every row had
        # at least its headroom remaining then, so while the bound holds
        # the vectorized shortage test (several numpy dispatches per
        # cycle) is provably redundant.
        gate = self._ugate
        bound = 2 * self._need_total
        if gate[1] + bound <= gate[0]:
            gate[1] += bound
            return
        worst = 2 * self._need_n
        short = (self._buf_cap - self._alloc_pos) < worst
        if short.any():
            self._counts["refills_uniforms"] += 1
            wmax = int(worst.max())
            if wmax > self._buf_cap:
                # Widen, refilling every row: a kept row's new tail
                # would hold no variates.
                self._buf_cap = 1 << (wmax - 1).bit_length()
                self._alloc_buf = np.empty((self._R, self._buf_cap), dtype=np.float64)
                self._c_args = None
                short[:] = True
            for rep in np.nonzero(short)[0].tolist():
                self._alloc_buf[rep] = self._alloc_gen[rep].random(self._buf_cap)
                self._alloc_pos[rep] = 0
        gate[0] = self._buf_cap - int(self._alloc_pos.max())
        gate[1] = bound

    def _allocate_py(self, cycle: int) -> None:
        """Allocation fallback, bit-identical to the C megakernel's loop.

        Consumes the same pre-drawn uniform buffer in the same order and
        leaves identical pending-list contents (``need_slots[:need_n]``).
        """
        st = self.state
        V = self._V
        policy = self._policy_code
        owner = st.owner_flat
        CV = self._CV
        topology = self.topology
        lookup = self.routes.lookup
        pools = self.routes.pools
        vspan = self._deg * V
        hb_max = self._hb_max
        for rep in range(self._R):
            n = int(self._need_n[rep])
            if not n:
                continue
            ns = self._need_slots[rep]
            order = ns[:n].tolist()
            ub = self._alloc_buf[rep]
            pos = int(self._alloc_pos[rep])
            if n > 1:  # Fisher-Yates, same draws as the C kernel
                for i in range(n - 1, 0, -1):
                    j = int(ub[pos] * (i + 1))
                    pos += 1
                    order[i], order[j] = order[j], order[i]
            keep = 0
            rowoff = rep * CV
            first = st.p_first_attempt[rep]
            hdr_row = st.p_header[rep]
            dst_row = st.p_dst[rep]
            floor_row = st.p_floor[rep]
            hops_row = st.p_hops[rep]
            meas = st.msg_measured[rep]
            for s in order:
                if first[s] < 0:
                    first[s] = cycle
                cur = int(hdr_row[s])
                a, e = pools[
                    lookup(topology, cur, int(dst_row[s]), int(floor_row[s]), int(hops_row[s]))
                ]
                base = cur * vspan
                fa = [base + f for f in a if owner[rowoff + base + f] < 0]
                fe = [base + f for f in e if owner[rowoff + base + f] < 0]
                flat = -1
                if policy == 0:  # ADAPTIVE_FIRST
                    if fa:
                        if len(fa) == 1:
                            flat = fa[0]
                        else:
                            flat = fa[int(ub[pos] * len(fa))]
                            pos += 1
                    elif fe:
                        # Lowest class first; random among equal-class ports.
                        lowest = min(f % V for f in fe)
                        pool = [f for f in fe if f % V == lowest]
                        flat = pool[int(ub[pos] * len(pool))]
                        pos += 1
                elif policy == 1:  # LOWEST_ESCAPE
                    if fe:
                        lowest = min(f % V for f in fe)
                        pool = [f for f in fe if f % V == lowest]
                        flat = pool[int(ub[pos] * len(pool))]
                        pos += 1
                    elif fa:
                        flat = fa[int(ub[pos] * len(fa))]
                        pos += 1
                else:  # RANDOM
                    pool = fa + fe
                    if pool:
                        flat = pool[int(ub[pos] * len(pool))]
                        pos += 1
                if flat < 0:
                    self.alloc_failures[rep] += 1
                    order[keep] = s
                    keep += 1
                    continue
                if meas[s]:
                    k = int(hops_row[s]) + 1
                    if k > hb_max:
                        k = hb_max
                    self._hb_req[rep, k] += 1
                    waited = cycle - int(first[s])
                    if waited > 0:
                        self._hb_blk[rep, k] += 1
                        self._hb_wait[rep, k] += waited
                first[s] = -1
                self._acquire(rep, s, flat, cycle)
                if st.p_dist[rep, s] == 0:  # header reached the destination
                    self._ej_add(rep, s, flat)
            ns[:keep] = order[:keep]
            self._need_total -= n - keep
            self._need_n[rep] = keep
            self._alloc_pos[rep] = pos
            self.alloc_attempts[rep] += n

    def _acquire(self, rep: int, slot: int, flat: int, cycle: int) -> None:
        st = self.state
        V = self._V
        chan = flat // V
        v_index = flat - chan * V
        hop_negative = self._color_py[chan // self._deg] == 1
        prev = int(st.p_head_vc[rep, slot])
        base = rep * self._CV
        af = base + flat
        bdf = st.bd_flat
        availf = st.avail_flat
        bdf[af] = 0
        if prev >= 0:
            ap = base + prev
            availf[af] = bdf[ap] & 0xFFFF
            st.down_flat[ap] = flat
        else:
            availf[af] = self._M  # whole worm still at the source PE
            st.msg_t_inject[rep, slot] = float(cycle)
            if st.msg_measured[rep, slot]:
                self._injected[rep] += 1
        st.owner_flat[af] = slot
        st.up_flat[af] = prev
        st.down_flat[af] = -1
        st.busy_flat[rep * self._C + chan] += 1
        st.p_head_vc[rep, slot] = flat
        st.msg_vcs_held[rep, slot] += 1
        self._busy_vcs += 1
        # Inlined RoutingAlgorithm.advance_floor: the floor becomes the
        # used escape class (class-a hops keep it) plus one across
        # negative hops.
        adaptive = self.vc_config.num_adaptive
        fbase = int(st.p_floor[rep, slot]) if v_index < adaptive else v_index - adaptive
        st.p_floor[rep, slot] = fbase + (1 if hop_negative else 0)
        st.p_hops[rep, slot] += 1
        nxt = self._neighbors_py[chan]
        st.p_header[rep, slot] = nxt
        d = int(st.p_dist[rep, slot]) - 1
        st.p_dist[rep, slot] = d
        if (d == 0) != (nxt == int(st.p_dst[rep, slot])):
            raise SimulationError(
                f"non-minimal route for slot {slot} (replication {rep}): "
                f"{d} hops left at node {nxt}"
            )

    # ------------------------------------------------------------------
    # Phase 3 — switch traversal (vectorized over all replications)
    # ------------------------------------------------------------------

    def _transfer_phase(self) -> None:
        st = self.state
        V = self._V
        # Candidate = owned, not fully delivered, downstream buffer space,
        # and a flit available to pull.  Free VCs carry the bd sentinel
        # (delivered == M), which the first compare rejects.  All dense
        # passes write into preallocated scratch to avoid temporaries.
        bd = st.vc_bd
        cand = self._b_cand
        np.less(bd, self._ms, out=cand)
        tmpi = self._b_tmpi
        np.bitwise_and(bd, 0xFFFF, out=tmpi)
        tmpb = self._b_tmpb
        np.less(tmpi, self._depth, out=tmpb)
        cand &= tmpb
        np.greater(st.vc_avail, 0, out=tmpb)
        cand &= tmpb
        if self._lut is not None:
            # Pack each channel's candidate VCs into an integer and resolve
            # the round-robin winner with one lookup-table gather.
            bits = self._b_bits
            np.matmul(cand.view(np.uint8).reshape(-1, V), self._pow2, out=bits)
            idx = self._b_idx
            np.multiply(st.rr_flat, 1 << V, out=idx)
            idx += bits
            w = self._b_w
            self._lut.take(idx, out=w)
            ok = self._b_ok
            np.greater_equal(w, 0, out=ok)
        else:
            # Wide-V fallback (V > _MAX_LUT_VCS): the winner is the
            # candidate with the smallest cyclic offset from the
            # round-robin pointer — an argmin over a (channels, V) key
            # matrix instead of a 2**V-wide table gather.  Offsets are
            # unique per VC, so the winner matches the LUT path (and the
            # C kernel's per-channel scan) exactly.
            key = self._b_key
            np.subtract(self._voffs, st.rr_flat[:, None], out=key)
            np.mod(key, V, out=key)
            key[~cand.reshape(-1, V)] = V  # non-candidates never win
            w = self._b_w
            np.argmin(key, axis=1, out=w)
            ok = self._b_ok
            np.less(key[self._rc_arange, w], V, out=ok)
        if not ok.any():
            return
        rc = np.nonzero(ok)[0]  # winning (rep, channel) pairs, flattened
        v = w[rc]
        flat = rc * V + v  # == rep * CV + channel * V + vc
        st.rr_flat[rc] = (v + 1) % V
        bdf = st.bd_flat
        availf = st.avail_flat
        bdf[flat] += 0x10001  # buffered += 1, delivered += 1
        availf[flat] -= 1
        # First flit across a newly acquired channel: its owner's header
        # is ready for the next hop — re-queue it for allocation.  The
        # ascending-index order here matches the C kernel's enumeration,
        # so both paths append to the pending list in the same order.
        nready = flat[bdf[flat] == 0x10001]
        if nready.size:
            CV = self._CV
            owner_flat = st.owner_flat
            p_dist = st.p_dist
            for x in nready.tolist():
                rep = x // CV
                slot = int(owner_flat[x])
                if p_dist[rep, slot] > 0:  # not yet at its destination
                    n = self._need_n[rep]
                    self._need_slots[rep, n] = slot
                    self._need_n[rep] = n + 1
                    self._need_total += 1
        counts = np.bincount(rc // self._C, minlength=self._R)
        st.transfers += counts
        rowoff = flat - flat % self._CV  # == rep * CV
        u = st.up_flat[flat]
        ipull = np.nonzero(u >= 0)[0]
        if ipull.size:
            uflat = rowoff[ipull] + u[ipull]
            nb = bdf[uflat] - 1  # flit leaves the upstream buffer
            bdf[uflat] = nb
            rel = np.nonzero(nb == self._ms)[0]
            if rel.size:
                self._release(uflat[rel])
        if ipull.size != flat.size:  # some grants injected from the PE
            isrc = np.nonzero(u < 0)[0]
            sflat = flat[isrc]
            fin = sflat[availf[sflat] == 0]  # tail flit left the PE
            if fin.size:
                self._finish_injection(fin)
        d = st.down_flat[flat]
        idown = np.nonzero(d >= 0)[0]
        if idown.size:
            availf[rowoff[idown] + d[idown]] += 1  # downstream gains a flit

    def _finish_injection(self, fin: np.ndarray) -> None:
        """Messages whose tail flit just left the PE free their source slot."""
        st = self.state
        CV = self._CV
        act = self._act
        act_set = self._act_set
        for aflat in fin.tolist():
            rep = aflat // CV
            slot = int(st.owner_flat[aflat])
            node = int(st.msg_src[rep, slot])
            st.active_injections[rep, node] -= 1
            act[rep, node] = 1
            act_set.add((rep, node))
        if len(fin):
            self._act_any = True

    def _release(self, flats: np.ndarray) -> None:
        """Free drained VCs (tail flit crossed and downstream buffer empty).

        ``flats`` are absolute indices (``rep * CV + vc``); the packed
        word already equals the free-VC sentinel when this is called.
        The stale up/down pointers need no reset — they are only ever
        read through granted (owned) VCs — but the owner must clear so
        allocation scans and the multiplexing sampler see a free VC.
        """
        st = self.state
        CV = self._CV
        C = self._C
        V = self._V
        vcs_held = st.msg_vcs_held
        busy = st.busy_flat
        owner_flat = st.owner_flat
        for aflat in flats.tolist():
            rep = aflat // CV
            x = aflat - rep * CV
            vcs_held[rep, int(owner_flat[aflat])] -= 1
            busy[rep * C + x // V] -= 1
        owner_flat[flats] = -1
        self._busy_vcs -= len(flats)

    # ------------------------------------------------------------------
    # Phase 4 — ejection (vectorized over routing-complete messages)
    # ------------------------------------------------------------------

    def _sync_msg_cap(self) -> None:
        """Re-size capacity-dependent side arrays after the pool grew."""
        st = self.state
        if self._msg_cap == st.capacity:
            return
        self._counts["refills_pool"] += 1
        old = self._msg_cap
        new = st.capacity
        self._msg_cap = new
        R = self._R
        ns = np.zeros((R, new), dtype=np.int32)
        ns[:, :old] = self._need_slots
        self._need_slots = ns
        qn = np.full((R, new), -1, dtype=np.int32)
        qn[:, :old] = self._qnext
        self._qnext = qn
        ep = np.full((R, new), -1, dtype=np.int64)
        ep[:, :old] = self._ej_pos
        self._ej_pos = ep
        n = self._ejecting_count
        self._ej_mflats[:n] = self._ej_reps[:n] * new + self._ej_slots[:n]
        self._c_args = None  # msg_* arrays were reallocated too
        self._rebuild_flat_views()

    def _rebuild_flat_views(self) -> None:
        """Refresh the raveled views of the capacity-sized arrays.

        The message pool's arrays are reallocated whenever it grows, so
        the 1-D views the generation/activation hot paths index through
        must be re-derived alongside (``_sync_msg_cap`` calls this).
        """
        st = self.state
        self._flatc = (
            st.msg_t_gen.ravel(),
            st.msg_src.ravel(),
            st.msg_ejected.ravel(),
            st.msg_measured.ravel(),
            st.p_dst.ravel(),
            st.p_header.ravel(),
            st.p_dist.ravel(),
            st.p_floor.ravel(),
            st.p_hops.ravel(),
            st.p_first_attempt.ravel(),
            self._qnext.ravel(),
        )
        self._f_need_slots = self._need_slots.ravel()

    def _grow_ej_rows(self) -> None:
        self._counts["refills_ej_rows"] += 1
        n = self._ejecting_count
        self._ej_cap_rows *= 2
        for name in ("_ej_reps", "_ej_slots", "_ej_flats", "_ej_mflats"):
            old = getattr(self, name)
            wide = np.zeros(self._ej_cap_rows, dtype=np.int64)
            wide[:n] = old[:n]
            setattr(self, name, wide)
        self._c_args = None  # ejection columns moved: refresh pointers

    def _ej_add(self, rep: int, slot: int, head: int) -> None:
        n = self._ejecting_count
        if n == self._ej_cap_rows:
            self._grow_ej_rows()
        self._ej_reps[n] = rep
        self._ej_slots[n] = slot
        self._ej_flats[n] = rep * self._CV + head
        self._ej_mflats[n] = rep * self._msg_cap + slot
        self._ej_pos[rep, slot] = n
        self._ejecting_count = n + 1

    def _ej_remove(self, rep: int, slot: int) -> None:
        """Swap-remove one draining message from the ejection columns."""
        i = int(self._ej_pos[rep, slot])
        self._ej_pos[rep, slot] = -1
        n = self._ejecting_count - 1
        if i != n:
            lr = int(self._ej_reps[n])
            ls = int(self._ej_slots[n])
            self._ej_reps[i] = lr
            self._ej_slots[i] = ls
            self._ej_flats[i] = self._ej_flats[n]
            self._ej_mflats[i] = self._ej_mflats[n]
            self._ej_pos[lr, ls] = i
        self._ejecting_count = n

    def _pick_ejections(self):
        """Flits each draining message ejects this cycle (pre-cycle state)."""
        st = self.state
        n = self._ejecting_count
        k = st.bd_flat[self._ej_flats[:n]] & 0xFFFF
        if self._ej_rate is not None:
            np.minimum(k, self._ej_rate, out=k)
        if not k.any():
            return None
        return k

    def _apply_ejections(self, k: np.ndarray, cycle: int) -> None:
        st = self.state
        ip = np.nonzero(k)[0]
        flats = self._ej_flats[ip]
        kk = k[ip]
        bdf = st.bd_flat
        nb = bdf[flats] - kk
        bdf[flats] = nb
        ej = st.msg_ejected_flat
        mflats = self._ej_mflats[ip]
        ne = ej[mflats] + kk
        ej[mflats] = ne
        rel = np.nonzero(nb == self._ms)[0]
        if rel.size:
            self._release(flats[rel])
        done = np.nonzero(ne == self._M)[0]
        if done.size:
            self._complete(self._ej_reps[ip[done]], self._ej_slots[ip[done]], cycle)

    def _complete(self, reps: np.ndarray, slots: np.ndarray, cycle: int) -> None:
        """Retire completed messages (numpy-path twin of C phase 5).

        Scalar adds in pair order, exactly as the compiled kernel
        accumulates, so the latency sums stay bit-identical between the
        two paths (float addition is order-sensitive).
        """
        st = self.state
        t_done = cycle + 1.0
        for rep, slot in zip(reps.tolist(), slots.tolist()):
            if st.msg_vcs_held[rep, slot] != 0:
                raise SimulationError("completed message still owns channels")
            self._in_flight[rep] -= 1
            self._completed[rep] += 1
            if st.msg_measured[rep, slot]:
                self._measured_in_flight[rep] -= 1
                tg = float(st.msg_t_gen[rep, slot])
                ti = float(st.msg_t_inject[rep, slot])
                v = t_done - tg
                self._lat_sum[rep] += v
                self._net_sum[rep] += t_done - ti
                self._srcw_sum[rep] += ti - tg
                self._mcount[rep] += 1
                b = int((tg - self._w_t0[rep]) / self._w_width[rep])
                b = min(max(b, 0), int(self._w_batches[rep]) - 1)
                self._lat_bsum[rep, b] += v
                self._lat_bcount[rep, b] += 1
            st.free_slot(rep, slot)
            self._ej_remove(rep, slot)

    # ------------------------------------------------------------------
    # Compiled loop (starnet_run)
    # ------------------------------------------------------------------

    def _refresh_c_args(self) -> None:
        """(Re)build the C kernel's parameter block.

        Called whenever an array the kernel touches may have been
        reallocated: the message pool grew, the ejection columns doubled
        or the uniform buffer widened.  The block is filled by slot name
        in the order ``STARNET_PARAMS`` declares them in ``_ckernel.c``;
        a name missing here or undeclared there raises
        :class:`~repro.simulation.ckernel.KernelABIError` before C runs.
        """
        st = self.state
        routes = self.routes
        rows = self._ej_cap_rows
        RC = self._R * self._C
        self._c_ejk = np.empty(rows, dtype=np.int32)
        self._c_comps = np.empty(rows, dtype=np.int64)
        self._c_winners = np.empty(RC, dtype=np.int64)
        self._c_fin = np.empty(RC, dtype=np.int64)

        def ptr(a: np.ndarray | None) -> int:
            return 0 if a is None else a.ctypes.data

        values = dict(
            bd=ptr(st.vc_bd),
            avail=ptr(st.vc_avail),
            owner=ptr(st.vc_owner),
            up=ptr(st.vc_upstream),
            down=ptr(st.vc_downstream),
            rr=ptr(st.ch_rr),
            lut=ptr(self._lut),
            R=self._R,
            C=self._C,
            V=self._V,
            M=self._M,
            depth=self._depth,
            ej_rate=-1 if self._ej_rate is None else int(self._ej_rate),
            transfers=ptr(st.transfers),
            vcs_held=ptr(st.msg_vcs_held),
            msg_src=ptr(st.msg_src),
            active_inj=ptr(st.active_injections),
            msg_ejected=ptr(st.msg_ejected),
            cap=st.capacity,
            N=st.num_nodes,
            ej_reps=ptr(self._ej_reps),
            ej_slots=ptr(self._ej_slots),
            ej_flats=ptr(self._ej_flats),
            ej_mflats=ptr(self._ej_mflats),
            ej_pos=ptr(self._ej_pos),
            ej_k=ptr(self._c_ejk),
            winners=ptr(self._c_winners),
            fin_nodes=ptr(self._c_fin),
            completions=ptr(self._c_comps),
            busy=ptr(st.ch_busy),
            policy=self._policy_code,
            num_adaptive=self.vc_config.num_adaptive,
            deg=self._deg,
            need_slots=ptr(self._need_slots),
            need_n=ptr(self._need_n),
            p_dst=ptr(st.p_dst),
            p_header=ptr(st.p_header),
            p_dist=ptr(st.p_dist),
            p_floor=ptr(st.p_floor),
            p_hops=ptr(st.p_hops),
            p_first=ptr(st.p_first_attempt),
            p_head_vc=ptr(st.p_head_vc),
            pair_class=ptr(routes.pair_class),
            class_dist=ptr(routes.class_dist),
            route_combo=ptr(routes.combo),
            cand_off=ptr(routes.off),
            cand_alen=ptr(routes.alen),
            cand_elen=ptr(routes.elen),
            cand=ptr(routes.cand),
            route_F=routes.floors,
            route_H=routes.hops,
            alloc_buf=ptr(self._alloc_buf),
            buf_cap=self._buf_cap,
            alloc_pos=ptr(self._alloc_pos),
            neighbors=ptr(self._neighbors_np),
            color=ptr(self._color_np),
            measured=ptr(st.msg_measured),
            t_inject=ptr(st.msg_t_inject),
            alloc_attempts=ptr(self.alloc_attempts),
            alloc_failures=ptr(self.alloc_failures),
            injected=ptr(self._injected),
            hb_req=ptr(self._hb_req),
            hb_blk=ptr(self._hb_blk),
            hb_wait=ptr(self._hb_wait),
            hb_max=self._hb_max,
            t_gen=ptr(st.msg_t_gen),
            in_flight=ptr(self._in_flight),
            meas_flight=ptr(self._measured_in_flight),
            completed=ptr(self._completed),
            free_stack=ptr(st.free_stack),
            free_n=ptr(st.free_n),
            lat_sum=ptr(self._lat_sum),
            net_sum=ptr(self._net_sum),
            srcw_sum=ptr(self._srcw_sum),
            mcount=ptr(self._mcount),
            lat_bsum=ptr(self._lat_bsum),
            lat_bcount=ptr(self._lat_bcount),
            w_t0=ptr(self._w_t0),
            w_width=ptr(self._w_width),
            w_batches=ptr(self._w_batches),
            Bmax=self._Bmax,
            tstage=ptr(self._c_tstage),
            threads=self._threads,
            pool=self._pool_ptr,
            gen_node_t=ptr(self._gen_node_t),
            gen_next=ptr(self._gen_next),
            arr_buf=ptr(self._arr_buf),
            arr_pos=ptr(self._arr_pos),
            arr_len=ptr(self._arr_len),
            dst_buf=ptr(self._dst_buf),
            dst_pos=ptr(self._dst_pos),
            dst_len=ptr(self._dst_len),
            GB=_GEN_BLOCK,
            qnext=ptr(self._qnext),
            qhead=ptr(self._qhead),
            qtail=ptr(self._qtail),
            qlen=ptr(self._qlen),
            act=ptr(self._act),
            cb=self._c_cb_ptr,
            generated=ptr(self._generated),
            meas_generated=ptr(self._measured_generated),
            warm=ptr(self._warm_np),
            horizon=ptr(self._horizon_np),
            end=ptr(self._end_np),
            active=ptr(self._active_np),
            slots=self._slots,
            grace=self._grace(),
            marks=ptr(self._progress_marks),
            lastp=ptr(self._last_progress),
            sample_interval=self.config.sample_interval,
            ugate=ptr(self._ugate),
            ej_cap_rows=self._ej_cap_rows,
            run_state=ptr(self._c_rs),
            prof=ptr(self.state.phase_ns if self._prof is not None else None),
            pb_data=ptr(st.probe_data),
            pb_cycles=ptr(st.probe_cycles),
            pb_state=ptr(st.probe_state),
            pb_interval=self._probe_int or 0,
            pb_cap=st.probe_capacity,
        )
        params = np.array(self._ck_bundle.param_block(values), dtype=np.int64)
        self._c_params_ptr = params.ctypes.data
        self._c_args = params  # sentinel: block is built

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def _snapshot(self, rep: int) -> dict:
        """Headline numbers of ``rep``, frozen at its logical stop cycle.

        Accumulator-derived values (latency means, CI, hop-blocking
        counters) are copied out here because batch companions with later
        horizons keep the simulation — but not this replication's
        result — moving.
        """
        cnt = int(self._mcount[rep])
        lat_mean = float(self._lat_sum[rep]) / cnt if cnt else math.nan
        net_mean = float(self._net_sum[rep]) / cnt if cnt else math.nan
        srcw_mean = float(self._srcw_sum[rep]) / cnt if cnt else math.nan
        # ~95% CI half-width from batch means — same estimator (and the
        # same normal critical value) as LatencyAccumulator.ci_halfwidth.
        bs = self._lat_bsum[rep]
        bc = self._lat_bcount[rep]
        means = [
            float(bs[i]) / int(bc[i])
            for i in range(int(self._w_batches[rep]))
            if bc[i] > 0
        ]
        k = len(means)
        if k < 2:
            lat_ci = math.nan
        else:
            mu = sum(means) / k
            var = sum((m - mu) ** 2 for m in means) / (k - 1)
            lat_ci = 1.96 * math.sqrt(var / k)
        return {
            "cycles_run": self.cycle,
            "transfers": int(self.state.transfers[rep]),
            "backlog": int(self._qlen[rep].sum()),
            "generated": int(self._generated[rep]),
            "measured_generated": int(self._measured_generated[rep]),
            "incomplete": int(self._measured_in_flight[rep]),
            "completed": int(self._completed[rep]),
            "injected_in_window": int(self._injected[rep]),
            "lat_mean": lat_mean,
            "lat_ci": lat_ci,
            "lat_count": cnt,
            "net_mean": net_mean,
            "srcw_mean": srcw_mean,
            "multiplexing": self._sampler[rep].multiplexing_degree,
            "hb_req": self._hb_req[rep].copy(),
            "hb_blk": self._hb_blk[rep].copy(),
            "hb_wait": self._hb_wait[rep].copy(),
        }

    def _result(self, rep: int) -> SimulationResult:
        cfg = self.configs[rep]
        snap = self._final[rep]
        assert snap is not None
        measured_window = cfg.measure_cycles * self.topology.num_nodes
        accepted = (
            snap["injected_in_window"] / measured_window if measured_window else 0.0
        )
        saturated = False
        if cfg.generation_rate > 0:
            if snap["backlog"] > max(20.0, 0.02 * snap["generated"]):
                saturated = True
            if snap["incomplete"] > 0.05 * max(snap["measured_generated"], 1):
                saturated = True
        total_capacity = self._C * max(snap["cycles_run"], 1)
        hb = HopBlockingStats(self._hb_max)
        hb._requests = [int(x) for x in snap["hb_req"]]
        hb._blocked = [int(x) for x in snap["hb_blk"]]
        hb._wait_total = [float(x) for x in snap["hb_wait"]]
        return SimulationResult(
            mean_latency=snap["lat_mean"],
            mean_network_latency=snap["net_mean"],
            mean_source_wait=snap["srcw_mean"],
            latency_ci=snap["lat_ci"],
            messages_measured=snap["lat_count"],
            messages_generated=snap["generated"],
            messages_completed=snap["completed"],
            saturated=saturated,
            offered_rate=cfg.generation_rate,
            accepted_rate=accepted,
            mean_multiplexing=snap["multiplexing"],
            channel_utilization=snap["transfers"] / total_capacity,
            cycles_run=snap["cycles_run"],
            backlog=snap["backlog"],
            hop_blocking=hb,
        )
