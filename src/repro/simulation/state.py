"""Structure-of-arrays simulation state (the data layer of the array backend).

The object engine (:mod:`repro.simulation.engine`) represents the network
as a graph of ``Message``/``VirtualChannel``/``PhysicalChannel`` objects.
:class:`SimState` holds the same information as flat numpy arrays so the
kernel layer (:mod:`repro.simulation.kernels`) can advance many
independent replications with a handful of vectorized passes per cycle.
Every array carries the replication axis first; a virtual channel is
addressed by its flat id ``channel * V + vc``.

Hot-path layout choices (benchmarked on the S4 batch workload):

* ``vc_bd`` packs a VC's *buffered* (low 16 bits) and *delivered* (high
  bits) flit counts into one int32, so the per-grant read-modify-write is
  a single scatter (``bd += 0x1_0001``) and the tail-release test is one
  compare (``bd == M << 16``).  Free VCs keep the sentinel ``M << 16``
  (all delivered, none buffered), which also excludes them from the
  transfer-candidate mask without a separate ownership test.
* ``vc_avail`` counts flits available for a VC to *pull* — its upstream
  VC's buffered count, or the flits still at the source PE for the first
  VC of a chain.  It is maintained incrementally by the kernels (grant,
  acquire, downstream-gain) precisely so the candidate mask needs no
  gather through the upstream pointers.
* Every per-message field, including the header-position/escape-floor
  fields that only the allocation phase reads, is a contiguous ``(R,
  cap)`` int32 array.  The compiled megakernel runs the allocation loop
  directly on these buffers; the numpy fallback reads them the same way,
  so there is exactly one copy of each fact (the old Python-list mirrors
  are gone).  A header's candidate VCs are read from the route table
  (:mod:`repro.simulation.routes`) by its (header, dst, floor, hops)
  fields, so no per-message routing cache is kept.
"""

from __future__ import annotations

import numpy as np

from repro.topology.base import Topology
from repro.utils.exceptions import ConfigurationError

__all__ = ["SimState"]

#: Field-width limits of the packed buffered/delivered word.
MAX_MESSAGE_LENGTH = (1 << 15) - 1
MAX_BUFFER_DEPTH = (1 << 15) - 1


class SimState:
    """All mutable state of a batch of wormhole simulations, as arrays."""

    def __init__(
        self,
        topology: Topology,
        num_vcs: int,
        message_length: int,
        replications: int,
        initial_capacity: int = 128,
    ):
        if replications < 1:
            raise ConfigurationError(f"replications must be >= 1, got {replications}")
        if message_length > MAX_MESSAGE_LENGTH:
            raise ConfigurationError(
                f"array backend supports message_length <= {MAX_MESSAGE_LENGTH}, "
                f"got {message_length} (use engine='object')"
            )
        self.replications = replications
        self.num_nodes = topology.num_nodes
        self.degree = topology.degree
        self.num_vcs = num_vcs
        self.num_channels = topology.num_channels
        self.message_length = message_length
        R = replications
        CV = self.num_channels * num_vcs
        self.cv = CV

        #: Sentinel word of a free VC: delivered == M, buffered == 0.
        self.free_word = np.int32(message_length << 16)

        # -- virtual channels (flat id = channel * V + vc) ---------------
        self.vc_bd = np.full((R, CV), self.free_word, dtype=np.int32)
        self.vc_avail = np.zeros((R, CV), dtype=np.int32)
        self.vc_owner = np.full((R, CV), -1, dtype=np.int32)
        self.vc_upstream = np.full((R, CV), -1, dtype=np.int32)
        self.vc_downstream = np.full((R, CV), -1, dtype=np.int32)

        # -- physical channels -------------------------------------------
        self.ch_rr = np.zeros((R, self.num_channels), dtype=np.int32)
        #: Owned-VC count per channel; lets the kernels skip idle channels.
        self.ch_busy = np.zeros((R, self.num_channels), dtype=np.uint8)
        self.transfers = np.zeros(R, dtype=np.int64)

        # -- nodes --------------------------------------------------------
        self.active_injections = np.zeros((R, self.num_nodes), dtype=np.int32)

        # -- flat views & offsets for 1D scatter/gather -------------------
        self.bd_flat = self.vc_bd.ravel()
        self.avail_flat = self.vc_avail.ravel()
        self.owner_flat = self.vc_owner.ravel()
        self.up_flat = self.vc_upstream.ravel()
        self.down_flat = self.vc_downstream.ravel()
        self.rr_flat = self.ch_rr.ravel()
        self.busy_flat = self.ch_busy.ravel()

        # -- message slot pool -------------------------------------------
        cap = max(16, initial_capacity)
        self.capacity = cap
        self.msg_t_gen = np.zeros((R, cap), dtype=np.float64)
        self.msg_t_inject = np.full((R, cap), np.nan, dtype=np.float64)
        self.msg_measured = np.zeros((R, cap), dtype=bool)
        self.msg_src = np.zeros((R, cap), dtype=np.int32)
        self.msg_ejected = np.zeros((R, cap), dtype=np.int32)
        self.msg_vcs_held = np.zeros((R, cap), dtype=np.int32)
        self.msg_ejected_flat = self.msg_ejected.ravel()
        # Allocation-phase fields (read/written per header by the C
        # megakernel and the numpy fallback alike):
        self.p_dst = np.zeros((R, cap), dtype=np.int32)
        self.p_header = np.zeros((R, cap), dtype=np.int32)
        self.p_dist = np.zeros((R, cap), dtype=np.int32)
        self.p_floor = np.zeros((R, cap), dtype=np.int32)
        self.p_hops = np.zeros((R, cap), dtype=np.int32)
        self.p_first_attempt = np.full((R, cap), -1, dtype=np.int32)
        self.p_head_vc = np.full((R, cap), -1, dtype=np.int32)

        #: Per-replication free-slot stacks (stack top hands out low ids
        #: first); arrays rather than lists so the compiled megakernel
        #: can recycle completed slots without a Python round-trip.
        self.free_stack = np.empty((R, cap), dtype=np.int32)
        self.free_stack[:] = np.arange(cap - 1, -1, -1, dtype=np.int32)[None, :]
        self.free_n = np.full(R, cap, dtype=np.int64)

        #: Phase-profiling accumulators (nanoseconds), the side array
        #: next to the kernel param block (slot 117): {generation,
        #: activation, route, complete, reserved, total, reserved,
        #: reserved}.  Always allocated (64 bytes) but only written when
        #: ``ArraySimulator(profile=True)`` hands its pointer to the
        #: kernel / the per-cycle driver; see docs/observability.md.
        self.phase_ns = np.zeros(8, dtype=np.int64)

        #: Time-series probe ring buffers (param-block slots 118-122),
        #: unallocated until ``alloc_probes`` — probing is opt-in
        #: (``ArraySimulator(probe_interval=k)``) and the kernel sees a
        #: NULL data pointer otherwise, the same zero-overhead contract
        #: as ``phase_ns``.  See docs/observability.md.
        self.probe_data: np.ndarray | None = None
        self.probe_cycles: np.ndarray | None = None
        self.probe_state: np.ndarray | None = None
        self.probe_capacity = 0
        self.probe_row = 0

    def alloc_probes(self, capacity: int) -> None:
        """Allocate the probe ring buffers for ``capacity`` samples.

        One sample holds, per replication, ``[in_flight, completed,
        backlog, occupancy histogram over busy-VC counts 0..V]`` — all
        int64, written by the C megakernel and the numpy fallback with
        identical semantics.  ``probe_state[0]`` is the shared sample
        counter so C-resident spans and Python-driven cycles append to
        the same ring.
        """
        if capacity < 1:
            raise ConfigurationError(f"probe capacity must be >= 1, got {capacity}")
        self.probe_row = 3 + self.num_vcs + 1
        self.probe_capacity = capacity
        self.probe_data = np.zeros(
            (capacity, self.replications, self.probe_row), dtype=np.int64
        )
        self.probe_cycles = np.zeros(capacity, dtype=np.int64)
        self.probe_state = np.zeros(1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Slot management
    # ------------------------------------------------------------------

    def alloc_slot(self, rep: int) -> int:
        """Claim a free message slot in ``rep`` (growing the pool if full)."""
        n = int(self.free_n[rep]) - 1
        if n < 0:
            self.grow()
            n = int(self.free_n[rep]) - 1
        self.free_n[rep] = n
        return int(self.free_stack[rep, n])

    def free_slot(self, rep: int, slot: int) -> None:
        """Return a completed message's slot to the pool."""
        self.p_head_vc[rep, slot] = -1
        n = self.free_n[rep]
        self.free_stack[rep, n] = slot
        self.free_n[rep] = n + 1

    def grow(self) -> None:
        """Double the message-pool capacity (all replications at once)."""
        old = self.capacity
        new = old * 2
        R = self.replications
        for name, fill in (
            ("msg_t_gen", 0.0),
            ("msg_t_inject", np.nan),
            ("msg_measured", False),
            ("msg_src", 0),
            ("msg_ejected", 0),
            ("msg_vcs_held", 0),
            ("p_dst", 0),
            ("p_header", 0),
            ("p_dist", 0),
            ("p_floor", 0),
            ("p_hops", 0),
            ("p_first_attempt", -1),
            ("p_head_vc", -1),
        ):
            arr = getattr(self, name)
            wide = np.empty((R, new), dtype=arr.dtype)
            wide[:, :old] = arr
            wide[:, old:] = fill
            setattr(self, name, wide)
        self.msg_ejected_flat = self.msg_ejected.ravel()
        # New (higher) slot ids go on top of each stack in descending
        # order, so the next pops hand out the lowest new ids first —
        # the same order the old per-rep list ``extend`` produced.
        new_ids = np.arange(new - 1, old - 1, -1, dtype=np.int32)
        wide_stack = np.empty((R, new), dtype=np.int32)
        wide_stack[:, :old] = self.free_stack
        for rep in range(R):
            n = int(self.free_n[rep])
            wide_stack[rep, n : n + new_ids.size] = new_ids
        self.free_stack = wide_stack
        self.free_n += new_ids.size
        self.capacity = new

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def busy_vc_counts(self) -> np.ndarray:
        """Per-channel count of owned VCs, shape ``(R, num_channels)``."""
        owned = (self.vc_owner >= 0).reshape(
            self.replications, self.num_channels, self.num_vcs
        )
        return owned.sum(axis=2)
