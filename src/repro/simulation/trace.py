"""Trace-diff parity harness: per-cycle digests of array-backend state.

The array backend has two interchangeable kernels — the numpy passes and
the compiled C megakernel — whose *results* are asserted bit-identical.
Result equality alone is a weak oracle: two kernels could diverge
mid-run and reconverge, or diverge only in state the results never read.
:func:`state_digest` closes that gap by hashing the complete mutable
state of an :class:`~repro.simulation.kernels.ArraySimulator` (VC words,
message pool, pending/ejection/free lists, RNG cursors, metric
accumulators) into one SHA-256, and :func:`run_digests` collects the
digest after every cycle, so a parity test can pinpoint the exact first
cycle where two backends disagree.

Only deterministically-ordered state is hashed: the pending list is read
up to its live length (the compaction leftovers beyond ``need_n`` are
scratch and may legitimately differ between kernels), ejection columns
up to the live count, and each free stack up to its depth.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.simulation.kernels import ArraySimulator

__all__ = ["state_digest", "run_digests"]

#: SimState arrays hashed in full (dense, no scratch regions).
_STATE_FIELDS = (
    "vc_bd",
    "vc_avail",
    "vc_owner",
    "vc_upstream",
    "vc_downstream",
    "ch_rr",
    "ch_busy",
    "transfers",
    "active_injections",
    "msg_t_gen",
    "msg_t_inject",
    "msg_measured",
    "msg_src",
    "msg_ejected",
    "msg_vcs_held",
    "p_dst",
    "p_header",
    "p_dist",
    "p_floor",
    "p_hops",
    "p_first_attempt",
    "p_head_vc",
)

#: Simulator-side accumulator arrays hashed in full.  The generation
#: state (pre-drawn blocks, cursors, per-node next arrivals, source-queue
#: links, activation bitmap) is included so the digests also pin the
#: resident C loop and every kernel thread count to the same bits.
_SIM_FIELDS = (
    "_ej_pos",
    "_alloc_pos",
    "_gen_node_t",
    "_gen_next",
    "_arr_buf",
    "_arr_pos",
    "_arr_len",
    "_dst_buf",
    "_dst_pos",
    "_dst_len",
    "_qnext",
    "_qhead",
    "_qtail",
    "_qlen",
    "_act",
    "_generated",
    "_measured_generated",
    "_in_flight",
    "_measured_in_flight",
    "_completed",
    "_injected",
    "alloc_attempts",
    "alloc_failures",
    "_lat_sum",
    "_net_sum",
    "_srcw_sum",
    "_mcount",
    "_lat_bsum",
    "_lat_bcount",
    "_hb_req",
    "_hb_blk",
    "_hb_wait",
)


def state_digest(sim: ArraySimulator) -> str:
    """SHA-256 over the simulator's complete deterministic state."""
    st = sim.state
    h = hashlib.sha256()
    for name in _STATE_FIELDS:
        h.update(np.ascontiguousarray(getattr(st, name)).tobytes())
    for name in _SIM_FIELDS:
        h.update(np.ascontiguousarray(getattr(sim, name)).tobytes())
    for rep in range(sim._R):
        h.update(sim._need_slots[rep, : int(sim._need_n[rep])].tobytes())
        h.update(st.free_stack[rep, : int(st.free_n[rep])].tobytes())
    n = sim._ejecting_count
    for name in ("_ej_reps", "_ej_slots", "_ej_flats", "_ej_mflats"):
        h.update(getattr(sim, name)[:n].tobytes())
    h.update(
        repr(
            (
                sim.cycle,
                sim._busy_vcs,
                sim._need_total,
                sim._ejecting_count,
                sim._next_arrival,
            )
        ).encode()
    )
    return h.hexdigest()


def run_digests(sim: ArraySimulator, cycles: int) -> list[str]:
    """Step ``cycles`` times, returning the post-cycle digest of each.

    The digest is taken after the *complete* cycle — compiled kernel
    call plus any Python post-processing (activation bookkeeping) —
    which is exactly the boundary at which the numpy and C paths
    promise bit-identical state.
    """
    out = []
    for _ in range(cycles):
        sim.step()
        out.append(state_digest(sim))
    return out
