/* Cycle-resident megakernel for the array backend.  One entry point,
 * starnet_run, loops whole cycles of repro.simulation.kernels in C —
 * generation, activation, VC allocation, switch traversal, ejection,
 * completion bookkeeping, the watchdog and time-series probes — and
 * returns to Python only on events the Python side must service: a
 * message-pool, uniform-buffer or ejection-row refill (Python grows or
 * refills, then re-enters at the same cycle), a channel-load sample, a
 * replication's stop, or an error.  Arrival and destination blocks are
 * refilled through a callback without leaving the loop.  run_state[6]
 * bounds the loop to a cycle count: ArraySimulator.step() is a one-
 * cycle bound of the same loop.
 *
 * Semantically identical to the Python/numpy passes in kernels.py (the
 * fallback and bit-identity oracle): allocation walks each
 * replication's pending headers in a freshly shuffled order and claims
 * free VCs per the selection policy;
 * transfers and ejections are two-phase (winners picked from pre-cycle
 * state, then applied).  kernels.py asserts bit-identical results
 * between both paths, so any change here must be mirrored there.
 *
 * Random variates are *pre-drawn* by the Python side into a per-
 * replication uniform buffer (alloc_buf); the kernel only consumes them
 * in a deterministic order (shuffle first, then at most one draw per
 * header), so numpy and C paths read the identical variate sequence.
 *
 * Routing candidates come from a dense route table built once by the
 * Python side (repro.simulation.routes): a header's routing state
 * (node, destination, escape floor, hops) maps arithmetically to a
 * state id through the symmetry-class map, the state id to a candidate
 * list of VC offsets relative to the node's first VC.  A state the
 * routing algorithm rejects maps to -1 and surfaces as a kernel error
 * that Python turns into the algorithm's own exception.  Distances come
 * from the same table (class_dist[pair_class[src * N + dst]]).
 *
 * Round-robin arbitration uses the packed lookup table when `lut` is
 * non-null (V <= 15); otherwise a per-channel scan tracks the candidate
 * with the smallest cyclic offset from the round-robin pointer, which
 * is the same winner the table (and the numpy argmin fallback) yields,
 * so the C kernel has no V cap.
 *
 * THREADING.  Every phase-2/3/4 mutation touches only one
 * replication's rows, so the cycle is parallelised over the batch
 * dimension: a persistent pthread pool (starnet_pool_new) partitions
 * replications into contiguous ranges and each thread runs the fused
 * per-replication pipeline 2 -> 4a -> 3a -> 3b -> 4b over its range
 * with no inner barriers.  Cross-replication structures (the shared
 * ejection-column list, the fin report list, the scalar
 * counters) are written into per-replication staging regions and
 * merged by the calling thread in ascending replication order — the
 * exact order the serial loops produce — and phase 5 (completion
 * bookkeeping with order-sensitive float accumulation) stays serial.
 * threads == 1 runs the identical staged code path, so results are
 * bit-identical for every thread count by construction.
 */

#include <stdint.h>
#include <stdlib.h>
#include <pthread.h>
#include <time.h>

/* starnet_run return reasons (bitmask; parsed by ckernel.py).  The
 * three refill reasons return before the cycle consumes anything that
 * needs the refill; Python services them and re-enters at that cycle. */
#define RUN_STOP 1       /* a replication reached its stop condition    */
#define RUN_POOL 2       /* message pool exhausted: Python grows it     */
#define RUN_SAMPLE 4     /* channel-load sample due (cycle finished)    */
#define RUN_WATCHDOG 8   /* stalled: Python raises SimulationError      */
#define RUN_CBERR 16     /* refill callback raised                      */
#define RUN_ERR 32       /* kernel invariant failure or rejected route  */
#define RUN_UNIFORMS 64  /* a uniform-buffer row may run short          */
#define RUN_EJ_ROWS 128  /* ejection columns may outgrow their rows    */

/* Block-refill callback of the resident loop: cb(kind, rep, node) with
 * kind 0 an arrival-block refill, 1 a destination-block refill; a
 * negative return means the Python side raised. */
typedef int64_t (*starnet_cb)(int64_t kind, int64_t a, int64_t b);

struct Pool;

/* The parameter block.  starnet_run takes one int64 array (pointers
 * cast to int64) so each ctypes call marshals a single argument.
 * STARNET_PARAMS is the only declaration of its layout: one X(type,
 * name) per slot, in slot order, noting the slot's extent (in the
 * scalar slots of the same names) and meaning.  Ctx and decode()
 * expand it below; repro.simulation.ckernel parses the slot names and
 * the RUN_* bits from this file, the same bytes the compile cache
 * hashes, and ArraySimulator._refresh_c_args fills the block by name,
 * refusing a mapping whose names differ.  A NULL prof or pb_data turns
 * phase profiling or probing off at one branch per call site.
 *
 *   route_combo  indexed ((class*2 + colour)*route_F + floor)*route_H
 *                + hops; -1 where the algorithm rejects the state
 *   tstage       per rep {spare, busy_delta, fin_n, err, newej_n,
 *                newej_base, bucket_end, spare}
 *   run_state    {cycle, busy_vcs, ej_n, need_total, reason, aux,
 *                stop_at (< 0: unbounded), spare}
 *   prof         {generation, activation, route, complete, -, -, -, -};
 *                total and cycles live Python-side (see
 *                ArraySimulator.phase_profile)
 *   pb_data      pb_cap samples of R rows {in_flight, completed,
 *                backlog, occupancy histogram 0..V}; pb_state is shared
 *                with the numpy passes so both append to one ring
 */

#define STARNET_PARAMS(X)                                                             \
    X(int32_t *, bd)                /* R*CV: packed buffered | delivered << 16 */     \
    X(int32_t *, avail)             /* R*CV: flits available to pull */               \
    X(int32_t *, owner)             /* R*CV: owning slot or -1 */                     \
    X(int32_t *, up)                /* R*CV: upstream vc or -1 (source PE) */         \
    X(int32_t *, down)              /* R*CV: downstream vc or -1 */                   \
    X(int32_t *, rr)                /* R*C: round-robin pointers */                   \
    X(const int8_t *, lut)          /* round-robin winner table (NULL: scan) */       \
    X(int64_t, R)                   /* replications */                                \
    X(int64_t, C)                   /* channels */                                    \
    X(int64_t, V)                   /* virtual channels per channel */                \
    X(int32_t, M)                   /* message length (flits) */                      \
    X(int32_t, depth)               /* VC buffer depth */                             \
    X(int32_t, ej_rate)             /* ejection flits per cycle (< 0: unlimited) */   \
    X(int64_t *, transfers)         /* R: cumulative grant counts */                  \
    X(int32_t *, vcs_held)          /* R*cap: per-message owned-VC counts */          \
    X(int32_t *, msg_src)           /* R*cap: source node per message */              \
    X(int32_t *, active_inj)        /* R*N: concurrent injections per node */         \
    X(int32_t *, msg_ejected)       /* R*cap: ejected flits per message */            \
    X(int64_t, cap)                 /* message slots per replication */               \
    X(int64_t, N)                   /* nodes */                                       \
    X(int64_t *, ej_reps)           /* ejection columns (appended here) */            \
    X(int64_t *, ej_slots)                                                            \
    X(int64_t *, ej_flats)          /* head VC of each draining message */            \
    X(int64_t *, ej_mflats)         /* message-array index of each */                 \
    X(int64_t *, ej_pos)            /* R*cap: column position per message (-1) */     \
    X(int32_t *, ej_k)              /* scratch, ej_cap_rows */                        \
    X(int64_t *, winners)           /* scratch R*C, per-rep region C */               \
    X(int64_t *, fin_nodes)         /* out: rep*N + node of finished injections */    \
    X(int64_t *, completions)       /* out: ej-column index of completions */         \
    X(uint8_t *, busy)              /* R*C: owned-VC count per channel */             \
    X(int64_t, policy)              /* 0 adaptive-first, 1 lowest-escape, 2 random */ \
    X(int32_t, num_adaptive)                                                          \
    X(int64_t, deg)                 /* channels per node */                           \
    X(int32_t *, need_slots)        /* R*cap: pending headers, compacted */           \
    X(int64_t *, need_n)            /* R: in/out pending counts */                    \
    X(int32_t *, p_dst)             /* p_*: R*cap header routing state */             \
    X(int32_t *, p_header)                                                            \
    X(int32_t *, p_dist)                                                              \
    X(int32_t *, p_floor)                                                             \
    X(int32_t *, p_hops)                                                              \
    X(int32_t *, p_first)                                                             \
    X(int32_t *, p_head_vc)                                                           \
    X(const int32_t *, pair_class)  /* N*N: symmetry class of (node, dst) */          \
    X(const int32_t *, class_dist)  /* distance per pair class */                     \
    X(const int32_t *, route_combo) /* candidate list per state id (-1) */            \
    X(const int32_t *, cand_off)    /* cand_*: per candidate list */                  \
    X(const int32_t *, cand_alen)                                                     \
    X(const int32_t *, cand_elen)                                                     \
    X(const int32_t *, cand)        /* VC offsets from the node's first VC */         \
    X(int64_t, route_F)             /* escape floors (table extent) */                \
    X(int64_t, route_H)             /* hops (table extent) */                         \
    X(const double *, alloc_buf)    /* R*buf_cap: pre-drawn uniforms */               \
    X(int64_t, buf_cap)                                                               \
    X(int64_t *, alloc_pos)         /* R: cursor into alloc_buf */                    \
    X(const int32_t *, neighbors)   /* C: node reached through each channel */        \
    X(const uint8_t *, color)       /* N: 1 on "negative-hop" nodes */                \
    X(uint8_t *, measured)          /* R*cap: message is in the window */             \
    X(double *, t_inject)           /* R*cap: injection instant */                    \
    X(int64_t *, alloc_attempts)    /* R */                                           \
    X(int64_t *, alloc_failures)    /* R */                                           \
    X(int64_t *, injected)          /* R: measured injections in window */            \
    X(int64_t *, hb_req)            /* hb_*: R*(hb_max+1) hop-blocking counts */      \
    X(int64_t *, hb_blk)                                                              \
    X(int64_t *, hb_wait)                                                             \
    X(int64_t, hb_max)                                                                \
    X(double *, t_gen)              /* R*cap: generation instant */                   \
    X(int64_t *, in_flight)         /* R: live message counts */                      \
    X(int64_t *, meas_flight)       /* R: live measured message counts */             \
    X(int64_t *, completed)         /* R: cumulative completions */                   \
    X(int32_t *, free_stack)        /* R*cap: free-slot stacks */                     \
    X(int64_t *, free_n)            /* R */                                           \
    X(double *, lat_sum)            /* R: total-latency accumulator */                \
    X(double *, net_sum)            /* R: network-latency accumulator */              \
    X(double *, srcw_sum)           /* R: source-wait accumulator */                  \
    X(int64_t *, mcount)            /* R: measured completions */                     \
    X(double *, lat_bsum)           /* R*Bmax: per-batch latency sums */              \
    X(int64_t *, lat_bcount)        /* R*Bmax: per-batch latency counts */            \
    X(const double *, w_t0)         /* R: measurement-window start */                 \
    X(const double *, w_width)      /* R: batch width */                              \
    X(const int64_t *, w_batches)   /* R: batch count */                              \
    X(int64_t, Bmax)                                                                  \
    X(int64_t *, tstage)            /* R*8: per-rep staging (see above) */            \
    X(int64_t, threads)             /* thread count (1: serial) */                    \
    X(struct Pool *, pool)          /* from starnet_pool_new (NULL: none) */          \
    X(double *, gen_node_t)         /* R*N: next arrival instant per node */          \
    X(double *, gen_next)           /* R: cached minimum of gen_node_t */             \
    X(double *, arr_buf)            /* R*N*GB: pre-drawn arrival blocks */            \
    X(int32_t *, arr_pos)           /* R*N: cursor into arr_buf */                    \
    X(int32_t *, arr_len)           /* R*N: valid entries in arr_buf */               \
    X(int32_t *, dst_buf)           /* R*N*GB: pre-drawn destination blocks */        \
    X(int32_t *, dst_pos)           /* R*N */                                         \
    X(int32_t *, dst_len)           /* R*N */                                         \
    X(int64_t, GB)                  /* generation block size */                       \
    X(int32_t *, qnext)             /* R*cap: source-queue links (-1: end) */         \
    X(int32_t *, qhead)             /* R*N per-node queues */                         \
    X(int32_t *, qtail)             /* R*N */                                         \
    X(int32_t *, qlen)              /* R*N */                                         \
    X(uint8_t *, act)               /* R*N: nodes with pending activations */         \
    X(starnet_cb, cb)               /* block-refill callback (see starnet_cb) */      \
    X(int64_t *, generated)         /* R */                                           \
    X(int64_t *, meas_generated)    /* R */                                           \
    X(const int64_t *, warm)        /* R */                                           \
    X(const int64_t *, horizon)     /* R */                                           \
    X(const int64_t *, end)         /* R: horizon + drain budget */                   \
    X(uint8_t *, active)            /* R: 1 until the rep's result is frozen */       \
    X(int64_t, slots)               /* injection slots per node */                    \
    X(int64_t, grace)               /* watchdog grace (cycles) */                     \
    X(int64_t *, marks)             /* R: watchdog progress marks */                  \
    X(int64_t *, lastp)             /* R: watchdog last-progress cycles */            \
    X(int64_t, sample_interval)                                                       \
    X(int64_t *, ugate)             /* 2: {headroom, spend} uniform gate */           \
    X(int64_t, ej_cap_rows)         /* ejection-column capacity */                    \
    X(int64_t *, run_state)         /* 8: in/out scalars (see above) */               \
    X(int64_t *, prof)              /* 8: phase ns accumulators, or NULL */           \
    X(int64_t *, pb_data)           /* probe ring (see above), or NULL */             \
    X(int64_t *, pb_cycles)         /* pb_cap: cycle stamp per sample */              \
    X(int64_t *, pb_state)          /* 1: {sample count} */                           \
    X(int64_t, pb_interval)         /* cycles between samples */                      \
    X(int64_t, pb_cap)              /* ring capacity (samples) */

/* Decoded parameter block; pointers stay valid for the whole call
 * (growth events return to Python before anything reallocates). */
typedef struct Ctx {
#define X(T, name) T name;
    STARNET_PARAMS(X)
#undef X
    int64_t ms, CV;
} Ctx;

/* Monotonic nanoseconds for phase profiling.  The NULL check keeps the
 * profiling-off path to one predictable branch per call site — no
 * clock syscall, no accumulator write — which is the overhead contract
 * the guarded benchmarks rely on (docs/observability.md). */
static inline int64_t prof_now(const int64_t *prof)
{
    struct timespec ts;
    if (!prof)
        return 0;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static void decode(Ctx *c, const int64_t *P)
{
    int64_t i = 0;
#define X(T, name) c->name = (T)(intptr_t)P[i++];
    STARNET_PARAMS(X)
#undef X
    c->ms = (int64_t)c->M << 16;
    c->CV = c->C * c->V;
}

/* Time-series probe: one ring-buffer sample of the batch's occupancy
 * state after the probed cycle's phases.  Observation-only — it reads
 * counters the phases already maintain and writes only the side
 * buffers — so results are bit-identical probed or not; the numpy
 * fallback's ArraySimulator._probe_sample mirrors this layout exactly.
 * The caller's NULL check on pb_data keeps the probes-off path to one
 * predictable branch per cycle, the prof_now contract. */
static void probe_sample(const Ctx *c, int64_t cycle)
{
    const int64_t s = c->pb_state[0];
    if (s >= c->pb_cap)
        return;
    const int64_t row = 3 + c->V + 1;
    int64_t *dst = c->pb_data + s * c->R * row;
    for (int64_t r = 0; r < c->R; ++r, dst += row) {
        dst[0] = c->in_flight[r];
        dst[1] = c->completed[r];
        int64_t backlog = 0;
        const int32_t *ql = c->qlen + r * c->N;
        for (int64_t u = 0; u < c->N; ++u)
            backlog += ql[u];
        dst[2] = backlog;
        for (int64_t v = 0; v <= c->V; ++v)
            dst[3 + v] = 0;
        const uint8_t *b = c->busy + r * c->C;
        for (int64_t ch = 0; ch < c->C; ++ch)
            dst[3 + b[ch]] += 1;
    }
    c->pb_cycles[s] = cycle;
    c->pb_state[0] = s + 1;
}

/* Phases 2, 4a, 3a, 3b, 4b for replications [r0, r1).  Every read and
 * write below touches only rep r's rows plus r's private staging
 * regions, so disjoint ranges run concurrently; the per-rep phase
 * order matches the serial kernel's global phase order because no
 * phase reads another replication's state. */
static void rep_phases(const Ctx *c, int64_t r0, int64_t r1,
                       int64_t cycle, int64_t do_alloc)
{
    const int64_t C = c->C, V = c->V, cap = c->cap, N = c->N;
    const int64_t CV = c->CV;
    const int32_t ms = (int32_t)c->ms;
    const int32_t M = c->M, depth = c->depth, ej_rate = c->ej_rate;
    const int8_t *lut = c->lut;
    int32_t *bd = c->bd, *avail = c->avail, *owner = c->owner;
    int32_t *up = c->up, *down = c->down, *rr = c->rr;
    uint8_t *busy = c->busy;
    /* Free-VC scratch: a candidate list holds at most deg * V VCs. */
    int32_t fa[c->deg * V], fe[c->deg * V];

    for (int64_t r = r0; r < r1; ++r) {
        int64_t *ts = c->tstage + r * 8;
        const int64_t newej_base = ts[5];
        int64_t grants_r = 0, busy_delta_r = 0, err_r = 0;
        int64_t fn_r = 0, newej_r = 0;
        const int64_t rowoff = r * CV;

        /* Phase 2 — VC allocation (shuffled order, per replication). */
        if (do_alloc && c->need_n[r]) {
            const int64_t n = c->need_n[r];
            int32_t *ns = c->need_slots + r * cap;
            const double *ub = c->alloc_buf + r * c->buf_cap;
            int64_t pos = c->alloc_pos[r];
            if (n > 1) { /* Fisher-Yates, same draws as the fallback */
                for (int64_t i = n - 1; i > 0; --i) {
                    const int64_t j = (int64_t)(ub[pos++] * (i + 1));
                    const int32_t tmp = ns[i];
                    ns[i] = ns[j];
                    ns[j] = tmp;
                }
            }
            int64_t keep = 0;
            for (int64_t i = 0; i < n; ++i) {
                const int32_t s = ns[i];
                const int64_t mf = r * cap + s;
                if (c->p_first[mf] < 0)
                    c->p_first[mf] = (int32_t)cycle;
                /* route-table lookup: state id -> candidate list */
                const int32_t hdr = c->p_header[mf];
                const int32_t fl = c->p_floor[mf], hp = c->p_hops[mf];
                int32_t u = -1;
                if (fl >= 0 && fl < c->route_F && hp >= 0 && hp < c->route_H) {
                    const int64_t cls = c->pair_class[hdr * N + c->p_dst[mf]];
                    u = c->route_combo[((cls * 2 + c->color[hdr]) * c->route_F
                                        + fl) * c->route_H + hp];
                }
                if (u < 0) { /* rejected state: Python raises the error */
                    err_r = 1;
                    ns[keep++] = s;
                    continue;
                }
                const int32_t *cand = c->cand + c->cand_off[u];
                const int32_t alen = c->cand_alen[u];
                const int32_t elen = c->cand_elen[u];
                const int32_t vbase = (int32_t)(hdr * c->deg * V);
                int64_t na = 0, ne = 0;
                for (int32_t j = 0; j < alen; ++j) {
                    const int32_t f = vbase + cand[j];
                    if (owner[rowoff + f] < 0)
                        fa[na++] = f;
                }
                for (int32_t j = 0; j < elen; ++j) {
                    const int32_t f = vbase + cand[alen + j];
                    if (owner[rowoff + f] < 0)
                        fe[ne++] = f;
                }
                int64_t flat = -1;
                if (c->policy == 0) { /* ADAPTIVE_FIRST */
                    if (na) {
                        flat = (na == 1) ? fa[0]
                                         : fa[(int64_t)(ub[pos++] * na)];
                    } else if (ne) {
                        int32_t lowest = (int32_t)V;
                        for (int64_t k = 0; k < ne; ++k) {
                            const int32_t cls = fe[k] % (int32_t)V;
                            if (cls < lowest)
                                lowest = cls;
                        }
                        int64_t np = 0;
                        for (int64_t k = 0; k < ne; ++k)
                            if (fe[k] % (int32_t)V == lowest)
                                fe[np++] = fe[k];
                        flat = fe[(int64_t)(ub[pos++] * np)];
                    }
                } else if (c->policy == 1) { /* LOWEST_ESCAPE */
                    if (ne) {
                        int32_t lowest = (int32_t)V;
                        for (int64_t k = 0; k < ne; ++k) {
                            const int32_t cls = fe[k] % (int32_t)V;
                            if (cls < lowest)
                                lowest = cls;
                        }
                        int64_t np = 0;
                        for (int64_t k = 0; k < ne; ++k)
                            if (fe[k] % (int32_t)V == lowest)
                                fe[np++] = fe[k];
                        flat = fe[(int64_t)(ub[pos++] * np)];
                    } else if (na) {
                        flat = fa[(int64_t)(ub[pos++] * na)];
                    }
                } else { /* RANDOM: adaptive ++ escape pool */
                    const int64_t tot = na + ne;
                    if (tot) {
                        const int64_t j = (int64_t)(ub[pos++] * tot);
                        flat = j < na ? fa[j] : fe[j - na];
                    }
                }
                if (flat < 0) {
                    c->alloc_failures[r] += 1;
                    ns[keep++] = s;
                    continue;
                }
                if (c->measured[mf]) {
                    int64_t k = c->p_hops[mf] + 1;
                    if (k > c->hb_max)
                        k = c->hb_max;
                    const int64_t hb = r * (c->hb_max + 1) + k;
                    c->hb_req[hb] += 1;
                    const int64_t waited = cycle - c->p_first[mf];
                    if (waited > 0) {
                        c->hb_blk[hb] += 1;
                        c->hb_wait[hb] += waited;
                    }
                }
                c->p_first[mf] = -1;
                /* acquire */
                const int64_t chan = flat / V;
                const int32_t vi = (int32_t)(flat - chan * V);
                const int32_t prev = c->p_head_vc[mf];
                const int64_t af = rowoff + flat;
                bd[af] = 0;
                if (prev >= 0) {
                    const int64_t ap = rowoff + prev;
                    avail[af] = bd[ap] & 0xFFFF;
                    down[ap] = (int32_t)flat;
                } else { /* whole worm still at the source PE */
                    avail[af] = M;
                    c->t_inject[mf] = (double)cycle;
                    if (c->measured[mf])
                        c->injected[r] += 1;
                }
                owner[af] = s;
                up[af] = prev;
                down[af] = -1;
                busy[r * C + chan] += 1;
                c->p_head_vc[mf] = (int32_t)flat;
                c->vcs_held[mf] += 1;
                busy_delta_r += 1;
                const int32_t fbase =
                    vi < c->num_adaptive ? c->p_floor[mf] : vi - c->num_adaptive;
                c->p_floor[mf] = fbase + (c->color[chan / c->deg] ? 1 : 0);
                c->p_hops[mf] += 1;
                const int32_t nxt = c->neighbors[chan];
                c->p_header[mf] = nxt;
                const int32_t d = c->p_dist[mf] - 1;
                c->p_dist[mf] = d;
                if ((d == 0) != (nxt == c->p_dst[mf]))
                    err_r = 1; /* non-minimal route */
                if (d == 0) { /* header home: stage the ejection column */
                    const int64_t ei = newej_base + newej_r;
                    c->ej_reps[ei] = r;
                    c->ej_slots[ei] = s;
                    c->ej_flats[ei] = af;
                    c->ej_mflats[ei] = mf;
                    ++newej_r; /* ej_pos assigned at the serial merge */
                }
            }
            c->need_n[r] = keep;
            c->alloc_pos[r] = pos;
            c->alloc_attempts[r] += n;
        }

        /* Phase 4a — ejection pick (pre-transfer buffered counts; heads
         * acquired this cycle sit at bd == 0 and contribute k == 0, so
         * the staged entries need no pick).  The bucket (counting-sort
         * order) visits the rep's rows in ascending column order. */
        const int64_t bend = ts[6];
        const int64_t bstart = r ? c->tstage[(r - 1) * 8 + 6] : 0;
        for (int64_t b = bstart; b < bend; ++b) {
            const int64_t i = c->completions[b];
            int32_t k = bd[c->ej_flats[i]] & 0xFFFF;
            if (ej_rate >= 0 && k > ej_rate)
                k = ej_rate;
            c->ej_k[i] = k;
        }

        /* Phase 3a — transfer pick: per channel, the round-robin winner
         * among candidate VCs, judged on pre-cycle state only. */
        int64_t nw = 0;
        int64_t *wr = c->winners + r * C;
        for (int64_t ch = 0; ch < C; ++ch) {
            if (!busy[r * C + ch]) /* no owned VCs: nothing can move */
                continue;
            const int64_t base = rowoff + ch * V;
            const int64_t rc = r * C + ch;
            int32_t v;
            if (lut) {
                uint32_t bits = 0;
                for (int64_t vv = 0; vv < V; ++vv) {
                    const int32_t w = bd[base + vv];
                    if (w < ms && (w & 0xFFFF) < depth && avail[base + vv] > 0)
                        bits |= (uint32_t)1 << vv;
                }
                if (!bits)
                    continue;
                v = lut[((int64_t)rr[rc] << V) | bits];
            } else { /* wide V: smallest cyclic offset from rr wins */
                const int32_t rrv = rr[rc];
                int32_t best = (int32_t)V;
                v = -1;
                for (int32_t vv = 0; vv < (int32_t)V; ++vv) {
                    const int32_t w = bd[base + vv];
                    if (w < ms && (w & 0xFFFF) < depth
                        && avail[base + vv] > 0) {
                        int32_t o = vv - rrv;
                        if (o < 0)
                            o += (int32_t)V;
                        if (o < best) {
                            best = o;
                            v = vv;
                        }
                    }
                }
                if (v < 0)
                    continue;
            }
            rr[rc] = (v + 1) % (int32_t)V;
            wr[nw++] = base + v;
            ++grants_r;
        }
        if (grants_r)
            c->transfers[r] += grants_r;

        /* Phase 3b — transfer apply. */
        for (int64_t i = 0; i < nw; ++i) {
            const int64_t x = wr[i];
            const int32_t nbx = bd[x] + 0x10001; /* buffered+1, delivered+1 */
            bd[x] = nbx;
            if (nbx == 0x10001) { /* first flit crossed: header now ready */
                const int32_t s = owner[x];
                if (c->p_dist[r * cap + s] > 0) { /* next hop still to claim */
                    c->need_slots[r * cap + c->need_n[r]] = s;
                    c->need_n[r] += 1;
                }
            }
            avail[x] -= 1;
            const int32_t uu = up[x];
            if (uu >= 0) {
                const int64_t ux = rowoff + uu;
                const int32_t nb = bd[ux] - 1; /* flit leaves upstream */
                bd[ux] = nb;
                if (nb == ms) { /* upstream fully drained: release it */
                    c->vcs_held[r * cap + owner[ux]] -= 1;
                    owner[ux] = -1;
                    busy[uu / V + r * C] -= 1;
                    busy_delta_r -= 1;
                }
            } else if (avail[x] == 0) { /* tail flit left the source PE */
                const int32_t node = c->msg_src[r * cap + owner[x]];
                c->active_inj[r * N + node] -= 1;
                c->fin_nodes[r * C + fn_r++] = r * N + node;
            }
            const int32_t dd = down[x];
            if (dd >= 0)
                avail[rowoff + dd] += 1; /* downstream VC gains a flit */
        }

        /* Phase 4b — ejection apply; completions become -1 markers the
         * serial merge collects in ascending column order. */
        for (int64_t b = bstart; b < bend; ++b) {
            const int64_t i = c->completions[b];
            const int32_t k = c->ej_k[i];
            if (!k)
                continue;
            const int64_t x = c->ej_flats[i];
            const int32_t nb = bd[x] - k;
            bd[x] = nb;
            const int32_t ne = c->msg_ejected[c->ej_mflats[i]] + k;
            c->msg_ejected[c->ej_mflats[i]] = ne;
            if (nb == ms) { /* head drained: release it */
                c->vcs_held[r * cap + owner[x]] -= 1;
                owner[x] = -1;
                busy[(x % CV) / V + r * C] -= 1;
                busy_delta_r -= 1;
            }
            if (ne == M)
                c->ej_k[i] = -1;
        }

        ts[1] = busy_delta_r;
        ts[2] = fn_r;
        ts[3] = err_r;
        ts[4] = newej_r;
    }
}

/* ------------------------------------------------------------------ */
/* Persistent worker pool: T-way partition of the replication range,   */
/* the calling thread takes partition 0.                               */
/* ------------------------------------------------------------------ */

typedef struct Pool {
    int64_t nthreads; /* partitions, including the calling thread */
    pthread_t *tids;
    struct WArg *args;
    pthread_mutex_t mu;
    pthread_cond_t go, done;
    int64_t seq;      /* job sequence number */
    int64_t finished; /* workers done with the current job */
    int shutdown;
    /* current job */
    const Ctx *ctx;
    int64_t cycle, do_alloc;
} Pool;

typedef struct WArg {
    Pool *pool;
    int64_t idx; /* partition index, 1 .. nthreads-1 */
} WArg;

static void *pool_worker(void *varg)
{
    WArg *a = (WArg *)varg;
    Pool *p = a->pool;
    const int64_t k = a->idx;
    int64_t seen = 0;
    pthread_mutex_lock(&p->mu);
    for (;;) {
        while (p->seq == seen && !p->shutdown)
            pthread_cond_wait(&p->go, &p->mu);
        if (p->shutdown)
            break;
        seen = p->seq;
        const Ctx *c = p->ctx;
        const int64_t cycle = p->cycle;
        const int64_t do_alloc = p->do_alloc;
        const int64_t T = p->nthreads;
        pthread_mutex_unlock(&p->mu);
        rep_phases(c, c->R * k / T, c->R * (k + 1) / T, cycle, do_alloc);
        pthread_mutex_lock(&p->mu);
        p->finished += 1;
        pthread_cond_signal(&p->done);
    }
    pthread_mutex_unlock(&p->mu);
    return 0;
}

int64_t starnet_pool_new(int64_t threads)
{
    if (threads < 2)
        return 0;
    Pool *p = (Pool *)calloc(1, sizeof(Pool));
    if (!p)
        return 0;
    p->nthreads = threads;
    p->tids = (pthread_t *)calloc((size_t)(threads - 1), sizeof(pthread_t));
    p->args = (WArg *)calloc((size_t)(threads - 1), sizeof(WArg));
    if (!p->tids || !p->args) {
        free(p->tids);
        free(p->args);
        free(p);
        return 0;
    }
    pthread_mutex_init(&p->mu, 0);
    pthread_cond_init(&p->go, 0);
    pthread_cond_init(&p->done, 0);
    int64_t spawned = 0;
    for (int64_t k = 1; k < threads; ++k) {
        p->args[k - 1].pool = p;
        p->args[k - 1].idx = k;
        if (pthread_create(&p->tids[k - 1], 0, pool_worker, &p->args[k - 1]))
            break;
        ++spawned;
    }
    if (spawned != threads - 1) { /* partial spawn: tear down, go serial */
        pthread_mutex_lock(&p->mu);
        p->shutdown = 1;
        pthread_cond_broadcast(&p->go);
        pthread_mutex_unlock(&p->mu);
        for (int64_t k = 0; k < spawned; ++k)
            pthread_join(p->tids[k], 0);
        pthread_mutex_destroy(&p->mu);
        pthread_cond_destroy(&p->go);
        pthread_cond_destroy(&p->done);
        free(p->tids);
        free(p->args);
        free(p);
        return 0;
    }
    return (int64_t)(intptr_t)p;
}

void starnet_pool_free(int64_t pool)
{
    Pool *p = (Pool *)(intptr_t)pool;
    if (!p)
        return;
    pthread_mutex_lock(&p->mu);
    p->shutdown = 1;
    pthread_cond_broadcast(&p->go);
    pthread_mutex_unlock(&p->mu);
    for (int64_t k = 0; k < p->nthreads - 1; ++k)
        pthread_join(p->tids[k], 0);
    pthread_mutex_destroy(&p->mu);
    pthread_cond_destroy(&p->go);
    pthread_cond_destroy(&p->done);
    free(p->tids);
    free(p->args);
    free(p);
}

/* ------------------------------------------------------------------ */
/* One full cycle of phases 2-5 with deterministic merge.              */
/* ------------------------------------------------------------------ */

typedef struct CycleOut {
    int64_t busy_delta, fn, err, ej_n, need_total;
} CycleOut;

static void run_phases(const Ctx *c, int64_t cycle, int64_t do_alloc,
                       int64_t ej_n_old, CycleOut *o)
{
    const int64_t R = c->R, C = c->C, cap = c->cap;
    const int64_t pt0 = prof_now(c->prof);

    /* Staging bases: new ejection columns land at ej_n_old plus the
     * prefix sum of pending-header counts (an upper bound on each
     * rep's appends), compacted leftward after the join — the final
     * layout is exactly the serial append order. */
    int64_t off = ej_n_old;
    for (int64_t r = 0; r < R; ++r) {
        int64_t *ts = c->tstage + r * 8;
        ts[0] = ts[1] = ts[2] = ts[3] = ts[4] = 0;
        ts[5] = off;
        ts[6] = 0;
        if (do_alloc)
            off += c->need_n[r];
    }

    /* Rep buckets of the live ejection columns: a stable counting sort
     * into the completions scratch (dead until the merge reuses it)
     * lets phases 4a/4b walk each replication's own rows instead of
     * filtering the whole column set R times.  Staging slot 6 ends up
     * holding each rep's bucket END; its start is the previous end. */
    for (int64_t i = 0; i < ej_n_old; ++i)
        c->tstage[c->ej_reps[i] * 8 + 6] += 1;
    int64_t acc = 0;
    for (int64_t r = 0; r < R; ++r) {
        const int64_t cnt = c->tstage[r * 8 + 6];
        c->tstage[r * 8 + 6] = acc;
        acc += cnt;
    }
    for (int64_t i = 0; i < ej_n_old; ++i)
        c->completions[c->tstage[c->ej_reps[i] * 8 + 6]++] = i;

    Pool *p = c->pool;
    if (p && p->nthreads > 1 && R > 1) {
        pthread_mutex_lock(&p->mu);
        p->ctx = c;
        p->cycle = cycle;
        p->do_alloc = do_alloc;
        p->finished = 0;
        p->seq += 1;
        pthread_cond_broadcast(&p->go);
        pthread_mutex_unlock(&p->mu);
        rep_phases(c, 0, R / p->nthreads, cycle, do_alloc);
        pthread_mutex_lock(&p->mu);
        while (p->finished < p->nthreads - 1)
            pthread_cond_wait(&p->done, &p->mu);
        pthread_mutex_unlock(&p->mu);
    } else {
        rep_phases(c, 0, R, cycle, do_alloc);
    }

    /* Serial merge, ascending replication order == serial phase order. */
    int64_t busy_delta = 0, err = 0;
    int64_t ej_n = ej_n_old;
    for (int64_t r = 0; r < R; ++r) {
        const int64_t *ts = c->tstage + r * 8;
        busy_delta += ts[1];
        if (ts[3])
            err = 1;
        const int64_t base = ts[5];
        for (int64_t j = 0; j < ts[4]; ++j) {
            const int64_t src = base + j;
            if (src != ej_n) {
                c->ej_reps[ej_n] = c->ej_reps[src];
                c->ej_slots[ej_n] = c->ej_slots[src];
                c->ej_flats[ej_n] = c->ej_flats[src];
                c->ej_mflats[ej_n] = c->ej_mflats[src];
            }
            c->ej_pos[c->ej_mflats[ej_n]] = ej_n;
            ++ej_n;
        }
    }
    /* Replication 0's entries are already in place at offset 0. */
    int64_t fn = c->tstage[2];
    for (int64_t r = 1; r < R; ++r)
        for (int64_t j = 0; j < c->tstage[r * 8 + 2]; ++j)
            c->fin_nodes[fn++] = c->fin_nodes[r * C + j];
    /* route (phases 2-4) ends here; the completion tail is phase 5 */
    const int64_t pt1 = prof_now(c->prof);
    if (c->prof)
        c->prof[2] += pt1 - pt0;

    int64_t cn = 0;
    for (int64_t i = 0; i < ej_n_old; ++i)
        if (c->ej_k[i] == -1)
            c->completions[cn++] = i;

    /* Phase 5 — completion bookkeeping, strictly serial: the latency
     * sums are float adds in completion order.  Capture (rep, slot)
     * pairs before removing any column: swap-removal shifts later
     * columns, so the recorded indices are only valid against the
     * pre-removal layout (the numpy fallback does the same
     * capture-then-process). */
    for (int64_t j = 0; j < cn; ++j) {
        const int64_t i = c->completions[j];
        c->completions[j] = c->ej_reps[i] * cap + c->ej_slots[i];
    }
    for (int64_t j = 0; j < cn; ++j) {
        const int64_t mf = c->completions[j];
        const int64_t r = mf / cap;
        if (c->vcs_held[mf] != 0)
            err = 1; /* completed message still owns channels */
        c->in_flight[r] -= 1;
        c->completed[r] += 1;
        if (c->measured[mf]) {
            c->meas_flight[r] -= 1;
            const double tg = c->t_gen[mf];
            const double t_done = (double)(cycle + 1);
            const double v = t_done - tg;
            c->lat_sum[r] += v;
            c->net_sum[r] += t_done - c->t_inject[mf];
            c->srcw_sum[r] += c->t_inject[mf] - tg;
            c->mcount[r] += 1;
            int64_t b = (int64_t)((tg - c->w_t0[r]) / c->w_width[r]);
            if (b < 0)
                b = 0;
            if (b > c->w_batches[r] - 1)
                b = c->w_batches[r] - 1;
            c->lat_bsum[r * c->Bmax + b] += v;
            c->lat_bcount[r * c->Bmax + b] += 1;
        }
        /* free the message slot (mirrors SimState.free_slot) */
        c->p_head_vc[mf] = -1;
        c->free_stack[r * cap + c->free_n[r]] = (int32_t)(mf - r * cap);
        c->free_n[r] += 1;
        /* swap-remove the drained ejection column */
        const int64_t pos = c->ej_pos[mf];
        c->ej_pos[mf] = -1;
        const int64_t last = ej_n - 1;
        if (pos != last) {
            const int64_t lr = c->ej_reps[last];
            const int64_t ls = c->ej_slots[last];
            c->ej_reps[pos] = lr;
            c->ej_slots[pos] = ls;
            c->ej_flats[pos] = c->ej_flats[last];
            c->ej_mflats[pos] = c->ej_mflats[last];
            c->ej_pos[lr * cap + ls] = pos;
        }
        ej_n = last;
    }

    int64_t need_total = 0;
    for (int64_t r = 0; r < R; ++r)
        need_total += c->need_n[r];

    if (c->prof)
        c->prof[3] += prof_now(c->prof) - pt1;

    o->busy_delta = busy_delta;
    o->fn = fn;
    o->err = err;
    o->ej_n = ej_n;
    o->need_total = need_total;
}

/* ------------------------------------------------------------------ */
/* Resident driver: generation + activation + phases + watchdog in C.  */
/* ------------------------------------------------------------------ */

#define GEN_OK 0
#define GEN_POOL 1
#define GEN_CBERR 2

/* Arrival generation, the C twin of ArraySimulator._generate.  Each
 * node holds exactly one outstanding arrival, so (instant, node) pairs
 * are unique per replication and the event order is canonical: the
 * smallest instant, ties broken by the smallest node — exactly the
 * tuple order the heap-based engines produce.  Runs on the calling
 * thread only; refill callbacks re-enter Python (ctypes re-acquires
 * the GIL). */
static int gen_cycle(const Ctx *c, int64_t cycle, int *act_any)
{
    const int64_t N = c->N, GB = c->GB, cap = c->cap;
    const double fcycle = (double)cycle;
    for (int64_t r = 0; r < c->R; ++r) {
        if (c->gen_next[r] > fcycle)
            continue;
        double *nt = c->gen_node_t + r * N;
        const int64_t rN = r * N;
        const double fwarm = (double)c->warm[r];
        const double fhorizon = (double)c->horizon[r];
        for (;;) {
            double best = nt[0];
            int64_t node = 0;
            for (int64_t u = 1; u < N; ++u)
                if (nt[u] < best) {
                    best = nt[u];
                    node = u;
                }
            if (best > fcycle) {
                c->gen_next[r] = best;
                break;
            }
            if (c->free_n[r] == 0) {
                /* message pool exhausted: Python grows it and re-enters
                 * this cycle, which resumes with this arrival. */
                c->gen_next[r] = best;
                return GEN_POOL;
            }
            /* destination draw */
            const int64_t rn = rN + node;
            int32_t dpos = c->dst_pos[rn];
            if (dpos >= c->dst_len[rn]) {
                if (c->cb(1, r, node) < 0)
                    return GEN_CBERR;
                dpos = 0;
            }
            const int32_t dst = c->dst_buf[rn * GB + dpos];
            c->dst_pos[rn] = dpos + 1;
            const int32_t dist = c->class_dist[c->pair_class[node * N + dst]];
            /* allocate the message slot (mirrors SimState.alloc_slot) */
            const int64_t fn2 = c->free_n[r] - 1;
            c->free_n[r] = fn2;
            const int32_t s = c->free_stack[r * cap + fn2];
            const int64_t mf = r * cap + s;
            c->t_gen[mf] = best;
            c->msg_src[mf] = (int32_t)node;
            c->msg_ejected[mf] = 0;
            const uint8_t measured = best >= fwarm && best < fhorizon;
            c->measured[mf] = measured;
            c->p_dst[mf] = dst;
            c->p_header[mf] = (int32_t)node;
            c->p_dist[mf] = dist;
            c->p_floor[mf] = 0;
            c->p_hops[mf] = 0;
            c->p_first[mf] = -1;
            c->generated[r] += 1;
            if (measured)
                c->meas_generated[r] += 1;
            /* append to the node's source queue */
            c->qnext[r * cap + s] = -1;
            if (c->qtail[rn] < 0)
                c->qhead[rn] = s;
            else
                c->qnext[r * cap + c->qtail[rn]] = s;
            c->qtail[rn] = s;
            c->qlen[rn] += 1;
            c->act[rn] = 1;
            *act_any = 1;
            /* next arrival for this node */
            int32_t apos = c->arr_pos[rn];
            if (apos >= c->arr_len[rn]) {
                if (c->cb(0, r, node) < 0)
                    return GEN_CBERR;
                apos = 0;
            }
            nt[node] = c->arr_buf[rn * GB + apos];
            c->arr_pos[rn] = apos + 1;
        }
    }
    return GEN_OK;
}

/* Activation, the C twin of ArraySimulator._activate: ascending
 * (rep, node) order == sorted(set) order. */
static void act_cycle(const Ctx *c, int64_t *need_total)
{
    const int64_t N = c->N, cap = c->cap;
    for (int64_t r = 0; r < c->R; ++r) {
        const int64_t rN = r * N;
        for (int64_t node = 0; node < N; ++node) {
            const int64_t rn = rN + node;
            if (!c->act[rn])
                continue;
            while (c->qlen[rn] && c->active_inj[rn] < c->slots) {
                const int32_t s = c->qhead[rn];
                const int64_t mf = r * cap + s;
                const int32_t nxt = c->qnext[r * cap + s];
                c->qhead[rn] = nxt;
                if (nxt < 0)
                    c->qtail[rn] = -1;
                c->qlen[rn] -= 1;
                c->active_inj[rn] += 1;
                c->in_flight[r] += 1;
                if (c->measured[mf])
                    c->meas_flight[r] += 1;
                c->need_slots[r * cap + c->need_n[r]] = s;
                c->need_n[r] += 1;
                *need_total += 1;
            }
            c->act[rn] = 0;
        }
    }
}

int64_t starnet_run(int64_t *P)
{
    Ctx c;
    decode(&c, P);
    int64_t *RS = c.run_state;
    int64_t cycle = RS[0];
    int64_t busy_vcs = RS[1];
    int64_t ej_n = RS[2];
    int64_t need_total = RS[3];
    const int64_t stop_at = RS[6]; /* < 0: run until a stop event */
    int64_t reason = 0, aux = 0;
    const int64_t R = c.R, N = c.N;

    int act_any = 0;
    for (int64_t i = 0; i < R * N; ++i)
        if (c.act[i]) {
            act_any = 1;
            break;
        }

    for (;;) {
        /* run()-level stop check, before the cycle advances; a bounded
         * step() skips it, as the numpy step() does.  Re-entering a
         * cycle after a refill repeats it harmlessly: generation and
         * activation only ever raise meas_flight. */
        if (stop_at < 0)
            for (int64_t r = 0; r < R; ++r)
                if (c.active[r] && cycle >= c.horizon[r]
                    && (cycle >= c.end[r] || c.meas_flight[r] == 0)) {
                    reason = RUN_STOP;
                    goto out;
                }

        /* phase 1 — generation, then activation */
        {
            const int64_t tp = prof_now(c.prof);
            const int g = gen_cycle(&c, cycle, &act_any);
            if (c.prof)
                c.prof[0] += prof_now(c.prof) - tp;
            if (g == GEN_CBERR) {
                reason = RUN_CBERR;
                goto out;
            }
            if (g == GEN_POOL) {
                reason = RUN_POOL;
                goto out;
            }
        }
        if (act_any) {
            const int64_t tp = prof_now(c.prof);
            act_cycle(&c, &need_total);
            if (c.prof)
                c.prof[1] += prof_now(c.prof) - tp;
            act_any = 0;
        }

        /* phases 2-5 */
        if (busy_vcs || need_total) {
            const int64_t do_alloc = need_total > 0;
            if (do_alloc) {
                /* uniform-headroom gate, the twin of _ensure_uniforms:
                 * while the amortized bound holds, consume it; a failed
                 * bound with no actual shortage re-bases the gate
                 * exactly as the Python path does; a real shortage
                 * returns so Python refills the buffer.  Generation and
                 * activation are done, so the re-entered cycle goes
                 * straight to its phases. */
                const int64_t bound = 2 * need_total;
                if (c.ugate[1] + bound <= c.ugate[0]) {
                    c.ugate[1] += bound;
                } else {
                    int short_any = 0;
                    int64_t posmax = 0;
                    for (int64_t r = 0; r < R; ++r) {
                        if (c.buf_cap - c.alloc_pos[r] < 2 * c.need_n[r])
                            short_any = 1;
                        if (c.alloc_pos[r] > posmax)
                            posmax = c.alloc_pos[r];
                    }
                    if (short_any) {
                        reason = RUN_UNIFORMS;
                        goto out;
                    }
                    c.ugate[0] = c.buf_cap - posmax;
                    c.ugate[1] = bound;
                }
                /* every pending header could append an ejection row */
                if (ej_n + need_total > c.ej_cap_rows) {
                    reason = RUN_EJ_ROWS;
                    goto out;
                }
            }
            CycleOut o;
            run_phases(&c, cycle, do_alloc, ej_n, &o);
            if (o.err) {
                reason = RUN_ERR;
                goto out;
            }
            busy_vcs += o.busy_delta;
            ej_n = o.ej_n;
            need_total = o.need_total;
            for (int64_t j = 0; j < o.fn; ++j) {
                c.act[c.fin_nodes[j]] = 1;
                act_any = 1;
            }
        }

        /* watchdog — every 32 cycles, ascending reps, first stall wins */
        if ((cycle & 31) == 0) {
            for (int64_t r = 0; r < R; ++r) {
                const int64_t p = c.transfers[r] + c.completed[r]
                                  + c.alloc_attempts[r] - c.alloc_failures[r];
                if (p != c.marks[r]) {
                    c.marks[r] = p;
                    c.lastp[r] = cycle;
                } else if (c.in_flight[r] > 0
                           && cycle - c.lastp[r] > c.grace) {
                    reason |= RUN_WATCHDOG;
                    aux = r;
                    break;
                }
            }
            if (reason & RUN_WATCHDOG)
                goto out; /* cycle NOT advanced: Python raises at it */
        }

        /* time-series probe due?  Samples every probed cycle of the
         * run, warmup included (the warmup-adequacy detector needs the
         * transient), unlike the warm-gated channel-load sample. */
        if (c.pb_data && cycle % c.pb_interval == 0)
            probe_sample(&c, cycle);

        /* channel-load sample due for any live post-warmup rep? */
        if (cycle % c.sample_interval == 0) {
            for (int64_t r = 0; r < R; ++r)
                if (c.active[r] && cycle >= c.warm[r]) {
                    reason |= RUN_SAMPLE;
                    break;
                }
        }

        cycle += 1;
        if (reason || cycle == stop_at)
            break; /* SAMPLE: cycle finished, Python runs the tail */
    }

out:
    RS[0] = cycle;
    RS[1] = busy_vcs;
    RS[2] = ej_n;
    RS[3] = need_total;
    RS[4] = reason;
    RS[5] = aux;
    return reason;
}
