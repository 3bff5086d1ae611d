/* Cycle megakernel for the array backend: VC allocation, switch
 * traversal and ejection — the whole per-cycle hot path of
 * repro.simulation.kernels in one call — plus a cycle-resident driver
 * (starnet_run) that also runs generation, activation and the watchdog
 * in C and returns to Python only on events the Python side must
 * handle (uniform/ejection-row refills, pool growth, sampling, stops).
 *
 * Semantically identical to the Python/numpy passes in kernels.py (the
 * fallback): allocation walks each replication's pending headers in a
 * freshly shuffled order and claims free VCs per the selection policy;
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
 *
 * All arguments arrive through one int64 parameter block (pointers cast
 * to int64) so the per-cycle ctypes call marshals a single argument.
 * Slot layout must match kernels.ArraySimulator._refresh_c_args:
 *
 *   0 bd          (int32*, R*CV)  packed buffered | delivered << 16
 *   1 avail       (int32*, R*CV)  flits available to pull
 *   2 owner       (int32*, R*CV)  owning slot or -1
 *   3 up          (int32*, R*CV)  upstream vc or -1 (source PE)
 *   4 down        (int32*, R*CV)  downstream vc or -1
 *   5 rr          (int32*, R*C)   round-robin pointers
 *   6 lut         (int8*)         round-robin winner table (0: scan)
 *   7 R   8 C   9 V
 *  10 M  11 depth  12 ej_rate (< 0: unlimited)
 *  13 transfers   (int64*, R)     cumulative grant counts
 *  14 vcs_held    (int32*, R*cap) per-message owned-VC counts
 *  15 msg_src     (int32*, R*cap) source node per message
 *  16 active_inj  (int32*, R*N)   concurrent injections per node
 *  17 msg_ejected (int32*, R*cap) ejected flits per message
 *  18 cap  19 N
 *  20 ej_reps     (int64*)        ejection columns (appended here)
 *  21 ej_slots    (int64*)
 *  22 ej_flats    (int64*)        head VC of each draining message
 *  23 ej_mflats   (int64*)        message-array index of each
 *  24 ej_pos      (int64*, R*cap) column position per message (-1)
 *  25 ej_n                        entries on input
 *  26 ej_k        (int32*, scratch)
 *  27 winners     (int64*, scratch R*C, per-rep region C)
 *  28 fin_nodes   (int64*, out)   rep*N + node of finished injections
 *  29 completions (int64*, out)   ej-column index of completed messages
 *  30 out_counts  (int64*, 8)     {grants, busy_delta, fin, completions,
 *                                  error, ej_n_new, need_total, 0}
 *  31 busy        (uint8*, R*C)   owned-VC count per channel
 *  32 do_alloc                    run the allocation phase here?
 *  33 cycle
 *  34 policy       0 adaptive-first, 1 lowest-escape, 2 random
 *  35 num_adaptive
 *  36 deg
 *  37 need_slots  (int32*, R*cap) pending headers, compacted in place
 *  38 need_n      (int64*, R)     in/out pending counts
 *  39 p_dst  40 p_header  41 p_dist  42 p_floor  43 p_hops
 *  44 p_first  45 p_head_vc   (all int32*, R*cap)
 *  46 pair_class  (int32*, N*N)   symmetry class of (node, destination)
 *  47 class_dist  (int32*)        distance per pair class
 *  48 route_combo (int32*)        candidate list per routing state id
 *                                  ((class*2 + colour)*F + floor)*H
 *                                  + hops; -1: state rejected
 *  49 cand_off  50 cand_alen  51 cand_elen (int32*, per candidate list)
 *  52 cand        (int32*)        VC offsets from the node's first VC
 *  53 route_F     escape floors   54 route_H  hops (table extents)
 *  55 alloc_buf   (double*, R*buf_cap) pre-drawn uniforms
 *  56 buf_cap     57 alloc_pos (int64*, R)
 *  58 neighbors   (int32*, C)     node reached through each channel
 *  59 color       (uint8*, N)     1 on "negative-hop" nodes
 *  60 msg_measured(uint8*, R*cap)
 *  61 msg_t_inject(double*, R*cap)
 *  62 alloc_attempts (int64*, R)  63 alloc_failures (int64*, R)
 *  64 injected    (int64*, R)     measured injections in window
 *  65 hb_req  66 hb_blk  67 hb_wait (int64*, R*(hb_max+1))
 *  68 hb_max
 *  69 msg_t_gen   (double*, R*cap) generation instant per message
 *  70 in_flight   (int64*, R)     live message counts
 *  71 meas_flight (int64*, R)     live *measured* message counts
 *  72 completed   (int64*, R)     cumulative completions
 *  73 free_stack  (int32*, R*cap) free-slot stacks  74 free_n (int64*, R)
 *  75 lat_sum     (double*, R)    total-latency accumulator
 *  76 net_sum     (double*, R)    network-latency accumulator
 *  77 srcw_sum    (double*, R)    source-wait accumulator
 *  78 mcount      (int64*, R)     measured completions
 *  79 lat_bsum    (double*, R*Bmax) per-batch latency sums
 *  80 lat_bcount  (int64*, R*Bmax)  per-batch latency counts
 *  81 w_t0        (double*, R)    measurement-window start per rep
 *  82 w_width     (double*, R)    batch width per rep
 *  83 w_batches   (int64*, R)     batch count per rep  84 Bmax
 *
 * Threading + resident-driver slots (85+):
 *
 *  85 tstage      (int64*, R*8)   per-rep staging {grants, busy_delta,
 *                                  fin_n, err, newej_n, newej_base,
 *                                  bucket_end, spare}
 *  86 threads                     thread count (1: serial)
 *  87 pool                        Pool* from starnet_pool_new (0: none)
 *  88 gen_node_t  (double*, R*N)  next arrival instant per node
 *  89 gen_next    (double*, R)    cached per-rep minimum of gen_node_t
 *  90 arr_buf     (double*, R*N*GB) pre-drawn arrival blocks
 *  91 arr_pos     (int32*, R*N)   cursor into arr_buf
 *  92 arr_len     (int32*, R*N)   valid entries in arr_buf
 *  93 dst_buf     (int32*, R*N*GB) pre-drawn destination blocks
 *  94 dst_pos     (int32*, R*N)  95 dst_len (int32*, R*N)
 *  96 GB                          generation block size
 *  97 qnext       (int32*, R*cap) source-queue links (next slot or -1)
 *  98 qhead  99 qtail  100 qlen  (int32*, R*N) per-node queues
 * 101 act         (uint8*, R*N)   nodes with pending activations
 * 102 cb                          refill callback
 *                                  int64 cb(kind, rep, node):
 *                                  0 arrival-block refill
 *                                  1 dest-block refill
 *                                  negative return: Python exception
 * 103 generated   (int64*, R)  104 meas_generated (int64*, R)
 * 105 warm        (int64*, R)  106 horizon (int64*, R)
 * 107 end         (int64*, R)     horizon + drain budget
 * 108 active      (uint8*, R)     1 until the rep's result is frozen
 * 109 slots                       injection slots per node
 * 110 grace                       watchdog grace (cycles)
 * 111 marks       (int64*, R)  112 lastp (int64*, R)  watchdog state
 * 113 sample_interval
 * 114 ugate       (int64*, 2)     {headroom, spend} uniform gate
 * 115 ej_cap_rows                 ejection-column capacity
 * 116 run_state   (int64*, 8)     in/out {cycle, busy_vcs, ej_n,
 *                                  need_total, reason, aux, 0, 0}
 * 117 prof        (int64*, 8)     phase-profiling ns accumulators, or 0
 *                                  when profiling is off: {generation,
 *                                  activation, route, complete, -, -,
 *                                  -, -} (total/cycles live Python-side;
 *                                  see ArraySimulator.phase_profile)
 *
 * Time-series probe slots (118+), the same NULL-pointer = zero-overhead
 * contract as slot 117 (see probe_sample / docs/observability.md):
 *
 * 118 pb_data     (int64*, cap*R*(3+V+1)) sample ring buffer, or 0
 *                                  when probing is off; one sample is
 *                                  R rows of {in_flight, completed,
 *                                  backlog, occupancy histogram 0..V}
 * 119 pb_cycles   (int64*, cap)   cycle stamp per sample
 * 120 pb_state    (int64*, 1)     {sample count} — shared with the
 *                                  Python-driven cycles so both append
 *                                  to the same ring
 * 121 pb_interval                 cycles between samples
 * 122 pb_cap                      ring capacity (samples)
 */

#include <stdint.h>
#include <stdlib.h>
#include <pthread.h>
#include <time.h>

/* Widest candidate list the on-stack free-VC scratch supports; the
 * Python side keeps do_alloc = 0 when deg * V exceeds it. */
#define ALLOC_SCRATCH 512

/* starnet_run return reasons (bitmask; mirrored in kernels.py). */
#define RUN_STOP 1     /* a replication reached its stop condition      */
#define RUN_PUNT 2     /* Python must run this cycle via step()         */
#define RUN_SAMPLE 4   /* channel-load sample due (cycle finished)      */
#define RUN_WATCHDOG 8 /* stalled: Python raises SimulationError        */
#define RUN_CBERR 16   /* refill callback raised                        */
#define RUN_ERR 32     /* kernel invariant failure or rejected route    */

typedef int64_t (*starnet_cb)(int64_t kind, int64_t a, int64_t b);

/* Decoded parameter block; pointers stay valid for the whole call
 * (growth events punt back to Python before anything reallocates). */
typedef struct Ctx {
    int32_t *bd, *avail, *owner, *up, *down, *rr;
    const int8_t *lut;
    int64_t R, C, V;
    int32_t M, depth, ej_rate;
    int64_t *transfers;
    int32_t *vcs_held;
    int32_t *msg_src;
    int32_t *active_inj, *msg_ejected;
    int64_t cap, N;
    int64_t *ej_reps, *ej_slots, *ej_flats, *ej_mflats, *ej_pos;
    int32_t *ej_k;
    int64_t *winners, *fin_nodes, *completions, *out_counts;
    uint8_t *busy;
    int64_t policy;
    int32_t num_adaptive;
    int64_t deg;
    int32_t *need_slots;
    int64_t *need_n;
    int32_t *p_dst, *p_header, *p_dist, *p_floor, *p_hops, *p_first;
    int32_t *p_head_vc;
    const int32_t *pair_class, *class_dist, *route_combo;
    const int32_t *cand_off, *cand_alen, *cand_elen, *cand;
    int64_t route_F, route_H;
    const double *alloc_buf;
    int64_t buf_cap;
    int64_t *alloc_pos;
    const int32_t *neighbors;
    const uint8_t *color;
    uint8_t *measured;
    double *t_inject;
    int64_t *alloc_attempts, *alloc_failures, *injected;
    int64_t *hb_req, *hb_blk, *hb_wait;
    int64_t hb_max;
    double *t_gen;
    int64_t *in_flight, *meas_flight, *completed;
    int32_t *free_stack;
    int64_t *free_n;
    double *lat_sum, *net_sum, *srcw_sum;
    int64_t *mcount;
    double *lat_bsum;
    int64_t *lat_bcount;
    const double *w_t0, *w_width;
    const int64_t *w_batches;
    int64_t Bmax;
    /* threading + resident driver */
    int64_t *tstage;
    int64_t threads;
    struct Pool *pool;
    double *gen_node_t, *gen_next;
    double *arr_buf;
    int32_t *arr_pos, *arr_len;
    int32_t *dst_buf, *dst_pos, *dst_len;
    int64_t GB;
    int32_t *qnext, *qhead, *qtail, *qlen;
    uint8_t *act;
    starnet_cb cb;
    int64_t *generated, *meas_generated;
    const int64_t *warm, *horizon, *end;
    uint8_t *active;
    int64_t slots, grace;
    int64_t *marks, *lastp;
    int64_t sample_interval;
    int64_t *ugate;
    int64_t ej_cap_rows;
    int64_t *run_state;
    int64_t *prof;
    int64_t *pb_data, *pb_cycles, *pb_state;
    int64_t pb_interval, pb_cap;
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

static void decode(Ctx *c, int64_t *P)
{
    c->bd = (int32_t *)P[0];
    c->avail = (int32_t *)P[1];
    c->owner = (int32_t *)P[2];
    c->up = (int32_t *)P[3];
    c->down = (int32_t *)P[4];
    c->rr = (int32_t *)P[5];
    c->lut = (const int8_t *)P[6];
    c->R = P[7];
    c->C = P[8];
    c->V = P[9];
    c->M = (int32_t)P[10];
    c->depth = (int32_t)P[11];
    c->ej_rate = (int32_t)P[12];
    c->transfers = (int64_t *)P[13];
    c->vcs_held = (int32_t *)P[14];
    c->msg_src = (int32_t *)P[15];
    c->active_inj = (int32_t *)P[16];
    c->msg_ejected = (int32_t *)P[17];
    c->cap = P[18];
    c->N = P[19];
    c->ej_reps = (int64_t *)P[20];
    c->ej_slots = (int64_t *)P[21];
    c->ej_flats = (int64_t *)P[22];
    c->ej_mflats = (int64_t *)P[23];
    c->ej_pos = (int64_t *)P[24];
    c->ej_k = (int32_t *)P[26];
    c->winners = (int64_t *)P[27];
    c->fin_nodes = (int64_t *)P[28];
    c->completions = (int64_t *)P[29];
    c->out_counts = (int64_t *)P[30];
    c->busy = (uint8_t *)P[31];
    c->policy = P[34];
    c->num_adaptive = (int32_t)P[35];
    c->deg = P[36];
    c->need_slots = (int32_t *)P[37];
    c->need_n = (int64_t *)P[38];
    c->p_dst = (int32_t *)P[39];
    c->p_header = (int32_t *)P[40];
    c->p_dist = (int32_t *)P[41];
    c->p_floor = (int32_t *)P[42];
    c->p_hops = (int32_t *)P[43];
    c->p_first = (int32_t *)P[44];
    c->p_head_vc = (int32_t *)P[45];
    c->pair_class = (const int32_t *)P[46];
    c->class_dist = (const int32_t *)P[47];
    c->route_combo = (const int32_t *)P[48];
    c->cand_off = (const int32_t *)P[49];
    c->cand_alen = (const int32_t *)P[50];
    c->cand_elen = (const int32_t *)P[51];
    c->cand = (const int32_t *)P[52];
    c->route_F = P[53];
    c->route_H = P[54];
    c->alloc_buf = (const double *)P[55];
    c->buf_cap = P[56];
    c->alloc_pos = (int64_t *)P[57];
    c->neighbors = (const int32_t *)P[58];
    c->color = (const uint8_t *)P[59];
    c->measured = (uint8_t *)P[60];
    c->t_inject = (double *)P[61];
    c->alloc_attempts = (int64_t *)P[62];
    c->alloc_failures = (int64_t *)P[63];
    c->injected = (int64_t *)P[64];
    c->hb_req = (int64_t *)P[65];
    c->hb_blk = (int64_t *)P[66];
    c->hb_wait = (int64_t *)P[67];
    c->hb_max = P[68];
    c->t_gen = (double *)P[69];
    c->in_flight = (int64_t *)P[70];
    c->meas_flight = (int64_t *)P[71];
    c->completed = (int64_t *)P[72];
    c->free_stack = (int32_t *)P[73];
    c->free_n = (int64_t *)P[74];
    c->lat_sum = (double *)P[75];
    c->net_sum = (double *)P[76];
    c->srcw_sum = (double *)P[77];
    c->mcount = (int64_t *)P[78];
    c->lat_bsum = (double *)P[79];
    c->lat_bcount = (int64_t *)P[80];
    c->w_t0 = (const double *)P[81];
    c->w_width = (const double *)P[82];
    c->w_batches = (const int64_t *)P[83];
    c->Bmax = P[84];
    c->tstage = (int64_t *)P[85];
    c->threads = P[86];
    c->pool = (struct Pool *)P[87];
    c->gen_node_t = (double *)P[88];
    c->gen_next = (double *)P[89];
    c->arr_buf = (double *)P[90];
    c->arr_pos = (int32_t *)P[91];
    c->arr_len = (int32_t *)P[92];
    c->dst_buf = (int32_t *)P[93];
    c->dst_pos = (int32_t *)P[94];
    c->dst_len = (int32_t *)P[95];
    c->GB = P[96];
    c->qnext = (int32_t *)P[97];
    c->qhead = (int32_t *)P[98];
    c->qtail = (int32_t *)P[99];
    c->qlen = (int32_t *)P[100];
    c->act = (uint8_t *)P[101];
    c->cb = (starnet_cb)(intptr_t)P[102];
    c->generated = (int64_t *)P[103];
    c->meas_generated = (int64_t *)P[104];
    c->warm = (const int64_t *)P[105];
    c->horizon = (const int64_t *)P[106];
    c->end = (const int64_t *)P[107];
    c->active = (uint8_t *)P[108];
    c->slots = P[109];
    c->grace = P[110];
    c->marks = (int64_t *)P[111];
    c->lastp = (int64_t *)P[112];
    c->sample_interval = P[113];
    c->ugate = (int64_t *)P[114];
    c->ej_cap_rows = P[115];
    c->run_state = (int64_t *)P[116];
    c->prof = (int64_t *)P[117];
    c->pb_data = (int64_t *)P[118];
    c->pb_cycles = (int64_t *)P[119];
    c->pb_state = (int64_t *)P[120];
    c->pb_interval = P[121];
    c->pb_cap = P[122];
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
                       int64_t cycle, int64_t do_alloc, int64_t ej_n_old)
{
    const int64_t C = c->C, V = c->V, cap = c->cap, N = c->N;
    const int64_t CV = c->CV;
    const int32_t ms = (int32_t)c->ms;
    const int32_t M = c->M, depth = c->depth, ej_rate = c->ej_rate;
    const int8_t *lut = c->lut;
    int32_t *bd = c->bd, *avail = c->avail, *owner = c->owner;
    int32_t *up = c->up, *down = c->down, *rr = c->rr;
    uint8_t *busy = c->busy;

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
                int32_t fa[ALLOC_SCRATCH], fe[ALLOC_SCRATCH];
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

        ts[0] = grants_r;
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
    int64_t cycle, do_alloc, ej_n_old;
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
        const int64_t ej_n_old = p->ej_n_old;
        const int64_t T = p->nthreads;
        pthread_mutex_unlock(&p->mu);
        rep_phases(c, c->R * k / T, c->R * (k + 1) / T,
                   cycle, do_alloc, ej_n_old);
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
    int64_t grants, busy_delta, fn, cn, err, ej_n, need_total;
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
        p->ej_n_old = ej_n_old;
        p->finished = 0;
        p->seq += 1;
        pthread_cond_broadcast(&p->go);
        pthread_mutex_unlock(&p->mu);
        rep_phases(c, 0, R / p->nthreads, cycle, do_alloc, ej_n_old);
        pthread_mutex_lock(&p->mu);
        while (p->finished < p->nthreads - 1)
            pthread_cond_wait(&p->done, &p->mu);
        pthread_mutex_unlock(&p->mu);
    } else {
        rep_phases(c, 0, R, cycle, do_alloc, ej_n_old);
    }

    /* Serial merge, ascending replication order == serial phase order. */
    int64_t grants = 0, busy_delta = 0, err = 0;
    int64_t ej_n = ej_n_old;
    for (int64_t r = 0; r < R; ++r) {
        const int64_t *ts = c->tstage + r * 8;
        grants += ts[0];
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

    o->grants = grants;
    o->busy_delta = busy_delta;
    o->fn = fn;
    o->cn = cn;
    o->err = err;
    o->ej_n = ej_n;
    o->need_total = need_total;
}

static void write_out(const Ctx *c, const CycleOut *o)
{
    int64_t *out = c->out_counts;
    out[0] = o->grants;
    out[1] = o->busy_delta;
    out[2] = o->fn;
    out[3] = o->cn;
    out[4] = o->err;
    out[5] = o->ej_n;
    out[6] = o->need_total;
}

int64_t starnet_cycle(int64_t *P)
{
    Ctx c;
    decode(&c, P);
    CycleOut o;
    run_phases(&c, P[33], P[32], P[25], &o);
    write_out(&c, &o);
    return o.grants;
}

/* ------------------------------------------------------------------ */
/* Resident driver: generation + activation + phases + watchdog in C.  */
/* ------------------------------------------------------------------ */

#define GEN_OK 0
#define GEN_PUNT 1
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
                /* message pool exhausted: Python grows it and runs
                 * this cycle via step(); nothing consumed yet. */
                c->gen_next[r] = best;
                return GEN_PUNT;
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
    int64_t reason = 0, aux = 0;
    const int64_t R = c.R, N = c.N;

    int act_any = 0;
    for (int64_t i = 0; i < R * N; ++i)
        if (c.act[i]) {
            act_any = 1;
            break;
        }

    for (;;) {
        /* run()-level stop check, before the cycle advances */
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
            if (g == GEN_PUNT) {
                reason = RUN_PUNT;
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
                 * punts so Python refills the buffer in step(). */
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
                        reason = RUN_PUNT;
                        goto out;
                    }
                    c.ugate[0] = c.buf_cap - posmax;
                    c.ugate[1] = bound;
                }
                /* every pending header could append an ejection row */
                if (ej_n + need_total > c.ej_cap_rows) {
                    reason = RUN_PUNT;
                    goto out;
                }
            }
            CycleOut o;
            run_phases(&c, cycle, do_alloc, ej_n, &o);
            write_out(&c, &o);
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
        if (reason)
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
