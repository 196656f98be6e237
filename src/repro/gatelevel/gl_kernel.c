/*
 * Netlist-agnostic bit-parallel gate-level replay kernel.
 *
 * One fixed translation unit, compiled once per host, that interprets a
 * levelized netlist described by flat op arrays (see gl_prog below and
 * repro.gatelevel.glcodegen.CKernel.install, which builds them from a
 * LevelizedSchedule).  Every net value is one uint64 word whose bit
 * lanes are up to 64 independent simulations of the same netlist, so
 * every cell is one full-word bitwise op.
 *
 * Four entry points:
 *
 *   gl_eval       settle combinational logic once;
 *   gl_run_cycles the whole-replay hot loop: per cycle, packed pokes,
 *                 forces (re-asserted before the first level and after
 *                 every level), settle, expected-output checks, toggle
 *                 counting (a half-adder into low counter planes, folded
 *                 into the wide toggle planes every 15 cycles and before
 *                 any return), SRAM write ports and DFF commit.  Returns
 *                 the number of committed cycles (< n_cycles only on a
 *                 strict-mode stop);
 *   gl_switching  reduce the toggle planes to every lane's switching
 *                 power per report group, without exporting per-net
 *                 toggle counts;
 *   gl_lane_add   add one constant sequence of per-group watts to
 *                 every lane's groups, in order.
 *
 * The semantics match BatchedGateLevelSimulator's interpreted path and
 * repro.gatelevel.power.analyze_power bit for bit; the floating-point
 * sums rely on the build flags keeping every operation separately
 * rounded (-ffp-contract=off: no fused multiply-add).
 */
#include <stdint.h>
#include <time.h>

/* Cell kinds; must match _CELL_KINDS in glcodegen.py. */
enum { K_INV, K_BUF, K_AND2, K_OR2, K_XOR2, K_XNOR2, K_NAND2, K_NOR2,
       K_MUX2 };

/* Read-port descriptor columns (one int64 row per port). */
enum { RP_MACRO, RP_DEPTH, RP_ADDR_OFF, RP_ADDR_N, RP_DATA_OFF,
       RP_DATA_N, RP_COLS };
/* Write-port descriptor columns (one int64 row per port). */
enum { WP_MACRO, WP_DEPTH, WP_EN, WP_ADDR_OFF, WP_ADDR_N, WP_DATA_OFF,
       WP_DATA_N, WP_COLS };

typedef struct {
  int64_t n_nets;
  int64_t n_levels;
  /* per level: [group_lo, group_hi, rport_lo, rport_hi) */
  const int64_t *levels;
  /* per cell-kind group: [kind, gate_lo, gate_hi) */
  const int64_t *groups;
  /* per gate; in1/in2 are 0 where the cell has fewer inputs */
  const int32_t *out, *in0, *in1, *in2;
  /* read ports in schedule order; row r also owns memo slot r */
  const int64_t *rports;
  const int64_t *rport_nets;
  /* write ports in (macro, port) order */
  int64_t n_wports;
  const int64_t *wports;
  const int64_t *wport_nets;
  int64_t n_dff;
  const int64_t *dff_d, *dff_q;
} gl_prog;

typedef struct {
  int64_t n;
  const int64_t *nets;
  const uint64_t *masks;
  const uint64_t *vals;
} gl_forces;

typedef struct {
  uint64_t *V;
  uint64_t *PREV;
  uint64_t *PLANES;
  int64_t planes_cap;
  int64_t *planes_used;
  uint64_t *LOW;          /* low counter planes, zero between calls */
  uint8_t *dirty;         /* one flag per block of BLOCK nets */
  uint64_t **stores;
  int64_t **lasts;
  int64_t *reads;
  int64_t *writes;
  uint64_t *dff_tmp;
  int64_t lanes;
  uint64_t active_mask;
} gl_state;

typedef struct {
  int64_t n_cycles;
  const int64_t *poke_counts;
  const uint64_t *poke_masks;
  const int64_t *poke_off;
  const int64_t *poke_cnt;
  const int64_t *poke_nets;
  const uint64_t *poke_words;
  const int64_t *check_counts;
  const uint64_t *check_masks;
  const int64_t *check_off;
  const int64_t *check_cnt;
  const int64_t *check_nets;
  const uint64_t *check_words;
  const int64_t *force_counts;
  const int64_t *force_off;
  const int64_t *force_nets;
  const uint64_t *force_masks;
  const uint64_t *force_vals;
  const gl_forces *ambient;  /* the forces when there are no segments */
  int64_t strict;
  int64_t *mismatches;
  int64_t *stop;
  double *phase_ns;
} gl_run;

static inline int64_t lowbit(uint64_t x) {
  return (int64_t)__builtin_ctzll(x);   /* gcc and clang */
}

static void apply_forces(uint64_t *V, const gl_forces *F) {
  for (int64_t i = 0; i < F->n; i++) {
    int64_t net = F->nets[i];
    V[net] = (V[net] & ~F->masks[i]) | F->vals[i];
  }
}

/* One lane's value of a little-endian bit vector of nets. */
static inline uint64_t lane_bits(const uint64_t *V, const int64_t *nets,
                                 int64_t n, int64_t lane) {
  uint64_t x = 0;
  for (int64_t i = 0; i < n; i++)
    x |= ((V[nets[i]] >> lane) & 1) << i;
  return x;
}

static void eval_gates(uint64_t *V, const gl_prog *P, int64_t g) {
  const int64_t *grp = P->groups + 3 * g;
  const int32_t *o = P->out, *a = P->in0, *b = P->in1, *c = P->in2;
  int64_t lo = grp[1], hi = grp[2];
  switch (grp[0]) {
  case K_INV:   for (int64_t i = lo; i < hi; i++) V[o[i]] = ~V[a[i]]; break;
  case K_BUF:   for (int64_t i = lo; i < hi; i++) V[o[i]] = V[a[i]]; break;
  case K_AND2:
    for (int64_t i = lo; i < hi; i++) V[o[i]] = V[a[i]] & V[b[i]];
    break;
  case K_OR2:
    for (int64_t i = lo; i < hi; i++) V[o[i]] = V[a[i]] | V[b[i]];
    break;
  case K_XOR2:
    for (int64_t i = lo; i < hi; i++) V[o[i]] = V[a[i]] ^ V[b[i]];
    break;
  case K_XNOR2:
    for (int64_t i = lo; i < hi; i++) V[o[i]] = ~(V[a[i]] ^ V[b[i]]);
    break;
  case K_NAND2:
    for (int64_t i = lo; i < hi; i++) V[o[i]] = ~(V[a[i]] & V[b[i]]);
    break;
  case K_NOR2:
    for (int64_t i = lo; i < hi; i++) V[o[i]] = ~(V[a[i]] | V[b[i]]);
    break;
  case K_MUX2:
    /* sel ? b : c, as c ^ ((b ^ c) & sel) */
    for (int64_t i = lo; i < hi; i++) {
      uint64_t y = V[c[i]];
      V[o[i]] = y ^ ((V[b[i]] ^ y) & V[a[i]]);
    }
    break;
  }
}

/* Async read port: per-lane address, store gather, data-bit repack,
 * and the last-address memo / read counter update. */
static void read_port(uint64_t *V, const gl_prog *P, int64_t r,
                      uint64_t **stores, int64_t **lasts, int64_t *reads,
                      int64_t lanes) {
  const int64_t *d = P->rports + RP_COLS * r;
  const int64_t *addr_nets = P->rport_nets + d[RP_ADDR_OFF];
  const int64_t *data_nets = P->rport_nets + d[RP_DATA_OFF];
  int64_t depth = d[RP_DEPTH], width = d[RP_DATA_N];
  const uint64_t *S = stores[d[RP_MACRO]];
  int64_t *LA = lasts[r];
  int64_t *RD = reads + d[RP_MACRO] * lanes;
  uint64_t acc[64] = {0};
  for (int64_t lane = 0; lane < lanes; lane++) {
    int64_t addr = (int64_t)lane_bits(V, addr_nets, d[RP_ADDR_N], lane);
    uint64_t w = addr < depth ? S[(uint64_t)lane * depth + addr] : 0;
    for (int64_t j = 0; j < width; j++)
      acc[j] |= ((w >> j) & 1) << lane;
    if (addr != LA[lane]) { LA[lane] = addr; RD[lane] += 1; }
  }
  for (int64_t j = 0; j < width; j++) V[data_nets[j]] = acc[j];
}

void gl_eval(const gl_prog *P, uint64_t *V, const gl_forces *F,
             uint64_t **stores, int64_t **lasts, int64_t *reads,
             int64_t lanes) {
  if (F->n) apply_forces(V, F);
  for (int64_t l = 0; l < P->n_levels; l++) {
    const int64_t *lv = P->levels + 4 * l;
    for (int64_t g = lv[0]; g < lv[1]; g++) eval_gates(V, P, g);
    for (int64_t r = lv[2]; r < lv[3]; r++)
      read_port(V, P, r, stores, lasts, reads, lanes);
    if (F->n) apply_forces(V, F);
  }
}

static void write_ports(const gl_prog *P, gl_state *S) {
  uint64_t *V = S->V;
  for (int64_t w = 0; w < P->n_wports; w++) {
    const int64_t *d = P->wports + WP_COLS * w;
    const int64_t *addr_nets = P->wport_nets + d[WP_ADDR_OFF];
    const int64_t *data_nets = P->wport_nets + d[WP_DATA_OFF];
    int64_t depth = d[WP_DEPTH];
    uint64_t *store = S->stores[d[WP_MACRO]];
    int64_t *WR = S->writes + d[WP_MACRO] * S->lanes;
    uint64_t en = V[d[WP_EN]] & S->active_mask;
    while (en) {
      int64_t lane = lowbit(en);
      en &= en - 1;
      int64_t addr = (int64_t)lane_bits(V, addr_nets, d[WP_ADDR_N], lane);
      if (addr >= depth) continue;
      store[(uint64_t)lane * depth + addr] =
          lane_bits(V, data_nets, d[WP_DATA_N], lane);
      WR[lane] += 1;
    }
  }
}

static void commit_dffs(const gl_prog *P, uint64_t *V, uint64_t *T) {
  /* gather every D before scattering any Q (a Q may feed another D) */
  for (int64_t i = 0; i < P->n_dff; i++) T[i] = V[P->dff_d[i]];
  for (int64_t i = 0; i < P->n_dff; i++) V[P->dff_q[i]] = T[i];
}

/* Toggle counting in two tiers.  Each cycle's lane-masked diff
 * (V ^ PREV) is added into LOW_PLANES low counter planes with a
 * branch-free half-adder chain; every FOLD_EVERY cycles (the most a
 * LOW_PLANES-bit counter holds) the low planes are added into the wide
 * plane-major planes (row p = counter bit p of every net, stride
 * n_nets) and zeroed.  Nets go in blocks of BLOCK: a block whose nets
 * equal PREV in every lane is skipped without a store, and the fold
 * visits only blocks marked dirty.  The low planes are block-major,
 * LOW[(b * LOW_PLANES + p) * BLOCK + k] = bit p of net 8b + k's count,
 * in a per-simulator buffer that is all zero between calls. */
#define BLOCK 8
#define LOW_PLANES 4
#define FOLD_EVERY ((1 << LOW_PLANES) - 1)

/* fully unroll the fixed-count block loops, keeping them in registers */
#define UNROLL _Pragma("GCC unroll 8")

typedef uint64_t v2u __attribute__((vector_size(16)));

static inline v2u ld2(const uint64_t *p) {
  v2u x;
  __builtin_memcpy(&x, p, sizeof x);
  return x;
}

static inline void st2(uint64_t *p, v2u x) {
  __builtin_memcpy(p, &x, sizeof x);
}

/* One block of BLOCK nets; returns 1 when any of them changed. */
static inline int low_tick_block(const uint64_t *v, uint64_t *prev,
                                 uint64_t *L, v2u active) {
  v2u x[BLOCK / 2], any = {0, 0};
  UNROLL for (int j = 0; j < BLOCK / 2; j++) {
    x[j] = ld2(v + 2 * j) ^ ld2(prev + 2 * j);
    any |= x[j];
  }
  if (!(any[0] | any[1])) return 0;
  UNROLL for (int j = 0; j < BLOCK / 2; j++) {
    st2(prev + 2 * j, ld2(v + 2 * j));
    v2u carry = x[j] & active;
    UNROLL for (int p = 0; p < LOW_PLANES; p++) {
      uint64_t *l = L + p * BLOCK + 2 * j;
      v2u cur = ld2(l);
      st2(l, cur ^ carry);
      carry &= cur;
    }
  }
  return 1;
}

static void low_tick(const uint64_t *V, uint64_t *PREV, uint64_t *LOW,
                     uint8_t *dirty, int64_t n, uint64_t active) {
  v2u act = {active, active};
  int64_t blocks = (n + BLOCK - 1) / BLOCK, rest = n % BLOCK;
  uint64_t v[BLOCK] = {0}, prev[BLOCK] = {0};
  for (int64_t b = 0; b < blocks; b++) {
    const uint64_t *vb = V + b * BLOCK;
    uint64_t *pb = PREV + b * BLOCK;
    int tail = rest && b == blocks - 1;
    if (tail) {   /* the tail block, through zero-padded copies */
      for (int64_t k = 0; k < rest; k++) { v[k] = vb[k]; prev[k] = pb[k]; }
      vb = v;
      pb = prev;
    }
    if (low_tick_block(vb, pb, LOW + b * (LOW_PLANES * BLOCK), act)) {
      dirty[b] = 1;
      if (tail)
        for (int64_t k = 0; k < rest; k++) PREV[b * BLOCK + k] = prev[k];
    }
  }
}

/* Add every dirty block's low counters into the wide planes PL (stride
 * n), zero them and clear the flags: per net a branch-free ripple add
 * through wide planes 0..LOW_PLANES-1, then a carry out of those
 * ripples on while it lasts.  Counts only grow, so ``used`` (the planes
 * in use, returned) is the bit length of the largest count: the highest
 * plane holding a set bit after an add, plus one.  PL has at least
 * LOW_PLANES rows (CKernel.install grows the arena to that many). */
static int64_t low_fold(uint64_t *PL, int64_t n, int64_t cap, int64_t used,
                        uint64_t *LOW, uint8_t *dirty) {
  int64_t blocks = (n + BLOCK - 1) / BLOCK;
  uint64_t set[LOW_PLANES] = {0};
  for (int64_t b = 0; b < blocks; b++) {
    if (!dirty[b]) continue;
    dirty[b] = 0;
    uint64_t *L = LOW + b * (LOW_PLANES * BLOCK);
    int64_t m = n - b * BLOCK < BLOCK ? n - b * BLOCK : BLOCK;
    for (int64_t k = 0; k < m; k++) {
      uint64_t *w = PL + b * BLOCK + k, carry = 0;
      for (int p = 0; p < LOW_PLANES; p++) {
        uint64_t a = L[p * BLOCK + k], cur = w[p * n], half = cur ^ a;
        w[p * n] = half ^ carry;
        set[p] |= half ^ carry;
        carry = (cur & a) | (half & carry);
        L[p * BLOCK + k] = 0;
      }
      for (int64_t p = LOW_PLANES; carry && p < cap; p++) {
        uint64_t cur = w[p * n];
        w[p * n] = cur ^ carry;
        carry &= cur;
        if (!carry && p + 1 > used) used = p + 1;
      }
    }
  }
  for (int p = LOW_PLANES; p > 0; p--)
    if (set[p - 1]) return p > used ? p : used;
  return used;
}

static double now_ns(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

#define PHASE(k) t1 = now_ns(); R->phase_ns[k] += t1 - t0; t0 = t1;

/* Fold the low planes (pending = cycles counted since the last fold)
 * and charge the time to the toggle phase. */
static int64_t fold_pending(const gl_prog *P, gl_state *S, gl_run *R,
                            int64_t used, int64_t pending) {
  if (!pending) return used;
  double t0 = now_ns();
  used = low_fold(S->PLANES, P->n_nets, S->planes_cap, used, S->LOW,
                  S->dirty);
  R->phase_ns[3] += now_ns() - t0;
  return used;
}

int64_t gl_run_cycles(const gl_prog *P, gl_state *S, gl_run *R) {
  uint64_t *V = S->V;
  int64_t used = *S->planes_used;
  int64_t poke_op = 0, check_op = 0, pending = 0;
  gl_forces F;
  double t0, t1;
  R->stop[0] = -1; R->stop[1] = -1; R->stop[2] = -1;
  for (int64_t t = 0; t < R->n_cycles; t++) {
    t0 = now_ns();
    if (R->poke_counts) {
      for (int64_t k = 0; k < R->poke_counts[t]; k++, poke_op++) {
        uint64_t mask = R->poke_masks[poke_op];
        const int64_t *nets = R->poke_nets + R->poke_off[poke_op];
        const uint64_t *words = R->poke_words + R->poke_off[poke_op];
        for (int64_t j = 0; j < R->poke_cnt[poke_op]; j++)
          V[nets[j]] = (V[nets[j]] & ~mask) | (words[j] & mask);
      }
    }
    if (R->force_counts) {
      F.n = R->force_counts[t];
      F.nets = R->force_nets + R->force_off[t];
      F.masks = R->force_masks + R->force_off[t];
      F.vals = R->force_vals + R->force_off[t];
    } else {
      F = *R->ambient;
    }
    PHASE(0)
    gl_eval(P, V, &F, S->stores, S->lasts, S->reads, S->lanes);
    PHASE(1)
    if (R->check_counts) {
      for (int64_t k = 0; k < R->check_counts[t]; k++, check_op++) {
        const int64_t *nets = R->check_nets + R->check_off[check_op];
        const uint64_t *words = R->check_words + R->check_off[check_op];
        uint64_t diff = 0;
        for (int64_t j = 0; j < R->check_cnt[check_op]; j++)
          diff |= V[nets[j]] ^ words[j];
        diff &= R->check_masks[check_op];
        while (diff) {
          int64_t lane = lowbit(diff);
          diff &= diff - 1;
          R->mismatches[lane] += 1;
          if (R->strict) {
            R->stop[0] = t; R->stop[1] = check_op; R->stop[2] = lane;
            PHASE(2)
            *S->planes_used = fold_pending(P, S, R, used, pending);
            return t;
          }
        }
      }
    }
    PHASE(2)
    low_tick(V, S->PREV, S->LOW, S->dirty, P->n_nets, S->active_mask);
    if (++pending == FOLD_EVERY) {
      used = low_fold(S->PLANES, P->n_nets, S->planes_cap, used, S->LOW,
                      S->dirty);
      pending = 0;
    }
    PHASE(3)
    write_ports(P, S);
    PHASE(4)
    commit_dffs(P, V, S->dff_tmp);
    PHASE(5)
  }
  *S->planes_used = fold_pending(P, S, R, used, pending);
  return R->n_cycles;
}

/* In place: word k of ``x`` becomes byte k of every word, word r's
 * byte landing in byte r (an 8x8 byte-matrix transpose), then each
 * word's 8x8 bit matrix (row r = byte r) is transposed.  For eight
 * toggle planes that turns plane-major bits into one byte per lane:
 * byte (lane % 8) of x[lane / 8] holds bit p = the lane's bit in
 * plane p. */
static void planes_to_lane_bytes(uint64_t x[8]) {
  uint64_t t;
  for (int r = 0; r < 4; r++) {
    t = ((x[r] >> 32) ^ x[r + 4]) & 0x00000000FFFFFFFFULL;
    x[r] ^= t << 32;
    x[r + 4] ^= t;
  }
  for (int r = 0; r < 8; r += (r & 1) ? 3 : 1) {   /* 0, 1, 4, 5 */
    t = ((x[r] >> 16) ^ x[r + 2]) & 0x0000FFFF0000FFFFULL;
    x[r] ^= t << 16;
    x[r + 2] ^= t;
  }
  for (int r = 0; r < 8; r += 2) {
    t = ((x[r] >> 8) ^ x[r + 1]) & 0x00FF00FF00FF00FFULL;
    x[r] ^= t << 8;
    x[r + 1] ^= t;
  }
  for (int k = 0; k < 8; k++) {
    uint64_t y = x[k];
    t = (y ^ (y >> 7)) & 0x00AA00AA00AA00AAULL;
    y ^= t ^ (t << 7);
    t = (y ^ (y >> 14)) & 0x0000CCCC0000CCCCULL;
    y ^= t ^ (t << 14);
    t = (y ^ (y >> 28)) & 0x00000000F0F0F0F0ULL;
    y ^= t ^ (t << 28);
    x[k] = y;
  }
}

/* Switching power of every lane from the vertical toggle counters:
 * per net with a nonzero energy, in net order,
 *
 *   watts = (double)toggles * cap * 0.5 * vdd2 * 1e-15 / seconds
 *
 * evaluated left to right and added to the lane's entry of the net's
 * report-group row of ``acc`` (group-major: one row of ``lanes`` watts
 * per group) and to its ``switching`` total — the exact operation
 * sequence of analyze_power's switching term, so the sums are
 * bit-identical.  ``toggles`` gets each lane's total toggle count and
 * ``io_touched`` a 1 where a net of group ``io_slot`` switched.  The
 * outputs must be zeroed by the caller. */
void gl_switching(const uint64_t *PL, int64_t n_planes, int64_t n_nets,
                  int64_t lanes, const double *cap, const int64_t *slot,
                  int64_t io_slot, double vdd2, double seconds,
                  double *acc, double *switching, int64_t *toggles,
                  int64_t *io_touched) {
  uint64_t lane_mask = lanes >= 64 ? ~(uint64_t)0
                                   : (((uint64_t)1 << lanes) - 1);
  int64_t chunks = (n_planes + 7) / 8;
  uint64_t x[8][8];                /* per 8-plane chunk: lane bytes */
  for (int64_t i = 0; i < n_nets; i++) {
    uint64_t any = 0;
    for (int64_t c = 0; c < chunks; c++) {
      for (int64_t r = 0; r < 8; r++) {
        int64_t p = 8 * c + r;
        x[c][r] = p < n_planes ? PL[(uint64_t)p * n_nets + i] : 0;
        any |= x[c][r];
      }
    }
    any &= lane_mask;
    if (!any) continue;
    for (int64_t c = 0; c < chunks; c++) planes_to_lane_bytes(x[c]);
    double *row = acc + slot[i] * lanes;
    while (any) {
      int64_t lane = lowbit(any);
      any &= any - 1;
      int64_t t = 0;
      for (int64_t c = 0; c < chunks; c++)
        t |= (int64_t)((x[c][lane >> 3] >> (8 * (lane & 7))) & 0xFF)
             << (8 * c);
      toggles[lane] += t;
      double energy_fj = (double)t * cap[i] * 0.5 * vdd2;
      if (energy_fj == 0.0) continue;
      double watts = energy_fj * 1e-15 / seconds;
      row[lane] += watts;
      switching[lane] += watts;
      if (slot[i] == io_slot) io_touched[lane] = 1;
    }
  }
}

/* acc[slots[j] * lanes + lane] += vals[j] for every lane, j in order:
 * np.add.at(acc[:, lane], slots, vals) for all lanes of a group-major
 * ``acc`` in one call (the clock-tree and leakage terms of a batch's
 * power reports).  The lane loop is innermost, so consecutive adds
 * into one group do not wait on each other. */
void gl_lane_add(double *acc, int64_t lanes, const int64_t *slots,
                 const double *vals, int64_t n) {
  for (int64_t j = 0; j < n; j++) {
    double *row = acc + slots[j] * lanes;
    double v = vals[j];
    for (int64_t lane = 0; lane < lanes; lane++) row[lane] += v;
  }
}
