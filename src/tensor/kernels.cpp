#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "tensor/device.h"
#include "util/env.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace subfed {

// --- process-wide kernel knobs (declared in device.h) ------------------------

namespace {
std::atomic<std::size_t> g_math_threads{static_cast<std::size_t>(
    std::max<std::int64_t>(0, env_int("SUBFEDAVG_MATH_THREADS", 0)))};
}  // namespace

void set_math_threads(std::size_t n) noexcept {
  g_math_threads.store(n, std::memory_order_relaxed);
}

std::size_t math_threads() noexcept {
  return g_math_threads.load(std::memory_order_relaxed);
}

double sparse_density_threshold() noexcept {
  static const double threshold = env_double("SUBFEDAVG_SPARSE_DENSITY", 0.25);
  return threshold;
}

namespace kern {

bool handle_trivial(float* c, std::size_t m, std::size_t k, std::size_t n,
                    bool accumulate) noexcept {
  if (m == 0 || n == 0) return true;
  if (k == 0) {
    if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
    return true;
  }
  return false;
}

std::size_t plan_chunks(std::size_t m, std::size_t flops) noexcept {
  if (flops < kMinParallelFlops) return 1;
  std::size_t threads = g_math_threads.load(std::memory_order_relaxed);
  const std::size_t pool = ThreadPool::global().size();
  if (threads == 0 || threads > pool) threads = pool;
  const std::size_t panels = (m + kMr - 1) / kMr;
  return std::max<std::size_t>(1, std::min(threads, panels));
}

// --- blocked kernels ---------------------------------------------------------
// Register-tiled kMr×kNr micro-kernel: the C tile lives in registers across
// the whole k loop (the naive kernel re-streams the C row from cache for
// every k step), and the j dimension vectorizes over unit-stride B rows.
//
// The baseline x86-64 ISA (SSE2) has too few/too narrow registers for the
// tile, so every panel entry point is compiled twice — a portable build and
// an AVX2+FMA build — and dispatched once per call on a cached cpuid check.
// The hot loops must live inside those entry points (marked always-inline),
// not behind a std::function boundary, so each build vectorizes end to end.
//
// Determinism: each output element is accumulated in ascending-k order no
// matter how panels are split, so any math_threads value produces
// bit-identical results.

#if defined(__GNUC__) || defined(__clang__)
#define SUBFED_ALWAYS_INLINE inline __attribute__((always_inline))
#define SUBFED_NOINLINE __attribute__((noinline))
#else
#define SUBFED_ALWAYS_INLINE inline
#define SUBFED_NOINLINE
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SUBFED_X86_DISPATCH 1
#define SUBFED_AVX2_TARGET __attribute__((target("avx2,fma")))
namespace {
bool cpu_has_avx2_fma() noexcept {
  static const bool has =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return has;
}
}  // namespace
#else
#define SUBFED_AVX2_TARGET
#endif

namespace {

/// The one compiled instance of the epilogue arithmetic. Deliberately
/// noinline and outside any target-attributed region: FMA contraction inside
/// the AVX2 clones would otherwise change the epilogue's rounding relative to
/// the unfused BatchNorm2d/ReLU passes (plain SSE2 code), breaking the
/// fused ≡ unfused bit-identity contract. One pinned instance makes the
/// fused store-back, the sparse/naive post-pass, and the unfused layer chain
/// all round identically.
///
/// Applies the epilogue to `count` elements of output row `row`:
///   y = accumulate ? dst[j] + src[j] : src[j]; then bias/bn/relu (see
///   GemmEpilogue). src may alias dst (in-place post-pass).
SUBFED_NOINLINE void epilogue_store(const float* src, float* dst, std::size_t count,
                                    std::size_t row, const GemmEpilogue& ep,
                                    bool accumulate) noexcept {
  float bias = 0.0f;
  if (ep.bias != nullptr) bias = ep.bias[row];
  const bool has_bn = ep.mean != nullptr;
  // Same expression (and float ops) as BatchNorm2d's eval forward.
  const float inv_std = has_bn ? 1.0f / std::sqrt(ep.var[row] + ep.eps) : 0.0f;
  const float g = has_bn ? ep.gamma[row] : 0.0f;
  const float b = has_bn ? ep.beta[row] : 0.0f;
  const float m = has_bn ? ep.mean[row] : 0.0f;
  // One pass per term, each a branch-free loop the compiler vectorizes; every
  // element still sees the same float ops in the same order. The bias add is
  // skipped when zero because Conv2d skips it (its zero case is a memcpy):
  // y + 0.0f would turn -0.0 into +0.0 and break bit-identity. The ReLU is a
  // select, not a branch: NaN and -0.0 map to +0.0 as in ReLU's forward.
  for (std::size_t j = 0; j < count; ++j) dst[j] = accumulate ? dst[j] + src[j] : src[j];
  if (bias != 0.0f) {
    for (std::size_t j = 0; j < count; ++j) dst[j] += bias;
  }
  if (has_bn) {
    for (std::size_t j = 0; j < count; ++j) dst[j] = g * (dst[j] - m) * inv_std + b;
  }
  if (ep.relu) {
    for (std::size_t j = 0; j < count; ++j) dst[j] = dst[j] > 0.0f ? dst[j] : 0.0f;
  }
}

// GCC/Clang generic vector extensions: the autovectorizer does not keep the
// register tile live across the k loop on its own, so the accumulators are
// explicit 8-wide vectors. The default clone lowers them to SSE pairs; other
// compilers get the scalar tile (correct, slower).
#if defined(__GNUC__) || defined(__clang__)
#define SUBFED_VECTOR_TILE 1
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"  // load8/store8 are always inlined
typedef float v8sf __attribute__((vector_size(32)));
SUBFED_ALWAYS_INLINE v8sf load8(const float* p) noexcept {
  v8sf v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
SUBFED_ALWAYS_INLINE void store8(float* p, v8sf v) noexcept {
  std::memcpy(p, &v, sizeof(v));
}
/// An unaligned v8sf. Multi-row tiles read B rows through a volatile pointer
/// to it so that each load issues exactly once: a B row feeds every row of
/// the tile, and left to itself GCC folds the load into both rows' FMAs of a
/// 2-row tile (a 1-row tile keeps its single folded load). On an in-place B
/// (conv forward, rows 200 KB apart at batch 64) those two loads of a line
/// still in flight from memory made the 2-row tile ≈3× slower than two
/// 1-row tiles. A pure load: no bits change.
typedef float v8sf_unaligned __attribute__((vector_size(32), aligned(4)));
#endif

/// The B rows a register tile reads. StridedRows: row p of a row-major
/// matrix (ldb = its width) or of a packed [k×kNr] panel (ldb = kNr).
/// OffsetRows: row p = (c, ky, kx) of a conv's patch matrix read straight
/// from the input image, `offset[p]` floats past the panel's first tap.
struct StridedRows {
  const float* b;
  std::size_t ldb;
  const float* operator()(std::size_t p) const noexcept { return b + p * ldb; }
};
struct OffsetRows {
  const float* base;
  const std::size_t* offset;
  const float* operator()(std::size_t p) const noexcept { return base + offset[p]; }
};
/// B rows of a kNT pack listed one pointer each (a conv's patch rows).
struct RowList {
  const float* const* rows;
  const float* operator()(std::size_t jj) const noexcept { return rows[jj]; }
};

/// A k-blocked GEMM (kNT) runs each tile once per k block and hands the
/// accumulators from block to block through `rows`, kNr floats per output
/// row: `resume` starts the tile from them instead of from zero, `park`
/// stores them there instead of into C. A float stored and reloaded is exact,
/// so each output element keeps the unblocked op chain: accumulate from zero
/// in ascending k, then one final C + acc (or acc) store.
struct KCarry {
  float* rows = nullptr;
  bool resume = false;
  bool park = false;
};

/// One MR×kNr register tile: rows i..i+MR of A against a kNr-wide B panel
/// whose row p is `brows(p)` — b + j inside the full matrix, a packed
/// zero-padded [k×kNr] buffer, or an image row of an implicit conv panel
/// (see StridedRows, OffsetRows). Writes back the first `nr` columns to
/// cpanel (= c + j). Every output element accumulates in ascending-k order.
/// With kFused the accumulators route through epilogue_store instead of the
/// raw store, so the epilogue reads them straight out of registers without a
/// second pass over the output tensor. `carry.rows` points at row i's slot.
template <std::size_t MR, bool kTransposedA, bool kFused, typename BRows>
SUBFED_ALWAYS_INLINE void micro_tile(const float* a, std::size_t i, std::size_t lda,
                                     const BRows& brows, float* cpanel,
                                     std::size_t ldc, std::size_t k, std::size_t nr,
                                     bool accumulate, const GemmEpilogue* ep,
                                     const KCarry& carry) noexcept {
#if SUBFED_VECTOR_TILE
  static_assert(kNr == 16, "tile uses two 8-wide vectors per row");
  v8sf acc0[MR] = {}, acc1[MR] = {};
  if (carry.resume) {
    for (std::size_t r = 0; r < MR; ++r) {
      acc0[r] = load8(carry.rows + r * kNr);
      acc1[r] = load8(carry.rows + r * kNr + 8);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* brow = brows(p);
    v8sf b0, b1;
    if constexpr (MR == 1) {
      b0 = load8(brow);
      b1 = load8(brow + 8);
    } else {
      const volatile v8sf_unaligned* bvec =
          reinterpret_cast<const volatile v8sf_unaligned*>(brow);
      b0 = bvec[0];
      b1 = bvec[1];
    }
    for (std::size_t r = 0; r < MR; ++r) {
      // A stored [k×m] keeps the panel's row values contiguous.
      const float value = kTransposedA ? a[p * lda + i + r] : a[(i + r) * lda + p];
      // A plain splat, one vbroadcastss (`v8sf{} + value` would add a scalar
      // vaddss with zero in front of every broadcast).
      const v8sf av = {value, value, value, value, value, value, value, value};
      acc0[r] += av * b0;
      acc1[r] += av * b1;
    }
  }
  if (carry.park) {
    for (std::size_t r = 0; r < MR; ++r) {
      store8(carry.rows + r * kNr, acc0[r]);
      store8(carry.rows + r * kNr + 8, acc1[r]);
    }
    return;
  }
  for (std::size_t r = 0; r < MR; ++r) {
    float* crow = cpanel + (i + r) * ldc;
    if constexpr (kFused) {
      float tile[kNr];
      store8(tile, acc0[r]);
      store8(tile + 8, acc1[r]);
      epilogue_store(tile, crow, nr, i + r, *ep, accumulate);
    } else if (nr == kNr) {
      if (accumulate) {
        store8(crow, load8(crow) + acc0[r]);
        store8(crow + 8, load8(crow + 8) + acc1[r]);
      } else {
        store8(crow, acc0[r]);
        store8(crow + 8, acc1[r]);
      }
    } else {
      float tile[kNr];
      store8(tile, acc0[r]);
      store8(tile + 8, acc1[r]);
      for (std::size_t jj = 0; jj < nr; ++jj) {
        crow[jj] = accumulate ? crow[jj] + tile[jj] : tile[jj];
      }
    }
  }
#else
  float acc[MR][kNr] = {};
  if (carry.resume) std::memcpy(acc, carry.rows, sizeof(acc));
  for (std::size_t p = 0; p < k; ++p) {
    const float* brow = brows(p);
    for (std::size_t r = 0; r < MR; ++r) {
      const float av = kTransposedA ? a[p * lda + i + r] : a[(i + r) * lda + p];
      for (std::size_t jj = 0; jj < kNr; ++jj) acc[r][jj] += av * brow[jj];
    }
  }
  if (carry.park) {
    std::memcpy(carry.rows, acc, sizeof(acc));
    return;
  }
  for (std::size_t r = 0; r < MR; ++r) {
    float* crow = cpanel + (i + r) * ldc;
    if constexpr (kFused) {
      epilogue_store(acc[r], crow, nr, i + r, *ep, accumulate);
    } else {
      for (std::size_t jj = 0; jj < nr; ++jj) {
        crow[jj] = accumulate ? crow[jj] + acc[r][jj] : acc[r][jj];
      }
    }
  }
#endif
}

#if SUBFED_VECTOR_TILE
#pragma GCC diagnostic pop
#endif

/// Per-thread packing scratch for partial/transposed B panels, grown on
/// demand and reused across calls so the tail path does no steady-state
/// allocation (matching the conv workspace's no-per-call-allocation goal).
std::vector<float>& packing_scratch(std::size_t size) {
  thread_local std::vector<float> scratch;
  if (scratch.size() < size) scratch.resize(size);
  return scratch;
}

/// Rows [i0, i1) of C against one B panel: full kMr tiles plus one 3-, 2- or
/// 1-row tile for the tail, so a narrow (compacted) GEMM streams the panel
/// once rather than once per leftover row. Which rows take the tail path
/// depends only on i1 (always the matrix edge or a kMr-aligned chunk
/// boundary), and every tile height accumulates identically, so threading
/// cannot change results. `carry.rows` (k-blocked callers) holds row i0's slot.
template <bool kTransposedA, bool kFused, typename BRows>
SUBFED_ALWAYS_INLINE void tile_rows(const float* a, std::size_t lda, const BRows& brows,
                                    float* cpanel, std::size_t ldc,
                                    std::size_t i0, std::size_t i1, std::size_t k,
                                    std::size_t nr, bool accumulate, const GemmEpilogue* ep,
                                    const KCarry& carry = {}) noexcept {
  // No lambda here: its body would compile outside the AVX2 target clones.
  static_assert(kMr == 4, "the tail switch covers 3, 2 and 1 leftover rows");
  KCarry tile = carry;
  std::size_t i = i0;
  for (; i + kMr <= i1; i += kMr) {
    if (carry.rows != nullptr) tile.rows = carry.rows + (i - i0) * kNr;
    micro_tile<kMr, kTransposedA, kFused>(a, i, lda, brows, cpanel, ldc, k, nr,
                                          accumulate, ep, tile);
  }
  if (carry.rows != nullptr) tile.rows = carry.rows + (i - i0) * kNr;
  switch (i1 - i) {
    case 3:
      micro_tile<3, kTransposedA, kFused>(a, i, lda, brows, cpanel, ldc, k, nr,
                                          accumulate, ep, tile);
      break;
    case 2:
      micro_tile<2, kTransposedA, kFused>(a, i, lda, brows, cpanel, ldc, k, nr,
                                          accumulate, ep, tile);
      break;
    case 1:
      micro_tile<1, kTransposedA, kFused>(a, i, lda, brows, cpanel, ldc, k, nr,
                                          accumulate, ep, tile);
      break;
    default:
      break;
  }
}

/// nn/tn panel body: B is row-major [k×n]; full kNr column panels run
/// against B in place, the column tail is packed zero-padded so the same
/// micro-tile applies. Always-inline so the multiversioned wrappers below
/// compile the whole loop nest per ISA (target_clones cannot attach to
/// templates directly).
template <bool kTransposedA, bool kFused>
SUBFED_ALWAYS_INLINE void gemm_panel(const float* a, const float* b, float* c,
                                     std::size_t lda, std::size_t k, std::size_t n,
                                     std::size_t i0, std::size_t i1, bool accumulate,
                                     const GemmEpilogue* ep) {
  const std::size_t tail = n % kNr;
  const std::size_t j_end = n - tail;
  for (std::size_t j = 0; j < j_end; j += kNr) {
    tile_rows<kTransposedA, kFused>(a, lda, StridedRows{b + j, n}, c + j, n, i0, i1, k, kNr,
                                    accumulate, ep);
  }
  if (tail != 0) {
    std::vector<float>& packed = packing_scratch(k * kNr);
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t jj = 0; jj < tail; ++jj) {
        packed[p * kNr + jj] = b[p * n + j_end + jj];
      }
      for (std::size_t jj = tail; jj < kNr; ++jj) packed[p * kNr + jj] = 0.0f;
    }
    tile_rows<kTransposedA, kFused>(a, lda, StridedRows{packed.data(), kNr}, c + j_end, n, i0,
                                    i1, k, tail, accumulate, ep);
  }
}

/// Packs `nr` B rows over `kb` columns transposed into a zero-padded
/// [kb×kNr] block: packed[p·kNr + jj] = rows(jj)[p] (StridedRows or
/// RowList). Rows before `jj0` are left to the caller.
template <typename Rows>
SUBFED_ALWAYS_INLINE void pack_nt_block(const Rows& rows, std::size_t nr, std::size_t kb,
                                        float* packed, std::size_t jj0 = 0) noexcept {
  for (std::size_t jj = jj0; jj < nr; ++jj) {
    const float* brow = rows(jj);
    for (std::size_t p = 0; p < kb; ++p) packed[p * kNr + jj] = brow[p];
  }
  if (nr < kNr) {
    for (std::size_t p = 0; p < kb; ++p) std::fill_n(packed + p * kNr + nr, kNr - nr, 0.0f);
  }
}

/// The portable build's pack (the AVX2 build uses pack_nt_block_avx2).
template <typename Rows>
void pack_nt_block_scalar(const Rows& rows, std::size_t nr, std::size_t kb,
                          float* packed) noexcept {
  pack_nt_block(rows, nr, kb, packed);
}

/// nt panel body: B is stored [n×k], so each kNr-column panel is packed
/// transposed (zero-padded) one kKc-deep block at a time by `pack`, and every
/// row tile of the chunk runs against that block while it is in L1. Between
/// blocks the tiles park their accumulators in a per-row carry (KCarry), and
/// C is written once, after the last block. Packing costs k·n per chunk and
/// amortizes over the chunk's rows.
template <typename PackFn>
SUBFED_ALWAYS_INLINE void gemm_panel_nt_body(const float* a, const float* b, float* c,
                                             std::size_t k, std::size_t n, std::size_t i0,
                                             std::size_t i1, bool accumulate, PackFn pack) {
  const std::size_t carry_floats = k > kKc ? (i1 - i0) * kNr : 0;
  float* packed = packing_scratch(kKc * kNr + carry_floats).data();
  for (std::size_t j = 0; j < n; j += kNr) {
    const std::size_t nr = std::min(kNr, n - j);
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
      const std::size_t kb = std::min(kKc, k - p0);
      pack(StridedRows{b + j * k + p0, k}, nr, kb, packed);
      const KCarry carry{carry_floats != 0 ? packed + kKc * kNr : nullptr, p0 != 0,
                         p0 + kb < k};
      tile_rows<false, false>(a + p0, k, StridedRows{packed, kNr}, c + j, n, i0, i1, kb, nr,
                              accumulate, nullptr, carry);
    }
  }
}

// --- implicit-GEMM convolution -----------------------------------------------
// The conv GEMMs read their B operand, the patch matrix of im2col_strided
// (row p = (c, ky, kx), one column per output pixel), straight from the NCHW
// input. Every packed or in-place value is the one im2col_strided writes, and
// the tiles are the GEMM's own, so each output element keeps its op chain.

/// dst[t·dst_stride] for t < len: patch row (ky, kx) of one input channel
/// `plane` [H×W] at output pixels (y, xa + t) — the image value, or 0 in the
/// padding halo, exactly as im2col_strided writes it.
SUBFED_ALWAYS_INLINE void copy_patch_run(const float* plane, const ConvGeometry& g,
                                         std::size_t y, std::size_t xa, std::size_t len,
                                         std::size_t ky, std::size_t kx, float* dst,
                                         std::size_t dst_stride) noexcept {
  const auto pad = static_cast<std::ptrdiff_t>(g.pad);
  const auto w = static_cast<std::ptrdiff_t>(g.in_w);
  const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(y * g.stride + ky) - pad;
  if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) {
    for (std::size_t t = 0; t < len; ++t) dst[t * dst_stride] = 0.0f;
    return;
  }
  const float* row = plane + iy * w;
  if (g.stride == 1) {
    // Input columns ix0 + t; [lo, hi) of them lie inside the row.
    const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(xa + kx) - pad;
    const auto n = static_cast<std::ptrdiff_t>(len);
    const std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(-ix0, 0, n);
    const std::ptrdiff_t hi = std::clamp<std::ptrdiff_t>(w - ix0, lo, n);
    for (std::ptrdiff_t t = 0; t < lo; ++t) dst[t * dst_stride] = 0.0f;
    for (std::ptrdiff_t t = lo; t < hi; ++t) dst[t * dst_stride] = row[ix0 + t];
    for (std::ptrdiff_t t = hi; t < n; ++t) dst[t * dst_stride] = 0.0f;
    return;
  }
  for (std::size_t t = 0; t < len; ++t) {
    const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>((xa + t) * g.stride + kx) - pad;
    dst[t * dst_stride] = ix < 0 || ix >= w ? 0.0f : row[ix];
  }
}

/// Packs columns [s0, s0 + nr) of one sample's patch matrix, zero-padded to
/// kNr, into the [patch×kNr] forward panel `packed`. When every tap of the
/// panel lies inside the image, column jj of patch row p is a load at
/// offsets[p] past pixel jj's first tap; otherwise the panel's pixels are
/// split into runs that each lie in one output row.
SUBFED_ALWAYS_INLINE void pack_conv_panel(const float* image, const ConvGeometry& g,
                                          const std::size_t* offsets, std::size_t s0,
                                          std::size_t nr, float* packed) noexcept {
  const std::size_t ow = g.out_w(), plane = g.in_h * g.in_w;
  bool inside = g.stride == 1;
  for (std::size_t jj = 0; jj < nr && inside; ++jj) {
    const std::size_t y = (s0 + jj) / ow, x = (s0 + jj) % ow;
    inside = y >= g.pad && y + g.kernel <= g.in_h + g.pad && x >= g.pad &&
             x + g.kernel <= g.in_w + g.pad;
  }
  if (inside) {
    std::size_t first_tap[kNr];
    for (std::size_t jj = 0; jj < nr; ++jj) {
      first_tap[jj] = ((s0 + jj) / ow - g.pad) * g.in_w + (s0 + jj) % ow - g.pad;
    }
    for (std::size_t p = 0; p < g.patch_size(); ++p) {
      const float* src = image + offsets[p];
      float* dst = packed + p * kNr;
      for (std::size_t jj = 0; jj < nr; ++jj) dst[jj] = src[first_tap[jj]];
      std::fill(dst + nr, dst + kNr, 0.0f);
    }
    return;
  }
  std::size_t run_y[kNr], run_x[kNr], run_q[kNr + 1], runs = 0;
  for (std::size_t q = 0; q < nr; ++runs) {
    run_y[runs] = (s0 + q) / ow;
    run_x[runs] = (s0 + q) % ow;
    run_q[runs] = q;
    q += std::min(ow - run_x[runs], nr - q);
  }
  run_q[runs] = nr;
  std::size_t p = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++p) {
        float* dst = packed + p * kNr;
        for (std::size_t r = 0; r < runs; ++r) {
          copy_patch_run(image + c * plane, g, run_y[r], run_x[r], run_q[r + 1] - run_q[r], ky,
                         kx, dst + run_q[r], 1);
        }
        std::fill(dst + nr, dst + kNr, 0.0f);
      }
    }
  }
}

/// Per-thread offset table of an implicit conv panel: patch row p = (c, ky,
/// kx) sits c·H·W + ky·W + kx floats past the panel's first tap.
const std::size_t* patch_offsets(const ConvGeometry& g) {
  thread_local std::vector<std::size_t> offsets;
  offsets.resize(g.patch_size());
  std::size_t p = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx) {
        offsets[p++] = (c * g.in_h + ky) * g.in_w + kx;
      }
    }
  }
  return offsets.data();
}

/// Implicit conv forward, C_n[m × oh·ow] = W[m × patch] · patches(image_n)
/// for every sample, stored straight into out [N, m, oh, ow] (ldc = oh·ow).
/// A stride-1 output row at least kNr wide is covered by kNr-pixel panels,
/// the last one shifted left to end at the row's end (its overlap recomputes
/// the same bits). A panel whose every tap lies inside the image reads B in
/// place through the offset table; any other panel — padding, stride > 1,
/// or rows narrower than kNr, where panels run over consecutive pixels — is
/// packed into L1 scratch. Without kFused the epilogue (a bias at most)
/// runs as a row post-pass per sample, the unfused layer's own expression.
template <bool kFused>
SUBFED_ALWAYS_INLINE void conv_forward_body(const float* w, std::size_t m,
                                            const float* images, std::size_t batch,
                                            const ConvGeometry& g, float* out,
                                            const GemmEpilogue* ep) {
  const std::size_t k = g.patch_size(), oh = g.out_h(), ow = g.out_w(), spatial = oh * ow;
  const std::size_t in_plane = g.in_channels * g.in_h * g.in_w;
  const std::size_t* offsets = patch_offsets(g);
  float* packed = packing_scratch(k * kNr).data();
  const bool row_panels = g.stride == 1 && ow >= kNr;
  for (std::size_t n = 0; n < batch; ++n) {
    const float* image = images + n * in_plane;
    float* c = out + n * m * spatial;
    if (row_panels) {
      for (std::size_t y = 0; y < oh; ++y) {
        const bool rows_inside = y >= g.pad && y + g.kernel <= g.in_h + g.pad;
        for (std::size_t x0 = 0; x0 < ow; x0 += kNr) {
          const std::size_t x = std::min(x0, ow - kNr);
          if (rows_inside && x >= g.pad && x + kNr + g.kernel <= g.in_w + g.pad + 1) {
            const float* base = image + (y - g.pad) * g.in_w + (x - g.pad);
            tile_rows<false, kFused>(w, k, OffsetRows{base, offsets}, c + y * ow + x, spatial,
                                     0, m, k, kNr, false, ep);
          } else {
            pack_conv_panel(image, g, offsets, y * ow + x, kNr, packed);
            tile_rows<false, kFused>(w, k, StridedRows{packed, kNr}, c + y * ow + x, spatial,
                                     0, m, k, kNr, false, ep);
          }
        }
      }
    } else {
      for (std::size_t s0 = 0; s0 < spatial; s0 += kNr) {
        const std::size_t nr = std::min(kNr, spatial - s0);
        pack_conv_panel(image, g, offsets, s0, nr, packed);
        tile_rows<false, kFused>(w, k, StridedRows{packed, kNr}, c + s0, spatial, 0, m, k, nr,
                                 false, ep);
      }
    }
    if (!kFused && ep != nullptr) apply_epilogue_rows(c, spatial, 0, m, *ep);
  }
}

/// Packs the [kb×kNr] kNT block of patch rows [j, j + nr) over pixels
/// [s0, s0 + kb) of one sample, transposed and zero-padded like
/// pack_nt_block. Each run of pixels in one output row is a contiguous span
/// of every patch row's image row when the conv has stride 1 and the run's
/// taps all lie inside the image; those runs go through `pack` (the 8×8
/// transposes on AVX2), the rest through copy_patch_run.
template <typename PackFn>
SUBFED_ALWAYS_INLINE void pack_conv_nt_block(const float* image, const ConvGeometry& g,
                                             const std::size_t* offsets, std::size_t j,
                                             std::size_t nr, std::size_t s0, std::size_t kb,
                                             float* packed, PackFn pack) {
  const std::size_t ow = g.out_w(), kk = g.kernel * g.kernel, plane = g.in_h * g.in_w;
  const float* rows[kNr];
  for (std::size_t q = 0; q < kb;) {
    const std::size_t y = (s0 + q) / ow, xa = (s0 + q) % ow, len = std::min(ow - xa, kb - q);
    float* dst = packed + q * kNr;
    if (g.stride == 1 && y >= g.pad && y + g.kernel <= g.in_h + g.pad && xa >= g.pad &&
        xa + len + g.kernel <= g.in_w + g.pad + 1) {
      const float* base = image + (y - g.pad) * g.in_w + (xa - g.pad);
      for (std::size_t jj = 0; jj < nr; ++jj) rows[jj] = base + offsets[j + jj];
      pack(RowList{rows}, nr, len, dst);
    } else {
      for (std::size_t jj = 0; jj < nr; ++jj) {
        const std::size_t p = j + jj;
        copy_patch_run(image + p / kk * plane, g, y, xa, len, p % kk / g.kernel, p % g.kernel,
                       dst + jj, kNr);
      }
      for (std::size_t t = 0; t < len; ++t) {
        std::fill(dst + t * kNr + nr, dst + (t + 1) * kNr, 0.0f);
      }
    }
    q += len;
  }
}

/// Implicit conv weight gradient, dW[m × patch] += Σ_n dY_n[m × oh·ow] ·
/// patches(image_n)ᵀ: gemm_panel_nt_body with k = N·oh·ow, its kKc blocks cut
/// at sample boundaries so that A is each sample's dY read in place
/// (lda = oh·ow) and B is packed from the image. The carry makes the block
/// split invisible: every element accumulates over the batch's pixels in
/// ascending order from zero, then adds to dW once.
template <typename PackFn>
SUBFED_ALWAYS_INLINE void conv_weight_grad_body(const float* dy, std::size_t m,
                                                const float* images, std::size_t batch,
                                                const ConvGeometry& g, float* dw,
                                                PackFn pack) {
  const std::size_t k = g.patch_size(), spatial = g.out_h() * g.out_w();
  const std::size_t in_plane = g.in_channels * g.in_h * g.in_w;
  const std::size_t* offsets = patch_offsets(g);
  const bool blocked = batch > 1 || spatial > kKc;
  float* packed = packing_scratch(kKc * kNr + (blocked ? m * kNr : 0)).data();
  float* carry_rows = blocked ? packed + kKc * kNr : nullptr;
  for (std::size_t j = 0; j < k; j += kNr) {
    const std::size_t nr = std::min(kNr, k - j);
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t s0 = 0; s0 < spatial; s0 += kKc) {
        const std::size_t kb = std::min(kKc, spatial - s0);
        pack_conv_nt_block(images + n * in_plane, g, offsets, j, nr, s0, kb, packed, pack);
        const KCarry carry{carry_rows, n != 0 || s0 != 0, n + 1 < batch || s0 + kb < spatial};
        tile_rows<false, false>(dy + n * m * spatial + s0, spatial, StridedRows{packed, kNr},
                                dw + j, k, 0, m, kb, nr, /*accumulate=*/true, nullptr, carry);
      }
    }
  }
}

// Dispatched entry points: the AVX2+FMA variants recompile the same inlined
// loop nests with wider registers and fused multiply-adds; the plain variants
// are the portable fallback (and the only build on non-x86 targets).
#if SUBFED_X86_DISPATCH
/// pack_nt_block with in-register 8×8 transposes: eight B rows × eight
/// columns load as eight vectors and store as eight packed rows. A pure copy,
/// so the packed block is the same bits as the scalar loop's.
template <typename Rows>
SUBFED_AVX2_TARGET void pack_nt_block_avx2(const Rows& rows, std::size_t nr, std::size_t kb,
                                           float* packed) noexcept {
  // Past the last whole 8 columns, one more transpose ends at column kb,
  // rewriting a few packed rows with the same values; only kb < 8 is scalar.
  const std::size_t p_end = kb < 8 ? 0 : kb;
  std::size_t jj = 0;
  for (; jj + 8 <= nr; jj += 8) {
    for (std::size_t p8 = 0; p8 < p_end; p8 += 8) {
      const std::size_t p = std::min(p8, kb - 8);
      __m256 r[8];
      for (std::size_t q = 0; q < 8; ++q) r[q] = _mm256_loadu_ps(rows(jj + q) + p);
      __m256 t[8];
      for (std::size_t q = 0; q < 8; q += 2) {
        t[q] = _mm256_unpacklo_ps(r[q], r[q + 1]);
        t[q + 1] = _mm256_unpackhi_ps(r[q], r[q + 1]);
      }
      for (std::size_t q = 0; q < 8; q += 4) {
        r[q] = _mm256_shuffle_ps(t[q], t[q + 2], _MM_SHUFFLE(1, 0, 1, 0));
        r[q + 1] = _mm256_shuffle_ps(t[q], t[q + 2], _MM_SHUFFLE(3, 2, 3, 2));
        r[q + 2] = _mm256_shuffle_ps(t[q + 1], t[q + 3], _MM_SHUFFLE(1, 0, 1, 0));
        r[q + 3] = _mm256_shuffle_ps(t[q + 1], t[q + 3], _MM_SHUFFLE(3, 2, 3, 2));
      }
      // r[q] (q < 4) holds column q of rows 0–3 in its low lane and column
      // q + 4 in its high lane; r[q + 4] the same for rows 4–7.
      float* dst = packed + p * kNr + jj;
      for (std::size_t q = 0; q < 4; ++q) {
        _mm256_storeu_ps(dst + q * kNr, _mm256_permute2f128_ps(r[q], r[q + 4], 0x20));
        _mm256_storeu_ps(dst + (q + 4) * kNr, _mm256_permute2f128_ps(r[q], r[q + 4], 0x31));
      }
    }
    for (std::size_t p = p_end; p < kb; ++p) {
      for (std::size_t q = 0; q < 8; ++q) packed[p * kNr + jj + q] = rows(jj + q)[p];
    }
  }
  pack_nt_block(rows, nr, kb, packed, jj);
}

SUBFED_AVX2_TARGET void gemm_panel_nn_avx2(const float* a, const float* b, float* c,
                                           std::size_t lda, std::size_t k, std::size_t n,
                                           std::size_t i0, std::size_t i1,
                                           bool accumulate) {
  gemm_panel<false, false>(a, b, c, lda, k, n, i0, i1, accumulate, nullptr);
}
SUBFED_AVX2_TARGET void gemm_panel_tn_avx2(const float* a, const float* b, float* c,
                                           std::size_t lda, std::size_t k, std::size_t n,
                                           std::size_t i0, std::size_t i1,
                                           bool accumulate) {
  gemm_panel<true, false>(a, b, c, lda, k, n, i0, i1, accumulate, nullptr);
}
SUBFED_AVX2_TARGET void gemm_panel_nt_avx2(const float* a, const float* b, float* c,
                                           std::size_t k, std::size_t n, std::size_t i0,
                                           std::size_t i1, bool accumulate) {
  gemm_panel_nt_body(a, b, c, k, n, i0, i1, accumulate, pack_nt_block_avx2<StridedRows>);
}
SUBFED_AVX2_TARGET void gemm_panel_nn_fused_avx2(const float* a, const float* b, float* c,
                                                 std::size_t lda, std::size_t k,
                                                 std::size_t n, std::size_t i0,
                                                 std::size_t i1, bool accumulate,
                                                 const GemmEpilogue& ep) {
  gemm_panel<false, true>(a, b, c, lda, k, n, i0, i1, accumulate, &ep);
}
SUBFED_AVX2_TARGET void conv_forward_avx2(const float* w, std::size_t m, const float* images,
                                          std::size_t batch, const ConvGeometry& g,
                                          float* out, const GemmEpilogue* ep, bool fused) {
  if (fused) {
    conv_forward_body<true>(w, m, images, batch, g, out, ep);
  } else {
    conv_forward_body<false>(w, m, images, batch, g, out, ep);
  }
}
SUBFED_AVX2_TARGET void conv_weight_grad_avx2(const float* dy, std::size_t m,
                                              const float* images, std::size_t batch,
                                              const ConvGeometry& g, float* dw) {
  conv_weight_grad_body(dy, m, images, batch, g, dw, pack_nt_block_avx2<RowList>);
}
#endif

}  // namespace

void gemm_panel_nn(const float* a, const float* b, float* c, std::size_t lda,
                   std::size_t k, std::size_t n, std::size_t i0, std::size_t i1,
                   bool accumulate) {
#if SUBFED_X86_DISPATCH
  if (cpu_has_avx2_fma()) {
    gemm_panel_nn_avx2(a, b, c, lda, k, n, i0, i1, accumulate);
    return;
  }
#endif
  gemm_panel<false, false>(a, b, c, lda, k, n, i0, i1, accumulate, nullptr);
}

void gemm_panel_tn(const float* a, const float* b, float* c, std::size_t lda,
                   std::size_t k, std::size_t n, std::size_t i0, std::size_t i1,
                   bool accumulate) {
#if SUBFED_X86_DISPATCH
  if (cpu_has_avx2_fma()) {
    gemm_panel_tn_avx2(a, b, c, lda, k, n, i0, i1, accumulate);
    return;
  }
#endif
  gemm_panel<true, false>(a, b, c, lda, k, n, i0, i1, accumulate, nullptr);
}

void gemm_panel_nt(const float* a, const float* b, float* c, std::size_t k, std::size_t n,
                   std::size_t i0, std::size_t i1, bool accumulate) {
#if SUBFED_X86_DISPATCH
  if (cpu_has_avx2_fma()) {
    gemm_panel_nt_avx2(a, b, c, k, n, i0, i1, accumulate);
    return;
  }
#endif
  gemm_panel_nt_body(a, b, c, k, n, i0, i1, accumulate, pack_nt_block_scalar<StridedRows>);
}

void gemm_panel_nn_fused(const float* a, const float* b, float* c, std::size_t lda,
                         std::size_t k, std::size_t n, std::size_t i0, std::size_t i1,
                         bool accumulate, const GemmEpilogue& ep) {
#if SUBFED_X86_DISPATCH
  if (cpu_has_avx2_fma()) {
    gemm_panel_nn_fused_avx2(a, b, c, lda, k, n, i0, i1, accumulate, ep);
    return;
  }
#endif
  gemm_panel<false, true>(a, b, c, lda, k, n, i0, i1, accumulate, &ep);
}

void apply_epilogue_rows(float* c, std::size_t n, std::size_t i0, std::size_t i1,
                         const GemmEpilogue& ep) noexcept {
  for (std::size_t i = i0; i < i1; ++i) {
    float* crow = c + i * n;
    epilogue_store(crow, crow, n, i, ep, /*accumulate=*/false);
  }
}

void conv_forward(const float* w, std::size_t m, const float* images, std::size_t batch,
                  const ConvGeometry& g, float* out, const GemmEpilogue* ep) {
  // Only a bn or relu term needs the register-tile store-back; a bias alone
  // is the post-pass.
  const bool fused = ep != nullptr && (ep->mean != nullptr || ep->relu);
#if SUBFED_X86_DISPATCH
  if (cpu_has_avx2_fma()) {
    conv_forward_avx2(w, m, images, batch, g, out, ep, fused);
    return;
  }
#endif
  if (fused) {
    conv_forward_body<true>(w, m, images, batch, g, out, ep);
  } else {
    conv_forward_body<false>(w, m, images, batch, g, out, ep);
  }
}

void conv_weight_grad(const float* dy, std::size_t m, const float* images, std::size_t batch,
                      const ConvGeometry& g, float* dw) {
#if SUBFED_X86_DISPATCH
  if (cpu_has_avx2_fma()) {
    conv_weight_grad_avx2(dy, m, images, batch, g, dw);
    return;
  }
#endif
  conv_weight_grad_body(dy, m, images, batch, g, dw, pack_nt_block_scalar<RowList>);
}

// --- sparse kernels ----------------------------------------------------------
// Pruning masks zero weights exactly; when the weight-side operand's density
// drops below the threshold it is packed into CSR (ascending k within each
// row, matching the dense accumulation order) and the kernel only touches
// nonzeros.

double density(const float* data, std::size_t size) noexcept {
  if (size == 0) return 1.0;
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < size; ++i) nonzero += data[i] != 0.0f ? 1 : 0;
  return static_cast<double>(nonzero) / static_cast<double>(size);
}

Csr Csr::pack(const float* data, std::size_t rows, std::size_t cols) {
  Csr csr;
  csr.row_begin.resize(rows + 1, 0);
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < rows * cols; ++i) nnz += data[i] != 0.0f ? 1 : 0;
  csr.col.reserve(nnz);
  csr.val.reserve(nnz);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = data + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      if (row[c] != 0.0f) {
        csr.col.push_back(static_cast<std::uint32_t>(c));
        csr.val.push_back(row[c]);
      }
    }
    csr.row_begin[r + 1] = static_cast<std::uint32_t>(csr.col.size());
  }
  return csr;
}

Csr Csr::pack_transposed(const float* data, std::size_t rows, std::size_t cols) {
  Csr csr;
  csr.row_begin.assign(cols + 1, 0);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    if (data[i] != 0.0f) ++csr.row_begin[i % cols + 1];
  }
  for (std::size_t c = 0; c < cols; ++c) csr.row_begin[c + 1] += csr.row_begin[c];
  csr.col.resize(csr.row_begin[cols]);
  csr.val.resize(csr.row_begin[cols]);
  std::vector<std::uint32_t> cursor(csr.row_begin.begin(), csr.row_begin.end() - 1);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = data + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      if (row[c] != 0.0f) {
        const std::uint32_t slot = cursor[c]++;
        csr.col[slot] = static_cast<std::uint32_t>(r);
        csr.val[slot] = row[c];
      }
    }
  }
  return csr;
}

namespace {

/// Whether the compiler contracts the dense tiles' `acc += a·b` into a fused
/// multiply-add where the ISA has one: Clang always does (-ffp-contract=on),
/// GCC only in optimized builds (contraction is one of its passes).
#if defined(__clang__) || defined(__OPTIMIZE__)
constexpr bool kTilesContract = true;
#else
constexpr bool kTilesContract = false;
#endif

/// One multiply-add term of the sparse kernels, rounded the way the dense
/// register tiles round theirs: fused in the AVX2+FMA build when the tiles
/// are contracted, multiply-then-add otherwise. Spelled out because GCC's
/// vectorizer would otherwise split the CSR dot product into a vector
/// multiply and an in-order scalar add. With every term rounded alike, and a
/// dropped zero term never changing a sum, CSR and dense dispatch of the
/// same GEMM produce identical bits.
template <bool kFma>
SUBFED_ALWAYS_INLINE float madd(float a, float b, float acc) noexcept {
  if constexpr (kFma && kTilesContract) {
    return __builtin_fmaf(a, b, acc);
  } else {
    return acc + a * b;
  }
}

template <bool kFma>
SUBFED_ALWAYS_INLINE void sparse_axpy_body(const std::uint32_t* row_begin,
                                           const std::uint32_t* col, const float* val,
                                           const float* b, float* c, std::size_t n,
                                           std::size_t i0, std::size_t i1,
                                           bool accumulate) {
  for (std::size_t i = i0; i < i1; ++i) {
    float* crow = c + i * n;
    if (!accumulate) std::memset(crow, 0, n * sizeof(float));
    for (std::uint32_t e = row_begin[i]; e < row_begin[i + 1]; ++e) {
      const float av = val[e];
      const float* brow = b + col[e] * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] = madd<kFma>(av, brow[j], crow[j]);
    }
  }
}

template <bool kFma>
SUBFED_ALWAYS_INLINE void sparse_dot_body(const std::uint32_t* row_begin,
                                          const std::uint32_t* col, const float* val,
                                          const float* a, float* c, std::size_t k,
                                          std::size_t n, std::size_t i0, std::size_t i1,
                                          bool accumulate) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::uint32_t e = row_begin[j]; e < row_begin[j + 1]; ++e) {
        acc = madd<kFma>(arow[col[e]], val[e], acc);
      }
      crow[j] = accumulate ? crow[j] + acc : acc;
    }
  }
}

#if SUBFED_X86_DISPATCH
SUBFED_AVX2_TARGET void sparse_axpy_panel_avx2(const std::uint32_t* row_begin,
                                               const std::uint32_t* col, const float* val,
                                               const float* b, float* c, std::size_t n,
                                               std::size_t i0, std::size_t i1,
                                               bool accumulate) {
  sparse_axpy_body<true>(row_begin, col, val, b, c, n, i0, i1, accumulate);
}
SUBFED_AVX2_TARGET void sparse_dot_panel_avx2(const std::uint32_t* row_begin,
                                              const std::uint32_t* col, const float* val,
                                              const float* a, float* c, std::size_t k,
                                              std::size_t n, std::size_t i0,
                                              std::size_t i1, bool accumulate) {
  sparse_dot_body<true>(row_begin, col, val, a, c, k, n, i0, i1, accumulate);
}
#endif

}  // namespace

void sparse_axpy_panel(const std::uint32_t* row_begin, const std::uint32_t* col,
                       const float* val, const float* b, float* c, std::size_t n,
                       std::size_t i0, std::size_t i1, bool accumulate) {
#if SUBFED_X86_DISPATCH
  if (cpu_has_avx2_fma()) {
    sparse_axpy_panel_avx2(row_begin, col, val, b, c, n, i0, i1, accumulate);
    return;
  }
#endif
  sparse_axpy_body<false>(row_begin, col, val, b, c, n, i0, i1, accumulate);
}

void sparse_dot_panel(const std::uint32_t* row_begin, const std::uint32_t* col,
                      const float* val, const float* a, float* c, std::size_t k,
                      std::size_t n, std::size_t i0, std::size_t i1, bool accumulate) {
#if SUBFED_X86_DISPATCH
  if (cpu_has_avx2_fma()) {
    sparse_dot_panel_avx2(row_begin, col, val, a, c, k, n, i0, i1, accumulate);
    return;
  }
#endif
  sparse_dot_body<false>(row_begin, col, val, a, c, k, n, i0, i1, accumulate);
}

}  // namespace kern
}  // namespace subfed
