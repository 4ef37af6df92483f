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
/// (`bpanel`, row stride ldb — either b + j inside the full matrix, or a
/// packed zero-padded [k×kNr] buffer). Writes back the first `nr` columns to
/// cpanel (= c + j). Every output element accumulates in ascending-k order.
/// With kFused the accumulators route through epilogue_store instead of the
/// raw store, so the epilogue reads them straight out of registers without a
/// second pass over the output tensor. `carry.rows` points at row i's slot.
template <std::size_t MR, bool kTransposedA, bool kFused>
SUBFED_ALWAYS_INLINE void micro_tile(const float* a, std::size_t i, std::size_t lda,
                                     const float* bpanel, std::size_t ldb, float* cpanel,
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
    const float* brow = bpanel + p * ldb;
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
      const v8sf av = v8sf{} + value;  // broadcast
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
    const float* brow = bpanel + p * ldb;
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
template <bool kTransposedA, bool kFused>
SUBFED_ALWAYS_INLINE void tile_rows(const float* a, std::size_t lda, const float* bpanel,
                                    std::size_t ldb, float* cpanel, std::size_t ldc,
                                    std::size_t i0, std::size_t i1, std::size_t k,
                                    std::size_t nr, bool accumulate, const GemmEpilogue* ep,
                                    const KCarry& carry = {}) noexcept {
  // No lambda here: its body would compile outside the AVX2 target clones.
  static_assert(kMr == 4, "the tail switch covers 3, 2 and 1 leftover rows");
  KCarry tile = carry;
  std::size_t i = i0;
  for (; i + kMr <= i1; i += kMr) {
    if (carry.rows != nullptr) tile.rows = carry.rows + (i - i0) * kNr;
    micro_tile<kMr, kTransposedA, kFused>(a, i, lda, bpanel, ldb, cpanel, ldc, k, nr,
                                          accumulate, ep, tile);
  }
  if (carry.rows != nullptr) tile.rows = carry.rows + (i - i0) * kNr;
  switch (i1 - i) {
    case 3:
      micro_tile<3, kTransposedA, kFused>(a, i, lda, bpanel, ldb, cpanel, ldc, k, nr,
                                          accumulate, ep, tile);
      break;
    case 2:
      micro_tile<2, kTransposedA, kFused>(a, i, lda, bpanel, ldb, cpanel, ldc, k, nr,
                                          accumulate, ep, tile);
      break;
    case 1:
      micro_tile<1, kTransposedA, kFused>(a, i, lda, bpanel, ldb, cpanel, ldc, k, nr,
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
    tile_rows<kTransposedA, kFused>(a, lda, b + j, n, c + j, n, i0, i1, k, kNr,
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
    tile_rows<kTransposedA, kFused>(a, lda, packed.data(), kNr, c + j_end, n, i0, i1, k,
                                    tail, accumulate, ep);
  }
}

/// Packs `nr` rows of B (row stride ldb) over `kb` columns transposed into a
/// zero-padded [kb×kNr] block: packed[p·kNr + jj] = b[jj·ldb + p]. Rows
/// before `jj0` are left to the caller.
SUBFED_ALWAYS_INLINE void pack_nt_block(const float* b, std::size_t ldb, std::size_t nr,
                                        std::size_t kb, float* packed,
                                        std::size_t jj0 = 0) noexcept {
  for (std::size_t jj = jj0; jj < nr; ++jj) {
    const float* brow = b + jj * ldb;
    for (std::size_t p = 0; p < kb; ++p) packed[p * kNr + jj] = brow[p];
  }
  if (nr < kNr) {
    for (std::size_t p = 0; p < kb; ++p) std::fill_n(packed + p * kNr + nr, kNr - nr, 0.0f);
  }
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
      pack(b + j * k + p0, k, nr, kb, packed);
      const KCarry carry{carry_floats != 0 ? packed + kKc * kNr : nullptr, p0 != 0,
                         p0 + kb < k};
      tile_rows<false, false>(a + p0, k, packed, kNr, c + j, n, i0, i1, kb, nr, accumulate,
                              nullptr, carry);
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
SUBFED_AVX2_TARGET void pack_nt_block_avx2(const float* b, std::size_t ldb, std::size_t nr,
                                           std::size_t kb, float* packed) noexcept {
  const std::size_t p_end = kb - kb % 8;
  std::size_t jj = 0;
  for (; jj + 8 <= nr; jj += 8) {
    const float* src = b + jj * ldb;
    for (std::size_t p = 0; p < p_end; p += 8) {
      __m256 r[8];
      for (std::size_t q = 0; q < 8; ++q) r[q] = _mm256_loadu_ps(src + q * ldb + p);
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
      for (std::size_t q = 0; q < 8; ++q) packed[p * kNr + jj + q] = src[q * ldb + p];
    }
  }
  pack_nt_block(b, ldb, nr, kb, packed, jj);
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
  gemm_panel_nt_body(a, b, c, k, n, i0, i1, accumulate, pack_nt_block_avx2);
}
SUBFED_AVX2_TARGET void gemm_panel_nn_fused_avx2(const float* a, const float* b, float* c,
                                                 std::size_t lda, std::size_t k,
                                                 std::size_t n, std::size_t i0,
                                                 std::size_t i1, bool accumulate,
                                                 const GemmEpilogue& ep) {
  gemm_panel<false, true>(a, b, c, lda, k, n, i0, i1, accumulate, &ep);
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
  gemm_panel_nt_body(a, b, c, k, n, i0, i1, accumulate,
                     [](const float* bb, std::size_t ldb, std::size_t nr, std::size_t kb,
                        float* packed) { pack_nt_block(bb, ldb, nr, kb, packed); });
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
