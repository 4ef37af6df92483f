// Internal kernel layer under the Device execution engine (device.cpp).
//
// The compute stack has two layers:
//
//   tensor/kernels.h  — raw register-tiled panels, the implicit-GEMM conv
//                       kernels + the row-chunk runner (this header; no
//                       state beyond the math-thread cap and per-thread L1
//                       packing scratch), beside the reference loops in
//                       tensor/gemm.h
//   tensor/device.h   — storage-owning devices: dispatch over the kernels,
//                       workspace pool, fused epilogues
//
// Determinism contract (inherited by every caller): each output element is
// accumulated in ascending-k order regardless of how row panels are chunked,
// so results are bit-identical for any math_threads value.
#pragma once

#include <algorithm>
#include <cstddef>

#include "tensor/gemm.h"
#include "util/thread_pool.h"

namespace subfed {

/// Fused post-GEMM epilogue, applied to each output element C[row, j] in the
/// register tile right before store-back (blocked kernels) or as a row-wise
/// post-pass (naive kernels — same scalar expressions, same bits):
///
///   y = C[row, j]
///   if bias   && bias[row] != 0:  y += bias[row]
///   if mean:                      y = gamma[row]·(y − mean[row])·rsqrt + beta[row]
///                                 with rsqrt = 1/sqrt(var[row] + eps)
///   if relu   && !(y > 0):        y = 0
///
/// These are exactly the scalar operations (and order) the unfused
/// Conv2d → BatchNorm2d(eval) → ReLU chain performs, so fused and unfused
/// eval forwards are bit-identical — tests/test_device.cpp pins this.
struct GemmEpilogue {
  const float* bias = nullptr;   ///< [m] conv bias, or nullptr
  const float* mean = nullptr;   ///< [m] bn running mean (all four or none)
  const float* var = nullptr;    ///< [m] bn running variance
  const float* gamma = nullptr;  ///< [m] bn scale
  const float* beta = nullptr;   ///< [m] bn shift
  float eps = 0.0f;
  bool relu = false;
};

namespace kern {

// Register-tile geometry of the blocked kernels (see kernels.cpp).
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 16;
/// Depth of one packed kNT block: [kKc×kNr] floats are 16 KB, so the block
/// stays in L1 while every row tile of the chunk streams it.
constexpr std::size_t kKc = 256;
/// Below this many FLOPs (2·m·k·n) a GEMM runs on the calling thread; pool
/// dispatch would cost more than it saves on LeNet-scale tiles.
constexpr std::size_t kMinParallelFlops = std::size_t{1} << 21;

/// Degenerate shapes every kernel handles up front: an empty output needs no
/// work; k == 0 means C is zeroed (or untouched when accumulating).
bool handle_trivial(float* c, std::size_t m, std::size_t k, std::size_t n,
                    bool accumulate) noexcept;

/// Row panels a GEMM of `flops` total work over `m` rows may fan out to,
/// given the current math-thread cap and pool size. It does not inspect the
/// calling thread; run_row_chunks checks the in-pool condition at execution
/// time.
std::size_t plan_chunks(std::size_t m, std::size_t flops) noexcept;

/// Runs fn(i_begin, i_end) over [0, m) split into `chunks` kMr-aligned
/// chunks. The alignment keeps the micro-kernel/edge-kernel boundary
/// independent of the chunk layout (see determinism note above). Inside a
/// pool task (client training fans over the same global pool) the pool is
/// saturated: queued panels would only be drained by this thread anyway, so
/// the fan-out collapses to sequential regardless of `chunks`.
template <typename Fn>
void run_row_chunks(std::size_t m, std::size_t chunks, const Fn& fn) {
  if (chunks <= 1 || ThreadPool::current_thread_in_pool()) {
    fn(0, m);
    return;
  }
  const std::size_t panels = (m + kMr - 1) / kMr;
  const std::size_t panels_per_chunk = (panels + chunks - 1) / chunks;
  ThreadPool::global().parallel_for(chunks, [&](std::size_t chunk) {
    const std::size_t i0 = chunk * panels_per_chunk * kMr;
    const std::size_t i1 = std::min(m, i0 + panels_per_chunk * kMr);
    if (i0 < m) fn(i0, i1);
  });
}

// --- dense panels (AVX2+FMA dispatched internally) --------------------------
// Rows [i0, i1) of C. nn/tn read B row-major [k×n]; nt reads B stored [n×k].
// A is row-major [m×k] for nn/nt and stored [k×m] for tn (lda = row stride).
// Rows come in kMr-high tiles; the m mod kMr leftover rows run as one 3-, 2-
// or 1-row tile. nt packs each kNr-column panel of B transposed one kKc-deep
// block at a time (8×8 in-register transposes on AVX2), runs every row tile
// against the block while it sits in L1, carries the tiles' accumulators
// across blocks in per-row scratch and writes C once after the last block.
// Every output element keeps one op chain whatever the tile height, block
// split or row chunking: accumulate from zero in ascending k, then store
// C + acc (or acc). So nt(A, B) equals nn(A, Bᵀ) bitwise, and an m-row GEMM
// equals m stacked one-row GEMMs (tests/test_backend.cpp pins both).

void gemm_panel_nn(const float* a, const float* b, float* c, std::size_t lda,
                   std::size_t k, std::size_t n, std::size_t i0, std::size_t i1,
                   bool accumulate);
void gemm_panel_tn(const float* a, const float* b, float* c, std::size_t lda,
                   std::size_t k, std::size_t n, std::size_t i0, std::size_t i1,
                   bool accumulate);
void gemm_panel_nt(const float* a, const float* b, float* c, std::size_t k, std::size_t n,
                   std::size_t i0, std::size_t i1, bool accumulate);

/// gemm_panel_nn with the epilogue applied inside the register tiles at
/// store-back — the fused conv→bn→activation path.
void gemm_panel_nn_fused(const float* a, const float* b, float* c, std::size_t lda,
                         std::size_t k, std::size_t n, std::size_t i0, std::size_t i1,
                         bool accumulate, const GemmEpilogue& ep);

/// Elementwise epilogue post-pass over rows [i0, i1) of C [m×n] — the same
/// per-element expressions as the fused store-back, for kernels that cannot
/// fuse (naive). Bit-identical to the fused path.
void apply_epilogue_rows(float* c, std::size_t n, std::size_t i0, std::size_t i1,
                         const GemmEpilogue& ep) noexcept;

// --- implicit-GEMM convolution ----------------------------------------------
// A conv's two weight-side GEMMs with the patch matrix of im2col_strided
// ([C·K·K × N·oh·ow], row p = (c, ky, kx), one column per output pixel) as
// their B operand — read straight from the NCHW input, never materialized.
// Forward panels of kNr pixels inside one stride-1 output row read the image
// rows in place through a per-k offset table; every other panel (padding,
// stride > 1, rows narrower than kNr) and every kNT k-block is packed from
// the image into L1 scratch. Both run on the calling thread through the
// register tiles above, so each output element keeps its op chain: the
// results equal im2col_strided followed by gemm_panel_nn(_fused) or
// gemm_panel_nt, bit for bit (tests/test_backend.cpp pins it).

/// out[N, m, oh, ow] = W[m × C·K·K] · patches(images[n]) for every sample,
/// then the epilogue (nullptr = none); row = output channel.
void conv_forward(const float* w, std::size_t m, const float* images, std::size_t batch,
                  const ConvGeometry& g, float* out, const GemmEpilogue* ep);

/// dw[m × C·K·K] += Σ_n dy[n] · patches(images[n])ᵀ with dy [N, m, oh, ow]:
/// each element sums the batch's pixels in ascending order from zero, then
/// adds to dw once.
void conv_weight_grad(const float* dy, std::size_t m, const float* images, std::size_t batch,
                      const ConvGeometry& g, float* dw);

}  // namespace kern
}  // namespace subfed
