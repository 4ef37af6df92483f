// Cross-device equivalence and determinism of the three kernel sets.
//
// The naive device (the seed's reference kernels) is the oracle: blocked and
// sparse must match it on every GEMM variant over odd/rectangular shapes,
// zero-dimension edges, and pruning-masked (mostly-zero) operands. Devices
// may differ from the oracle by floating-point contraction only, so
// comparisons use a tight relative tolerance; a FIXED device across
// different math_threads values must be bit-identical — threading never
// reorders any output element's accumulation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/model_zoo.h"
#include "nn/sgd.h"
#include "nn/trainer.h"
#include "tensor/device.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {
namespace {

// The pool must have several workers even on single-core CI runners or the
// math_threads determinism tests would never actually fan out. Runs before
// main(), i.e. before anything touches ThreadPool::global().
const bool kPoolEnvReady = [] {
  setenv("SUBFEDAVG_THREADS", "4", /*overwrite=*/0);
  return true;
}();

/// |got - want| within contraction-level error for a length-k reduction.
void expect_close(const std::vector<float>& want, const std::vector<float>& got,
                  const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double tol = 1e-4 * (1.0 + std::abs(static_cast<double>(want[i])));
    ASSERT_NEAR(want[i], got[i], tol) << label << " at " << i;
  }
}

std::vector<float> random_matrix(Rng& rng, std::size_t size, double density = 1.0) {
  std::vector<float> out(size);
  for (auto& x : out) {
    x = rng.bernoulli(density) ? static_cast<float>(rng.normal()) : 0.0f;
  }
  return out;
}

struct GemmCase {
  std::size_t m, k, n;
};

const GemmCase kShapes[] = {{1, 1, 1},   {3, 5, 7},    {4, 16, 16},  {5, 17, 33},
                            {13, 31, 63}, {64, 64, 64}, {10, 400, 120}};

const GemmOp kOps[] = {GemmOp::kNN, GemmOp::kTN, GemmOp::kNT};

/// The operand that carries the pruning mask: A for nn/tn, B for nt.
WeightSide masked_side(int variant) { return variant == 2 ? WeightSide::kB : WeightSide::kA; }

/// C before a GEMM: accumulate targets start from a fixed nonzero pattern so
/// C += is exercised.
std::vector<float> initial_c(std::size_t size, bool accumulate) {
  std::vector<float> c(size);
  for (std::size_t i = 0; i < c.size(); ++i) {
    c[i] = accumulate ? 0.25f * static_cast<float>(i % 7) : -99.0f;
  }
  return c;
}

/// Runs one variant on one device. A/B are sized/laid out per variant:
/// nn: A[m×k], B[k×n] · tn: A[k×m], B[k×n] · nt: A[m×k], B[n×k]. The masked
/// operand is named as the weight side with uid 0, so the sparse device
/// scans it on every call and runs its CSR kernels when it is sparse enough.
std::vector<float> run_variant(const Device& device, int variant,
                               const std::vector<float>& a, const std::vector<float>& b,
                               const GemmCase& shape, bool accumulate, WeightSide masked) {
  std::vector<float> c = initial_c(shape.m * shape.n, accumulate);
  device.gemm(kOps[variant], a.data(), b.data(), c.data(), shape.m, shape.k, shape.n,
              accumulate, masked);
  return c;
}

void compare_backends_over(double density) {
  const Device& naive = get_device("naive");
  Rng rng(density < 1.0 ? 7 : 3);
  for (const GemmCase& shape : kShapes) {
    for (int variant = 0; variant < 3; ++variant) {
      const std::size_t a_size = shape.m * shape.k;  // same numel for tn ([k×m])
      const std::size_t b_size = variant == 2 ? shape.n * shape.k : shape.k * shape.n;
      // The weight-side operand carries the mask: A for nn/tn, B for nt.
      std::vector<float> a = random_matrix(rng, a_size, variant == 2 ? 1.0 : density);
      std::vector<float> b = random_matrix(rng, b_size, variant == 2 ? density : 1.0);
      for (const bool accumulate : {false, true}) {
        const WeightSide masked = masked_side(variant);
        const std::vector<float> want =
            run_variant(naive, variant, a, b, shape, accumulate, masked);
        for (const char* name : {"blocked", "sparse"}) {
          const std::vector<float> got =
              run_variant(get_device(name), variant, a, b, shape, accumulate, masked);
          expect_close(want, got,
                       std::string(name) + " variant " + std::to_string(variant) + " " +
                           std::to_string(shape.m) + "x" + std::to_string(shape.k) + "x" +
                           std::to_string(shape.n) + (accumulate ? " acc" : "") +
                           " density " + std::to_string(density));
        }
      }
    }
  }
}

TEST(BackendEquivalence, DenseOddAndRectangularShapes) { compare_backends_over(1.0); }

// 10% density forces the sparse device through its CSR kernels (threshold
// 0.25); 30% exercises its dense fallback path.
TEST(BackendEquivalence, MaskedWeightsSparseAndFallback) {
  compare_backends_over(0.10);
  compare_backends_over(0.30);
}

TEST(BackendEquivalence, SparseWeightOnBSideOfNN) {
  // Linear::backward's dX = dY·W puts the pruned matrix on the B side of an
  // nn GEMM; the sparse device must catch that case too.
  const Device& naive = get_device("naive");
  Rng rng(13);
  const GemmCase shape{10, 120, 400};
  const std::vector<float> a = random_matrix(rng, shape.m * shape.k, 1.0);
  const std::vector<float> b = random_matrix(rng, shape.k * shape.n, 0.1);
  for (const bool accumulate : {false, true}) {
    const std::vector<float> want =
        run_variant(naive, 0, a, b, shape, accumulate, WeightSide::kB);
    for (const char* name : {"blocked", "sparse"}) {
      expect_close(want,
                   run_variant(get_device(name), 0, a, b, shape, accumulate, WeightSide::kB),
                   std::string(name) + " nn sparse-B" + (accumulate ? " acc" : ""));
    }
  }
}

TEST(BackendEquivalence, ZeroDimensionEdges) {
  for (const char* name : {"naive", "blocked", "sparse"}) {
    const Device& device = get_device(name);
    std::vector<float> a(8, 1.0f), b(8, 1.0f);
    // k == 0: C is zeroed without accumulate, untouched with.
    std::vector<float> c(6, 5.0f);
    device.gemm(GemmOp::kNN, a.data(), b.data(), c.data(), 2, 0, 3, /*accumulate=*/false);
    for (const float x : c) EXPECT_EQ(x, 0.0f) << name;
    std::fill(c.begin(), c.end(), 5.0f);
    device.gemm(GemmOp::kTN, a.data(), b.data(), c.data(), 2, 0, 3, /*accumulate=*/true);
    for (const float x : c) EXPECT_EQ(x, 5.0f) << name;
    // m == 0 / n == 0: nothing written, nothing crashes.
    device.gemm(GemmOp::kNN, a.data(), b.data(), c.data(), 0, 4, 2, false);
    device.gemm(GemmOp::kNT, a.data(), b.data(), c.data(), 2, 4, 0, false);
  }
}

TEST(BackendRegistry, NamesResolveAndUnknownThrows) {
  EXPECT_EQ(get_device("naive").name(), "naive");
  EXPECT_EQ(get_device("blocked").name(), "blocked");
  EXPECT_EQ(get_device("sparse").name(), "sparse");
  EXPECT_TRUE(has_device("blocked"));
  EXPECT_FALSE(has_device("cublas"));
  EXPECT_THROW(get_device("cublas"), CheckError);
  const std::vector<std::string> names = list_devices();
  EXPECT_EQ(names.size(), 3u);
  // The process default must be a registered device (SUBFEDAVG_BACKEND may
  // legitimately select any of them).
  EXPECT_TRUE(has_device(default_device().name()));
}

// --- threading determinism --------------------------------------------------

TEST(BackendDeterminism, MathThreadsNeverChangeGemmBits) {
  // Big enough to clear the parallel-dispatch threshold (2·m·k·n ≥ 2^21).
  const GemmCase shape{256, 96, 64};
  Rng rng(11);
  for (const char* name : {"blocked", "sparse"}) {
    const Device& device = get_device(name);
    for (int variant = 0; variant < 3; ++variant) {
      const std::vector<float> a = random_matrix(rng, shape.m * shape.k, 0.5);
      const std::vector<float> b =
          random_matrix(rng, variant == 2 ? shape.n * shape.k : shape.k * shape.n, 0.5);
      const WeightSide masked = masked_side(variant);
      set_math_threads(1);
      const std::vector<float> single = run_variant(device, variant, a, b, shape, false, masked);
      set_math_threads(4);
      const std::vector<float> pooled = run_variant(device, variant, a, b, shape, false, masked);
      set_math_threads(0);
      for (std::size_t i = 0; i < single.size(); ++i) {
        ASSERT_EQ(single[i], pooled[i])
            << name << " variant " << variant << " diverges at " << i;
      }
    }
  }
}

TEST(BackendDeterminism, MathThreadsNeverChangeTrainingBits) {
  const auto train_states = [](std::size_t threads) {
    set_math_threads(threads);
    ModelSpec spec = ModelSpec::cnn5(10);
    spec.backend = "blocked";
    Rng init(21);
    Model model = spec.build_init(init);
    Rng data_rng(22);
    Tensor images({20, 1, 28, 28});
    images.fill_normal(data_rng, 0.0f, 1.0f);
    std::vector<std::int32_t> labels(20);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<std::int32_t>(data_rng.uniform_index(10));
    }
    Sgd optimizer(model.parameters(), {});
    Rng train_rng(23);
    train_local(model, optimizer, images, labels, {2, 10}, train_rng);
    set_math_threads(0);
    return model.state();
  };
  const StateDict one = train_states(1);
  const StateDict four = train_states(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t e = 0; e < one.size(); ++e) {
    EXPECT_EQ(one[e].first, four[e].first);
    EXPECT_TRUE(one[e].second == four[e].second)
        << "tensor '" << one[e].first << "' differs between math_threads=1 and 4";
  }
}

// --- bitwise oracles of the blocked tiles -----------------------------------
//
// The blocked kernels give every output element one op chain: accumulate from
// zero in ascending k, then store C + acc (or acc). Two consequences are
// checked bit for bit, on the blocked device and on the sparse device with no
// weight operand (which runs the same dense panels): kNT(A, B) equals
// kNN(A, Bᵀ), and an m-row GEMM equals m stacked one-row GEMMs — so neither
// the tile height (4, or the 3/2/1 tail), nor nt's k-block split, nor the row
// chunking of math_threads changes a bit.

::testing::AssertionResult bitwise_equal(const std::vector<float>& want,
                                         const std::vector<float>& got) {
  if (want.size() != got.size()) return ::testing::AssertionFailure() << "size differs";
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(want[i]) != std::bit_cast<std::uint32_t>(got[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << want[i] << " vs " << got[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Epilogue over `m` rows with every term on, offset to start at `row`.
struct OracleEpilogue {
  std::vector<float> bias, mean, var, gamma, beta;

  OracleEpilogue(Rng& rng, std::size_t m)
      : bias(random_matrix(rng, m)), mean(random_matrix(rng, m)), var(m),
        gamma(random_matrix(rng, m)), beta(random_matrix(rng, m)) {
    for (float& v : var) v = 0.5f + static_cast<float>(rng.uniform());
  }
  GemmEpilogue at(std::size_t row) const {
    return GemmEpilogue{bias.data() + row, mean.data() + row, var.data() + row,
                        gamma.data() + row, beta.data() + row, 1e-5f, /*relu=*/true};
  }
};

constexpr const char* kOracleOps[] = {"nn", "tn", "nt", "fused"};

/// One GEMM of `op` (an index into kOracleOps) over m rows; `a` is laid out
/// for the op (tn: [k×m]), `b` is [k×n] except for nt ([n×k]).
void oracle_gemm(const Device& device, int op, const float* a, const float* b, float* c,
                 std::size_t m, std::size_t k, std::size_t n, bool accumulate,
                 const GemmEpilogue* ep) {
  const GemmOp ops[] = {GemmOp::kNN, GemmOp::kTN, GemmOp::kNT, GemmOp::kNN};
  device.gemm(ops[op], a, b, c, m, k, n, accumulate, WeightSide::kNone, 0, 0,
              op == 3 ? ep : nullptr);
}

/// Every row of `op` run as its own one-row GEMM.
std::vector<float> stacked_rows(const Device& device, int op, const std::vector<float>& a,
                                const std::vector<float>& b, std::size_t m, std::size_t k,
                                std::size_t n, bool accumulate, const OracleEpilogue& ep) {
  std::vector<float> c = initial_c(m * n, accumulate);
  std::vector<float> column(k);
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = a.data() + i * k;
    if (op == 1) {  // tn: row i of op(A) is column i of the stored [k×m] A
      for (std::size_t p = 0; p < k; ++p) column[p] = a[p * m + i];
      row = column.data();
    }
    const GemmEpilogue row_ep = ep.at(i);
    oracle_gemm(device, op, row, b.data(), c.data() + i * n, 1, k, n, accumulate, &row_ep);
  }
  return c;
}

TEST(BackendBitwise, TileHeightsAndKBlocksKeepEachElementsOpChain) {
  const std::size_t kc = kern::kKc;
  const std::size_t depths[] = {1, kc - 1, kc, kc + 1, 3 * kc + 5, 7840};
  const std::size_t widths[] = {1, 15, 16, 17, 75};
  Rng rng(71);
  for (const std::size_t k : depths) {
    for (const std::size_t n : widths) {
      for (std::size_t m = 1; m <= 9; ++m) {
        const std::vector<float> a = random_matrix(rng, m * k);
        const std::vector<float> b = random_matrix(rng, k * n);  // [k×n], or [n×k] for nt
        std::vector<float> bt(k * n);                            // b read as [n×k], transposed
        for (std::size_t j = 0; j < n; ++j) {
          for (std::size_t p = 0; p < k; ++p) bt[p * n + j] = b[j * k + p];
        }
        const OracleEpilogue ep(rng, m);
        const GemmEpilogue full_ep = ep.at(0);
        for (const char* name : {"blocked", "sparse"}) {
          const Device& device = get_device(name);
          for (const bool accumulate : {false, true}) {
            for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
              set_math_threads(threads);
              const std::string shape = std::string(name) + " " + std::to_string(m) + "x" +
                                        std::to_string(k) + "x" + std::to_string(n) +
                                        (accumulate ? " acc" : "") + " threads " +
                                        std::to_string(threads);
              std::vector<float> nt = initial_c(m * n, accumulate);
              oracle_gemm(device, 2, a.data(), b.data(), nt.data(), m, k, n, accumulate,
                          nullptr);
              std::vector<float> nn_of_bt = initial_c(m * n, accumulate);
              oracle_gemm(device, 0, a.data(), bt.data(), nn_of_bt.data(), m, k, n,
                          accumulate, nullptr);
              ASSERT_TRUE(bitwise_equal(nn_of_bt, nt)) << "nt(A, B) vs nn(A, Bt) " << shape;
              for (int op = 0; op < 4; ++op) {
                std::vector<float> whole = initial_c(m * n, accumulate);
                oracle_gemm(device, op, a.data(), b.data(), whole.data(), m, k, n,
                            accumulate, &full_ep);
                ASSERT_TRUE(bitwise_equal(
                    stacked_rows(device, op, a, b, m, k, n, accumulate, ep), whole))
                    << kOracleOps[op] << " m rows vs m one-row GEMMs " << shape;
              }
            }
          }
        }
      }
    }
  }
  set_math_threads(0);
}

// --- implicit-GEMM convolution oracles ---------------------------------------
//
// Device::conv_forward and conv_weight_grad read the patch matrix straight
// from the NCHW input. The oracle unrolls it with im2col_strided and runs the
// blocked panels over it; the two must agree bit for bit — in-place and
// packed panels, overlapping row panels, padding, stride, every tail tile
// height, any batch and math_threads value.

struct ConvOracleCase {
  const char* name;
  ConvGeometry g;
  bool large_batch;  ///< also run at batch 64
};

const ConvOracleCase kConvOracleCases[] = {
    {"lenet conv1", {3, 32, 32, 5, 1, 0}, true},      // 28-wide rows: in-place panels
    {"lenet conv2", {6, 14, 14, 5, 1, 0}, true},      // out_w 10 < kNr: packed panels
    {"3x3 pad 1", {2, 9, 40, 3, 1, 1}, false},        // in-place interior, padded edges
    {"3x3 pad 1 stride 2", {3, 33, 33, 3, 2, 1}, false},
};

/// The unrolled reference: the batch's [patch × N·spatial] patch matrix.
std::vector<float> unrolled_patches(const std::vector<float>& x, std::size_t batch,
                                    const ConvGeometry& g) {
  const std::size_t spatial = g.out_h() * g.out_w(), cols = batch * spatial;
  const std::size_t in_plane = g.in_channels * g.in_h * g.in_w;
  std::vector<float> columns(g.patch_size() * cols);
  for (std::size_t n = 0; n < batch; ++n) {
    im2col_strided(x.data() + n * in_plane, g, columns.data(), cols, n * spatial);
  }
  return columns;
}

/// [m, N·spatial] → [N, m, spatial], adding `bias` the way the unfused conv
/// layer always did: src + b, skipped where b is zero.
std::vector<float> regrouped(const std::vector<float>& product, std::size_t m,
                             std::size_t batch, std::size_t spatial, const float* bias) {
  std::vector<float> out(product.size());
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t row = 0; row < m; ++row) {
      const float b = bias != nullptr ? bias[row] : 0.0f;
      for (std::size_t s = 0; s < spatial; ++s) {
        const float v = product[row * batch * spatial + n * spatial + s];
        out[(n * m + row) * spatial + s] = b == 0.0f ? v : v + b;
      }
    }
  }
  return out;
}

TEST(BackendBitwise, ImplicitConvMatchesUnrolledPanels) {
  Rng rng(81);
  for (const ConvOracleCase& cc : kConvOracleCases) {
    const ConvGeometry& g = cc.g;
    const std::size_t k = g.patch_size(), spatial = g.out_h() * g.out_w();
    const std::size_t in_plane = g.in_channels * g.in_h * g.in_w;
    for (const std::size_t batch : {std::size_t{1}, std::size_t{10}, std::size_t{64}}) {
      if (batch == 64 && !cc.large_batch) continue;
      const std::size_t cols = batch * spatial;
      const std::vector<float> x = random_matrix(rng, batch * in_plane);
      const std::vector<float> columns = unrolled_patches(x, batch, g);
      for (std::size_t m = 1; m <= 6; ++m) {
        const std::vector<float> w = random_matrix(rng, m * k);
        const std::vector<float> dy = random_matrix(rng, m * cols);
        OracleEpilogue ep(rng, m);
        ep.bias[m / 2] = 0.0f;  // a zero bias is skipped, not added
        const GemmEpilogue fused_ep = ep.at(0);
        GemmEpilogue bias_ep;
        bias_ep.bias = ep.bias.data();

        // References: the panels over the unrolled matrix.
        std::vector<float> product(m * cols);
        kern::gemm_panel_nn(w.data(), columns.data(), product.data(), k, k, cols, 0, m, false);
        const std::vector<float> want_plain = regrouped(product, m, batch, spatial, nullptr);
        const std::vector<float> want_bias =
            regrouped(product, m, batch, spatial, ep.bias.data());
        kern::gemm_panel_nn_fused(w.data(), columns.data(), product.data(), k, k, cols, 0, m,
                                  false, fused_ep);
        const std::vector<float> want_fused = regrouped(product, m, batch, spatial, nullptr);
        std::vector<float> dy_rows(m * cols);  // dY regrouped to [m, N·spatial]
        for (std::size_t n = 0; n < batch; ++n) {
          for (std::size_t row = 0; row < m; ++row) {
            std::copy_n(dy.data() + (n * m + row) * spatial, spatial,
                        dy_rows.data() + row * cols + n * spatial);
          }
        }
        std::vector<float> want_dw = initial_c(m * k, /*accumulate=*/true);
        kern::gemm_panel_nt(dy_rows.data(), columns.data(), want_dw.data(), cols, k, 0, m,
                            /*accumulate=*/true);

        for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
          set_math_threads(threads);
          for (const char* name : {"blocked", "sparse"}) {
            const Device& device = get_device(name);
            const std::string label = std::string(cc.name) + " " + name + " batch " +
                                      std::to_string(batch) + " m " + std::to_string(m) +
                                      " threads " + std::to_string(threads);
            std::vector<float> got(m * cols, -99.0f);
            device.conv_forward(w.data(), m, x.data(), batch, g, got.data(), nullptr, 0, 0);
            ASSERT_TRUE(bitwise_equal(want_plain, got)) << "plain forward " << label;
            device.conv_forward(w.data(), m, x.data(), batch, g, got.data(), &bias_ep, 0, 0);
            ASSERT_TRUE(bitwise_equal(want_bias, got)) << "bias forward " << label;
            device.conv_forward(w.data(), m, x.data(), batch, g, got.data(), &fused_ep, 0, 0);
            ASSERT_TRUE(bitwise_equal(want_fused, got)) << "fused forward " << label;
            std::vector<float> dw = initial_c(m * k, /*accumulate=*/true);
            device.conv_weight_grad(dy.data(), m, x.data(), batch, g, dw.data());
            ASSERT_TRUE(bitwise_equal(want_dw, dw)) << "weight gradient " << label;
          }
        }
        set_math_threads(0);
      }
    }
  }
}

// A 10%-dense filter bank sends the sparse device through CSR over the
// unrolled patches; its forward still gives the blocked implicit bits.
TEST(BackendBitwise, SparseCsrConvMatchesBlockedImplicit) {
  Rng rng(82);
  for (const ConvOracleCase& cc : kConvOracleCases) {
    const ConvGeometry& g = cc.g;
    const std::size_t batch = 10, k = g.patch_size();
    const std::size_t out_size = batch * g.out_h() * g.out_w();
    const std::vector<float> x = random_matrix(rng, batch * g.in_channels * g.in_h * g.in_w);
    for (std::size_t m = 1; m <= 6; ++m) {
      const std::vector<float> w = random_matrix(rng, m * k, 0.1);
      const OracleEpilogue ep(rng, m);
      const GemmEpilogue fused_ep = ep.at(0);
      GemmEpilogue bias_ep;
      bias_ep.bias = ep.bias.data();
      const GemmEpilogue* epilogues[] = {nullptr, &bias_ep, &fused_ep};
      for (const GemmEpilogue* epilogue : epilogues) {
        std::vector<float> blocked(m * out_size), sparse(m * out_size);
        get_device("blocked").conv_forward(w.data(), m, x.data(), batch, g, blocked.data(),
                                           epilogue, 0, 0);
        get_device("sparse").conv_forward(w.data(), m, x.data(), batch, g, sparse.data(),
                                          epilogue, 0, 0);
        ASSERT_TRUE(bitwise_equal(blocked, sparse)) << cc.name << " m " << m;
      }
    }
  }
}

// --- layer-level equivalence ------------------------------------------------

/// Forward + backward of one conv configuration on every device; outputs,
/// parameter gradients and input gradients must agree with naive.
void conv_all_backends(std::size_t in_c, std::size_t out_c, std::size_t hw,
                       std::size_t kernel, std::size_t stride, std::size_t pad,
                       double weight_density) {
  struct Pass {
    Tensor out, grad_in, dw, db;
  };
  const auto run = [&](const std::string& backend) {
    Rng rng(31);
    Conv2d conv("c", in_c, out_c, kernel, stride, pad);
    conv.init(rng);
    if (weight_density < 1.0) {
      Rng mask_rng(32);
      for (std::size_t i = 0; i < conv.weight().value.numel(); ++i) {
        if (!mask_rng.bernoulli(weight_density)) conv.weight().value[i] = 0.0f;
      }
    }
    conv.set_device(&get_device(backend));
    Tensor input({3, in_c, hw, hw});
    input.fill_normal(rng, 0.0f, 1.0f);
    Pass pass;
    pass.out = conv.forward(input, /*train=*/true);
    Tensor grad(pass.out.shape());
    grad.fill_normal(rng, 0.0f, 1.0f);
    pass.grad_in = conv.backward(grad);
    pass.dw = conv.weight().grad;
    pass.db = conv.bias().grad;
    return pass;
  };
  const Pass want = run("naive");
  for (const char* name : {"blocked", "sparse"}) {
    const Pass got = run(name);
    const std::string label = std::string("conv ") + name;
    expect_close({want.out.data(), want.out.data() + want.out.numel()},
                 {got.out.data(), got.out.data() + got.out.numel()}, label + " out");
    expect_close({want.grad_in.data(), want.grad_in.data() + want.grad_in.numel()},
                 {got.grad_in.data(), got.grad_in.data() + got.grad_in.numel()},
                 label + " grad_in");
    expect_close({want.dw.data(), want.dw.data() + want.dw.numel()},
                 {got.dw.data(), got.dw.data() + got.dw.numel()}, label + " dw");
    expect_close({want.db.data(), want.db.data() + want.db.numel()},
                 {got.db.data(), got.db.data() + got.db.numel()}, label + " db");
  }
}

TEST(BackendLayers, ConvAgreesAcrossBackends) {
  conv_all_backends(3, 6, 11, 5, 1, 0, 1.0);   // odd spatial, valid conv
  conv_all_backends(2, 4, 9, 3, 2, 1, 1.0);    // strided + padded
  conv_all_backends(3, 8, 12, 5, 1, 2, 0.15);  // masked weights → sparse path
}

TEST(BackendLayers, LinearAgreesAcrossBackends) {
  struct Pass {
    Tensor out, grad_in, dw, db;
  };
  const auto run = [&](const std::string& backend, double density) {
    Rng rng(41);
    Linear fc("f", 37, 23);
    fc.init(rng);
    if (density < 1.0) {
      Rng mask_rng(42);
      for (std::size_t i = 0; i < fc.weight().value.numel(); ++i) {
        if (!mask_rng.bernoulli(density)) fc.weight().value[i] = 0.0f;
      }
    }
    fc.set_device(&get_device(backend));
    Tensor input({5, 37});
    input.fill_normal(rng, 0.0f, 1.0f);
    Pass pass;
    pass.out = fc.forward(input, true);
    Tensor grad(pass.out.shape());
    grad.fill_normal(rng, 0.0f, 1.0f);
    pass.grad_in = fc.backward(grad);
    pass.dw = fc.weight().grad;
    pass.db = fc.bias().grad;
    return pass;
  };
  for (const double density : {1.0, 0.1}) {
    const Pass want = run("naive", density);
    for (const char* name : {"blocked", "sparse"}) {
      const Pass got = run(name, density);
      const std::string label = std::string("linear ") + name;
      expect_close({want.out.data(), want.out.data() + want.out.numel()},
                   {got.out.data(), got.out.data() + got.out.numel()}, label + " out");
      expect_close({want.grad_in.data(), want.grad_in.data() + want.grad_in.numel()},
                   {got.grad_in.data(), got.grad_in.data() + got.grad_in.numel()},
                   label + " grad_in");
      expect_close({want.dw.data(), want.dw.data() + want.dw.numel()},
                   {got.dw.data(), got.dw.data() + got.dw.numel()}, label + " dw");
      expect_close({want.db.data(), want.db.data() + want.db.numel()},
                   {got.db.data(), got.db.data() + got.db.numel()}, label + " db");
    }
  }
}

TEST(BackendLayers, BatchedIm2colMatchesPerSample) {
  const ConvGeometry g{2, 7, 7, 3, 1, 1};
  const std::size_t spatial = g.out_h() * g.out_w();
  const std::size_t batch = 3;
  Rng rng(51);
  std::vector<float> images(batch * g.in_channels * g.in_h * g.in_w);
  for (auto& x : images) x = static_cast<float>(rng.normal());

  std::vector<float> batched(g.patch_size() * batch * spatial);
  for (std::size_t n = 0; n < batch; ++n) {
    im2col_strided(images.data() + n * g.in_channels * g.in_h * g.in_w, g, batched.data(),
                   batch * spatial, n * spatial);
  }
  std::vector<float> single(g.patch_size() * spatial);
  for (std::size_t n = 0; n < batch; ++n) {
    im2col(images.data() + n * g.in_channels * g.in_h * g.in_w, g, single.data());
    for (std::size_t row = 0; row < g.patch_size(); ++row) {
      for (std::size_t s = 0; s < spatial; ++s) {
        ASSERT_EQ(single[row * spatial + s],
                  batched[row * batch * spatial + n * spatial + s])
            << "sample " << n << " row " << row << " col " << s;
      }
    }
  }
}

TEST(BackendPlumbing, ModelSpecBackendSelectionAndValidation) {
  ModelSpec spec = ModelSpec::lenet5(10);
  spec.backend = "naive";
  Rng rng(61);
  Model model = spec.build_init(rng);  // resolves the name; throws if unknown
  Tensor batch({2, 3, 32, 32});
  batch.fill_normal(rng, 0.0f, 1.0f);
  EXPECT_EQ(model.forward(batch, false).shape(), Shape({2, 10}));

  spec.backend = "no_such_backend";
  EXPECT_THROW(spec.build(), CheckError);
}

}  // namespace
}  // namespace subfed
