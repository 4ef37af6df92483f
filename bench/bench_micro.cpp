// Engineering micro-benchmarks (google-benchmark): GEMM/conv throughput per
// compute device (naive vs blocked), mask operations, and the two aggregation
// rules (the DESIGN.md §4.2 counting-vs-strict-intersection ablation at the
// per-op level).
//
// The device GEMM matrix is the perf-trajectory record for the kernel layer;
// CI runs it as
//   ./bench_micro --benchmark_filter='GemmBackend|GemmDevice|ConvForward' \
//       --benchmark_out=BENCH_gemm.json --benchmark_out_format=json
// and uploads BENCH_gemm.json, so regressions show up run over run. The
// payload codec rows (BM_PayloadCodec, over BM_StateCopy) are gated the same
// way from BENCH_codec.json:
//   ./bench_micro --benchmark_filter='PayloadCodec|StateCopy' \
//       --benchmark_out=BENCH_codec.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include "comm/channel.h"
#include "core/aggregate.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/sgd.h"
#include "pruning/structured.h"
#include "pruning/unstructured.h"
#include "tensor/device.h"
#include "tensor/kernels.h"
#include "util/rng.h"

namespace subfed {
namespace {

const char* const kBackendNames[] = {"naive", "blocked"};

void BM_Gemm(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& x : a) x = static_cast<float>(rng.normal());
  for (auto& x : b) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

/// args: {size, device index} — the naive→blocked headline (acceptance:
/// blocked ≥ 3× at 128³).
void BM_GemmBackend(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Device& device = get_device(kBackendNames[state.range(1)]);
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& x : a) x = static_cast<float>(rng.normal());
  for (auto& x : b) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    device.gemm(GemmOp::kNN, a.data(), b.data(), c.data(), n, n, n, /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(device.name());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n * n * n);
}
BENCHMARK(BM_GemmBackend)->Args({128, 0})->Args({128, 1})->Args({256, 0})->Args({256, 1});

/// args: {size} — the blocked register-tiled panels called directly over the
/// planned row chunks, with no Device in between: the baseline BM_GemmDevice
/// prices the Device layer against.
void BM_GemmBackendRawPanels(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& x : a) x = static_cast<float>(rng.normal());
  for (auto& x : b) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    kern::run_row_chunks(n, kern::plan_chunks(n, 2 * n * n * n),
                         [&](std::size_t i0, std::size_t i1) {
                           kern::gemm_panel_nn(a.data(), b.data(), c.data(), /*lda=*/n, n, n,
                                               i0, i1, /*accumulate=*/false);
                         });
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n * n * n);
}
BENCHMARK(BM_GemmBackendRawPanels)->Arg(128);

/// args: {size} — GEMM routed through the blocked Device: against
/// BM_GemmBackendRawPanels this row prices the Device dispatch.
void BM_GemmDevice(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Device& dev = get_device("blocked");
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& x : a) x = static_cast<float>(rng.normal());
  for (auto& x : b) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    dev.gemm(GemmOp::kNN, a.data(), b.data(), c.data(), n, n, n, /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(dev.name());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * n * n * n);
}
BENCHMARK(BM_GemmDevice)->Arg(128)->Arg(256);

/// args: {device index, kept channels m} — conv1's weight-gradient GEMM shape
/// in a LeNet-5 train step at batch 10, dW[m×75] += dY[m×7840]·colsᵀ, run as
/// a plain kNT GEMM over a materialized 75×7840 B (the layer itself reads B
/// from the image; see BM_ConvForwardConv1).
/// m = 6 is the dense layer, m = 1 a client compacted to one channel. One
/// math thread, as inside a federation's client task.
void BM_GemmBackendWeightGrad(benchmark::State& state) {
  const std::size_t prev_threads = math_threads();
  set_math_threads(1);
  const Device& device = get_device(kBackendNames[state.range(0)]);
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t k = 7840, n = 75;
  Rng rng(1);
  std::vector<float> dy(m * k), cols(n * k), dw(m * n, 0.0f);
  for (auto& x : dy) x = static_cast<float>(rng.normal());
  for (auto& x : cols) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    device.gemm(GemmOp::kNT, dy.data(), cols.data(), dw.data(), m, k, n,
                /*accumulate=*/true);
    benchmark::DoNotOptimize(dw.data());
  }
  set_math_threads(prev_threads);
  state.SetLabel(device.name() + "/m" + std::to_string(m));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 * m * k * n);
}
BENCHMARK(BM_GemmBackendWeightGrad)->Args({0, 6})->Args({1, 6})->Args({0, 1})->Args({1, 1});

void BM_LeNetForward(benchmark::State& state) {
  Rng rng(2);
  Model model = ModelSpec::lenet5(10).build_init(rng);
  Tensor batch({10, 3, 32, 32});
  batch.fill_normal(rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor out = model.forward(batch, /*train=*/false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_LeNetForward);

/// args: {device index} — whole-model forward through each device's conv
/// path (implicit GEMM on blocked, unrolled on naive).
void BM_ConvForwardBackend(benchmark::State& state) {
  Rng rng(2);
  ModelSpec spec = ModelSpec::lenet5(10);
  spec.backend = kBackendNames[state.range(0)];
  Model model = spec.build_init(rng);
  Tensor batch({10, 3, 32, 32});
  batch.fill_normal(rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor out = model.forward(batch, /*train=*/false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(spec.backend);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_ConvForwardBackend)->Arg(0)->Arg(1);

/// args: {fused} — whole-model eval forward (blocked backend) with the
/// conv→bn→relu epilogue fused into the GEMM store-back vs the layer-by-layer
/// chain. The two are bit-identical; the fused row should never be slower.
void BM_ConvForwardFused(benchmark::State& state) {
  Rng rng(2);
  ModelSpec spec = ModelSpec::lenet5(10);
  spec.backend = "blocked";
  Model model = spec.build_init(rng);
  model.set_fusion(state.range(0) != 0);
  Tensor batch({10, 3, 32, 32});
  batch.fill_normal(rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor out = model.forward(batch, /*train=*/false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(state.range(0) != 0 ? "fused" : "unfused");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_ConvForwardFused)->Arg(0)->Arg(1);

/// args: {compacted} — LeNet-5's conv2→bn2→relu→pool train-mode forward +
/// backward at batch 10 (blocked backend) under a steady-state hybrid channel
/// mask keeping 2 of 6 conv1 and 9 of 16 conv2 channels: the masked
/// full-width chain vs the same chain compacted to the kept channels
/// (Model::set_kept_channels). The two are bit-identical. One math thread,
/// as in a federation, where each client trains inside one pool task.
void BM_ConvForwardBackwardCompacted(benchmark::State& state) {
  const std::size_t prev_threads = math_threads();
  set_math_threads(1);
  Rng rng(2);
  ModelSpec spec = ModelSpec::lenet5(10);
  spec.backend = "blocked";
  Model model = spec.build_init(rng);
  ChannelMask mask = ChannelMask::ones_like(model);
  mask.block(0) = {1, 0, 0, 1, 0, 0};
  for (std::size_t c = 0; c < 16; ++c) mask.block(1)[c] = c < 9 ? 1 : 0;
  mask.to_model_mask(model).apply_to_weights(model);
  if (state.range(0) != 0) model.set_kept_channels(mask.blocks());

  // conv2's input: the batch through conv1→bn1→relu→pool (layers 0–3).
  Tensor x({10, 3, 32, 32});
  x.fill_normal(rng, 0.0f, 1.0f);
  for (std::size_t i = 0; i < 4; ++i) x = model.layer(i).forward(x, /*train=*/true);
  constexpr std::size_t kFirst = 4, kLast = 8;  // conv2, bn2, relu, pool
  for (auto _ : state) {
    Tensor y = x;
    for (std::size_t i = kFirst; i < kLast; ++i) y = model.layer(i).forward(y, /*train=*/true);
    Tensor g(y.shape(), 1.0f);
    for (std::size_t i = kLast; i-- > kFirst;) g = model.layer(i).backward(g);
    benchmark::DoNotOptimize(g.data());
  }
  set_math_threads(prev_threads);
  state.SetLabel(state.range(0) != 0 ? "compacted" : "masked");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_ConvForwardBackwardCompacted)->Arg(0)->Arg(1);

/// args: {compacted} — one whole LeNet-5 train step at batch 10 (train
/// forward, softmax-CE, Model::backward, Sgd::step) on one thread (blocked
/// backend), under BM_ConvForwardBackwardCompacted's 2/9 channel mask: masked
/// at full width vs compacted to the kept channels. Unlike the conv2 block row
/// this prices what the step spends outside the pruned GEMMs (conv1's weight
/// gradient, the optimizer, activations), which compaction cannot shrink.
void BM_ConvForwardTrainStep(benchmark::State& state) {
  const std::size_t prev_threads = math_threads();
  set_math_threads(1);
  Rng rng(2);
  ModelSpec spec = ModelSpec::lenet5(10);
  spec.backend = "blocked";
  Model model = spec.build_init(rng);
  ChannelMask mask = ChannelMask::ones_like(model);
  mask.block(0) = {1, 0, 0, 1, 0, 0};
  for (std::size_t c = 0; c < 16; ++c) mask.block(1)[c] = c < 9 ? 1 : 0;
  mask.to_model_mask(model).apply_to_weights(model);
  if (state.range(0) != 0) model.set_kept_channels(mask.blocks());
  Sgd optimizer(model.parameters(), SgdConfig{});

  Tensor x({10, 3, 32, 32});
  x.fill_normal(rng, 0.0f, 1.0f);
  std::vector<std::int32_t> labels(10);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<std::int32_t>(i);
  for (auto _ : state) {
    Tensor logits = model.forward(x, /*train=*/true);
    model.backward(softmax_cross_entropy(logits, labels).grad_logits);
    optimizer.step();
    benchmark::DoNotOptimize(logits.data());
  }
  set_math_threads(prev_threads);
  state.SetLabel(state.range(0) != 0 ? "compacted" : "masked");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_ConvForwardTrainStep)->Arg(0)->Arg(1);

/// args: {mode, kept channels} — LeNet-5's conv1 (3→6, 5×5, 32×32 input)
/// alone on the blocked device at one math thread, as inside a federation's
/// client task, with 6 (full) or 1 kept output channel. mode 0 is the train
/// step's forward + weight/bias gradient at batch 10 (conv1's input gradient
/// is never read); mode 1 is the eval forward at batch 64. The implicit GEMM
/// reads the image in place, so both should scale with the kept channels.
void BM_ConvForwardConv1(benchmark::State& state) {
  const std::size_t prev_threads = math_threads();
  set_math_threads(1);
  const bool train = state.range(0) == 0;
  const std::size_t kept = static_cast<std::size_t>(state.range(1));
  Rng rng(2);
  Conv2d conv("conv1", 3, 6, 5);
  conv.init(rng);
  conv.set_device(&get_device("blocked"));
  conv.set_input_grad(false);
  if (kept < 6) conv.set_kept_channels({}, {0});
  const std::size_t batch = train ? 10 : 64;
  Tensor x({batch, 3, 32, 32});
  x.fill_normal(rng, 0.0f, 1.0f);
  Tensor grad({batch, kept, 28, 28}, 1.0f);
  for (auto _ : state) {
    Tensor y = conv.forward(x, train);
    if (train) conv.backward(grad);
    benchmark::DoNotOptimize(y.data());
  }
  set_math_threads(prev_threads);
  state.SetLabel(std::string(train ? "train_b10" : "eval_b64") + "/kept" +
                 std::to_string(kept));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ConvForwardConv1)->Args({0, 6})->Args({0, 1})->Args({1, 6})->Args({1, 1});

void BM_MagnitudeMaskDerivation(benchmark::State& state) {
  Rng rng(3);
  Model model = ModelSpec::lenet5(10).build_init(rng);
  ModelMask mask = ModelMask::ones_like(model, MaskScope::kAllPrunable);
  for (auto _ : state) {
    ModelMask next = derive_magnitude_mask(model, mask, 0.5);
    benchmark::DoNotOptimize(&next);
  }
}
BENCHMARK(BM_MagnitudeMaskDerivation);

void BM_SubFedAvgAggregate(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  Model model = ModelSpec::lenet5(10).build_init(rng);
  const StateDict global = model.state();

  std::vector<ClientUpdate> updates(clients);
  for (std::size_t k = 0; k < clients; ++k) {
    Rng crng = rng.split("client", k);
    Model m = ModelSpec::lenet5(10).build_init(crng);
    ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
    mask = derive_magnitude_mask(m, mask, 0.5);
    updates[k] = {m.state(), mask, 500};
  }
  const bool strict = state.range(1) != 0;
  for (auto _ : state) {
    StateDict out = strict ? sub_fedavg_aggregate_strict(updates, global)
                           : sub_fedavg_aggregate(updates, global);
    benchmark::DoNotOptimize(&out);
  }
}
BENCHMARK(BM_SubFedAvgAggregate)
    ->Args({5, 0})
    ->Args({10, 0})
    ->Args({10, 1});

/// A LeNet-5 state (62,094 scalars) and a fixed random mask keeping 10% of
/// every prunable weight: the shape of a wide_cohort Sub-FedAvg (Un) 0.9
/// client's upload.
struct CodecCase {
  StateDict state;
  ModelMask mask;
};

const CodecCase& codec_case() {
  static const CodecCase fixed = [] {
    Rng rng(1);
    Model model = ModelSpec::lenet5(10).build_init(rng);
    CodecCase out{model.state(), {}};
    Rng pick(2);
    for (const auto& [name, ones] : ModelMask::ones_like(model, MaskScope::kAllPrunable)) {
      Tensor keep(ones.shape());
      for (std::size_t i = 0; i < keep.numel(); ++i) keep[i] = pick.bernoulli(0.1) ? 1.0f : 0.0f;
      out.mask.set(name, std::move(keep));
    }
    return out;
  }();
  return fixed;
}

/// One masked payload encode, or one decode that also recovers the mask (what
/// the server does with every upload).
void BM_PayloadCodec(benchmark::State& state, bool decode, QuantCodec codec) {
  const CodecCase& fixed = codec_case();
  const std::vector<std::uint8_t> bytes = encode_payload(fixed.state, &fixed.mask, codec);
  for (auto _ : state) {
    if (decode) {
      ModelMask mask;
      StateDict out = decode_payload(bytes, &mask);
      benchmark::DoNotOptimize(&out);
    } else {
      std::vector<std::uint8_t> out = encode_payload(fixed.state, &fixed.mask, codec);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK_CAPTURE(BM_PayloadCodec, encode/none, false, QuantCodec::kNone);
BENCHMARK_CAPTURE(BM_PayloadCodec, encode/int8, false, QuantCodec::kInt8);
BENCHMARK_CAPTURE(BM_PayloadCodec, decode/none, true, QuantCodec::kNone);
BENCHMARK_CAPTURE(BM_PayloadCodec, decode/int8, true, QuantCodec::kInt8);

/// A copy of the same StateDict: the host-neutral denominator of the codec
/// gates (one pass over every value, no codec work).
void BM_StateCopy(benchmark::State& state) {
  const CodecCase& fixed = codec_case();
  for (auto _ : state) {
    StateDict copy = fixed.state;
    benchmark::DoNotOptimize(&copy);
  }
}
BENCHMARK(BM_StateCopy);

}  // namespace
}  // namespace subfed

BENCHMARK_MAIN();
