// Channel compaction (nn/compact.h, Model::set_kept_channels): a model run on
// its kept channels only is bit-identical to the same model with the channel
// mask applied to its weights at full width — logits, every parameter
// gradient after the gradient mask, BatchNorm running statistics, fused and
// unfused eval, and the weights after SGD steps — on every device and
// math_threads value. Compacted ≡ masked is a bitwise contract, not a
// tolerance: compaction drops only exact-zero terms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/sgd.h"
#include "pruning/structured.h"
#include "pruning/unstructured.h"
#include "tensor/device.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {
namespace {

// Several pool workers even on single-core runners, so math_threads=4
// actually fans out. Runs before anything touches ThreadPool::global().
const bool kPoolEnvReady = [] {
  setenv("SUBFEDAVG_THREADS", "4", /*overwrite=*/0);
  return true;
}();

struct Net {
  const char* name;
  ModelSpec spec;
};

const Net kNets[] = {{"cnn5", ModelSpec::cnn5(10)},
                     {"lenet5", ModelSpec::lenet5(10)},
                     {"cnn_deep", ModelSpec::cnn_deep(10)}};

enum class MaskKind { kRandom, kOneKept, kAllKept };

const char* mask_name(MaskKind kind) {
  switch (kind) {
    case MaskKind::kRandom: return "random";
    case MaskKind::kOneKept: return "one-kept";
    case MaskKind::kAllKept: return "all-kept";
  }
  return "?";
}

ChannelMask make_channel_mask(const Model& model, MaskKind kind, Rng& rng) {
  ChannelMask mask = ChannelMask::ones_like(model);
  if (kind == MaskKind::kAllKept) return mask;
  for (std::size_t b = 0; b < mask.num_blocks(); ++b) {
    std::vector<std::uint8_t>& keep = mask.block(b);
    if (kind == MaskKind::kOneKept) {
      std::fill(keep.begin(), keep.end(), 0);
      keep[rng.uniform_index(keep.size())] = 1;
      continue;
    }
    for (auto& k : keep) k = rng.bernoulli(0.5) ? 1 : 0;
    keep[rng.uniform_index(keep.size())] = 1;  // blocks stay alive
  }
  return mask;
}

/// A model with nonzero biases, BN affine terms and running statistics, so
/// every gathered term carries information.
Model make_model(const ModelSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  Model model = spec.build_init(rng);
  Rng jitter = rng.split("jitter", 0);
  for (Parameter* p : model.parameters()) {
    if (p->name.find(".bias") != std::string::npos || p->name.find(".beta") != std::string::npos) {
      p->value.fill_normal(jitter, 0.0f, 0.1f);
    } else if (p->name.find(".gamma") != std::string::npos) {
      p->value.fill_normal(jitter, 1.0f, 0.3f);
    }
  }
  Tensor warm({4, spec.in_channels, spec.input_hw, spec.input_hw});
  warm.fill_normal(jitter, 0.0f, 1.0f);
  model.forward(warm, /*train=*/true);  // moves BN running stats off their init
  return model;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

void expect_same_entries(const std::vector<Parameter*>& masked,
                         const std::vector<Parameter*>& compacted, bool grads,
                         const std::string& label) {
  ASSERT_EQ(masked.size(), compacted.size());
  for (std::size_t i = 0; i < masked.size(); ++i) {
    const Tensor& a = grads ? masked[i]->grad : masked[i]->value;
    const Tensor& b = grads ? compacted[i]->grad : compacted[i]->value;
    EXPECT_TRUE(same_bits(a, b)) << label << ": " << masked[i]->name
                                 << (grads ? " grad" : " value");
  }
}

/// One training step as the Sub-FedAvg client takes it: forward, backward,
/// gradient mask, optional SGD step. Returns the logits.
Tensor train_step(Model& model, const Tensor& batch, const std::vector<std::int32_t>& labels,
                  const ModelMask& mask, Sgd* optimizer) {
  Tensor logits = model.forward(batch, /*train=*/true);
  model.backward(softmax_cross_entropy(logits, labels).grad_logits);
  mask.apply_to_grads(model);
  if (optimizer != nullptr) optimizer->step();
  return logits;
}

TEST(Compaction, BitIdenticalToMaskingAcrossNetsDevicesThreadsAndEval) {
  const std::size_t prev_threads = math_threads();
  std::size_t compacted_cases = 0;
  for (const Net& net : kNets) {
    for (const char* backend : {"naive", "blocked"}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const MaskKind kind : {MaskKind::kRandom, MaskKind::kOneKept, MaskKind::kAllKept}) {
          set_math_threads(threads);
          const std::string label = std::string(net.name) + "/" + backend + "/t" +
                                    std::to_string(threads) + "/" + mask_name(kind);
          ModelSpec spec = net.spec;
          spec.backend = backend;
          Model masked = make_model(spec, 31);
          Model compacted = make_model(spec, 31);

          // Hybrid-style mask: channels plus an unstructured FC mask, so both
          // paths see low-density weights.
          Rng rng(41 + static_cast<std::uint64_t>(kind));
          const ChannelMask channels = make_channel_mask(masked, kind, rng);
          ModelMask fc = ModelMask::ones_like(masked, MaskScope::kFcOnly);
          fc = derive_magnitude_mask(masked, fc, 0.7);
          const ModelMask mask = channels.to_model_mask(masked).intersected(fc);
          mask.apply_to_weights(masked);
          mask.apply_to_weights(compacted);
          compacted.set_kept_channels(channels.blocks());
          if (kind != MaskKind::kAllKept) ++compacted_cases;

          Tensor batch({5, spec.in_channels, spec.input_hw, spec.input_hw});
          batch.fill_normal(rng, 0.0f, 1.0f);
          std::vector<std::int32_t> labels(5);
          for (auto& y : labels) y = static_cast<std::int32_t>(rng.uniform_index(10));

          const Tensor want = train_step(masked, batch, labels, mask, nullptr);
          const Tensor got = train_step(compacted, batch, labels, mask, nullptr);
          EXPECT_TRUE(same_bits(want, got)) << label << ": train logits";
          expect_same_entries(masked.parameters(), compacted.parameters(), true, label);
          expect_same_entries(masked.buffers(), compacted.buffers(), false,
                              label + " running stats");

          masked.zero_grad();
          compacted.zero_grad();
          SgdConfig sgd;
          sgd.lr = 0.05f;
          sgd.momentum = 0.5f;
          sgd.weight_decay = 1e-3f;
          Sgd masked_opt(masked.parameters(), sgd);
          Sgd compacted_opt(compacted.parameters(), sgd);
          for (int step = 0; step < 3; ++step) {
            train_step(masked, batch, labels, mask, &masked_opt);
            train_step(compacted, batch, labels, mask, &compacted_opt);
          }
          expect_same_entries(masked.parameters(), compacted.parameters(), false,
                              label + " after 3 SGD steps");
          expect_same_entries(masked.buffers(), compacted.buffers(), false,
                              label + " running stats after 3 steps");

          for (const bool fused : {false, true}) {
            masked.set_fusion(fused);
            compacted.set_fusion(fused);
            EXPECT_TRUE(same_bits(masked.forward(batch, /*train=*/false),
                                  compacted.forward(batch, /*train=*/false)))
                << label << (fused ? ": fused" : ": unfused") << " eval logits";
          }
        }
      }
    }
  }
  set_math_threads(prev_threads);
  EXPECT_EQ(compacted_cases, 3u * 2u * 2u * 2u);
}

/// A Model's first layer computes no input gradient (Layer::set_input_grad).
/// Against a hand-driven layer chain whose first Conv2d still computes dX,
/// every parameter gradient and the weights after 3 SGD steps match bit for
/// bit — masked and compacted, on every device.
TEST(FirstLayerInputGrad, SkippingItChangesNoGradientOrWeight) {
  std::size_t cases = 0;
  for (const Net& net : kNets) {
    for (const char* backend : {"naive", "blocked"}) {
      for (const bool compact : {false, true}) {
        const std::string label = std::string(net.name) + "/" + backend +
                                  (compact ? "/compacted" : "/full");
        ModelSpec spec = net.spec;
        spec.backend = backend;
        Model model = make_model(spec, 81);
        Model chain = make_model(spec, 81);
        ASSERT_FALSE(model.layer(0).input_grad()) << label;
        ASSERT_TRUE(model.layer(1).input_grad()) << label;
        chain.layer(0).set_input_grad(true);

        Rng rng(82);
        const ChannelMask channels = make_channel_mask(model, MaskKind::kRandom, rng);
        const ModelMask mask = channels.to_model_mask(model);
        mask.apply_to_weights(model);
        mask.apply_to_weights(chain);
        if (compact) {
          model.set_kept_channels(channels.blocks());
          chain.set_kept_channels(channels.blocks());
        }
        Tensor batch({5, spec.in_channels, spec.input_hw, spec.input_hw});
        batch.fill_normal(rng, 0.0f, 1.0f);
        std::vector<std::int32_t> labels(5);
        for (auto& y : labels) y = static_cast<std::int32_t>(rng.uniform_index(10));

        SgdConfig sgd;
        sgd.lr = 0.05f;
        sgd.weight_decay = 1e-3f;
        Sgd model_opt(model.parameters(), sgd);
        Sgd chain_opt(chain.parameters(), sgd);
        for (int step = 0; step < 3; ++step) {
          const std::string at = label + " step " + std::to_string(step);
          model.backward(
              softmax_cross_entropy(model.forward(batch, /*train=*/true), labels).grad_logits);
          Tensor g =
              softmax_cross_entropy(chain.forward(batch, /*train=*/true), labels).grad_logits;
          for (std::size_t i = chain.num_layers(); i-- > 0;) g = chain.layer(i).backward(g);
          EXPECT_EQ(g.shape(), batch.shape()) << at << ": chain conv1 dX";
          mask.apply_to_grads(model);
          mask.apply_to_grads(chain);
          expect_same_entries(chain.parameters(), model.parameters(), true, at);
          model_opt.step();
          chain_opt.step();
        }
        expect_same_entries(chain.parameters(), model.parameters(), false,
                            label + " after 3 SGD steps");

        Tensor g = softmax_cross_entropy(model.forward(batch, /*train=*/true), labels).grad_logits;
        for (std::size_t i = model.num_layers(); i-- > 1;) g = model.layer(i).backward(g);
        EXPECT_TRUE(model.layer(0).backward(g).empty()) << label;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 3u * 2u * 2u);
}

/// Output shape of every layer of `model` on `x`, in eval mode.
std::vector<Shape> layer_shapes(Model& model, Tensor x) {
  std::vector<Shape> shapes;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    x = model.layer(i).forward(x, /*train=*/false);
    shapes.push_back(x.shape());
  }
  return shapes;
}

TEST(Compaction, LayersRunOnKeptChannelsOnly) {
  Model model = make_model(ModelSpec::lenet5(10), 51);
  ChannelMask mask = ChannelMask::ones_like(model);
  mask.block(0) = {0, 1, 0, 0, 1, 0};  // conv1 keeps 2 of 6
  for (std::size_t c = 0; c < 16; ++c) mask.block(1)[c] = c % 8 == 3 ? 1 : 0;  // conv2 2 of 16
  Rng rng(52);
  Tensor x({2, 3, 32, 32});
  x.fill_normal(rng, 0.0f, 1.0f);

  // conv1→bn1→relu→pool carry 2 channels, conv2→…→flatten 2 channels of
  // 5×5 into fc1; the FC head is unchanged.
  model.set_kept_channels(mask.blocks());
  const std::vector<Shape> compacted = layer_shapes(model, x);
  EXPECT_EQ(compacted[0], Shape({2, 2, 28, 28}));
  EXPECT_EQ(compacted[3], Shape({2, 2, 14, 14}));
  EXPECT_EQ(compacted[4], Shape({2, 2, 10, 10}));
  EXPECT_EQ(compacted[8], Shape({2, 50}));
  EXPECT_EQ(compacted[9], Shape({2, 120}));
  EXPECT_EQ(compacted.back(), Shape({2, 10}));

  // An empty keep list and an all-ones mask both restore full width.
  model.set_kept_channels({});
  const std::vector<Shape> full = layer_shapes(model, x);
  EXPECT_EQ(full[0], Shape({2, 6, 28, 28}));
  EXPECT_EQ(full[8], Shape({2, 400}));
  model.set_kept_channels(mask.blocks());
  model.set_kept_channels(ChannelMask::ones_like(model).blocks());
  EXPECT_EQ(layer_shapes(model, x), full);
}

TEST(Compaction, RejectsZeroWidthBlocksAndMismatchedFlags) {
  Model model = ModelSpec::cnn5(10).build();
  ChannelMask mask = ChannelMask::ones_like(model);
  std::fill(mask.block(1).begin(), mask.block(1).end(), 0);
  EXPECT_THROW(model.set_kept_channels(mask.blocks()), CheckError);
  std::vector<std::vector<std::uint8_t>> short_flags = {std::vector<std::uint8_t>(10, 1)};
  EXPECT_THROW(model.set_kept_channels(short_flags), CheckError);
  short_flags.push_back(std::vector<std::uint8_t>(19, 1));
  EXPECT_THROW(model.set_kept_channels(short_flags), CheckError);
  // A failed call leaves the model at full width.
  Tensor x({1, 1, 28, 28});
  EXPECT_EQ(model.layer(0).forward(x, /*train=*/false).shape(), Shape({1, 10, 24, 24}));
}

TEST(Compaction, ChangingKeptChannelsDropsTheCachedForward) {
  Model model = make_model(ModelSpec::cnn5(10), 61);
  Rng rng(62);
  Tensor x({2, 1, 28, 28});
  x.fill_normal(rng, 0.0f, 1.0f);
  const Tensor logits = model.forward(x, /*train=*/true);
  ChannelMask mask = ChannelMask::ones_like(model);
  mask.block(0)[2] = 0;
  model.set_kept_channels(mask.blocks());
  EXPECT_THROW(model.backward(logits), CheckError);
}

}  // namespace
}  // namespace subfed
