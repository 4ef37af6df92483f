#include "nn/model.h"

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "util/check.h"

namespace subfed {

Tensor Model::forward(const Tensor& input, bool train) {
  SUBFEDAVG_CHECK(!layers_.empty(), "empty model");
  if (!train && fused_) {
    // Fused eval forward: each Conv2d→BatchNorm2d(→ReLU) chain collapses into
    // one GEMM whose epilogue applies bias/bn/activation at store-back.
    // Bit-identical to the unfused loop below (tests/test_device.cpp pins it).
    const std::vector<FusePlan>& plans = fuse_plans();
    const Tensor* cur = &input;
    Tensor x;
    std::size_t i = 0;
    while (i < layers_.size()) {
      const FusePlan& plan = plans[i];
      if (plan.bn != nullptr) {
        auto* conv = static_cast<Conv2d*>(layers_[i].get());
        GemmEpilogue ep = plan.bn->eval_epilogue();
        ep.relu = plan.relu;
        x = conv->forward_fused(*cur, ep);
        i += 1 + plan.skip;
      } else {
        x = layers_[i]->forward(*cur, /*train=*/false);
        ++i;
      }
      cur = &x;
    }
    return x;
  }
  Tensor x = layers_.front()->forward(input, train);
  for (std::size_t i = 1; i < layers_.size(); ++i) x = layers_[i]->forward(x, train);
  return x;
}

const std::vector<Model::FusePlan>& Model::fuse_plans() {
  if (fuse_plans_.size() == layers_.size()) return fuse_plans_;
  fuse_plans_.assign(layers_.size(), FusePlan{});
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    auto* conv = dynamic_cast<Conv2d*>(layers_[i].get());
    if (conv == nullptr || i + 1 >= layers_.size()) continue;
    auto* bn = dynamic_cast<BatchNorm2d*>(layers_[i + 1].get());
    if (bn == nullptr || bn->channels() != conv->out_channels()) continue;
    FusePlan& plan = fuse_plans_[i];
    plan.bn = bn;
    plan.skip = 1;
    if (i + 2 < layers_.size() && dynamic_cast<ReLU*>(layers_[i + 2].get()) != nullptr) {
      plan.relu = true;
      plan.skip = 2;
    }
  }
  return fuse_plans_;
}

void Model::backward(const Tensor& grad_logits) {
  Tensor g = grad_logits;
  for (std::size_t i = layers_.size(); i-- > 0;) g = layers_[i]->backward(g);
}

std::vector<Parameter*> Model::parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<Parameter*> Model::buffers() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* b : layer->buffers()) out.push_back(b);
  }
  return out;
}

std::vector<Parameter*> Model::state_entries() {
  std::vector<Parameter*> out = parameters();
  for (Parameter* b : buffers()) out.push_back(b);
  return out;
}

StateDict Model::state() const {
  StateDict dict;
  // state_entries() is non-const only because Parameter pointers are mutable;
  // values are copied out, so const_cast here does not mutate the model.
  auto* self = const_cast<Model*>(this);
  for (Parameter* p : self->state_entries()) dict.add(p->name, p->value);
  return dict;
}

void Model::load_state(const StateDict& state) {
  auto entries = state_entries();
  SUBFEDAVG_CHECK(entries.size() == state.size(),
                  "state size " << state.size() << " != model entries " << entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [name, tensor] = state[i];
    SUBFEDAVG_CHECK(name == entries[i]->name,
                    "state entry " << i << " name '" << name << "' != '"
                                   << entries[i]->name << "'");
    SUBFEDAVG_CHECK(tensor.shape() == entries[i]->value.shape(),
                    "state entry '" << name << "' shape mismatch");
    entries[i]->value = tensor;
    // Loaded values may carry a different sparsity pattern (e.g. a pruned
    // global model) — invalidate any cached density decisions.
    ++entries[i]->mask_epoch;
  }
}

void Model::zero_grad() {
  for (Parameter* p : parameters()) p->grad.zero();
}

std::size_t Model::num_parameters() const {
  std::size_t n = 0;
  auto* self = const_cast<Model*>(this);
  for (Parameter* p : self->parameters()) n += p->value.numel();
  return n;
}

void Model::set_kept_channels(const std::vector<std::vector<std::uint8_t>>& keep) {
  const std::vector<ConvBlock>& blocks = topology_.conv_blocks;
  SUBFEDAVG_CHECK(keep.empty() || keep.size() == blocks.size(),
                  "keep flags for " << keep.size() << " blocks, model has " << blocks.size());
  std::vector<KeptChannels> kept(blocks.size());
  for (std::size_t b = 0; b < keep.size(); ++b) {
    SUBFEDAVG_CHECK(keep[b].size() == blocks[b].conv->out_channels(),
                    "block " << b << " keep flags " << keep[b].size() << " vs "
                             << blocks[b].conv->out_channels() << " channels");
    for (std::size_t c = 0; c < keep[b].size(); ++c) {
      if (keep[b][c] != 0) kept[b].push_back(c);
    }
    SUBFEDAVG_CHECK(!kept[b].empty(), "block " << b << " keeps no channel");
  }
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const ConvBlock& block = blocks[b];
    KeptChannels in;  // kept outputs of the block feeding this conv, if any
    for (std::size_t p = 0; p < blocks.size(); ++p) {
      if (blocks[p].next_conv == block.conv) in = kept[p];
    }
    block.conv->set_kept_channels(std::move(in), kept[b]);
    if (block.bn != nullptr) block.bn->set_kept_channels(kept[b]);
    if (block.next_fc != nullptr) {
      block.next_fc->set_kept_inputs(kept[b], block.spatial_per_channel);
    }
  }
}

void Model::set_bn_l1(float strength) {
  for (auto& layer : layers_) {
    if (auto* bn = dynamic_cast<BatchNorm2d*>(layer.get())) bn->set_l1_gamma(strength);
  }
}

void Model::set_device(const Device* device) noexcept {
  for (auto& layer : layers_) layer->set_device(device);
}

}  // namespace subfed
