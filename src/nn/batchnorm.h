// BatchNorm2d.
//
// The scaling factor γ doubles as the channel-importance indicator for
// structured pruning (network slimming, Liu et al. 2017 — adopted by the
// paper §3.5). Training can add an L1 subgradient on γ (`l1_gamma`) to push
// unimportant channels toward zero, exactly as slimming prescribes.
#pragma once

#include "nn/compact.h"
#include "nn/layer.h"

namespace subfed {

class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(std::string name, std::size_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
  std::vector<Parameter*> buffers() override { return {&running_mean_, &running_var_}; }
  std::string kind() const override { return "BatchNorm2d"; }

  std::size_t channels() const noexcept { return channels_; }
  Parameter& gamma() noexcept { return gamma_; }
  Parameter& beta() noexcept { return beta_; }
  float eps() const noexcept { return eps_; }
  /// Running statistics, exposed for the fused eval epilogue (model.cpp).
  const Parameter& running_mean() const noexcept { return running_mean_; }
  const Parameter& running_var() const noexcept { return running_var_; }

  /// Restricts the layer to kept channels (ascending; empty = all): inputs
  /// are [N, kept, H, W] and batch statistics cover kept channels only. A
  /// pruned channel's running mean and variance still decay as
  /// (1−m)·r + m·0 per training forward — exactly what the full-width pass
  /// computes for its all-zero input — so running stats match masking.
  void set_kept_channels(KeptChannels kept);

  /// Eval-mode conv→bn epilogue terms (mean, var, γ, β, eps) over the kept
  /// channels, for Model's fused forward. The pointers stay valid until the
  /// next call or parameter change.
  GemmEpilogue eval_epilogue();

  /// L1 sparsity penalty applied to γ gradients during backward (0 = off).
  void set_l1_gamma(float strength) noexcept { l1_gamma_ = strength; }
  float l1_gamma() const noexcept { return l1_gamma_; }

 private:
  std::size_t channels_;
  float momentum_, eps_;
  float l1_gamma_ = 0.0f;
  Parameter gamma_, beta_;
  Parameter running_mean_, running_var_;
  KeptChannels keep_;
  std::vector<float> epilogue_view_;  // gathered [mean | var | γ | β] when compacted

  // Forward cache (training mode) for backward.
  Tensor cached_input_;
  Tensor batch_mean_, batch_var_;  // [C]
  bool cached_train_ = false;
};

}  // namespace subfed
