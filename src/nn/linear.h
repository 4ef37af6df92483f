// Fully-connected layer: y = x·Wᵀ + b.
#pragma once

#include "nn/compact.h"
#include "nn/layer.h"

namespace subfed {

class Rng;

class Linear final : public Layer {
 public:
  /// Weight shape [out_features, in_features]; bias [out_features].
  Linear(std::string name, std::size_t in_features, std::size_t out_features);

  /// Kaiming-normal weight init, zero bias.
  void init(Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string kind() const override { return "Linear"; }

  std::size_t in_features() const noexcept { return in_features_; }
  std::size_t out_features() const noexcept { return out_features_; }
  Parameter& weight() noexcept { return weight_; }
  Parameter& bias() noexcept { return bias_; }

  /// Restricts the input to kept channels of a flattened conv output: input
  /// features form channels of `width` consecutive columns, and only the
  /// kept ones (ascending; empty = all) arrive, as [N, kept·width]. The
  /// GEMMs run on the gathered kept weight columns; weight gradients scatter
  /// back. A change drops the cached forward and advances the weight's mask
  /// epoch.
  void set_kept_inputs(KeptChannels channels, std::size_t width);

 private:
  CompactedMatrix weight_matrix() const noexcept {
    return {kAllRows, out_features_, in_keep_, in_features_ / in_width_, in_width_};
  }

  static inline const KeptChannels kAllRows{};
  std::size_t in_features_, out_features_;
  Parameter weight_;
  Parameter bias_;
  KeptChannels in_keep_;
  std::size_t in_width_ = 1;       // input columns per channel
  WorkspaceLease weight_view_;     // gathered kept columns (compacted only)
  Tensor cached_input_;  // [N, in]
};

}  // namespace subfed
