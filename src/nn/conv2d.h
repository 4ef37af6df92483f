// 2-D convolution (square kernel) as implicit GEMM on the layer's Device:
// the forward and the weight gradient are GEMMs against the batch's
// [C·K·K, N·outH·outW] patch matrix, which the blocked device reads straight
// from the NCHW input (Device::conv_forward / conv_weight_grad) instead of
// unrolling it. The layer holds no scratch between calls; only a backward
// whose input gradient is read leases the batch's patch-gradient matrix for
// col2im, for the length of that call.
#pragma once

#include <vector>

#include "nn/compact.h"
#include "nn/layer.h"
#include "tensor/device.h"
#include "tensor/gemm.h"

namespace subfed {

class Rng;

class Conv2d final : public Layer {
 public:
  /// Weight shape [out_channels, in_channels, kernel, kernel]; bias [out_channels].
  Conv2d(std::string name, std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride = 1, std::size_t pad = 0);

  /// Kaiming-normal weight init, zero bias.
  void init(Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  /// Eval-only fused conv→bn→activation forward: the epilogue's per-channel
  /// terms are applied inside the GEMM store-back (this layer's bias is added
  /// automatically). Driven by Model's fused eval forward; never caches the
  /// input, so a subsequent backward fails loudly like any eval forward.
  Tensor forward_fused(const Tensor& input, const GemmEpilogue& epilogue);
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string kind() const override { return "Conv2d"; }

  std::size_t in_channels() const noexcept { return in_channels_; }
  std::size_t out_channels() const noexcept { return out_channels_; }
  std::size_t kernel() const noexcept { return kernel_; }
  std::size_t stride() const noexcept { return stride_; }
  std::size_t pad() const noexcept { return pad_; }

  Parameter& weight() noexcept { return weight_; }
  Parameter& bias() noexcept { return bias_; }

  /// Restricts the layer to kept input/output channels (ascending full-layer
  /// indices; empty = all, see nn/compact.h). Inputs and outputs are then
  /// [N, kept in, H, W] / [N, kept out, oh, ow]; the GEMMs run on the
  /// gathered [kept out × kept in·K·K] filter block and weight gradients
  /// scatter back into the full-shape parameter. A change drops the cached
  /// forward and advances the weight's mask epoch, since the gathered view's
  /// sparsity pattern changed with it.
  void set_kept_channels(KeptChannels in, KeptChannels out);

 private:
  /// Forward with `epilogue` (its bias is overwritten with this layer's).
  Tensor forward_impl(const Tensor& input, bool train, GemmEpilogue epilogue);
  CompactedMatrix weight_matrix() const noexcept {
    return {out_keep_, out_channels_, in_keep_, in_channels_, kernel_ * kernel_};
  }

  std::size_t in_channels_, out_channels_, kernel_, stride_, pad_;
  Parameter weight_;
  Parameter bias_;
  KeptChannels in_keep_, out_keep_;
  WorkspaceLease weight_view_;     // gathered kept filter block (compacted only)
  std::vector<float> bias_view_;   // gathered kept biases for the epilogue
  /// [N, C, H, W] saved by a train-mode forward: backward reads the weight
  /// gradient's patches from it.
  Tensor cached_input_;
};

}  // namespace subfed
