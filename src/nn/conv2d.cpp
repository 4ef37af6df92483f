#include "nn/conv2d.h"

#include <cmath>
#include <cstring>

#include "telemetry/telemetry.h"
#include "tensor/device.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {

Conv2d::Conv2d(std::string name, std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(name + ".weight", Tensor({out_channels, in_channels, kernel, kernel}),
              /*is_prunable=*/true),
      bias_(name + ".bias", Tensor({out_channels}), /*is_prunable=*/false) {
  SUBFEDAVG_CHECK(kernel > 0 && stride > 0, "bad conv geometry");
}

void Conv2d::init(Rng& rng) {
  const double fan_in = static_cast<double>(in_channels_ * kernel_ * kernel_);
  weight_.value.fill_normal(rng, 0.0f, static_cast<float>(std::sqrt(2.0 / fan_in)));
  bias_.value.zero();
}

Tensor Conv2d::forward(const Tensor& input, bool train) {
  return forward_impl(input, train, GemmEpilogue{});
}

Tensor Conv2d::forward_fused(const Tensor& input, const GemmEpilogue& epilogue) {
  return forward_impl(input, /*train=*/false, epilogue);
}

void Conv2d::set_kept_channels(KeptChannels in, KeptChannels out) {
  in = checked_kept(std::move(in), in_channels_, weight_.name);
  out = checked_kept(std::move(out), out_channels_, weight_.name);
  if (in == in_keep_ && out == out_keep_) return;
  in_keep_ = std::move(in);
  out_keep_ = std::move(out);
  cached_input_ = Tensor();
}

Tensor Conv2d::forward_impl(const Tensor& input, bool train, GemmEpilogue epilogue) {
  SUBFEDAVG_CHECK(input.shape().rank() == 4, "conv input must be NCHW, got "
                                                 << input.shape().to_string());
  static telemetry::Counter& compacted = telemetry::counter("nn.compacted_forward");
  const std::size_t batch = input.shape()[0];
  const std::size_t ci = kept_count(in_keep_, in_channels_);
  const std::size_t co = kept_count(out_keep_, out_channels_);
  SUBFEDAVG_CHECK(input.shape()[1] == ci,
                  "conv in_channels " << ci << " vs input " << input.shape()[1]);
  const ConvGeometry g{ci, input.shape()[2], input.shape()[3], kernel_, stride_, pad_};

  // The cached input exists only for backward; inference skips the deep copy
  // and clears any stale cache so backward-after-eval fails loudly.
  cached_input_ = train ? input : Tensor();
  Tensor output({batch, co, g.out_h(), g.out_w()});

  const Device& dev = device();
  if (!weight_matrix().in_place()) compacted.add();
  // The bias rides the epilogue: the same per-element add the unfused layer
  // always made, skipped where the bias is zero.
  epilogue.bias = bias_.value.data();
  if (!out_keep_.empty()) {
    bias_view_.resize(out_keep_.size());
    for (std::size_t oc = 0; oc < out_keep_.size(); ++oc) {
      bias_view_[oc] = bias_.value[out_keep_[oc]];
    }
    epilogue.bias = bias_view_.data();
  }
  dev.conv_forward(weight_matrix().gathered(weight_.value.data(), weight_view_, dev), co,
                   input.data(), batch, g, output.data(), &epilogue);
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  SUBFEDAVG_CHECK(!cached_input_.empty(), "backward before forward");
  const Tensor& input = cached_input_;
  const std::size_t batch = input.shape()[0];
  const std::size_t co = kept_count(out_keep_, out_channels_);
  const ConvGeometry g{input.shape()[1], input.shape()[2], input.shape()[3],
                       kernel_,          stride_,          pad_};
  const std::size_t spatial = g.out_h() * g.out_w();
  SUBFEDAVG_CHECK(grad_output.shape() == Shape({batch, co, g.out_h(), g.out_w()}),
                  "grad_output shape " << grad_output.shape().to_string());

  // dW[oc, ckk] += dY · patchesᵀ over the whole batch, patches read from the
  // cached input — accumulated straight into the gradient. A compacted layer
  // accumulates into the gathered kept block and scatters it back, so the
  // kernel's own accumulate semantics apply unchanged.
  const Device& dev = device();
  const CompactedMatrix view = weight_matrix();
  view.accumulate(weight_.grad.data(), dev, [&](float* dw) {
    dev.conv_weight_grad(grad_output.data(), co, input.data(), batch, g, dw);
  });

  // db[oc] += sum over the batch's spatial positions of dY, in batch order.
  for (std::size_t oc = 0; oc < co; ++oc) {
    float acc = 0.0f;
    for (std::size_t n = 0; n < batch; ++n) {
      const float* row = grad_output.data() + (n * co + oc) * spatial;
      for (std::size_t s = 0; s < spatial; ++s) acc += row[s];
    }
    bias_.grad[full_index(out_keep_, oc)] += acc;
  }

  if (!input_grad()) return Tensor();  // first layer: nobody reads dX

  // dCols[ckk, N·spatial] = Wᵀ[ckk, oc] · dY[oc, N·spatial] as one GEMM, dY
  // regrouped to [oc, N·spatial] first; col2im then scatters each sample's
  // columns into its dX.
  const std::size_t cols = batch * spatial;
  WorkspaceLease grad_rows = dev.lease(co * cols);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t oc = 0; oc < co; ++oc) {
      std::memcpy(grad_rows.data() + oc * cols + n * spatial,
                  grad_output.data() + (n * co + oc) * spatial, spatial * sizeof(float));
    }
  }
  Tensor grad_input(input.shape());
  const std::size_t in_plane = g.in_channels * g.in_h * g.in_w;
  WorkspaceLease grad_columns = dev.lease(g.patch_size() * cols);
  dev.gemm(GemmOp::kTN, view.gathered(weight_.value.data(), weight_view_, dev),
           grad_rows.data(), grad_columns.data(), g.patch_size(), co, cols,
           /*accumulate=*/false);
  for (std::size_t n = 0; n < batch; ++n) {
    col2im_strided(grad_columns.data(), g, grad_input.data() + n * in_plane, cols, n * spatial);
  }
  return grad_input;
}

}  // namespace subfed
