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
  return forward_impl(input, train, nullptr);
}

Tensor Conv2d::forward_fused(const Tensor& input, GemmEpilogue epilogue) {
  epilogue.bias = bias_.value.data();
  if (!out_keep_.empty()) {
    bias_view_.resize(out_keep_.size());
    for (std::size_t oc = 0; oc < out_keep_.size(); ++oc) {
      bias_view_[oc] = bias_.value[out_keep_[oc]];
    }
    epilogue.bias = bias_view_.data();
  }
  return forward_impl(input, /*train=*/false, &epilogue);
}

void Conv2d::set_kept_channels(KeptChannels in, KeptChannels out) {
  in = checked_kept(std::move(in), in_channels_, weight_.name);
  out = checked_kept(std::move(out), out_channels_, weight_.name);
  if (in == in_keep_ && out == out_keep_) return;
  in_keep_ = std::move(in);
  out_keep_ = std::move(out);
  cached_input_ = Tensor();
  ++weight_.mask_epoch;
}

Tensor Conv2d::forward_impl(const Tensor& input, bool train, const GemmEpilogue* epilogue) {
  SUBFEDAVG_CHECK(input.shape().rank() == 4, "conv input must be NCHW, got "
                                                 << input.shape().to_string());
  static telemetry::Counter& compacted = telemetry::counter("nn.compacted_forward");
  const std::size_t batch = input.shape()[0];
  const std::size_t ci = kept_count(in_keep_, in_channels_);
  const std::size_t co = kept_count(out_keep_, out_channels_);
  SUBFEDAVG_CHECK(input.shape()[1] == ci,
                  "conv in_channels " << ci << " vs input " << input.shape()[1]);
  const ConvGeometry g{ci, input.shape()[2], input.shape()[3], kernel_, stride_, pad_};
  const std::size_t oh = g.out_h(), ow = g.out_w(), spatial = oh * ow;

  // The cached input exists only for backward; inference skips the deep copy
  // and clears any stale cache so backward-after-eval fails loudly.
  cached_input_ = train ? input : Tensor();
  Tensor output({batch, co, oh, ow});

  const Device& dev = device();
  const std::size_t cols = batch * spatial;  // one column per output pixel of the batch
  const std::size_t in_plane = ci * g.in_h * g.in_w;
  if (columns_.size() < g.patch_size() * cols) {
    columns_.reset();
    columns_ = dev.lease(g.patch_size() * cols);
  }
  WorkspaceLease gemm_out = dev.lease(co * cols);
  if (!weight_matrix().in_place()) compacted.add();

  // Unroll every sample into one wide patch matrix, then convolve the whole
  // batch with a single GEMM: out[oc, n·spatial] = W[oc, ckk] · cols[ckk, n·spatial].
  // With an epilogue, bias/bn/activation are applied per element at GEMM
  // store-back (row = output channel), so the regroup below is a pure copy.
  for (std::size_t n = 0; n < batch; ++n) {
    dev.im2col(input.data() + n * in_plane, g, columns_.data(), cols, n * spatial);
  }
  // A gathered filter block is passed under the parameter's own uid/epoch,
  // so the sparse-vs-dense decision is still made once per pruning pass.
  dev.gemm(GemmOp::kNN, weight_matrix().gathered(weight_.value.data(), weight_view_, dev),
           columns_.data(), gemm_out.data(), co,
           g.patch_size(), cols, /*accumulate=*/false, WeightSide::kA, weight_.uid,
           weight_.mask_epoch, epilogue);

  // Regroup [oc, N·spatial] → [N, oc, spatial] and (unfused only) add the bias.
  for (std::size_t n = 0; n < batch; ++n) {
    float* out_n = output.data() + n * co * spatial;
    for (std::size_t oc = 0; oc < co; ++oc) {
      const float* src = gemm_out.data() + oc * cols + n * spatial;
      float* dst = out_n + oc * spatial;
      const float b = epilogue == nullptr ? bias_.value[full_index(out_keep_, oc)] : 0.0f;
      if (b == 0.0f) {
        std::memcpy(dst, src, spatial * sizeof(float));
      } else {
        for (std::size_t s = 0; s < spatial; ++s) dst[s] = src[s] + b;
      }
    }
  }
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  SUBFEDAVG_CHECK(!cached_input_.empty(), "backward before forward");
  const Tensor& input = cached_input_;
  const std::size_t batch = input.shape()[0];
  const std::size_t co = kept_count(out_keep_, out_channels_);
  const ConvGeometry g{input.shape()[1], input.shape()[2], input.shape()[3],
                       kernel_,          stride_,          pad_};
  const std::size_t oh = g.out_h(), ow = g.out_w(), spatial = oh * ow;
  SUBFEDAVG_CHECK(grad_output.shape() == Shape({batch, co, oh, ow}),
                  "grad_output shape " << grad_output.shape().to_string());

  const Device& dev = device();
  const std::size_t cols = batch * spatial;
  WorkspaceLease grad_packed = dev.lease(co * cols);

  // Regroup dY [N, oc, spatial] → [oc, N·spatial] so both weight and input
  // gradients are single whole-batch GEMMs. columns_ still holds this
  // batch's patches: only the train-mode forward that set cached_input_
  // fills them, and eval forwards clear cached_input_ (failing the check
  // above), so backward never needs to re-unroll.
  for (std::size_t n = 0; n < batch; ++n) {
    const float* go_n = grad_output.data() + n * co * spatial;
    for (std::size_t oc = 0; oc < co; ++oc) {
      std::memcpy(grad_packed.data() + oc * cols + n * spatial, go_n + oc * spatial,
                  spatial * sizeof(float));
    }
  }

  // dW[oc, ckk] += dY[oc, N·spatial] · colsᵀ — accumulated straight into the
  // gradient, no per-sample temporary. Neither operand is a weight. A
  // compacted layer accumulates into the gathered kept block and scatters it
  // back, so the kernel's own accumulate semantics apply unchanged.
  const CompactedMatrix view = weight_matrix();
  view.accumulate(weight_.grad.data(), dev, [&](float* dw) {
    dev.gemm(GemmOp::kNT, grad_packed.data(), columns_.data(), dw, co, cols, g.patch_size(),
             /*accumulate=*/true);
  });

  // db[oc] += sum over the batch's spatial positions of dY.
  for (std::size_t oc = 0; oc < co; ++oc) {
    float acc = 0.0f;
    const float* row = grad_packed.data() + oc * cols;
    for (std::size_t s = 0; s < cols; ++s) acc += row[s];
    bias_.grad[full_index(out_keep_, oc)] += acc;
  }

  if (!input_grad()) return Tensor();  // first layer: nobody reads dX

  // dCols[ckk, N·spatial] = Wᵀ[ckk, oc] · dY[oc, N·spatial]; scatter per sample.
  Tensor grad_input(input.shape());
  const std::size_t in_plane = g.in_channels * g.in_h * g.in_w;
  WorkspaceLease grad_columns = dev.lease(g.patch_size() * cols);
  dev.gemm(GemmOp::kTN, view.gathered(weight_.value.data(), weight_view_, dev),
           grad_packed.data(), grad_columns.data(),
           g.patch_size(), co, cols, /*accumulate=*/false, WeightSide::kA, weight_.uid,
           weight_.mask_epoch);
  for (std::size_t n = 0; n < batch; ++n) {
    dev.col2im(grad_columns.data(), g, grad_input.data() + n * in_plane, cols, n * spatial);
  }
  return grad_input;
}

}  // namespace subfed
