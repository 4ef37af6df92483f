#include "nn/linear.h"

#include <cmath>

#include "tensor/device.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {

Linear::Linear(std::string name, std::size_t in_features, std::size_t out_features)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(name + ".weight", Tensor({out_features, in_features}), /*is_prunable=*/true),
      bias_(name + ".bias", Tensor({out_features}), /*is_prunable=*/false) {}

void Linear::init(Rng& rng) {
  weight_.value.fill_normal(rng, 0.0f,
                            static_cast<float>(std::sqrt(2.0 / static_cast<double>(in_features_))));
  bias_.value.zero();
}

void Linear::set_kept_inputs(KeptChannels channels, std::size_t width) {
  SUBFEDAVG_CHECK(width > 0 && in_features_ % width == 0,
                  weight_.name << ": " << in_features_ << " inputs are not channels of "
                               << width);
  channels = checked_kept(std::move(channels), in_features_ / width, weight_.name);
  if (channels.empty()) width = 1;
  if (channels == in_keep_ && width == in_width_) return;
  in_keep_ = std::move(channels);
  in_width_ = width;
  cached_input_ = Tensor();
  ++weight_.mask_epoch;
}

Tensor Linear::forward(const Tensor& input, bool train) {
  const CompactedMatrix view = weight_matrix();
  const std::size_t in = view.view_cols();
  SUBFEDAVG_CHECK(input.shape().rank() == 2 && input.shape()[1] == in,
                  "linear input " << input.shape().to_string() << " expected (N, " << in
                                  << ")");
  const std::size_t batch = input.shape()[0];
  // The cached input exists only for backward; inference skips the deep copy
  // and clears any stale cache so backward-after-eval fails loudly.
  cached_input_ = train ? input : Tensor();

  Tensor output({batch, out_features_});
  // y[N, out] = x[N, in] · Wᵀ
  device().gemm(GemmOp::kNT, input.data(),
                view.gathered(weight_.value.data(), weight_view_, device()), output.data(),
                batch, in, out_features_, /*accumulate=*/false, WeightSide::kB, weight_.uid,
                weight_.mask_epoch);
  for (std::size_t n = 0; n < batch; ++n) {
    float* row = output.data() + n * out_features_;
    for (std::size_t o = 0; o < out_features_; ++o) row[o] += bias_.value[o];
  }
  return output;
}

Tensor Linear::backward(const Tensor& grad_output) {
  SUBFEDAVG_CHECK(!cached_input_.empty(), "backward before forward");
  const std::size_t batch = cached_input_.shape()[0], in = cached_input_.shape()[1];
  SUBFEDAVG_CHECK(grad_output.shape() == Shape({batch, out_features_}),
                  "grad_output shape " << grad_output.shape().to_string());

  // dW[out, in] += dYᵀ[out, N] · x[N, in], accumulated straight into the
  // gradient — no per-batch dw temporary. Neither operand is a weight. With
  // kept inputs the kept columns are gathered, accumulated and scattered back.
  const CompactedMatrix view = weight_matrix();
  view.accumulate(weight_.grad.data(), device(), [&](float* dw) {
    device().gemm(GemmOp::kTN, grad_output.data(), cached_input_.data(), dw, out_features_,
                  batch, in, /*accumulate=*/true);
  });

  // db[out] += column sums of dY
  for (std::size_t n = 0; n < batch; ++n) {
    const float* row = grad_output.data() + n * out_features_;
    for (std::size_t o = 0; o < out_features_; ++o) bias_.grad[o] += row[o];
  }

  if (!input_grad()) return Tensor();  // first layer: nobody reads dX

  // dX[N, in] = dY[N, out] · W[out, in]
  Tensor grad_input({batch, in});
  device().gemm(GemmOp::kNN, grad_output.data(),
                view.gathered(weight_.value.data(), weight_view_, device()),
                grad_input.data(), batch, out_features_, in, /*accumulate=*/false,
                WeightSide::kB, weight_.uid, weight_.mask_epoch);
  return grad_input;
}

}  // namespace subfed
