#include "nn/activations.h"

#include "util/check.h"

namespace subfed {

Tensor ReLU::forward(const Tensor& input, bool /*train*/) {
  Tensor output(input.shape());
  if (mask_.shape() != input.shape()) mask_ = Tensor(input.shape());
  const float* in = input.data();
  float* out = output.data();
  float* mask = mask_.data();
  for (std::size_t i = 0; i < output.numel(); ++i) {
    const bool pos = in[i] > 0.0f;  // false for NaN, which maps to 0 like any x ≤ 0
    out[i] = pos ? in[i] : 0.0f;
    mask[i] = pos ? 1.0f : 0.0f;
  }
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  SUBFEDAVG_CHECK(grad_output.numel() == mask_.numel(), "relu backward before forward");
  // Multiply by the 0/1 mask rather than select, so a dropped gradient keeps
  // its sign (-g·0 = -0) and a NaN gradient stays NaN.
  Tensor grad_input = grad_output;
  grad_input.mul_(mask_);
  return grad_input;
}

Tensor Flatten::forward(const Tensor& input, bool /*train*/) {
  SUBFEDAVG_CHECK(input.shape().rank() >= 2, "flatten needs a batch dim");
  input_shape_ = input.shape();
  const std::size_t batch = input.shape()[0];
  Tensor output = input;
  output.reshape({batch, input.numel() / batch});
  return output;
}

Tensor Flatten::backward(const Tensor& grad_output) {
  Tensor grad_input = grad_output;
  grad_input.reshape(input_shape_);
  return grad_input;
}

}  // namespace subfed
