// Layer interface: explicit forward / backward with cached activations.
//
// The library uses per-layer analytic backward passes instead of a taped
// autograd: the paper's models are straight-line Sequential CNNs, and explicit
// backward keeps the hot path allocation-light and easy to verify against
// finite differences (see tests/test_nn_gradcheck.cpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/parameter.h"
#include "tensor/device.h"
#include "tensor/tensor.h"

namespace subfed {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Selects the device this layer's forward/backward run on; nullptr
  /// restores the process default. Only GEMM-backed layers (Conv2d, Linear)
  /// consult it, but it lives on the base so Model::set_device is uniform.
  void set_device(const Device* device) noexcept { device_ = device; }
  /// The active device: the explicit one, else default_device().
  const Device& device() const {
    return device_ != nullptr ? *device_ : default_device();
  }

  /// Computes the layer output. `train` toggles training-time behaviour
  /// (BatchNorm batch statistics). Implementations cache what backward needs.
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput. Must be called after forward with matching shapes. With
  /// input gradients switched off (see set_input_grad) the GEMM-backed layers
  /// return an empty tensor instead.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Whether backward must produce dLoss/dInput (default on). Model switches
  /// it off for its first layer, whose input gradient has no consumer; Conv2d
  /// and Linear then skip that GEMM (and conv its col2im) entirely. Parameter
  /// gradients are unaffected.
  void set_input_grad(bool needed) noexcept { input_grad_ = needed; }
  bool input_grad() const noexcept { return input_grad_; }

  /// Learnable parameters (empty for stateless layers). Pointers remain valid
  /// for the life of the layer.
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Persistent non-learnable buffers (BatchNorm running stats).
  virtual std::vector<Parameter*> buffers() { return {}; }

  /// Human-readable kind, e.g. "Conv2d".
  virtual std::string kind() const = 0;

 private:
  const Device* device_ = nullptr;  ///< nullptr → default_device()
  bool input_grad_ = true;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace subfed
