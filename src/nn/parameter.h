// Named parameters and flat model state.
//
// Parameters carry their gradient and a `prunable` flag: unstructured pruning
// acts only on weight matrices/filters (not biases or BatchNorm affine terms),
// matching the paper's reference implementation.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace subfed {

/// A learnable tensor with its gradient buffer.
struct Parameter {
  std::string name;   ///< unique within a model, e.g. "conv1.weight"
  Tensor value;
  Tensor grad;        ///< same shape as value; zeroed by the optimizer step
  bool prunable = false;  ///< participates in unstructured magnitude pruning

  Parameter() = default;
  Parameter(std::string n, Tensor v, bool is_prunable)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()), prunable(is_prunable) {}
};

/// Ordered (name → tensor) snapshot of a model: learnable parameters plus
/// persistent buffers (BatchNorm running stats). Order is the model's
/// registration order, which is identical across clients sharing an
/// architecture — aggregation iterates positionally.
class StateDict {
 public:
  void add(std::string name, Tensor value) {
    entries_.emplace_back(std::move(name), std::move(value));
  }

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  const std::pair<std::string, Tensor>& operator[](std::size_t i) const {
    return entries_[i];
  }
  std::pair<std::string, Tensor>& operator[](std::size_t i) { return entries_[i]; }

  /// Linear search by name; returns nullptr when absent.
  const Tensor* find(const std::string& name) const {
    for (const auto& [n, t] : entries_) {
      if (n == name) return &t;
    }
    return nullptr;
  }
  Tensor* find(const std::string& name) {
    for (auto& [n, t] : entries_) {
      if (n == name) return &t;
    }
    return nullptr;
  }

  /// Total scalar count across all entries.
  std::size_t numel() const noexcept {
    std::size_t n = 0;
    for (const auto& [name, t] : entries_) n += t.numel();
    return n;
  }

  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  std::vector<std::pair<std::string, Tensor>> entries_;
};

}  // namespace subfed
