// Dense row-major float tensor.
//
// Deliberately minimal: the CNNs in this paper (LeNet-5, 5-layer CNN) need
// contiguous storage, shape bookkeeping, elementwise math and GEMM — not a
// general strided/broadcast engine. Value semantics throughout: Tensor copies
// are deep, moves are cheap.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace subfed {

class Rng;

/// Tensor shape: up to a handful of dims (N,C,H,W for activations; arbitrary
/// rank for parameters). Stored as a small vector of extents.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::size_t> dims) : dims_(dims) {}
  explicit Shape(std::vector<std::size_t> dims) : dims_(std::move(dims)) {}

  std::size_t rank() const noexcept { return dims_.size(); }
  std::size_t operator[](std::size_t i) const;
  std::size_t numel() const noexcept;
  const std::vector<std::size_t>& dims() const noexcept { return dims_; }

  bool operator==(const Shape& other) const noexcept = default;

  /// "(2, 3, 5)" — for error messages.
  std::string to_string() const;

 private:
  std::vector<std::size_t> dims_;
};

/// Contiguous float32 tensor.
class Tensor {
 public:
  Tensor() = default;
  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  /// Tensor filled with `value`.
  Tensor(Shape shape, float value);
  /// Takes ownership of existing data (size must match shape.numel()).
  Tensor(Shape shape, std::vector<float> data);

  const Shape& shape() const noexcept { return shape_; }
  std::size_t numel() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  std::span<float> span() noexcept { return {data_.data(), data_.size()}; }
  std::span<const float> span() const noexcept { return {data_.data(), data_.size()}; }

  /// Checked element access; the failure path is out of line.
  float& operator[](std::size_t i) {
    if (i >= data_.size()) [[unlikely]] index_out_of_range(i);
    return data_[i];
  }
  float operator[](std::size_t i) const {
    if (i >= data_.size()) [[unlikely]] index_out_of_range(i);
    return data_[i];
  }

  /// 2-D indexed access (checked): tensor must have rank 2.
  float& at2(std::size_t i, std::size_t j);
  float at2(std::size_t i, std::size_t j) const;
  /// 4-D indexed access (checked): tensor must have rank 4.
  float& at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w);
  float at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const;

  /// Re-interpret as a different shape with identical numel. Returns *this.
  Tensor& reshape(Shape shape);

  void fill(float value) noexcept;
  void zero() noexcept { fill(0.0f); }

  /// In-place elementwise: this += other (shapes must match).
  Tensor& add_(const Tensor& other);
  /// this -= other.
  Tensor& sub_(const Tensor& other);
  /// this *= other (Hadamard).
  Tensor& mul_(const Tensor& other);
  /// this *= scalar.
  Tensor& scale_(float scalar) noexcept;
  /// this += scalar * other (axpy).
  Tensor& axpy_(float scalar, const Tensor& other);

  /// Sum of elements.
  double sum() const noexcept;
  /// Mean of elements (0 for empty tensors).
  double mean() const noexcept;
  /// Max |x|.
  float abs_max() const noexcept;
  /// Sum of squares.
  double squared_norm() const noexcept;
  /// Count of exactly-zero entries.
  std::size_t count_zero() const noexcept;

  /// Fills with N(mean, stddev) draws from `rng`.
  void fill_normal(Rng& rng, float mean, float stddev);
  /// Fills with U[lo, hi) draws from `rng`.
  void fill_uniform(Rng& rng, float lo, float hi);

  bool operator==(const Tensor& other) const noexcept = default;

 private:
  [[noreturn, gnu::cold]] void index_out_of_range(std::size_t i) const;

  Shape shape_;
  std::vector<float> data_;
};

/// out = a + b (new tensor).
Tensor add(const Tensor& a, const Tensor& b);
/// out = a - b.
Tensor sub(const Tensor& a, const Tensor& b);
/// out = a ⊙ b.
Tensor mul(const Tensor& a, const Tensor& b);

/// Max element index (ties → lowest index). Tensor must be non-empty.
std::size_t argmax(std::span<const float> values);

}  // namespace subfed
