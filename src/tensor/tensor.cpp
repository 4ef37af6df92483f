#include "tensor/tensor.h"

#include <cmath>
#include <sstream>

#include "util/check.h"
#include "util/rng.h"

namespace subfed {

std::size_t Shape::operator[](std::size_t i) const {
  SUBFEDAVG_CHECK(i < dims_.size(), "dim " << i << " out of rank " << dims_.size());
  return dims_[i];
}

std::size_t Shape::numel() const noexcept {
  std::size_t n = 1;
  for (const std::size_t d : dims_) n *= d;
  return dims_.empty() ? 0 : n;
}

std::string Shape::to_string() const {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i != 0) os << ", ";
    os << dims_[i];
  }
  os << ')';
  return os.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)), data_(shape_.numel(), 0.0f) {}

Tensor::Tensor(Shape shape, float value) : shape_(std::move(shape)), data_(shape_.numel(), value) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  SUBFEDAVG_CHECK(data_.size() == shape_.numel(),
                  "data size " << data_.size() << " != shape numel " << shape_.numel());
}

void Tensor::index_out_of_range(std::size_t i) const {
  std::ostringstream msg;
  msg << "index " << i << " out of " << data_.size();
  detail::check_failed("i < numel()", __FILE__, __LINE__, msg.str());
}

float& Tensor::at2(std::size_t i, std::size_t j) {
  SUBFEDAVG_CHECK(shape_.rank() == 2, "at2 on shape " << shape_.to_string());
  SUBFEDAVG_CHECK(i < shape_[0] && j < shape_[1], "at2(" << i << "," << j << ")");
  return data_[i * shape_[1] + j];
}

float Tensor::at2(std::size_t i, std::size_t j) const {
  return const_cast<Tensor*>(this)->at2(i, j);
}

float& Tensor::at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
  SUBFEDAVG_CHECK(shape_.rank() == 4, "at4 on shape " << shape_.to_string());
  const std::size_t C = shape_[1], H = shape_[2], W = shape_[3];
  SUBFEDAVG_CHECK(n < shape_[0] && c < C && h < H && w < W,
                  "at4(" << n << "," << c << "," << h << "," << w << ")");
  return data_[((n * C + c) * H + h) * W + w];
}

float Tensor::at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
  return const_cast<Tensor*>(this)->at4(n, c, h, w);
}

Tensor& Tensor::reshape(Shape shape) {
  SUBFEDAVG_CHECK(shape.numel() == data_.size(),
                  "reshape " << shape_.to_string() << " -> " << shape.to_string());
  shape_ = std::move(shape);
  return *this;
}

void Tensor::fill(float value) noexcept {
  for (auto& x : data_) x = value;
}

Tensor& Tensor::add_(const Tensor& other) {
  SUBFEDAVG_CHECK(numel() == other.numel(), "add_ size mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::sub_(const Tensor& other) {
  SUBFEDAVG_CHECK(numel() == other.numel(), "sub_ size mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::mul_(const Tensor& other) {
  SUBFEDAVG_CHECK(numel() == other.numel(), "mul_ size mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Tensor& Tensor::scale_(float scalar) noexcept {
  for (auto& x : data_) x *= scalar;
  return *this;
}

Tensor& Tensor::axpy_(float scalar, const Tensor& other) {
  SUBFEDAVG_CHECK(numel() == other.numel(), "axpy_ size mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += scalar * other.data_[i];
  return *this;
}

double Tensor::sum() const noexcept {
  double s = 0.0;
  for (const float x : data_) s += x;
  return s;
}

double Tensor::mean() const noexcept { return data_.empty() ? 0.0 : sum() / data_.size(); }

float Tensor::abs_max() const noexcept {
  float m = 0.0f;
  for (const float x : data_) m = std::max(m, std::fabs(x));
  return m;
}

double Tensor::squared_norm() const noexcept {
  double s = 0.0;
  for (const float x : data_) s += static_cast<double>(x) * x;
  return s;
}

std::size_t Tensor::count_zero() const noexcept {
  std::size_t n = 0;
  for (const float x : data_) n += (x == 0.0f);
  return n;
}

void Tensor::fill_normal(Rng& rng, float mean, float stddev) {
  for (auto& x : data_) x = static_cast<float>(rng.normal(mean, stddev));
}

void Tensor::fill_uniform(Rng& rng, float lo, float hi) {
  for (auto& x : data_) x = static_cast<float>(rng.uniform(lo, hi));
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.add_(b);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.sub_(b);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.mul_(b);
  return out;
}

std::size_t argmax(std::span<const float> values) {
  SUBFEDAVG_CHECK(!values.empty(), "argmax of empty span");
  std::size_t best = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[best]) best = i;
  }
  return best;
}

}  // namespace subfed
