// Finite-difference gradient verification for every layer's backward pass.
//
// For a scalar loss L(θ), central differences give
//   dL/dθ_i ≈ (L(θ_i + ε) − L(θ_i − ε)) / 2ε.
// We compare against the analytic gradients on small random problems in
// double-friendly ranges. float32 storage limits precision, so tolerances are
// relative ~1e-2 with ε = 1e-2 — tight enough to catch any sign/indexing
// error while robust to rounding.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/pooling.h"
#include "util/rng.h"

namespace subfed {
namespace {

constexpr float kEps = 1e-2f;
constexpr double kTol = 2e-2;  // relative; absolute floor below

// Scalar loss over a model's logits: sum of softmax-CE against fixed labels.
double loss_of(Model& model, const Tensor& input, const std::vector<std::int32_t>& labels) {
  Tensor logits = model.forward(input, /*train=*/true);
  return softmax_cross_entropy(logits, labels).loss;
}

void check_close(double analytic, double numeric, const std::string& what) {
  const double scale = std::max({std::fabs(analytic), std::fabs(numeric), 1e-2});
  EXPECT_NEAR(analytic, numeric, kTol * scale) << what;
}

// Checks d(loss)/d(param) for every prunable/affine parameter of `model`,
// sub-sampling large tensors to keep runtime bounded.
void gradcheck_model(Model& model, const Tensor& input,
                     const std::vector<std::int32_t>& labels) {
  // Analytic gradients.
  model.zero_grad();
  Tensor logits = model.forward(input, true);
  const LossResult loss = softmax_cross_entropy(logits, labels);
  model.backward(loss.grad_logits);

  Rng pick(1234);
  for (Parameter* p : model.parameters()) {
    const std::size_t n = p->value.numel();
    const std::size_t samples = std::min<std::size_t>(n, 12);
    for (std::size_t s = 0; s < samples; ++s) {
      const std::size_t i = static_cast<std::size_t>(pick.uniform_index(n));
      const float saved = p->value[i];
      p->value[i] = saved + kEps;
      const double lp = loss_of(model, input, labels);
      p->value[i] = saved - kEps;
      const double lm = loss_of(model, input, labels);
      p->value[i] = saved;
      const double numeric = (lp - lm) / (2.0 * kEps);
      check_close(p->grad[i], numeric, p->name + "[" + std::to_string(i) + "]");
    }
  }
}

TEST(GradCheck, LinearOnly) {
  Rng rng(1);
  Model m;
  auto* fc = m.add(std::make_unique<Linear>("fc", 6, 4));
  fc->init(rng);
  Tensor x({3, 6});
  x.fill_normal(rng, 0.0f, 1.0f);
  gradcheck_model(m, x, {0, 2, 3});
}

TEST(GradCheck, LinearReluStack) {
  Rng rng(2);
  Model m;
  auto* fc1 = m.add(std::make_unique<Linear>("fc1", 8, 6));
  m.add(std::make_unique<ReLU>());
  auto* fc2 = m.add(std::make_unique<Linear>("fc2", 6, 3));
  fc1->init(rng);
  fc2->init(rng);
  Tensor x({4, 8});
  x.fill_normal(rng, 0.0f, 1.0f);
  gradcheck_model(m, x, {0, 1, 2, 0});
}

TEST(GradCheck, ConvOnly) {
  Rng rng(3);
  Model m;
  auto* conv = m.add(std::make_unique<Conv2d>("conv", 2, 3, 3));
  m.add(std::make_unique<Flatten>());
  conv->init(rng);
  Tensor x({2, 2, 5, 5});
  x.fill_normal(rng, 0.0f, 1.0f);
  gradcheck_model(m, x, {10, 3});
}

TEST(GradCheck, ConvWithStrideAndPad) {
  Rng rng(4);
  Model m;
  auto* conv = m.add(std::make_unique<Conv2d>("conv", 1, 2, 3, 2, 1));
  m.add(std::make_unique<Flatten>());
  conv->init(rng);
  Tensor x({2, 1, 6, 6});
  x.fill_normal(rng, 0.0f, 1.0f);
  gradcheck_model(m, x, {5, 11});
}

TEST(GradCheck, ConvPoolRelu) {
  Rng rng(5);
  Model m;
  auto* conv = m.add(std::make_unique<Conv2d>("conv", 1, 2, 3));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2d>(2));
  m.add(std::make_unique<Flatten>());
  conv->init(rng);
  Tensor x({2, 1, 7, 7});
  x.fill_normal(rng, 0.0f, 1.0f);
  gradcheck_model(m, x, {1, 7});
}

TEST(GradCheck, BatchNormStack) {
  Rng rng(6);
  Model m;
  auto* conv = m.add(std::make_unique<Conv2d>("conv", 1, 3, 3));
  m.add(std::make_unique<BatchNorm2d>("bn", 3));
  m.add(std::make_unique<Flatten>());
  conv->init(rng);
  Tensor x({4, 1, 5, 5});
  x.fill_normal(rng, 0.0f, 1.0f);
  gradcheck_model(m, x, {0, 8, 3, 5});
}

// For full models coordinate-wise checks are noisy: an ε-perturbation can
// flip ReLU gates or max-pool argmaxes (kinks), so instead verify the
// directional derivative along the analytic gradient:
//   (L(θ + ε·ĝ) − L(θ − ε·ĝ)) / 2ε ≈ ‖g‖.
// A sign/indexing bug anywhere in backward makes this fail badly; kink
// crossings average out over the whole parameter vector.
void gradcheck_directional(Model& m, const Tensor& x,
                           const std::vector<std::int32_t>& labels) {
  m.zero_grad();
  Tensor logits = m.forward(x, true);
  const LossResult loss = softmax_cross_entropy(logits, labels);
  m.backward(loss.grad_logits);

  double norm_sq = 0.0;
  for (Parameter* p : m.parameters()) norm_sq += p->grad.squared_norm();
  const double norm = std::sqrt(norm_sq);
  ASSERT_GT(norm, 0.0);

  // Small enough that curvature along the gradient direction is negligible
  // even for the deeper models, large enough to stay above float32
  // cancellation noise in the loss difference.
  const float step = 3e-4f;
  auto nudge = [&](float direction) {
    for (Parameter* p : m.parameters()) {
      for (std::size_t i = 0; i < p->value.numel(); ++i) {
        p->value[i] += direction * step * static_cast<float>(p->grad[i] / norm);
      }
    }
  };
  nudge(+1.0f);
  const double lp = loss_of(m, x, labels);
  nudge(-2.0f);
  const double lm = loss_of(m, x, labels);
  nudge(+1.0f);  // restore

  const double numeric = (lp - lm) / (2.0 * step);
  EXPECT_NEAR(numeric, norm, 0.05 * norm);
}

TEST(GradCheck, FullCnn5Directional) {
  Rng rng(7);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  Tensor x({3, 1, 28, 28});
  x.fill_normal(rng, 0.0f, 1.0f);
  gradcheck_directional(m, x, {0, 5, 9});
}

TEST(GradCheck, FullLeNet5Directional) {
  Rng rng(8);
  Model m = ModelSpec::lenet5(10).build_init(rng);
  Tensor x({2, 3, 32, 32});
  x.fill_normal(rng, 0.0f, 1.0f);
  gradcheck_directional(m, x, {2, 7});
}

TEST(GradCheck, FullCnnDeepDirectional) {
  Rng rng(10);
  Model m = ModelSpec::cnn_deep(10).build_init(rng);
  Tensor x({2, 3, 32, 32});
  x.fill_normal(rng, 0.0f, 1.0f);
  gradcheck_directional(m, x, {4, 9});
}

TEST(GradCheck, InputGradientOfLinear) {
  // Verify dL/dx flows correctly through backward's return value.
  Rng rng(9);
  Model m;
  auto* fc = m.add(std::make_unique<Linear>("fc", 5, 3));
  fc->set_input_grad(true);  // a Model's first layer skips dX unless asked
  fc->init(rng);
  Tensor x({2, 5});
  x.fill_normal(rng, 0.0f, 1.0f);
  const std::vector<std::int32_t> labels{1, 2};

  m.zero_grad();
  Tensor logits = m.forward(x, true);
  LossResult loss = softmax_cross_entropy(logits, labels);
  // Model::backward discards input grads; call the layer directly.
  Tensor gx = fc->backward(loss.grad_logits);

  for (std::size_t i = 0; i < 6; ++i) {
    const float saved = x[i];
    Tensor xp = x, xm = x;
    xp[i] = saved + kEps;
    xm[i] = saved - kEps;
    const double lp = loss_of(m, xp, labels);
    const double lm = loss_of(m, xm, labels);
    check_close(gx[i], (lp - lm) / (2.0 * kEps), "x[" + std::to_string(i) + "]");
  }
}

}  // namespace
}  // namespace subfed
