// Numerical gradient checks for every layer and composite.
// These are the load-bearing tests: every attack in this library depends
// on correct input gradients, and every training loop on parameter
// gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/composite.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/init.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "quant/qat_layers.h"
#include "test_helpers.h"

namespace diva {
namespace {

using testing::check_gradients;
using testing::random_tensor;

TEST(Gradients, Conv2dBasic) {
  Conv2d conv("c", 2, 3, 3, 1, 1);
  init_parameters(conv, 1);
  check_gradients(conv, random_tensor(Shape{2, 2, 5, 5}, 2), 3);
}

TEST(Gradients, Conv2dStridedNoPad) {
  Conv2d conv("c", 3, 4, 3, 2, 0);
  init_parameters(conv, 4);
  check_gradients(conv, random_tensor(Shape{2, 3, 7, 7}, 5), 6);
}

TEST(Gradients, Conv2dOneByOne) {
  Conv2d conv("c", 4, 2, 1, 1, 0);
  init_parameters(conv, 7);
  check_gradients(conv, random_tensor(Shape{1, 4, 4, 4}, 8), 9);
}

TEST(Gradients, Conv2dNoBias) {
  Conv2d conv("c", 2, 2, 3, 1, 1, /*with_bias=*/false);
  init_parameters(conv, 10);
  check_gradients(conv, random_tensor(Shape{1, 2, 4, 4}, 11), 12);
}

TEST(Gradients, DepthwiseConv2d) {
  DepthwiseConv2d conv("dw", 3, 3, 1, 1);
  init_parameters(conv, 13);
  check_gradients(conv, random_tensor(Shape{2, 3, 5, 5}, 14), 15);
}

TEST(Gradients, DepthwiseConv2dStrided) {
  DepthwiseConv2d conv("dw", 4, 3, 2, 1);
  init_parameters(conv, 16);
  check_gradients(conv, random_tensor(Shape{1, 4, 6, 6}, 17), 18);
}

TEST(Gradients, Dense) {
  Dense fc("fc", 6, 4);
  init_parameters(fc, 19);
  check_gradients(fc, random_tensor(Shape{3, 6}, 20), 21);
}

TEST(Gradients, BatchNormTrainingMode) {
  BatchNorm2d bn("bn", 3);
  Rng rng(22);
  bn.gamma().value.fill_uniform(rng, 0.5f, 1.5f);
  bn.beta().value.fill_uniform(rng, -0.5f, 0.5f);
  // Larger tolerances: finite differencing perturbs batch statistics.
  check_gradients(bn, random_tensor(Shape{3, 3, 4, 4}, 23), 24, 2e-4f, 8e-2f,
                  5e-3f);
}

TEST(Gradients, BatchNormEvalMode) {
  BatchNorm2d bn("bn", 2);
  Rng rng(25);
  bn.gamma().value.fill_uniform(rng, 0.5f, 1.5f);
  bn.running_mean().value.fill_uniform(rng, -0.3f, 0.3f);
  bn.running_var().value.fill_uniform(rng, 0.5f, 1.5f);

  // Eval-mode input gradient: BN is a per-channel affine transform.
  bn.set_training(false);
  Tensor x = random_tensor(Shape{2, 2, 3, 3}, 26);
  (void)bn.forward(x);
  Tensor probe = random_tensor(Shape{2, 2, 3, 3}, 27);
  bn.zero_grad();
  Tensor dx = bn.backward(probe);
  for (std::int64_t c = 0; c < 2; ++c) {
    const float k = bn.gamma().value[c] /
                    std::sqrt(bn.running_var().value[c] + bn.eps());
    for (std::int64_t n = 0; n < 2; ++n) {
      for (std::int64_t i = 0; i < 9; ++i) {
        const std::int64_t idx = (n * 2 + c) * 9 + i;
        EXPECT_NEAR(dx[idx], probe[idx] * k, 1e-5f);
      }
    }
  }
}

TEST(Gradients, BatchNormFrozenEvalBackwardLeavesParamGradsAlone) {
  // Attack mode (eval, parameter gradients off) must propagate the input
  // gradient only: gamma/beta gradients stay untouched, and the output
  // and input gradient are bit for bit those with parameter gradients
  // on, though the frozen forward stores no normalized input.
  BatchNorm2d bn("bn", 3);
  Rng rng(34);
  bn.gamma().value.fill_uniform(rng, 0.5f, 1.5f);
  bn.beta().value.fill_uniform(rng, -0.2f, 0.2f);
  bn.running_mean().value.fill_uniform(rng, -0.3f, 0.3f);
  bn.running_var().value.fill_uniform(rng, 0.5f, 1.5f);
  bn.set_training(false);
  const Tensor x = random_tensor(Shape{2, 3, 4, 5}, 35);
  const Tensor probe = random_tensor(x.shape(), 36);
  const std::size_t bytes = sizeof(float) * x.numel();

  const Tensor y_full = bn.forward(x);
  const Tensor dx_full = bn.backward(probe);

  bn.zero_grad();
  bn.set_param_grads_enabled(false);
  const Tensor y_frozen = bn.forward(x);
  const Tensor dx_frozen = bn.backward(probe);
  EXPECT_EQ(max_abs(bn.gamma().grad), 0.0f);
  EXPECT_EQ(max_abs(bn.beta().grad), 0.0f);
  EXPECT_GT(max_abs(dx_frozen), 0.0f);
  EXPECT_EQ(std::memcmp(y_full.raw(), y_frozen.raw(), bytes), 0);
  EXPECT_EQ(std::memcmp(dx_full.raw(), dx_frozen.raw(), bytes), 0);

  // Parameter gradients switched on between a frozen forward and its
  // backward: there is no normalized input to read, so backward throws.
  (void)bn.forward(x);
  bn.set_param_grads_enabled(true);
  EXPECT_THROW((void)bn.backward(probe), Error);
}

TEST(Gradients, ReluFamily) {
  Relu relu("r");
  check_gradients(relu, random_tensor(Shape{2, 3, 4, 4}, 28), 29);
  Relu6 relu6("r6");
  check_gradients(relu6, random_tensor(Shape{2, 8}, 30, -8.0f, 8.0f), 31);
  LeakyRelu lrelu("lr", 0.1f);
  check_gradients(lrelu, random_tensor(Shape{2, 6}, 32), 33);
}

// Forward and backward bytes of a pointwise activation against the
// formulas that read the input, on inputs that sit on every boundary of
// the pass region and one float either side of it.
template <typename Value, typename Grad>
void expect_pointwise_bytes(Module& m, std::vector<float> boundaries,
                            Value value, Grad grad) {
  std::vector<float> xs;
  for (const float b : boundaries) {
    xs.push_back(b);
    xs.push_back(std::nextafter(b, -INFINITY));
    xs.push_back(std::nextafter(b, INFINITY));
  }
  const Tensor noise = random_tensor(Shape{37}, 41, -8.0f, 8.0f);
  for (std::int64_t i = 0; i < noise.numel(); ++i) xs.push_back(noise[i]);
  const auto n = static_cast<std::int64_t>(xs.size());
  Tensor x(Shape{n}, std::move(xs));
  Tensor g = random_tensor(x.shape(), 42);
  g[0] = -0.25f;  // a blocked negative gradient must stay +0.0f
  Tensor want_y(x.shape()), want_dx(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    want_y[i] = value(x[i]);
    want_dx[i] = grad(x[i], g[i]);
  }
  const Tensor y = m.forward(x);
  const Tensor dx = m.backward(g);
  EXPECT_EQ(std::memcmp(y.raw(), want_y.raw(), sizeof(float) * y.numel()), 0)
      << m.name() << " forward";
  EXPECT_EQ(std::memcmp(dx.raw(), want_dx.raw(), sizeof(float) * dx.numel()),
            0)
      << m.name() << " backward";
}

TEST(Gradients, ActivationMasksBitIdenticalAtBoundaries) {
  Relu relu("r");
  expect_pointwise_bytes(
      relu, {0.0f, -0.0f}, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float g) { return x > 0.0f ? g : 0.0f; });
  Relu6 relu6("r6");
  expect_pointwise_bytes(
      relu6, {0.0f, 6.0f},
      [](float x) { return x <= 0.0f ? 0.0f : (x >= 6.0f ? 6.0f : x); },
      [](float x, float g) { return (x > 0.0f && x < 6.0f) ? g : 0.0f; });
  HardSigmoid hsig("hs");
  expect_pointwise_bytes(
      hsig, {-3.0f, 3.0f},
      [](float x) {
        const float y = x / 6.0f + 0.5f;
        return y <= 0.0f ? 0.0f : (y >= 1.0f ? 1.0f : y);
      },
      [](float x, float g) {
        return (x > -3.0f && x < 3.0f) ? g / 6.0f : 0.0f;
      });
  LeakyRelu lrelu("lr", 0.1f);
  expect_pointwise_bytes(
      lrelu, {0.0f, -0.0f},
      [](float x) { return x > 0.0f ? x : 0.1f * x; },
      [](float x, float g) { return x > 0.0f ? g : 0.1f * g; });
}

TEST(Gradients, MaxPool) {
  MaxPool2d pool("p", 2);
  check_gradients(pool, random_tensor(Shape{2, 2, 6, 6}, 34), 35);
}

TEST(Gradients, MaxPoolOverlapping) {
  MaxPool2d pool("p", 3, 2, 1);
  check_gradients(pool, random_tensor(Shape{1, 2, 7, 7}, 36), 37);
}

TEST(Gradients, AvgPool) {
  AvgPool2d pool("p", 2);
  check_gradients(pool, random_tensor(Shape{2, 3, 6, 6}, 38), 39);
}

TEST(Gradients, GlobalAvgPool) {
  GlobalAvgPool pool("gap");
  check_gradients(pool, random_tensor(Shape{2, 4, 3, 3}, 40), 41);
}

TEST(Gradients, Flatten) {
  Flatten f("f");
  check_gradients(f, random_tensor(Shape{2, 2, 3, 3}, 42), 43);
}

TEST(Gradients, SequentialChain) {
  Sequential seq("seq");
  seq.emplace<Conv2d>("c1", 2, 4, 3, 1, 1);
  seq.emplace<Relu>("r1");
  seq.emplace<MaxPool2d>("p1", 2);
  seq.emplace<Flatten>("f");
  seq.emplace<Dense>("fc", 4 * 3 * 3, 5);
  init_parameters(seq, 44);
  check_gradients(seq, random_tensor(Shape{2, 2, 6, 6}, 45), 46);
}

TEST(Gradients, ResidualIdentityShortcut) {
  auto main = std::make_unique<Sequential>("main");
  main->emplace<Conv2d>("c1", 3, 3, 3, 1, 1);
  main->emplace<Relu>("r");
  main->emplace<Conv2d>("c2", 3, 3, 3, 1, 1);
  Residual res("res", std::move(main));
  init_parameters(res, 47);
  check_gradients(res, random_tensor(Shape{2, 3, 5, 5}, 48), 49);
}

TEST(Gradients, ResidualProjectionShortcut) {
  auto main = std::make_unique<Sequential>("main");
  main->emplace<Conv2d>("c1", 2, 4, 3, 2, 1);
  auto shortcut = std::make_unique<Sequential>("shortcut");
  shortcut->emplace<Conv2d>("proj", 2, 4, 1, 2, 0);
  Residual res("res", std::move(main), std::move(shortcut));
  init_parameters(res, 50);
  check_gradients(res, random_tensor(Shape{2, 2, 6, 6}, 51), 52);
}

TEST(Gradients, DenseBranchConcat) {
  auto body = std::make_unique<Sequential>("body");
  body->emplace<Conv2d>("grow", 3, 2, 3, 1, 1);
  body->emplace<Relu>("r");
  DenseBranch db("db", std::move(body));
  init_parameters(db, 53);
  check_gradients(db, random_tensor(Shape{2, 3, 4, 4}, 54), 55);
}

TEST(Gradients, QatConvStraightThrough) {
  // QAT conv: gradients flow to master weights via STE; the input
  // gradient uses the quantized weights, so finite differences (which
  // rarely cross a quantization boundary at eps=1e-3) match.
  QatConv2d conv("qc", 2, 3, 3, 1, 1);
  init_parameters(conv, 56);
  Tensor x = random_tensor(Shape{1, 2, 4, 4}, 57);
  conv.set_training(true);
  Tensor out = conv.forward(x);
  Tensor probe = random_tensor(out.shape(), 58);
  conv.zero_grad();
  Tensor dx = conv.backward(probe);

  // Input gradient vs finite differences.
  for (std::int64_t i = 0; i < x.numel(); i += 5) {
    const float orig = x[i];
    const float eps = 1e-3f;
    x[i] = orig + eps;
    const float lp = testing::probe_loss(conv.forward(x), probe);
    x[i] = orig - eps;
    const float lm = testing::probe_loss(conv.forward(x), probe);
    x[i] = orig;
    EXPECT_NEAR(dx[i], (lp - lm) / (2 * eps), 5e-2f + 5e-2f * std::fabs(dx[i]));
  }
  // STE: master weight gradient is nonzero.
  float gsum = 0.0f;
  for (std::int64_t i = 0; i < conv.weight().grad.numel(); ++i) {
    gsum += std::fabs(conv.weight().grad[i]);
  }
  EXPECT_GT(gsum, 0.0f);
}

TEST(Gradients, EvalModeBackwardThroughWholeNetwork) {
  // Attacks differentiate eval-mode networks w.r.t. the input.
  Sequential seq("net");
  seq.emplace<Conv2d>("c1", 1, 4, 3, 1, 1);
  seq.emplace<BatchNorm2d>("bn", 4);
  seq.emplace<Relu>("r");
  seq.emplace<GlobalAvgPool>("gap");
  seq.emplace<Dense>("fc", 4, 3);
  init_parameters(seq, 59);
  // Populate running stats with one training pass.
  seq.set_training(true);
  (void)seq.forward(random_tensor(Shape{8, 1, 6, 6}, 60));
  seq.set_training(false);

  Tensor x = random_tensor(Shape{2, 1, 6, 6}, 61);
  Tensor out = seq.forward(x);
  Tensor probe = random_tensor(out.shape(), 62);
  seq.zero_grad();
  Tensor dx = seq.backward(probe);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < x.numel(); i += 7) {
    const float orig = x[i];
    x[i] = orig + eps;
    const float lp = testing::probe_loss(seq.forward(x), probe);
    x[i] = orig - eps;
    const float lm = testing::probe_loss(seq.forward(x), probe);
    x[i] = orig;
    const float num = (lp - lm) / (2 * eps);
    EXPECT_NEAR(dx[i], num, 1e-3f + 5e-2f * std::fabs(num));
  }
}

}  // namespace
}  // namespace diva
