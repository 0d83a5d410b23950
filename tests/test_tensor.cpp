// Tensor, Shape, and tensor-op unit tests.
#include <gtest/gtest.h>

#include "tensor/serialize.h"
#include "tensor/tensor_ops.h"
#include "test_helpers.h"

#include <sstream>

namespace diva {
namespace {

TEST(Shape, BasicProperties) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s[1], 3);
  EXPECT_EQ(s.str(), "[2, 3, 4]");
  // numel() is stored by every constructor, for every rank.
  EXPECT_EQ(Shape{}.numel(), 1);
  EXPECT_EQ(Shape(std::vector<std::int64_t>{}).numel(), 1);
  EXPECT_EQ(Shape(std::vector<std::int64_t>{2, 5}).numel(), 10);
  EXPECT_EQ((Shape{3, 0, 5}).numel(), 0);
  EXPECT_EQ(Tensor(Shape{3, 0, 5}).data().size(), 0u);
  const Shape copy = s;
  EXPECT_EQ(copy.numel(), 24);
}

TEST(Shape, EqualityAndValidation) {
  EXPECT_EQ((Shape{1, 2}), (Shape{1, 2}));
  EXPECT_NE((Shape{1, 2}), (Shape{2, 1}));
  EXPECT_THROW(Shape({-1, 2}), Error);
  EXPECT_THROW((void)Shape({2, 2})[5], Error);
}

TEST(Tensor, ConstructionAndFill) {
  Tensor t(Shape{2, 3}, 1.5f);
  EXPECT_EQ(t.numel(), 6);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 1.5f);
  t.fill(0.0f);
  EXPECT_EQ(sum(t), 0.0f);
}

TEST(Tensor, AccessorsMatchRowMajorLayout) {
  Tensor t(Shape{2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  Tensor u(Shape{2, 2, 2, 2});
  u.at(1, 0, 1, 0) = 3.0f;
  EXPECT_EQ(u[8 + 2], 3.0f);
}

TEST(Tensor, ReshapePreservesDataAndChecksNumel) {
  Tensor t(Shape{2, 3});
  for (std::int64_t i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
  Tensor r = t.reshaped(Shape{3, 2});
  EXPECT_EQ(r.at(2, 1), 5.0f);
  EXPECT_EQ(r.numel(), 6);
  const Tensor flat = std::move(r).reshaped(Shape{6});
  EXPECT_EQ(flat.numel(), 6);
  EXPECT_EQ(flat[5], 5.0f);
  EXPECT_THROW((void)t.reshaped(Shape{4, 2}), Error);
}

TEST(TensorOps, ElementwiseMath) {
  Tensor a(Shape{4}, 2.0f), b(Shape{4}, 3.0f);
  EXPECT_EQ(add(a, b)[0], 5.0f);
  EXPECT_EQ(sub(a, b)[0], -1.0f);
  EXPECT_EQ(mul(a, b)[0], 6.0f);
  EXPECT_EQ(add_scalar(a, 1.0f)[0], 3.0f);
  EXPECT_EQ(mul_scalar(a, -2.0f)[0], -4.0f);
  EXPECT_THROW(add(a, Tensor(Shape{3})), Error);
}

TEST(TensorOps, AxpyAndClampSign) {
  Tensor x(Shape{3});
  x[0] = -2.0f; x[1] = 0.0f; x[2] = 5.0f;
  Tensor y(Shape{3}, 1.0f);
  axpy(2.0f, x, y);
  EXPECT_EQ(y[0], -3.0f);
  EXPECT_EQ(y[2], 11.0f);
  Tensor c = clamp(x, -1.0f, 1.0f);
  EXPECT_EQ(c[0], -1.0f);
  EXPECT_EQ(c[2], 1.0f);
  Tensor s = sign(x);
  EXPECT_EQ(s[0], -1.0f);
  EXPECT_EQ(s[1], 0.0f);
  EXPECT_EQ(s[2], 1.0f);
}

TEST(TensorOps, MatmulAgainstHandComputed) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{3, 2});
  for (std::int64_t i = 0; i < 6; ++i) {
    a[i] = static_cast<float>(i + 1);      // [[1,2,3],[4,5,6]]
    b[i] = static_cast<float>((i + 1) * 2); // [[2,4],[6,8],[10,12]]
  }
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.at(0, 0), 1 * 2 + 2 * 6 + 3 * 10);
  EXPECT_EQ(c.at(0, 1), 1 * 4 + 2 * 8 + 3 * 12);
  EXPECT_EQ(c.at(1, 0), 4 * 2 + 5 * 6 + 6 * 10);
  EXPECT_EQ(c.at(1, 1), 4 * 4 + 5 * 8 + 6 * 12);
}

TEST(TensorOps, MatmulLargeParallelMatchesSerialReference) {
  const Tensor a = testing::random_tensor(Shape{67, 129}, 1);
  const Tensor b = testing::random_tensor(Shape{129, 83}, 2);
  const Tensor c = matmul(a, b);
  // Serial reference.
  for (std::int64_t i = 0; i < 67; i += 13) {
    for (std::int64_t j = 0; j < 83; j += 17) {
      double acc = 0;
      for (std::int64_t k = 0; k < 129; ++k) acc += a.at(i, k) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), acc, 1e-3);
    }
  }
}

TEST(TensorOps, TransposeRoundTrip) {
  const Tensor a = testing::random_tensor(Shape{5, 7}, 3);
  const Tensor att = transpose2d(transpose2d(a));
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], att[i]);
}

TEST(TensorOps, Im2ColIdentityKernel) {
  // 1x1 kernel, stride 1, no pad: im2col is the identity layout.
  const Tensor img = testing::random_tensor(Shape{2, 4, 4}, 4);
  ConvGeom g{2, 4, 4, 1, 1, 1, 0};
  std::vector<float> cols(static_cast<std::size_t>(2 * 16));
  im2col(img.raw(), g, cols.data());
  for (std::int64_t i = 0; i < 32; ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST(TensorOps, Col2ImIsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property.
  ConvGeom g{2, 5, 5, 3, 3, 2, 1};
  const std::int64_t cols_size = 2 * 9 * g.out_h() * g.out_w();
  const Tensor x = testing::random_tensor(Shape{2, 5, 5}, 5);
  const Tensor y = testing::random_tensor(Shape{cols_size}, 6);

  std::vector<float> cols(static_cast<std::size_t>(cols_size));
  im2col(x.raw(), g, cols.data());
  double lhs = 0;
  for (std::int64_t i = 0; i < cols_size; ++i) lhs += cols[i] * y[i];

  Tensor xt(Shape{2, 5, 5});
  col2im(y.raw(), g, xt.raw());
  double rhs = 0;
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += x[i] * xt[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

TEST(TensorOps, SoftmaxRowsSumToOneAndOrderPreserved) {
  const Tensor logits = testing::random_tensor(Shape{5, 9}, 7, -4.0f, 4.0f);
  const Tensor p = softmax_rows(logits);
  for (std::int64_t i = 0; i < 5; ++i) {
    double s = 0;
    for (std::int64_t j = 0; j < 9; ++j) {
      EXPECT_GT(p.at(i, j), 0.0f);
      s += p.at(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
  EXPECT_EQ(argmax_rows(p), argmax_rows(logits));
}

TEST(TensorOps, SoftmaxNumericallyStableForHugeLogits) {
  Tensor logits(Shape{1, 3});
  logits[0] = 10000.0f;
  logits[1] = 9999.0f;
  logits[2] = -10000.0f;
  const Tensor p = softmax_rows(logits);
  EXPECT_TRUE(std::isfinite(p[0]));
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0f, 1e-5f);
  EXPECT_GT(p[0], p[1]);
}

TEST(TensorOps, LogSoftmaxMatchesLogOfSoftmax) {
  const Tensor logits = testing::random_tensor(Shape{3, 6}, 8, -2.0f, 2.0f);
  const Tensor lp = log_softmax_rows(logits);
  const Tensor p = softmax_rows(logits);
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    EXPECT_NEAR(lp[i], std::log(p[i]), 1e-5f);
  }
}

TEST(TensorOps, TopkRowsDescendingAndConsistentWithArgmax) {
  const Tensor m = testing::random_tensor(Shape{4, 10}, 9);
  const auto topk = topk_rows(m, 5);
  const auto top1 = argmax_rows(m);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(topk[static_cast<std::size_t>(i)][0], top1[static_cast<std::size_t>(i)]);
    for (int k = 1; k < 5; ++k) {
      EXPECT_GE(m.at(i, topk[static_cast<std::size_t>(i)][k - 1]),
                m.at(i, topk[static_cast<std::size_t>(i)][k]));
    }
  }
  EXPECT_THROW(topk_rows(m, 11), Error);
}

TEST(TensorOps, Reductions) {
  Tensor t(Shape{4});
  t[0] = -3.0f; t[1] = 1.0f; t[2] = 2.0f; t[3] = 0.0f;
  EXPECT_EQ(sum(t), 0.0f);
  EXPECT_EQ(mean(t), 0.0f);
  EXPECT_EQ(max_value(t), 2.0f);
  EXPECT_EQ(min_value(t), -3.0f);
  EXPECT_EQ(max_abs(t), 3.0f);
}

TEST(TensorOps, BatchSliceGatherConcat) {
  const Tensor batch = testing::random_tensor(Shape{3, 2, 2, 2}, 10);
  const Tensor s1 = slice_batch(batch, 1);
  EXPECT_EQ(s1.shape(), (Shape{1, 2, 2, 2}));
  EXPECT_EQ(s1[0], batch[8]);

  const Tensor g = gather_batch(batch, {2, 0});
  EXPECT_EQ(g.dim(0), 2);
  EXPECT_EQ(g[0], batch[16]);

  const Tensor a = testing::random_tensor(Shape{2, 3, 2, 2}, 11);
  const Tensor b = testing::random_tensor(Shape{2, 1, 2, 2}, 12);
  const Tensor c = concat_channels(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 4, 2, 2}));
  EXPECT_EQ(c.at(1, 3, 1, 1), b.at(1, 0, 1, 1));
  EXPECT_EQ(c.at(1, 0, 0, 0), a.at(1, 0, 0, 0));
}

TEST(Serialize, TensorRoundTrip) {
  const Tensor t = testing::random_tensor(Shape{2, 3, 4}, 13);
  std::stringstream ss;
  write_tensor(ss, t);
  const Tensor r = read_tensor(ss);
  ASSERT_EQ(r.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(r[i], t[i]);
}

TEST(Serialize, StringAndScalars) {
  std::stringstream ss;
  write_string(ss, "hello");
  write_i64(ss, -42);
  write_f32(ss, 2.5f);
  EXPECT_EQ(read_string(ss), "hello");
  EXPECT_EQ(read_i64(ss), -42);
  EXPECT_EQ(read_f32(ss), 2.5f);
}

TEST(Rng, DeterministicAndSplit) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c = a.split(1), d = a.split(2);
  EXPECT_NE(c.next(), d.next());
}

TEST(Rng, UniformBoundsAndNormalMoments) {
  Rng rng(7);
  double s = 0, s2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const float u = rng.uniform(2.0f, 3.0f);
    EXPECT_GE(u, 2.0f);
    EXPECT_LT(u, 3.0f);
    const float g = rng.normal();
    s += g;
    s2 += g * g;
  }
  EXPECT_NEAR(s / n, 0.0, 0.05);
  EXPECT_NEAR(s2 / n, 1.0, 0.05);
}

TEST(Rng, RandintInRangeAndRoughlyUniform) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.randint(10);
    ASSERT_LT(v, 10u);
    counts[static_cast<std::size_t>(v)]++;
  }
  for (int c : counts) EXPECT_GT(c, 700);
}

}  // namespace
}  // namespace diva
