// Quantization stack tests: qparams math, fake-quant, fixed-point
// requantization, int8 kernels, and QAT layers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "quant/fake_quant.h"
#include "quant/int8_kernels.h"
#include "quant/qat_layers.h"
#include "nn/init.h"
#include "test_helpers.h"

namespace diva {
namespace {

using testing::random_tensor;

// The rounding formula round_to_codes replaced, kept here as the
// reference. Valid while lround(v) fits an int32.
std::int32_t lround_code(float v, std::int32_t zp) {
  const auto q = static_cast<std::int32_t>(std::lround(v)) + zp;
  return std::clamp<std::int32_t>(q, kQmin, kQmax);
}

// Runs round_to_codes over `v` twice: once whole (SIMD body plus tail)
// and once an element at a time (scalar tail only). Both must give
// `want` exactly.
void expect_codes(const std::vector<float>& v, std::int32_t zp,
                  const std::vector<std::int32_t>& want) {
  std::vector<float> whole = v;
  round_to_codes(whole, zp);
  for (std::size_t i = 0; i < v.size(); ++i) {
    float one = v[i];
    round_to_codes({&one, 1}, zp);
    ASSERT_EQ(whole[i], static_cast<float>(want[i]))
        << "v=" << v[i] << " zp=" << zp << " at " << i;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(one),
              std::bit_cast<std::uint32_t>(whole[i]))
        << "scalar tail differs at v=" << v[i];
  }
}

void expect_lround_codes(const std::vector<float>& v) {
  for (const std::int32_t zp : {0, kQmin, kQmax, -3, 17}) {
    std::vector<std::int32_t> want;
    for (const float x : v) want.push_back(lround_code(x, zp));
    expect_codes(v, zp, want);
  }
}

TEST(RoundToCodes, MatchesLroundOnEveryTieAndItsNeighbours) {
  std::vector<float> v;
  for (int k = -1100; k <= 1100; ++k) {
    for (const float tie : {k - 0.5f, k + 0.5f}) {
      v.push_back(tie);
      v.push_back(std::nextafter(tie, -INFINITY));
      v.push_back(std::nextafter(tie, INFINITY));
    }
    v.push_back(static_cast<float>(k));
  }
  // An odd length: the whole-array pass ends in the scalar tail too.
  while (v.size() % 4 != 3) v.push_back(0.25f);
  expect_lround_codes(v);
}

TEST(RoundToCodes, MatchesLroundOnZerosDenormalsAndLargeValues) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  expect_lround_codes({0.0f, -0.0f, denorm, -denorm, 1e-40f, -1e-40f,
                       std::numeric_limits<float>::min(), 1e9f, -1e9f,
                       2147483520.0f, -2147483520.0f});
}

TEST(RoundToCodes, MatchesLroundOnSeededRandomFloats) {
  Rng rng(2024);
  std::vector<float> v;
  while (v.size() < 1000001) {
    if (v.size() % 2 == 0) {
      v.push_back(rng.uniform(-1100.0f, 1100.0f));
      continue;
    }
    // Random bit patterns cover every exponent; keep those whose
    // lround fits an int32, where the reference formula is defined.
    const float x = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next()));
    if (std::isfinite(x) && std::fabs(x) < 2e9f) v.push_back(x);
  }
  for (const std::int32_t zp : {0, -7}) {
    std::vector<std::int32_t> want;
    for (const float x : v) want.push_back(lround_code(x, zp));
    expect_codes(v, zp, want);
  }
}

TEST(RoundToCodes, SaturatesInfinitiesAndSendsNanToTheZeroPoint) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const std::int32_t zp : {0, kQmin, 42}) {
    expect_codes({inf, -inf, nan, -nan, 3e9f, -3e9f, 1e30f},
                 zp, {kQmax, kQmin, zp, zp, kQmax, kQmin, kQmax});
  }
}

TEST(QParams, QuantizeSaturatesWhereLroundOverflowsInt32) {
  // x / scale = 2.55e9 overflows int32: the old cast wrapped it to the
  // opposite end of the grid.
  const QuantParams qp = choose_qparams(-1.0f, 1.0f);
  EXPECT_EQ(qp.quantize(2e7f), kQmax);
  EXPECT_EQ(qp.quantize(-2e7f), kQmin);
  EXPECT_EQ(qp.quantize(std::numeric_limits<float>::quiet_NaN()),
            qp.zero_point);
  Tensor x(Shape{3});
  x[0] = 2e7f;
  x[1] = -2e7f;
  x[2] = std::numeric_limits<float>::quiet_NaN();
  const Tensor y = fake_quantize(x, qp);
  EXPECT_EQ(y[0], qp.dequantize(static_cast<std::int8_t>(kQmax)));
  EXPECT_EQ(y[1], qp.dequantize(static_cast<std::int8_t>(kQmin)));
  EXPECT_EQ(y[2], 0.0f);
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), sizeof(float) * a.numel()) == 0;
}

TEST(FakeQuant, BitIdenticalToTheLroundFormula) {
  // fake_quantize keeps v = x * (1 / scale); every element crosses the
  // grid, including both clip regions, over an odd length.
  const QuantParams qp = choose_qparams(-0.7f, 2.3f);
  const Tensor x = random_tensor(Shape{1027}, 9, -3.0f, 4.0f);
  const float inv = 1.0f / qp.scale;
  Tensor want(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const std::int32_t qc = lround_code(x[i] * inv, qp.zero_point);
    want[i] = static_cast<float>(qc - qp.zero_point) * qp.scale;
  }
  EXPECT_TRUE(same_bytes(fake_quantize(x, qp), want));
}

TEST(FakeQuant, PerChannelBitIdenticalToTheLroundFormula) {
  const Tensor w = random_tensor(Shape{5, 3, 3, 3}, 10);
  std::vector<float> scales = per_channel_scales(w);
  scales[1] *= 0.25f;  // channel 1 clips
  const std::int64_t per = w.numel() / 5;
  Tensor want(w.shape());
  for (std::int64_t c = 0; c < 5; ++c) {
    const float s = scales[static_cast<std::size_t>(c)];
    for (std::int64_t i = 0; i < per; ++i) {
      want[c * per + i] =
          static_cast<float>(lround_code(w[c * per + i] * (1.0f / s), 0)) * s;
    }
  }
  EXPECT_TRUE(same_bytes(fake_quantize_per_channel(w, scales), want));
}

TEST(QParams, QuantizeTensorAndPerChannelMatchTheLroundFormula) {
  const QuantParams qp = choose_qparams(-1.0f, 3.0f);
  const Tensor x = random_tensor(Shape{203}, 11, -2.0f, 4.0f);
  const auto q = quantize_tensor(x, qp);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    ASSERT_EQ(q[static_cast<std::size_t>(i)],
              lround_code(x[i] / qp.scale, qp.zero_point));
  }
  const Tensor w = random_tensor(Shape{3, 7}, 12);
  const auto scales = per_channel_scales(w);
  const auto qw = quantize_per_channel(w, scales);
  for (std::int64_t c = 0; c < 3; ++c) {
    for (std::int64_t i = 0; i < 7; ++i) {
      ASSERT_EQ(qw[static_cast<std::size_t>(c * 7 + i)],
                lround_code(w.at(c, i) * (1.0f / scales[c]), 0));
    }
  }
}

// Exposes the fake-quantized weight the QAT dense layer runs with.
struct QatDenseProbe : QatDense {
  using QatDense::QatDense;
  using QatDense::effective_weight;
};

TEST(QatLayers, QatDenseEffectiveWeightBitIdenticalToTheLroundFormula) {
  // QatDense keeps v = w / s (not w * (1 / s)).
  QatDenseProbe fc("qfc", 9, 7);
  init_parameters(fc, 18);
  const Tensor& w = fc.weight().value;
  const auto scales = fc.weight_scales();
  Tensor want(w.shape());
  for (std::int64_t i = 0; i < 9; ++i) {
    for (std::int64_t j = 0; j < 7; ++j) {
      const float s = scales[static_cast<std::size_t>(j)];
      want.at(i, j) = static_cast<float>(lround_code(w.at(i, j) / s, 0)) * s;
    }
  }
  Tensor scratch;
  EXPECT_TRUE(same_bytes(fc.effective_weight(scratch), want));
}

TEST(QParams, ChooseQParamsIncludesZeroAndCoversRange) {
  const QuantParams qp = choose_qparams(-1.0f, 3.0f);
  EXPECT_NEAR(qp.scale, 4.0f / 255.0f, 1e-6f);
  // Real zero must be exactly representable.
  EXPECT_NEAR(qp.dequantize(static_cast<std::int8_t>(qp.zero_point)), 0.0f,
              1e-9f);
  // Range endpoints map near the int8 extremes.
  EXPECT_LE(std::abs(static_cast<int>(qp.quantize(-1.0f)) - kQmin), 1);
  EXPECT_LE(std::abs(static_cast<int>(qp.quantize(3.0f)) - kQmax), 1);
}

TEST(QParams, PositiveOnlyRangeGetsZeroPointAtQmin) {
  const QuantParams qp = choose_qparams(0.0f, 6.0f);
  EXPECT_EQ(qp.zero_point, kQmin);
  EXPECT_EQ(qp.quantize(0.0f), kQmin);
}

TEST(QParams, DegenerateRange) {
  const QuantParams qp = choose_qparams(0.0f, 0.0f);
  EXPECT_EQ(qp.scale, 1.0f);
  EXPECT_EQ(qp.zero_point, 0);
}

TEST(QParams, QuantizeDequantizeErrorBoundedByHalfScale) {
  const QuantParams qp = choose_qparams(-2.0f, 2.0f);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const float x = rng.uniform(-2.0f, 2.0f);
    const float xr = qp.dequantize(qp.quantize(x));
    EXPECT_LE(std::fabs(x - xr), qp.scale * 0.5f + 1e-6f);
  }
}

TEST(QParams, PerChannelScalesMatchMaxAbs) {
  Tensor w(Shape{2, 3});
  w.at(0, 0) = -0.5f; w.at(0, 1) = 0.25f; w.at(0, 2) = 0.1f;
  w.at(1, 0) = 2.0f;  w.at(1, 1) = -1.0f; w.at(1, 2) = 0.0f;
  const auto scales = per_channel_scales(w);
  EXPECT_NEAR(scales[0], 0.5f / 127.0f, 1e-7f);
  EXPECT_NEAR(scales[1], 2.0f / 127.0f, 1e-7f);
}

TEST(QParams, QuantizePerChannelRoundTripBound) {
  const Tensor w = random_tensor(Shape{4, 10}, 2);
  const auto scales = per_channel_scales(w);
  const auto q = quantize_per_channel(w, scales);
  for (std::int64_t c = 0; c < 4; ++c) {
    for (std::int64_t i = 0; i < 10; ++i) {
      const float back = q[static_cast<std::size_t>(c * 10 + i)] *
                         scales[static_cast<std::size_t>(c)];
      EXPECT_LE(std::fabs(back - w.at(c, i)),
                scales[static_cast<std::size_t>(c)] * 0.5f + 1e-6f);
    }
  }
}

TEST(FixedPoint, QuantizeMultiplierReconstructs) {
  for (const double m : {0.0001, 0.37, 0.5, 0.9999, 1.0, 1.7, 42.5}) {
    std::int32_t mult = 0;
    int shift = 0;
    quantize_multiplier(m, &mult, &shift);
    const double back =
        static_cast<double>(mult) / (1LL << 31) * std::pow(2.0, shift);
    EXPECT_NEAR(back / m, 1.0, 1e-6) << "m=" << m;
  }
}

TEST(FixedPoint, MultiplyByQuantizedMultiplierMatchesRealArithmetic) {
  Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    const double m = std::exp(rng.uniform(-6.0f, 1.0f));
    std::int32_t mult = 0;
    int shift = 0;
    quantize_multiplier(m, &mult, &shift);
    const auto x = static_cast<std::int32_t>(rng.randint(200000)) - 100000;
    const std::int32_t got = multiply_by_quantized_multiplier(x, mult, shift);
    const double want = x * m;
    EXPECT_NEAR(got, want, std::max(1.0, std::fabs(want) * 1e-5))
        << "m=" << m << " x=" << x;
  }
}

TEST(FixedPoint, RoundingDivideByPotRoundsTiesAwayFromZero) {
  // gemmlowp semantics: round to nearest, ties away from zero.
  EXPECT_EQ(rounding_divide_by_pot(5, 1), 3);    // 2.5 -> 3
  EXPECT_EQ(rounding_divide_by_pot(-5, 1), -3);  // -2.5 -> -3
  EXPECT_EQ(rounding_divide_by_pot(4, 2), 1);
  EXPECT_EQ(rounding_divide_by_pot(7, 2), 2);
  EXPECT_EQ(rounding_divide_by_pot(-7, 2), -2);  // -1.75 -> -2
  EXPECT_EQ(rounding_divide_by_pot(-6, 2), -2);  // -1.5 -> -2
  EXPECT_EQ(rounding_divide_by_pot(100, 0), 100);
}

TEST(FakeQuant, MatchesManualGrid) {
  const QuantParams qp = choose_qparams(-1.0f, 1.0f);
  const Tensor x = random_tensor(Shape{100}, 4, -1.5f, 1.5f);
  const Tensor y = fake_quantize(x, qp);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(y[i], qp.dequantize(qp.quantize(x[i])), 1e-6f);
  }
}

TEST(FakeQuant, IdempotentOnGridValues) {
  const QuantParams qp = choose_qparams(-1.0f, 1.0f);
  const Tensor x = random_tensor(Shape{64}, 5, -1.0f, 1.0f);
  const Tensor once = fake_quantize(x, qp);
  const Tensor twice = fake_quantize(once, qp);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(once[i], twice[i]);
}

TEST(ActFakeQuant, ObservesInTrainingAndFreezesInEval) {
  ActFakeQuant fq("fq");
  EXPECT_FALSE(fq.initialized());

  // Uninitialized eval mode: identity.
  const Tensor x = random_tensor(Shape{32}, 6, -2.0f, 2.0f);
  fq.set_training(false);
  const Tensor y0 = fq.forward(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y0[i], x[i]);

  fq.set_training(true);
  (void)fq.forward(x);
  EXPECT_TRUE(fq.initialized());
  EXPECT_NEAR(fq.observed_min(), min_value(x), 1e-6f);
  EXPECT_NEAR(fq.observed_max(), max_value(x), 1e-6f);

  // Eval mode applies the frozen grid.
  fq.set_training(false);
  const Tensor y = fq.forward(x);
  const QuantParams qp = fq.qparams();
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(y[i], qp.dequantize(qp.quantize(x[i])), 1e-6f);
  }
}

TEST(ActFakeQuant, EmaTracksShiftingRange) {
  ActFakeQuant fq("fq", /*ema_momentum=*/0.5f);
  fq.set_training(true);
  Tensor a(Shape{4}, 0.0f);
  a[0] = -1.0f;
  a[3] = 1.0f;
  (void)fq.forward(a);
  Tensor b(Shape{4}, 0.0f);
  b[0] = -3.0f;
  b[3] = 3.0f;
  (void)fq.forward(b);
  EXPECT_NEAR(fq.observed_min(), -2.0f, 1e-6f);  // -1 + 0.5*(-3 - -1)
  EXPECT_NEAR(fq.observed_max(), 2.0f, 1e-6f);
}

TEST(ActFakeQuant, SteBackwardMasksClippedRegions) {
  ActFakeQuant fq("fq");
  fq.set_range(-1.0f, 1.0f);
  fq.set_training(false);
  Tensor x(Shape{3});
  x[0] = -5.0f;  // clipped below
  x[1] = 0.3f;   // in range
  x[2] = 5.0f;   // clipped above
  (void)fq.forward(x);
  Tensor g(Shape{3}, 1.0f);
  const Tensor dx = fq.backward(g);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 1.0f);
  EXPECT_EQ(dx[2], 0.0f);
}

TEST(ActFakeQuant, ByteMaskBitIdenticalToTheFloatMask) {
  // Inputs on lo and hi exactly, and just outside them, must pass and
  // clip as the float-mask formula did; the backward keeps -0.0f for a
  // clipped negative gradient and NaN for a clipped NaN gradient.
  ActFakeQuant fq("fq");
  fq.set_range(-0.9f, 2.1f);
  fq.set_training(false);
  const QuantParams qp = fq.qparams();
  const float lo = (static_cast<float>(kQmin) - qp.zero_point) * qp.scale;
  const float hi = (static_cast<float>(kQmax) - qp.zero_point) * qp.scale;
  Tensor x = random_tensor(Shape{2, 3, 5, 7}, 19, -1.5f, 2.5f);
  x[0] = lo;
  x[1] = hi;
  x[2] = std::nextafter(lo, -INFINITY);
  x[3] = std::nextafter(hi, INFINITY);
  Tensor g = random_tensor(x.shape(), 20);
  g[2] = -0.5f;
  g[3] = std::numeric_limits<float>::quiet_NaN();

  Tensor want_y(x.shape()), want_dx(x.shape());
  const float inv = 1.0f / qp.scale;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const std::int32_t qc = lround_code(x[i] * inv, qp.zero_point);
    want_y[i] = static_cast<float>(qc - qp.zero_point) * qp.scale;
    const float mask = (x[i] >= lo && x[i] <= hi) ? 1.0f : 0.0f;
    want_dx[i] = g[i] * mask;
  }
  EXPECT_TRUE(same_bytes(fq.forward(x), want_y));
  const Tensor dx = fq.backward(g);
  EXPECT_TRUE(same_bytes(dx, want_dx));
  EXPECT_EQ(dx[0], g[0]);
  EXPECT_EQ(dx[1], g[1]);
  EXPECT_TRUE(std::signbit(dx[2]));
  EXPECT_TRUE(std::isnan(dx[3]));
}

TEST(Int8Kernels, QDenseMatchesFloatReference) {
  Rng rng(7);
  const std::int64_t in_f = 32, out_f = 8;
  const Tensor x = random_tensor(Shape{in_f}, 8, -1.0f, 1.0f);
  Tensor w(Shape{out_f, in_f});
  w.fill_uniform(rng, -0.5f, 0.5f);
  Tensor bias(Shape{out_f});
  bias.fill_uniform(rng, -0.2f, 0.2f);

  const QuantParams in_qp = choose_qparams(-1.0f, 1.0f);
  const QuantParams out_qp = choose_qparams(-8.0f, 8.0f);
  const auto w_scales = per_channel_scales(w);
  const auto wq = quantize_per_channel(w, w_scales);
  const auto xq = quantize_tensor(x, in_qp);

  std::vector<std::int32_t> bq(static_cast<std::size_t>(out_f));
  for (std::int64_t o = 0; o < out_f; ++o) {
    bq[static_cast<std::size_t>(o)] = static_cast<std::int32_t>(std::lround(
        bias[o] / (in_qp.scale * w_scales[static_cast<std::size_t>(o)])));
  }
  const RequantChannel rq = make_requant(in_qp.scale, w_scales, out_qp.scale);
  std::vector<std::int8_t> out(static_cast<std::size_t>(out_f));
  qdense(xq.data(), in_f, in_qp.zero_point, wq.data(), out_f, bq.data(), rq,
         out_qp.zero_point, kQmin, kQmax, out.data());

  for (std::int64_t o = 0; o < out_f; ++o) {
    double ref = bias[o];
    for (std::int64_t i = 0; i < in_f; ++i) ref += w.at(o, i) * x[i];
    const float got = out_qp.dequantize(out[static_cast<std::size_t>(o)]);
    // Error budget: input rounding (in_qp.scale/2 per element, ~sqrt(n)
    // accumulation), weight rounding, output rounding.
    EXPECT_NEAR(got, ref, 0.15) << "unit " << o;
  }
}

TEST(Int8Kernels, QConvMatchesFloatReferenceWithPadding) {
  Rng rng(9);
  ConvGeom g{3, 8, 8, 3, 3, 1, 1};
  const std::int64_t out_c = 4;
  const Tensor x = random_tensor(Shape{3, 8, 8}, 10, 0.0f, 1.0f);
  Tensor w(Shape{out_c, 3, 3, 3});
  w.fill_uniform(rng, -0.4f, 0.4f);
  Tensor bias(Shape{out_c});
  bias.fill_uniform(rng, -0.3f, 0.3f);

  const QuantParams in_qp = choose_qparams(0.0f, 1.0f);
  const QuantParams out_qp = choose_qparams(-4.0f, 4.0f);
  const auto w_scales = per_channel_scales(w);
  const auto wq = quantize_per_channel(w, w_scales);
  const auto xq = quantize_tensor(x, in_qp);
  std::vector<std::int32_t> bq(static_cast<std::size_t>(out_c));
  for (std::int64_t c = 0; c < out_c; ++c) {
    bq[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(std::lround(
        bias[c] / (in_qp.scale * w_scales[static_cast<std::size_t>(c)])));
  }
  const RequantChannel rq = make_requant(in_qp.scale, w_scales, out_qp.scale);
  std::vector<std::int8_t> out(static_cast<std::size_t>(out_c * 64));
  qconv2d(xq.data(), g, in_qp.zero_point, wq.data(), out_c, bq.data(), rq,
          out_qp.zero_point, kQmin, kQmax, out.data());

  // Float reference conv.
  for (std::int64_t oc = 0; oc < out_c; ++oc) {
    for (std::int64_t y = 0; y < 8; y += 3) {
      for (std::int64_t xo = 0; xo < 8; xo += 3) {
        double ref = bias[oc];
        for (std::int64_t c = 0; c < 3; ++c) {
          for (std::int64_t kh = 0; kh < 3; ++kh) {
            for (std::int64_t kw = 0; kw < 3; ++kw) {
              const std::int64_t iy = y - 1 + kh, ix = xo - 1 + kw;
              if (iy < 0 || iy >= 8 || ix < 0 || ix >= 8) continue;
              ref += w.at(oc, c, kh, kw) * x[(c * 8 + iy) * 8 + ix];
            }
          }
        }
        const float got = out_qp.dequantize(
            out[static_cast<std::size_t>((oc * 8 + y) * 8 + xo)]);
        EXPECT_NEAR(got, ref, 0.12)
            << "oc=" << oc << " y=" << y << " x=" << xo;
      }
    }
  }
}

TEST(Int8Kernels, FusedReluClampsNegativeOutputs) {
  // One 1x1 conv unit with a strongly negative weight: with the fused
  // relu bound (act_min = zero_point) outputs must dequantize to >= 0.
  ConvGeom g{1, 2, 2, 1, 1, 1, 0};
  const QuantParams in_qp = choose_qparams(0.0f, 1.0f);
  const QuantParams out_qp = choose_qparams(0.0f, 2.0f);
  const float wf = -1.5f;
  const std::vector<float> ws{1.5f / 127.0f};
  const std::vector<std::int8_t> wq{static_cast<std::int8_t>(-127)};
  (void)wf;
  const RequantChannel rq = make_requant(in_qp.scale, ws, out_qp.scale);
  std::vector<std::int8_t> in{in_qp.quantize(0.9f), in_qp.quantize(0.1f),
                              in_qp.quantize(0.5f), in_qp.quantize(0.0f)};
  std::vector<std::int8_t> out(4);
  qconv2d(in.data(), g, in_qp.zero_point, wq.data(), 1, nullptr, rq,
          out_qp.zero_point, out_qp.zero_point, kQmax, out.data());
  for (const std::int8_t q : out) {
    EXPECT_GE(out_qp.dequantize(q), 0.0f);
  }
}

TEST(Int8Kernels, QAddMatchesFloatReference) {
  const QuantParams qp_a = choose_qparams(-1.0f, 1.0f);
  const QuantParams qp_b = choose_qparams(-2.0f, 2.0f);
  const QuantParams qp_o = choose_qparams(-3.0f, 3.0f);
  Rng rng(11);
  std::vector<std::int8_t> a(64), b(64), out(64);
  std::vector<float> fa(64), fb(64);
  for (int i = 0; i < 64; ++i) {
    fa[static_cast<std::size_t>(i)] = rng.uniform(-1.0f, 1.0f);
    fb[static_cast<std::size_t>(i)] = rng.uniform(-2.0f, 2.0f);
    a[static_cast<std::size_t>(i)] = qp_a.quantize(fa[static_cast<std::size_t>(i)]);
    b[static_cast<std::size_t>(i)] = qp_b.quantize(fb[static_cast<std::size_t>(i)]);
  }
  qadd(a, qp_a, b, qp_b, qp_o, kQmin, kQmax, out);
  for (int i = 0; i < 64; ++i) {
    const float ref = qp_a.dequantize(a[static_cast<std::size_t>(i)]) +
                      qp_b.dequantize(b[static_cast<std::size_t>(i)]);
    EXPECT_NEAR(qp_o.dequantize(out[static_cast<std::size_t>(i)]), ref,
                qp_o.scale * 1.01f);
  }
}

TEST(Int8Kernels, RequantizeRoundTripWithinOneStep) {
  const QuantParams qp_in = choose_qparams(-1.0f, 1.0f);
  const QuantParams qp_out = choose_qparams(-1.3f, 0.9f);
  std::vector<std::int8_t> in(256), out(256);
  for (int i = 0; i < 256; ++i) {
    in[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(i - 128);
  }
  qrequantize(in, qp_in, qp_out, out);
  for (int i = 0; i < 256; ++i) {
    const float x = qp_in.dequantize(in[static_cast<std::size_t>(i)]);
    const float y = qp_out.dequantize(out[static_cast<std::size_t>(i)]);
    if (x >= -1.3f && x <= 0.9f) {
      EXPECT_NEAR(y, x, qp_out.scale * 0.75f);
    }
  }
}

TEST(Int8Kernels, QMaxPoolEqualsFloatMaxPool) {
  const QuantParams qp = choose_qparams(-1.0f, 1.0f);
  const Tensor x = random_tensor(Shape{2, 4, 4}, 12, -1.0f, 1.0f);
  const auto xq = quantize_tensor(x, qp);
  ConvGeom g{2, 4, 4, 2, 2, 2, 0};
  std::vector<std::int8_t> out(static_cast<std::size_t>(2 * 4));
  qmaxpool2d(xq.data(), g, out.data());
  for (std::int64_t c = 0; c < 2; ++c) {
    for (std::int64_t y = 0; y < 2; ++y) {
      for (std::int64_t xo = 0; xo < 2; ++xo) {
        std::int8_t want = kQmin;
        for (int kh = 0; kh < 2; ++kh) {
          for (int kw = 0; kw < 2; ++kw) {
            want = std::max(
                want, xq[static_cast<std::size_t>(
                          (c * 4 + y * 2 + kh) * 4 + xo * 2 + kw)]);
          }
        }
        EXPECT_EQ(out[static_cast<std::size_t>((c * 2 + y) * 2 + xo)], want);
      }
    }
  }
}

TEST(Int8Kernels, QGlobalAvgPoolMatchesMean) {
  const QuantParams qp = choose_qparams(0.0f, 1.0f);
  const Tensor x = random_tensor(Shape{3, 5, 5}, 13, 0.0f, 1.0f);
  const auto xq = quantize_tensor(x, qp);
  std::vector<std::int8_t> out(3);
  qglobal_avgpool(xq.data(), 3, 25, out.data());
  for (std::int64_t c = 0; c < 3; ++c) {
    double m = 0;
    for (int i = 0; i < 25; ++i) {
      m += qp.dequantize(xq[static_cast<std::size_t>(c * 25 + i)]);
    }
    m /= 25;
    EXPECT_NEAR(qp.dequantize(out[static_cast<std::size_t>(c)]), m,
                qp.scale * 0.75);
  }
}

TEST(QatLayers, FakeQuantWeightsCloseToMasters) {
  QatConv2d conv("qc", 3, 8, 3, 1, 1);
  init_parameters(conv, 14);
  conv.set_training(false);
  const Tensor x = random_tensor(Shape{1, 3, 6, 6}, 15);
  (void)conv.forward(x);
  // Forward ran with fake-quantized weights; verify the quantization
  // error of each weight is within half a per-channel step.
  const auto scales = conv.weight_scales();
  const Tensor fq = fake_quantize_per_channel(conv.weight().value, scales);
  const std::int64_t per = conv.weight().value.numel() / 8;
  for (std::int64_t c = 0; c < 8; ++c) {
    for (std::int64_t i = 0; i < per; ++i) {
      EXPECT_LE(std::fabs(fq[c * per + i] - conv.weight().value[c * per + i]),
                scales[static_cast<std::size_t>(c)] * 0.5f + 1e-7f);
    }
  }
}

TEST(QatLayers, PerTensorAblationUsesSingleScale) {
  QatConv2d conv("qc", 2, 4, 3, 1, 1);
  init_parameters(conv, 16);
  conv.set_per_tensor(true);
  const auto scales = conv.effective_scales();
  for (std::size_t c = 1; c < scales.size(); ++c) {
    EXPECT_EQ(scales[c], scales[0]);
  }
  EXPECT_NEAR(scales[0], max_abs(conv.weight().value) / 127.0f, 1e-7f);
}

TEST(QatLayers, QatDensePerColumnScales) {
  QatDense fc("qfc", 6, 3);
  init_parameters(fc, 17);
  const auto scales = fc.weight_scales();
  ASSERT_EQ(scales.size(), 3u);
  for (std::int64_t o = 0; o < 3; ++o) {
    float m = 0.0f;
    for (std::int64_t i = 0; i < 6; ++i) {
      m = std::max(m, std::fabs(fc.weight().value.at(i, o)));
    }
    EXPECT_NEAR(scales[static_cast<std::size_t>(o)], m / 127.0f, 1e-7f);
  }
}

}  // namespace
}  // namespace diva
