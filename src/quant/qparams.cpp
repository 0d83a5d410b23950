#include "quant/qparams.h"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace diva {

namespace {

// |v| beyond this saturates any zero point in [kQmin, kQmax], and below
// it v - trunc(v) is exact, so truncating and stepping half away from
// zero is exactly std::lround.
constexpr float kRoundLimit = 1024.0f;

/// One code of round_to_codes: the scalar form of its SSE2 body.
float round_to_code(float v, float zp) {
  const float x = v == v ? std::clamp(v, -kRoundLimit, kRoundLimit) : 0.0f;
  const float t = static_cast<float>(static_cast<std::int32_t>(x));
  const float f = x - t;
  float r = t + (f >= 0.5f ? 1.0f : 0.0f);
  r -= f <= -0.5f ? 1.0f : 0.0f;
  return std::clamp(r + zp, static_cast<float>(kQmin),
                    static_cast<float>(kQmax));
}

}  // namespace

void round_to_codes(std::span<float> v, std::int32_t zero_point) {
  const float zp = static_cast<float>(zero_point);
  float* p = v.data();
  const std::size_t n = v.size();
  std::size_t i = 0;
#if defined(__SSE2__)
  const __m128 lim = _mm_set1_ps(kRoundLimit);
  const __m128 nlim = _mm_set1_ps(-kRoundLimit);
  const __m128 half = _mm_set1_ps(0.5f);
  const __m128 nhalf = _mm_set1_ps(-0.5f);
  const __m128 one = _mm_set1_ps(1.0f);
  const __m128 zpv = _mm_set1_ps(zp);
  const __m128 lo = _mm_set1_ps(static_cast<float>(kQmin));
  const __m128 hi = _mm_set1_ps(static_cast<float>(kQmax));
  for (; i + 4 <= n; i += 4) {
    __m128 x = _mm_loadu_ps(p + i);
    x = _mm_and_ps(x, _mm_cmpord_ps(x, x));  // NaN -> 0
    x = _mm_min_ps(_mm_max_ps(x, nlim), lim);
    const __m128 t = _mm_cvtepi32_ps(_mm_cvttps_epi32(x));
    const __m128 f = _mm_sub_ps(x, t);
    __m128 r = _mm_add_ps(t, _mm_and_ps(_mm_cmpge_ps(f, half), one));
    r = _mm_sub_ps(r, _mm_and_ps(_mm_cmple_ps(f, nhalf), one));
    r = _mm_min_ps(_mm_max_ps(_mm_add_ps(r, zpv), lo), hi);
    _mm_storeu_ps(p + i, r);
  }
#endif
  for (; i < n; ++i) p[i] = round_to_code(p[i], zp);
}

std::int8_t QuantParams::quantize(float x) const {
  return static_cast<std::int8_t>(
      round_to_code(x / scale, static_cast<float>(zero_point)));
}

QuantParams choose_qparams(float min_val, float max_val) {
  // The representable range must straddle zero.
  min_val = std::min(min_val, 0.0f);
  max_val = std::max(max_val, 0.0f);
  QuantParams qp;
  if (max_val == min_val) {
    qp.scale = 1.0f;
    qp.zero_point = 0;
    return qp;
  }
  qp.scale = (max_val - min_val) / static_cast<float>(kQmax - kQmin);
  const float zp_real = static_cast<float>(kQmin) - min_val / qp.scale;
  qp.zero_point = static_cast<std::int32_t>(
      std::clamp<float>(std::lround(zp_real), kQmin, kQmax));
  return qp;
}

std::vector<float> per_channel_scales(const Tensor& w) {
  DIVA_CHECK(w.rank() >= 2, "per_channel_scales: need rank >= 2 weights");
  const std::int64_t channels = w.dim(0);
  const std::int64_t per = w.numel() / channels;
  std::vector<float> scales(static_cast<std::size_t>(channels));
  for (std::int64_t c = 0; c < channels; ++c) {
    const float* p = w.raw() + c * per;
    float m = 0.0f;
    for (std::int64_t i = 0; i < per; ++i) m = std::max(m, std::fabs(p[i]));
    scales[static_cast<std::size_t>(c)] =
        std::max(m / static_cast<float>(kQmax), 1e-8f);
  }
  return scales;
}

std::vector<std::int8_t> quantize_per_channel(const Tensor& w,
                                              std::span<const float> scales) {
  const std::int64_t channels = w.dim(0);
  DIVA_CHECK(static_cast<std::int64_t>(scales.size()) == channels,
             "scale count mismatch");
  const std::int64_t per = w.numel() / channels;
  std::vector<std::int8_t> out(static_cast<std::size_t>(w.numel()));
  std::vector<float> codes(static_cast<std::size_t>(per));
  for (std::int64_t c = 0; c < channels; ++c) {
    const float inv = 1.0f / scales[static_cast<std::size_t>(c)];
    const float* p = w.raw() + c * per;
    for (std::int64_t i = 0; i < per; ++i) codes[i] = p[i] * inv;
    round_to_codes(codes, 0);
    std::int8_t* o = out.data() + c * per;
    for (std::int64_t i = 0; i < per; ++i) {
      o[i] = static_cast<std::int8_t>(codes[i]);
    }
  }
  return out;
}

std::vector<std::int8_t> quantize_tensor(const Tensor& t,
                                         const QuantParams& qp) {
  const std::int64_t n = t.numel();
  std::vector<std::int8_t> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) out[i] = qp.quantize(t[i]);
  return out;
}

Tensor dequantize_tensor(std::span<const std::int8_t> q, const Shape& shape,
                         const QuantParams& qp) {
  DIVA_CHECK(static_cast<std::int64_t>(q.size()) == shape.numel(),
             "dequantize size mismatch");
  Tensor out(shape);
  for (std::size_t i = 0; i < q.size(); ++i) {
    out[static_cast<std::int64_t>(i)] = qp.dequantize(q[i]);
  }
  return out;
}

void quantize_multiplier(double m, std::int32_t* multiplier, int* shift) {
  DIVA_CHECK(m >= 0.0, "negative requant multiplier");
  if (m == 0.0) {
    *multiplier = 0;
    *shift = 0;
    return;
  }
  int exponent = 0;
  const double q = std::frexp(m, &exponent);  // q in [0.5, 1)
  auto q_fixed = static_cast<std::int64_t>(std::llround(q * (1LL << 31)));
  DIVA_CHECK(q_fixed <= (1LL << 31), "requant multiplier overflow");
  if (q_fixed == (1LL << 31)) {
    q_fixed /= 2;
    ++exponent;
  }
  *shift = exponent;
  *multiplier = static_cast<std::int32_t>(q_fixed);
}

}  // namespace diva
