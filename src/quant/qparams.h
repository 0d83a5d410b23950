// Quantization parameter math for int8 affine quantization.
//
// Activations use per-tensor asymmetric affine quantization into
// [-128, 127]; weights use per-channel symmetric quantization
// (zero_point = 0). Requantization of int32 accumulators uses
// gemmlowp-style fixed-point multipliers (Q31 multiplier + power-of-two
// shift), the same arithmetic as TFLite kernels, so the int8 engine is
// integer-only end to end.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/fixedpoint.h"
#include "tensor/tensor.h"

namespace diva {

inline constexpr int kQmin = -128;
inline constexpr int kQmax = 127;

/// Per-tensor affine quantization: real = (q - zero_point) * scale.
struct QuantParams {
  float scale = 1.0f;
  std::int32_t zero_point = 0;

  std::int8_t quantize(float x) const;
  float dequantize(std::int8_t q) const {
    return (static_cast<std::int32_t>(q) - zero_point) * scale;
  }
  bool operator==(const QuantParams&) const = default;
};

/// Exact round-and-clamp onto the int8 grid, in place: each v[i]
/// becomes the code clamp(lround(v[i]) + zero_point, kQmin, kQmax),
/// held exactly as a float. Rounding is half away from zero, bit for
/// bit std::lround, for every finite v; a v whose rounding would not fit
/// an int32 saturates like any other out-of-range value, and NaN gets
/// the zero point. The caller computes v (x * inv or x / s) and keeps
/// that choice: the two differ in the last bit.
///
/// The body runs four lanes at a time on SSE2, plus a scalar tail with
/// the same arithmetic, which QuantParams::quantize also uses. GCC does
/// not vectorize the scalar form under the default -ftrapping-math.
void round_to_codes(std::span<float> v, std::int32_t zero_point);

/// Derives affine qparams from an observed float range. The range is
/// expanded to include zero (so that real 0.0 is exactly representable,
/// a requirement for zero-padding correctness).
QuantParams choose_qparams(float min_val, float max_val);

/// Per-channel symmetric scales for a weight tensor whose leading axis
/// is the output channel: scale[c] = max|W_c| / 127 (minimum 1e-8).
std::vector<float> per_channel_scales(const Tensor& w);

/// Symmetric int8 quantization of a weight tensor with the given
/// per-channel scales (leading axis = channel).
std::vector<std::int8_t> quantize_per_channel(const Tensor& w,
                                              std::span<const float> scales);

/// Quantizes a float tensor with per-tensor affine qparams.
std::vector<std::int8_t> quantize_tensor(const Tensor& t,
                                         const QuantParams& qp);

/// Dequantizes an int8 buffer back to a float tensor of the given shape.
Tensor dequantize_tensor(std::span<const std::int8_t> q, const Shape& shape,
                         const QuantParams& qp);

// ---------------------------------------------------------------------------
// Fixed-point requantization (gemmlowp / TFLite arithmetic). The
// runtime primitives (saturating_rounding_doubling_high_mul,
// rounding_divide_by_pot, multiply_by_quantized_multiplier) moved to
// kernels/fixedpoint.h, included above, so the int8 GEMM epilogue can
// use them without a quant dependency.
// ---------------------------------------------------------------------------

/// Decomposes a positive real multiplier into a Q31 fixed-point
/// multiplier and a (possibly negative) power-of-two shift such that
/// m ~= multiplier * 2^shift / 2^31.
void quantize_multiplier(double m, std::int32_t* multiplier, int* shift);

}  // namespace diva
