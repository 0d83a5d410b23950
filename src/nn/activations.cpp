#include "nn/activations.h"

#include <bit>
#include <cmath>

namespace diva {

namespace {

/// c ? a : b as a bitwise blend, bit for bit the same. Under the default
/// -ftrapping-math GCC sinks the float math of a ternary's arm into a
/// branch and then cannot vectorize the loop; a blend keeps both arms
/// unconditional.
inline float blend(bool c, float a, float b) {
  const std::uint32_t keep = 0u - static_cast<std::uint32_t>(c);
  return std::bit_cast<float>((std::bit_cast<std::uint32_t>(a) & keep) |
                              (std::bit_cast<std::uint32_t>(b) & ~keep));
}

using PassMask = PerThread<std::vector<std::uint8_t>>;

/// out[i] = value(x[i]); the calling thread's mask gets pass(x[i]).
/// `pass` and `value` must be branch-free (`&` rather than `&&`, every
/// comparison evaluated) for the loop to vectorize.
template <typename Pass, typename Value>
Tensor masked_forward(PassMask& mask, const Tensor& x, Pass pass,
                      Value value) {
  const std::int64_t n = x.numel();
  std::vector<std::uint8_t>& bytes = mask.local();
  bytes.resize(static_cast<std::size_t>(n));
  Tensor out(x.shape());
  const float* in = x.raw();
  std::uint8_t* m = bytes.data();
  float* o = out.raw();
  for (std::int64_t i = 0; i < n; ++i) {
    m[i] = pass(in[i]) ? 1 : 0;
    o[i] = value(in[i]);
  }
  return out;
}

/// grad_in[i] = m[i] ? on(g[i]) : off(g[i]) over the mask of this
/// thread's forward, with both arms computed for every element.
template <typename On, typename Off>
Tensor masked_backward(PassMask& mask, const std::string& owner,
                       const Tensor& grad_out, On on, Off off) {
  const auto bytes = mask.take(owner);
  const std::int64_t n = grad_out.numel();
  DIVA_CHECK(static_cast<std::size_t>(n) == bytes->size(),
             owner << ": bad grad shape " << grad_out.shape().str());
  Tensor grad_in(grad_out.shape());
  const float* g = grad_out.raw();
  const std::uint8_t* m = bytes->data();
  float* gi = grad_in.raw();
  for (std::int64_t i = 0; i < n; ++i) {
    gi[i] = blend(m[i] != 0, on(g[i]), off(g[i]));
  }
  return grad_in;
}

constexpr auto pass_through = [](float g) { return g; };
constexpr auto blocked = [](float) { return 0.0f; };

}  // namespace

Tensor Relu::forward(const Tensor& x) {
  return masked_forward(
      pass_, x, [](float v) { return v > 0.0f; },
      [](float v) { return v > 0.0f ? v : 0.0f; });
}

Tensor Relu::backward(const Tensor& grad_out) {
  return masked_backward(pass_, name(), grad_out, pass_through, blocked);
}

Tensor Relu6::forward(const Tensor& x) {
  return masked_forward(
      pass_, x, [](float v) { return (v > 0.0f) & (v < 6.0f); },
      [](float v) {
        const bool low = v <= 0.0f, high = v >= 6.0f;
        return low ? 0.0f : (high ? 6.0f : v);
      });
}

Tensor Relu6::backward(const Tensor& grad_out) {
  return masked_backward(pass_, name(), grad_out, pass_through, blocked);
}

Tensor Sigmoid::forward(const Tensor& x) {
  const std::int64_t n = x.numel();
  Tensor out(x.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-x[i]));
  }
  output_.local() = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  const auto out = output_.take(name());
  DIVA_CHECK(grad_out.shape() == out->shape(), name() << ": bad grad shape");
  const std::int64_t n = grad_out.numel();
  Tensor grad_in(grad_out.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    const float y = (*out)[i];
    grad_in[i] = grad_out[i] * y * (1.0f - y);
  }
  return grad_in;
}

Tensor HardSigmoid::forward(const Tensor& x) {
  return masked_forward(
      pass_, x, [](float v) { return (v > -3.0f) & (v < 3.0f); },
      [](float v) {
        const float y = v / 6.0f + 0.5f;
        const bool low = y <= 0.0f, high = y >= 1.0f;
        return low ? 0.0f : (high ? 1.0f : y);
      });
}

Tensor HardSigmoid::backward(const Tensor& grad_out) {
  return masked_backward(
      pass_, name(), grad_out, [](float g) { return g / 6.0f; }, blocked);
}

Tensor LeakyRelu::forward(const Tensor& x) {
  const float slope = slope_;
  return masked_forward(
      pass_, x, [](float v) { return v > 0.0f; },
      [slope](float v) { return blend(v > 0.0f, v, slope * v); });
}

Tensor LeakyRelu::backward(const Tensor& grad_out) {
  const float slope = slope_;
  return masked_backward(pass_, name(), grad_out, pass_through,
                         [slope](float g) { return slope * g; });
}

}  // namespace diva
