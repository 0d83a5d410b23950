#include "quant/fake_quant.h"

#include <algorithm>
#include <cmath>

namespace diva {

Tensor fake_quantize(const Tensor& x, const QuantParams& qp) {
  const std::int64_t n = x.numel();
  const float inv = 1.0f / qp.scale;
  const float zp = static_cast<float>(qp.zero_point);
  Tensor out(x.shape());
  const float* in = x.raw();
  float* o = out.raw();
  for (std::int64_t i = 0; i < n; ++i) o[i] = in[i] * inv;
  round_to_codes(out.data(), qp.zero_point);
  // code - zp is a small integer, exact in float.
  for (std::int64_t i = 0; i < n; ++i) o[i] = (o[i] - zp) * qp.scale;
  return out;
}

Tensor fake_quantize_per_channel(const Tensor& w,
                                 std::span<const float> scales) {
  const std::int64_t channels = w.dim(0);
  DIVA_CHECK(static_cast<std::int64_t>(scales.size()) == channels,
             "fake_quantize_per_channel: scale count mismatch");
  const std::int64_t per = w.numel() / channels;
  Tensor out(w.shape());
  for (std::int64_t c = 0; c < channels; ++c) {
    const float s = scales[static_cast<std::size_t>(c)];
    const float inv = 1.0f / s;
    const float* p = w.raw() + c * per;
    float* o = out.raw() + c * per;
    for (std::int64_t i = 0; i < per; ++i) o[i] = p[i] * inv;
    round_to_codes({o, static_cast<std::size_t>(per)}, 0);
    for (std::int64_t i = 0; i < per; ++i) o[i] *= s;
  }
  return out;
}

ActFakeQuant::ActFakeQuant(std::string name, float ema_momentum)
    : Module(std::move(name)),
      ema_momentum_(ema_momentum),
      range_(Tensor(Shape{3}), /*trainable=*/false) {}

std::vector<std::pair<std::string, Parameter*>>
ActFakeQuant::local_parameters() {
  return {{"range", &range_}};
}

QuantParams ActFakeQuant::qparams() const {
  return choose_qparams(range_.value[0], range_.value[1]);
}

void ActFakeQuant::set_range(float min_val, float max_val) {
  range_.value[0] = min_val;
  range_.value[1] = max_val;
  range_.value[2] = 1.0f;
}

Tensor ActFakeQuant::forward(const Tensor& x) {
  if (training()) {
    float mn = x[0], mx = x[0];
    for (std::int64_t i = 1; i < x.numel(); ++i) {
      mn = std::min(mn, x[i]);
      mx = std::max(mx, x[i]);
    }
    if (!initialized()) {
      set_range(mn, mx);
    } else {
      range_.value[0] += ema_momentum_ * (mn - range_.value[0]);
      range_.value[1] += ema_momentum_ * (mx - range_.value[1]);
    }
  }

  std::vector<std::uint8_t>& mask = pass_mask_.local();
  if (!initialized() || !quantize_enabled_) {
    mask.clear();
    return x;
  }

  const QuantParams qp = qparams();
  // Representable real range for the STE clipping mask.
  const float lo = (static_cast<float>(kQmin) - qp.zero_point) * qp.scale;
  const float hi = (static_cast<float>(kQmax) - qp.zero_point) * qp.scale;
  const std::int64_t n = x.numel();
  mask.resize(static_cast<std::size_t>(n));
  const float* in = x.raw();
  std::uint8_t* m = mask.data();
  for (std::int64_t i = 0; i < n; ++i) m[i] = (in[i] >= lo) & (in[i] <= hi);
  return fake_quantize(x, qp);
}

Tensor ActFakeQuant::backward(const Tensor& grad_out) {
  const auto mask = pass_mask_.take(name());
  if (mask->empty()) return grad_out;
  const std::int64_t n = grad_out.numel();
  DIVA_CHECK(static_cast<std::size_t>(n) == mask->size(),
             name() << ": bad grad shape " << grad_out.shape().str());
  Tensor grad_in(grad_out.shape());
  const float* g = grad_out.raw();
  const std::uint8_t* m = mask->data();
  float* gi = grad_in.raw();
  // g * 1.0f or g * 0.0f, as with a float mask: a clipped negative
  // gradient stays -0.0f and a non-finite one stays NaN.
  for (std::int64_t i = 0; i < n; ++i) gi[i] = g[i] * static_cast<float>(m[i]);
  return grad_in;
}

}  // namespace diva
