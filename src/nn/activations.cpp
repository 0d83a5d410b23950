#include "nn/activations.h"

#include <cmath>

namespace diva {

Tensor Relu::forward(const Tensor& x) {
  input_.local() = x;
  Tensor out(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    out[i] = x[i] > 0.0f ? x[i] : 0.0f;
  }
  return out;
}

Tensor Relu::backward(const Tensor& grad_out) {
  const auto in = input_.take(name());
  DIVA_CHECK(grad_out.shape() == in->shape(), name() << ": bad grad shape");
  Tensor grad_in(grad_out.shape());
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    grad_in[i] = (*in)[i] > 0.0f ? grad_out[i] : 0.0f;
  }
  return grad_in;
}

Tensor Relu6::forward(const Tensor& x) {
  input_.local() = x;
  Tensor out(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    out[i] = x[i] <= 0.0f ? 0.0f : (x[i] >= 6.0f ? 6.0f : x[i]);
  }
  return out;
}

Tensor Relu6::backward(const Tensor& grad_out) {
  const auto in = input_.take(name());
  DIVA_CHECK(grad_out.shape() == in->shape(), name() << ": bad grad shape");
  Tensor grad_in(grad_out.shape());
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    const float x = (*in)[i];
    grad_in[i] = (x > 0.0f && x < 6.0f) ? grad_out[i] : 0.0f;
  }
  return grad_in;
}

Tensor Sigmoid::forward(const Tensor& x) {
  Tensor out(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-x[i]));
  }
  output_.local() = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  const auto out = output_.take(name());
  DIVA_CHECK(grad_out.shape() == out->shape(), name() << ": bad grad shape");
  Tensor grad_in(grad_out.shape());
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    const float y = (*out)[i];
    grad_in[i] = grad_out[i] * y * (1.0f - y);
  }
  return grad_in;
}

Tensor HardSigmoid::forward(const Tensor& x) {
  input_.local() = x;
  Tensor out(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float y = x[i] / 6.0f + 0.5f;
    out[i] = y <= 0.0f ? 0.0f : (y >= 1.0f ? 1.0f : y);
  }
  return out;
}

Tensor HardSigmoid::backward(const Tensor& grad_out) {
  const auto in = input_.take(name());
  DIVA_CHECK(grad_out.shape() == in->shape(), name() << ": bad grad shape");
  Tensor grad_in(grad_out.shape());
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    const float x = (*in)[i];
    grad_in[i] = (x > -3.0f && x < 3.0f) ? grad_out[i] / 6.0f : 0.0f;
  }
  return grad_in;
}

Tensor LeakyRelu::forward(const Tensor& x) {
  input_.local() = x;
  Tensor out(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    out[i] = x[i] > 0.0f ? x[i] : slope_ * x[i];
  }
  return out;
}

Tensor LeakyRelu::backward(const Tensor& grad_out) {
  const auto in = input_.take(name());
  DIVA_CHECK(grad_out.shape() == in->shape(), name() << ": bad grad shape");
  Tensor grad_in(grad_out.shape());
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    grad_in[i] = (*in)[i] > 0.0f ? grad_out[i] : slope_ * grad_out[i];
  }
  return grad_in;
}

}  // namespace diva
