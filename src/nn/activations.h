// Pointwise activation layers.
//
// Byte-mask contract: Relu, Relu6, HardSigmoid and LeakyRelu keep no
// copy of their input for backward. Their forward stores one byte per
// element, 1 where the input lay inside the layer's pass region (x > 0;
// 0 < x < 6; -3 < x < 3; x > 0), and their backward selects from the
// incoming gradient by that byte alone. The byte is the comparison a
// backward reading the input would make, so gradients are bit for bit
// the same. Sigmoid keeps its output, which its derivative needs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/module.h"

namespace diva {

/// Rectified linear unit: y = max(0, x).
class Relu : public Module {
 public:
  explicit Relu(std::string name = "relu") : Module(std::move(name)) {}
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  PerThread<std::vector<std::uint8_t>> pass_;
};

/// ReLU6: y = min(6, max(0, x)) — the MobileNet activation, also friendly
/// to fixed-range quantization.
class Relu6 : public Module {
 public:
  explicit Relu6(std::string name = "relu6") : Module(std::move(name)) {}
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  PerThread<std::vector<std::uint8_t>> pass_;
};

/// Logistic sigmoid: y = 1 / (1 + exp(-x)).
class Sigmoid : public Module {
 public:
  explicit Sigmoid(std::string name = "sigmoid") : Module(std::move(name)) {}
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  PerThread<Tensor> output_;
};

/// Hard sigmoid, TFLite convention: y = clamp(x / 6 + 0.5, 0, 1).
class HardSigmoid : public Module {
 public:
  explicit HardSigmoid(std::string name = "hard_sigmoid")
      : Module(std::move(name)) {}
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  PerThread<std::vector<std::uint8_t>> pass_;
};

/// Leaky ReLU with fixed negative slope.
class LeakyRelu : public Module {
 public:
  explicit LeakyRelu(std::string name = "leaky_relu", float slope = 0.01f)
      : Module(std::move(name)), slope_(slope) {}
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  float slope() const { return slope_; }

 private:
  float slope_;
  PerThread<std::vector<std::uint8_t>> pass_;
};

}  // namespace diva
