// 2-D convolution layers (standard and depthwise), NCHW, square kernels.
//
// Conv2d lowers each image with im2col into thread-local Workspace
// scratch and runs the blocked kernels/gemm.h sgemm against the
// [out_c, in_c*k*k] weight matrix; batches are parallelized across the
// thread pool. Backward is two more GEMMs over the same panels (dX via
// the transposed weights + col2im, dW via gy x colsT, recomputed from
// the cached input only when parameter gradients are enabled). All
// forward caches are released when backward finishes, so attack loops
// don't retain per-layer im2col buffers between steps.
//
// The `effective_weight()` hook lets quantization-aware subclasses
// (quant/QatConv2d) substitute fake-quantized weights while reusing all
// of the forward/backward machinery — gradients then flow to the float
// master weights via the straight-through estimator. The substitute
// lives in the calling thread's forward state, like every other cache.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/tensor_ops.h"

namespace diva {

class Conv2d : public Module {
 public:
  /// kernel is the square kernel size; pad is symmetric zero padding.
  Conv2d(std::string name, std::int64_t in_c, std::int64_t out_c,
         std::int64_t kernel, std::int64_t stride = 1, std::int64_t pad = 0,
         bool with_bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<std::pair<std::string, Parameter*>> local_parameters() override;

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return with_bias_; }
  std::int64_t in_channels() const { return in_c_; }
  std::int64_t out_channels() const { return out_c_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

 protected:
  /// Weights used by one forward/backward pair. Subclasses may build a
  /// transformed (e.g. fake-quantized) tensor in `scratch`, which lives
  /// until the pair's backward ends, and return it; gradients accumulate
  /// to the master weight() regardless (straight-through estimator).
  virtual const Tensor& effective_weight(Tensor& /*scratch*/) {
    return weight_.value;
  }

 private:
  std::int64_t in_c_, out_c_, kernel_, stride_, pad_;
  bool with_bias_;
  Parameter weight_;  // [out_c, in_c, k, k]
  Parameter bias_;    // [out_c]

  // Forward state for backward; released when backward completes.
  struct State {
    Tensor input;                    // forward input (for the dW im2col)
    Tensor scratch;                  // effective_weight() storage
    const Tensor* weight = nullptr;  // weights the forward used
    ConvGeom geom;
    std::int64_t batch = 0;
  };
  PerThread<State> state_;
};

/// Depthwise convolution: one k x k filter per channel (multiplier 1).
class DepthwiseConv2d : public Module {
 public:
  DepthwiseConv2d(std::string name, std::int64_t channels,
                  std::int64_t kernel, std::int64_t stride = 1,
                  std::int64_t pad = 0, bool with_bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<std::pair<std::string, Parameter*>> local_parameters() override;

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return with_bias_; }
  std::int64_t channels() const { return channels_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

 protected:
  /// See Conv2d::effective_weight.
  virtual const Tensor& effective_weight(Tensor& /*scratch*/) {
    return weight_.value;
  }

 private:
  std::int64_t channels_, kernel_, stride_, pad_;
  bool with_bias_;
  Parameter weight_;  // [C, 1, k, k]
  Parameter bias_;    // [C]

  // Released when backward completes.
  struct State {
    Tensor input;
    Tensor scratch;
    const Tensor* weight = nullptr;
    ConvGeom geom;
  };
  PerThread<State> state_;
};

}  // namespace diva
