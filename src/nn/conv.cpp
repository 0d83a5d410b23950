#include "nn/conv.h"

#include <algorithm>

#include "kernels/gemm.h"
#include "kernels/workspace.h"
#include "runtime/thread_pool.h"

namespace diva {
namespace {

// Backward passes accumulate parameter gradients per parallel_for chunk
// into parts[chunk_begin]; other entries stay empty. Summing in chunk
// order after the join, not as chunks finish, makes training repeatable.
void add_in_chunk_order(const std::vector<Tensor>& parts, Tensor& grad) {
  for (const Tensor& part : parts) {
    if (part.empty()) continue;
    for (std::int64_t i = 0; i < part.numel(); ++i) grad[i] += part[i];
  }
}

}  // namespace

Conv2d::Conv2d(std::string name, std::int64_t in_c, std::int64_t out_c,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bool with_bias)
    : Module(std::move(name)),
      in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      with_bias_(with_bias),
      weight_(Tensor(Shape{out_c, in_c, kernel, kernel})),
      bias_(Tensor(Shape{out_c})) {
  DIVA_CHECK(in_c > 0 && out_c > 0 && kernel > 0 && stride > 0 && pad >= 0,
             "bad Conv2d config");
}

std::vector<std::pair<std::string, Parameter*>> Conv2d::local_parameters() {
  std::vector<std::pair<std::string, Parameter*>> out{{"weight", &weight_}};
  if (with_bias_) out.emplace_back("bias", &bias_);
  return out;
}

Tensor Conv2d::forward(const Tensor& x) {
  DIVA_CHECK(x.rank() == 4 && x.dim(1) == in_c_,
             name() << ": expected [N," << in_c_ << ",H,W], got "
                    << x.shape().str());
  const std::int64_t batch = x.dim(0);
  const ConvGeom geom{in_c_, x.dim(2), x.dim(3), kernel_, kernel_, stride_,
                      pad_};
  const std::int64_t oh = geom.out_h(), ow = geom.out_w();
  DIVA_CHECK(oh > 0 && ow > 0, name() << ": output collapses to zero size");
  const std::int64_t k2 = in_c_ * kernel_ * kernel_;
  const std::int64_t ohw = oh * ow;

  State& s = state_.local();
  s.batch = batch;
  s.geom = geom;
  s.weight = &effective_weight(s.scratch);  // [out_c, k2] once flattened
  // The input is only needed to recompute im2col panels for dW; frozen
  // models (attack mode) skip the copy entirely.
  s.input = param_grads_enabled() ? x : Tensor();
  Tensor out(Shape{batch, out_c_, oh, ow});

  const std::int64_t in_stride = in_c_ * geom.in_h * geom.in_w;
  const float* bias = with_bias_ ? bias_.value.raw() : nullptr;
  parallel_for(0, batch, [&](std::int64_t n) {
    auto frame = Workspace::tls().frame();
    float* cols = frame.alloc<float>(k2 * ohw);
    im2col(x.raw() + n * in_stride, geom, cols);
    // out_n[out_c, ohw] = W[out_c, k2] x cols[k2, ohw] + bias
    sgemm(out_c_, ohw, k2, s.weight->raw(), k2, false, cols, ohw, false,
          out.raw() + n * out_c_ * ohw, ohw, {.bias_row = bias});
  });
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  // Taking the state releases the forward caches when backward returns,
  // so attack loops don't carry per-layer buffers between iterations.
  const auto s = state_.take(name());
  DIVA_CHECK(!param_grads_enabled() || !s->input.empty(),
             name() << ": parameter gradients were enabled after a frozen "
                       "forward; rerun forward first");
  const ConvGeom& geom = s->geom;
  const std::int64_t batch = s->batch;
  const std::int64_t oh = geom.out_h(), ow = geom.out_w();
  const std::int64_t ohw = oh * ow;
  const std::int64_t k2 = in_c_ * kernel_ * kernel_;
  DIVA_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == batch &&
                 grad_out.dim(1) == out_c_ && grad_out.dim(2) == oh &&
                 grad_out.dim(3) == ow,
             name() << ": bad grad shape " << grad_out.shape().str());

  Tensor grad_in(Shape{batch, in_c_, geom.in_h, geom.in_w});
  const std::int64_t in_stride = in_c_ * geom.in_h * geom.in_w;
  const float* wraw = s->weight->raw();
  const float* input = s->input.raw();

  const bool want_param_grads = param_grads_enabled();
  std::vector<Tensor> dw_parts(want_param_grads ? batch : 0);
  std::vector<Tensor> db_parts(want_param_grads ? batch : 0);
  parallel_for_chunked(0, batch, [&](std::int64_t lo, std::int64_t hi) {
    auto frame = Workspace::tls().frame();
    float* dcol = frame.alloc<float>(k2 * ohw);
    float* cols = want_param_grads ? frame.alloc<float>(k2 * ohw) : nullptr;
    if (want_param_grads) dw_parts[lo] = Tensor(Shape{out_c_, k2});
    float* dw_local = want_param_grads ? dw_parts[lo].raw() : nullptr;
    double* db_local =
        want_param_grads ? frame.alloc_zeroed<double>(out_c_) : nullptr;

    for (std::int64_t n = lo; n < hi; ++n) {
      const float* gy = grad_out.raw() + n * out_c_ * ohw;

      if (want_param_grads) {
        // dW[out_c, k2] += gy[out_c, ohw] x colsT[ohw, k2]; the im2col
        // panels are recomputed from the cached input rather than
        // retained across the step.
        im2col(input + n * in_stride, geom, cols);
        sgemm(out_c_, k2, ohw, gy, ohw, false, cols, ohw, true, dw_local, k2,
              {.beta = 1.0f});
        for (std::int64_t oc = 0; oc < out_c_; ++oc) {
          const float* gyrow = gy + oc * ohw;
          double bsum = 0.0;
          for (std::int64_t j = 0; j < ohw; ++j) bsum += gyrow[j];
          db_local[oc] += bsum;
        }
      }

      // dcol[k2, ohw] = WT[k2, out_c] x gy[out_c, ohw]; scatter to dX.
      sgemm(k2, ohw, out_c_, wraw, k2, true, gy, ohw, false, dcol, ohw, {});
      col2im(dcol, geom, grad_in.raw() + n * in_stride);
    }

    if (want_param_grads && with_bias_) {
      db_parts[lo] = Tensor(Shape{out_c_},
                            std::vector<float>(db_local, db_local + out_c_));
    }
  });
  add_in_chunk_order(dw_parts, weight_.grad);
  add_in_chunk_order(db_parts, bias_.grad);
  return grad_in;
}

DepthwiseConv2d::DepthwiseConv2d(std::string name, std::int64_t channels,
                                 std::int64_t kernel, std::int64_t stride,
                                 std::int64_t pad, bool with_bias)
    : Module(std::move(name)),
      channels_(channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      with_bias_(with_bias),
      weight_(Tensor(Shape{channels, 1, kernel, kernel})),
      bias_(Tensor(Shape{channels})) {
  DIVA_CHECK(channels > 0 && kernel > 0 && stride > 0 && pad >= 0,
             "bad DepthwiseConv2d config");
}

std::vector<std::pair<std::string, Parameter*>>
DepthwiseConv2d::local_parameters() {
  std::vector<std::pair<std::string, Parameter*>> out{{"weight", &weight_}};
  if (with_bias_) out.emplace_back("bias", &bias_);
  return out;
}

Tensor DepthwiseConv2d::forward(const Tensor& x) {
  DIVA_CHECK(x.rank() == 4 && x.dim(1) == channels_,
             name() << ": expected [N," << channels_ << ",H,W], got "
                    << x.shape().str());
  const std::int64_t batch = x.dim(0);
  const ConvGeom geom{channels_, x.dim(2), x.dim(3), kernel_, kernel_,
                      stride_, pad_};
  const std::int64_t oh = geom.out_h(), ow = geom.out_w();
  DIVA_CHECK(oh > 0 && ow > 0, name() << ": output collapses to zero size");

  State& s = state_.local();
  s.geom = geom;
  s.input = param_grads_enabled() ? x : Tensor();
  s.weight = &effective_weight(s.scratch);
  Tensor out(Shape{batch, channels_, oh, ow});

  parallel_for(0, batch * channels_, [&](std::int64_t nc) {
    const std::int64_t n = nc / channels_, c = nc % channels_;
    const float* in = x.raw() + (n * channels_ + c) * geom.in_h * geom.in_w;
    const float* w = s.weight->raw() + c * kernel_ * kernel_;
    float* o = out.raw() + (n * channels_ + c) * oh * ow;
    const float b = with_bias_ ? bias_.value[c] : 0.0f;
    for (std::int64_t y = 0; y < oh; ++y) {
      for (std::int64_t xo = 0; xo < ow; ++xo) {
        float acc = b;
        for (std::int64_t kh = 0; kh < kernel_; ++kh) {
          const std::int64_t iy = y * stride_ - pad_ + kh;
          if (iy < 0 || iy >= geom.in_h) continue;
          for (std::int64_t kw = 0; kw < kernel_; ++kw) {
            const std::int64_t ix = xo * stride_ - pad_ + kw;
            if (ix < 0 || ix >= geom.in_w) continue;
            acc += w[kh * kernel_ + kw] * in[iy * geom.in_w + ix];
          }
        }
        o[y * ow + xo] = acc;
      }
    }
  }, /*grain=*/4);
  return out;
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_out) {
  const auto s = state_.take(name());
  const bool want_param_grads = param_grads_enabled();
  DIVA_CHECK(!want_param_grads || !s->input.empty(),
             name() << ": parameter gradients were enabled after a frozen "
                       "forward; rerun forward first");
  const ConvGeom& geom = s->geom;
  const std::int64_t oh = geom.out_h(), ow = geom.out_w();
  DIVA_CHECK(grad_out.rank() == 4 && grad_out.dim(1) == channels_ &&
                 grad_out.dim(2) == oh && grad_out.dim(3) == ow,
             name() << ": bad grad shape " << grad_out.shape().str());
  const std::int64_t batch = grad_out.dim(0);
  DIVA_CHECK(!want_param_grads || s->input.dim(0) == batch,
             name() << ": grad batch " << batch << " != forward batch "
                    << s->input.dim(0));

  Tensor grad_in(Shape{batch, channels_, geom.in_h, geom.in_w});
  const float* weights = s->weight->raw();
  const float* input = s->input.raw();
  std::vector<Tensor> dw_parts(want_param_grads ? batch : 0);
  std::vector<Tensor> db_parts(want_param_grads ? batch : 0);
  parallel_for_chunked(0, batch, [&](std::int64_t lo, std::int64_t hi) {
    if (want_param_grads) {
      dw_parts[lo] = Tensor(weight_.value.shape());
      db_parts[lo] = Tensor(Shape{channels_});
    }
    for (std::int64_t n = lo; n < hi; ++n) {
      for (std::int64_t c = 0; c < channels_; ++c) {
        const float* in =
            want_param_grads
                ? input + (n * channels_ + c) * geom.in_h * geom.in_w
                : nullptr;
        const float* gy = grad_out.raw() + (n * channels_ + c) * oh * ow;
        const float* w = weights + c * kernel_ * kernel_;
        float* gi =
            grad_in.raw() + (n * channels_ + c) * geom.in_h * geom.in_w;
        float* dw = want_param_grads
                        ? dw_parts[lo].raw() + c * kernel_ * kernel_
                        : nullptr;
        double bsum = 0.0;
        for (std::int64_t y = 0; y < oh; ++y) {
          for (std::int64_t xo = 0; xo < ow; ++xo) {
            const float g = gy[y * ow + xo];
            if (g == 0.0f) continue;
            bsum += g;
            for (std::int64_t kh = 0; kh < kernel_; ++kh) {
              const std::int64_t iy = y * stride_ - pad_ + kh;
              if (iy < 0 || iy >= geom.in_h) continue;
              for (std::int64_t kw = 0; kw < kernel_; ++kw) {
                const std::int64_t ix = xo * stride_ - pad_ + kw;
                if (ix < 0 || ix >= geom.in_w) continue;
                if (want_param_grads) {
                  dw[kh * kernel_ + kw] += g * in[iy * geom.in_w + ix];
                }
                gi[iy * geom.in_w + ix] += g * w[kh * kernel_ + kw];
              }
            }
          }
        }
        if (want_param_grads) db_parts[lo][c] += static_cast<float>(bsum);
      }
    }
  });
  add_in_chunk_order(dw_parts, weight_.grad);
  if (with_bias_) add_in_chunk_order(db_parts, bias_.grad);
  return grad_in;
}

}  // namespace diva
