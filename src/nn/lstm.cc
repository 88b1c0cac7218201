// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/lstm.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"
#include "base/simd/elementwise.h"
#include "tensor/ops.h"

namespace lpsgd {

LstmLayer::LstmLayer(std::string name, int input_dim, int hidden_dim,
                     Rng* rng, bool return_sequences)
    : name_(std::move(name)),
      input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      return_sequences_(return_sequences),
      wx_(Shape({4 * hidden_dim, input_dim})),
      wx_grad_(wx_.shape()),
      wh_(Shape({4 * hidden_dim, hidden_dim})),
      wh_grad_(wh_.shape()),
      bias_(Shape({4 * hidden_dim})),
      bias_grad_(bias_.shape()),
      step_bias_grad_(bias_.shape()) {
  CHECK_GT(input_dim, 0);
  CHECK_GT(hidden_dim, 0);
  wx_.FillGaussian(rng, std::sqrt(1.0f / static_cast<float>(input_dim)));
  wh_.FillGaussian(rng, std::sqrt(1.0f / static_cast<float>(hidden_dim)));
  // Forget-gate bias starts at 1 (standard practice: remember by default).
  for (int j = 0; j < hidden_dim; ++j) bias_.at(hidden_dim + j) = 1.0f;
}

thread_local LstmLayer::Stacks LstmLayer::eval_stacks_;

Tensor LstmLayer::Forward(const Tensor& input, bool training) {
  CHECK_EQ(input.shape().ndim(), 3) << name_;
  const int64_t batch = input.shape().dim(0);
  const int64_t time = input.shape().dim(1);
  CHECK_EQ(input.shape().dim(2), input_dim_) << name_;
  const int64_t hidden = hidden_dim_;
  const int64_t h4 = 4 * hidden;
  const int64_t rows = time * batch;

  Stacks& s = training ? stacks_ : eval_stacks_;
  s.x.Resize({rows, input_dim_});
  s.c.Resize({rows + batch, hidden});
  s.tanh_c.Resize({rows, hidden});
  s.gates.Resize({rows, h4});
  s.h.Resize({batch, hidden});
  s.step_gates.Resize({batch, h4});
  if (training) {
    s.h_prev.Resize({rows, hidden});
    cached_batch_ = batch;
    cached_time_ = time;
  }

  for (int64_t t = 0; t < time; ++t) {
    float* dst = s.x.data() + (time - 1 - t) * batch * input_dim_;
    for (int64_t b = 0; b < batch; ++b) {
      const float* src = input.data() + (b * time + t) * input_dim_;
      std::copy(src, src + input_dim_, dst + b * input_dim_);
    }
  }
  // x_t · Wxᵀ for every step at once; the recurrence adds h_{t-1} · Whᵀ.
  Gemm(false, true, 1.0f, s.x, wx_, 0.0f, &s.gates);

  const ElementwiseKernels& kernels = ActiveElementwiseKernels();
  s.h.SetZero();
  std::fill(s.c.data() + rows * hidden, s.c.data() + s.c.size(), 0.0f);
  for (int64_t t = 0; t < time; ++t) {
    const int64_t row = (time - 1 - t) * batch;
    if (training) {
      std::copy(s.h.data(), s.h.data() + s.h.size(),
                s.h_prev.data() + row * hidden);
    }
    float* gates = s.gates.data() + row * h4;
    std::copy(gates, gates + batch * h4, s.step_gates.data());
    Gemm(false, true, 1.0f, s.h, wh_, 1.0f, &s.step_gates);
    AddRowBroadcast(bias_, &s.step_gates);

    for (int64_t b = 0; b < batch; ++b) {
      const float* pre = s.step_gates.data() + b * h4;
      float* g = gates + b * h4;
      // c_{t-1} sits in the rows of step t-1, just below step t's.
      const float* cp = s.c.data() + (row + batch + b) * hidden;
      float* cn = s.c.data() + (row + b) * hidden;
      float* tc = s.tanh_c.data() + (row + b) * hidden;
      float* hn = s.h.data() + b * hidden;
      // Gate blocks [i f g o]: sigmoid on i and f, tanh on g, sigmoid on o.
      kernels.sigmoid_f32(pre, g, 2 * hidden);
      kernels.tanh_f32(pre + 2 * hidden, g + 2 * hidden, hidden);
      kernels.sigmoid_f32(pre + 3 * hidden, g + 3 * hidden, hidden);
      const float* i_gate = g;
      const float* f_gate = g + hidden;
      const float* g_gate = g + 2 * hidden;
      const float* o_gate = g + 3 * hidden;
      for (int64_t j = 0; j < hidden; ++j) {
        cn[j] = f_gate[j] * cp[j] + i_gate[j] * g_gate[j];
      }
      kernels.tanh_f32(cn, tc, hidden);
      for (int64_t j = 0; j < hidden; ++j) hn[j] = o_gate[j] * tc[j];
    }
  }

  if (!return_sequences_) return s.h;

  // Assemble the full hidden-state sequence {batch, time, hidden}.
  // h_t for step t is o_t * tanh(c_t), both in the stacks.
  Tensor sequence(Shape({batch, time, hidden_dim_}));
  for (int64_t t = 0; t < time; ++t) {
    const int64_t row = (time - 1 - t) * batch;
    for (int64_t b = 0; b < batch; ++b) {
      const float* gates = s.gates.data() + (row + b) * h4;
      const float* tc = s.tanh_c.data() + (row + b) * hidden;
      float* dst = sequence.data() + (b * time + t) * hidden_dim_;
      for (int j = 0; j < hidden_dim_; ++j) {
        dst[j] = gates[3 * hidden_dim_ + j] * tc[j];
      }
    }
  }
  return sequence;
}

Tensor LstmLayer::Backward(const Tensor& output_grad) {
  CHECK_GT(cached_time_, 0)
      << name_ << ": Backward needs a Forward whose caches no Backward "
      << "has consumed";
  Stacks& s = stacks_;
  const int64_t batch = cached_batch_;
  const int64_t time = cached_time_;
  const int64_t hidden = hidden_dim_;
  const Shape& grad_shape = output_grad.shape();
  CHECK_EQ(grad_shape.ndim(), return_sequences_ ? 3 : 2) << name_;
  CHECK_EQ(grad_shape.dim(0), batch)
      << name_ << ": output_grad batch differs from Forward's";
  if (return_sequences_) CHECK_EQ(grad_shape.dim(1), time) << name_;
  CHECK_EQ(grad_shape.dim(grad_shape.ndim() - 1), hidden) << name_;
  const int64_t h4 = 4 * hidden;

  Tensor input_grad(Shape({batch, time, input_dim_}));
  dh_.Resize({batch, hidden});
  dc_.Resize({batch, hidden});
  if (return_sequences_) {
    dh_.SetZero();
  } else {
    std::copy(output_grad.data(), output_grad.data() + dh_.size(),
              dh_.data());
  }
  dc_.SetZero();

  for (int64_t t = time - 1; t >= 0; --t) {
    if (return_sequences_) {
      // Inject this step's own output gradient on top of the carried
      // recurrent gradient.
      for (int64_t b = 0; b < batch; ++b) {
        const float* src =
            output_grad.data() + (b * time + t) * hidden_dim_;
        float* dst = dh_.data() + b * hidden_dim_;
        for (int j = 0; j < hidden_dim_; ++j) dst[j] += src[j];
      }
    }
    const int64_t row = (time - 1 - t) * batch;
    float* gates = s.gates.data() + row * h4;

    for (int64_t b = 0; b < batch; ++b) {
      const float* g = gates + b * h4;
      const float* cp = s.c.data() + (row + batch + b) * hidden;
      const float* tc = s.tanh_c.data() + (row + b) * hidden;
      const float* dhb = dh_.data() + b * hidden;
      float* dc = dc_.data() + b * hidden;
      float* dg = s.step_gates.data() + b * h4;
      for (int j = 0; j < hidden_dim_; ++j) {
        const float i_gate = g[j];
        const float f_gate = g[hidden_dim_ + j];
        const float g_gate = g[2 * hidden_dim_ + j];
        const float o_gate = g[3 * hidden_dim_ + j];
        // dL/dc_t: through h_t = o * tanh(c_t) plus carried dc.
        const float dct =
            dc[j] + dhb[j] * o_gate * (1.0f - tc[j] * tc[j]);
        dg[j] = dct * g_gate * i_gate * (1.0f - i_gate);            // di
        dg[hidden_dim_ + j] =
            dct * cp[j] * f_gate * (1.0f - f_gate);                 // df
        dg[2 * hidden_dim_ + j] =
            dct * i_gate * (1.0f - g_gate * g_gate);                // dg
        dg[3 * hidden_dim_ + j] =
            dhb[j] * tc[j] * o_gate * (1.0f - o_gate);              // do
        dc[j] = dct * f_gate;  // toward c_{t-1}
      }
    }

    // The bias gradient adds one float sum per step, as the per-step loop
    // did; one sum over all T·B rows would round differently.
    SumRowsTo(s.step_gates, &step_bias_grad_);
    Axpy(1.0f, step_bias_grad_, &bias_grad_);
    // Step t's gates are dead now: its gate gradients take their rows.
    std::copy(s.step_gates.data(), s.step_gates.data() + batch * h4, gates);
    // dh toward h_{t-1}; step 0 has no earlier step to pass it to.
    if (t > 0) Gemm(false, false, 1.0f, s.step_gates, wh_, 0.0f, &dh_);
  }

  // With the steps stacked in descending t, each weight gradient element
  // takes its terms in the order the per-step beta = 1 Gemms added them.
  Gemm(true, false, 1.0f, s.gates, s.x, 1.0f, &wx_grad_);
  Gemm(true, false, 1.0f, s.gates, s.h_prev, 1.0f, &wh_grad_);
  // dx for every step, written over the x stack, which is dead now.
  Gemm(false, false, 1.0f, s.gates, wx_, 0.0f, &s.x);
  for (int64_t t = 0; t < time; ++t) {
    const float* src = s.x.data() + (time - 1 - t) * batch * input_dim_;
    for (int64_t b = 0; b < batch; ++b) {
      std::copy(src + b * input_dim_, src + (b + 1) * input_dim_,
                input_grad.data() + (b * time + t) * input_dim_);
    }
  }
  cached_time_ = 0;
  return input_grad;
}

void LstmLayer::CollectParams(std::vector<ParamRef>* params) {
  params->push_back(ParamRef{name_ + "/Wx", &wx_, &wx_grad_,
                             Shape({4 * hidden_dim_, input_dim_}),
                             ParamKind::kFullyConnected});
  params->push_back(ParamRef{name_ + "/Wh", &wh_, &wh_grad_,
                             Shape({4 * hidden_dim_, hidden_dim_}),
                             ParamKind::kFullyConnected});
  params->push_back(ParamRef{name_ + "/b", &bias_, &bias_grad_,
                             Shape({4 * hidden_dim_}), ParamKind::kBias});
}

Shape LstmLayer::OutputShape(const Shape& input_shape) const {
  CHECK_EQ(input_shape.ndim(), 2);  // {time, input_dim}
  CHECK_EQ(input_shape.dim(1), input_dim_);
  if (return_sequences_) return Shape({input_shape.dim(0), hidden_dim_});
  return Shape({hidden_dim_});
}

}  // namespace lpsgd
