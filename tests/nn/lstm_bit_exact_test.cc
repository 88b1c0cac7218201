// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// LstmLayer runs only the recurrence per timestep and every other product
// as one Gemm over all time·batch rows. These tests keep the per-timestep
// loop it replaced as the golden reference and require the output, the
// Wx, Wh and bias gradients and the input gradient to match it byte for
// byte, over two accumulating rounds, under every Gemm ISA, as
// Conv2dBitExactTest does for the batched convolution.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/simd/simd.h"
#include "nn/lstm.h"
#include "tensor/ops.h"

namespace lpsgd {
namespace {

// The NaN an invalid operation produces on this CPU. Every result NaN
// comes from it through the same operations in both implementations, so
// the byte comparison stays exact.
float HardwareNan() {
  volatile float zero = 0.0f;
  return zero * std::numeric_limits<float>::infinity();
}

std::vector<SimdIsa> IsasUnderTest() {
  std::vector<SimdIsa> isas = {SimdIsa::kScalar};
  if (SimdIsaSupported(SimdIsa::kAvx2)) isas.push_back(SimdIsa::kAvx2);
  return isas;
}

struct LstmCase {
  int64_t batch;
  int64_t time;
  int input_dim;
  int hidden;
  bool return_sequences;
  bool specials;  // -0 and one NaN in the input, besides the exact zeros
};

std::string CaseName(const LstmCase& c) {
  return "batch " + std::to_string(c.batch) + ", time " +
         std::to_string(c.time) + ", " + std::to_string(c.input_dim) +
         "->" + std::to_string(c.hidden) +
         (c.return_sequences ? ", sequences" : ", last state") +
         (c.specials ? ", specials" : "");
}

struct LstmResult {
  Tensor output;
  Tensor wx_grad;
  Tensor wh_grad;
  Tensor bias_grad;
  Tensor input_grad;
};

float SigmoidF(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// The per-timestep loop LstmLayer ran before it batched: per step, the
// input and recurrent Gemms into a fresh gate matrix in Forward; in
// Backward, per step in descending t, one beta = 1 Gemm each into dWx and
// dWh, the bias sums, and the dx and dh Gemms. The gradients accumulate
// into `wx_grad`, `wh_grad` and `bias_grad`.
LstmResult PerStepReference(const LstmCase& c, const Tensor& wx,
                            const Tensor& wh, const Tensor& bias,
                            const Tensor& input, const Tensor& output_grad,
                            Tensor wx_grad, Tensor wh_grad,
                            Tensor bias_grad) {
  const int64_t batch = c.batch;
  const int64_t time = c.time;
  const int in = c.input_dim;
  const int hd = c.hidden;
  const int64_t h4 = 4 * int64_t{hd};
  struct Step {
    Tensor x, h_prev, c_prev, gates, c, tanh_c;
  };
  std::vector<Step> steps;

  Tensor h(Shape({batch, hd}));
  Tensor cell(Shape({batch, hd}));
  for (int64_t t = 0; t < time; ++t) {
    Step step;
    step.x = Tensor(Shape({batch, in}));
    for (int64_t b = 0; b < batch; ++b) {
      const float* src = input.data() + (b * time + t) * in;
      std::copy(src, src + in, step.x.data() + b * in);
    }
    step.h_prev = h;
    step.c_prev = cell;
    step.gates = Tensor(Shape({batch, h4}));
    Gemm(false, true, 1.0f, step.x, wx, 0.0f, &step.gates);
    Gemm(false, true, 1.0f, step.h_prev, wh, 1.0f, &step.gates);
    AddRowBroadcast(bias, &step.gates);
    step.c = Tensor(Shape({batch, hd}));
    step.tanh_c = Tensor(Shape({batch, hd}));
    for (int64_t b = 0; b < batch; ++b) {
      float* g = step.gates.data() + b * h4;
      const float* cp = step.c_prev.data() + b * hd;
      float* cn = step.c.data() + b * hd;
      float* tc = step.tanh_c.data() + b * hd;
      float* hn = h.data() + b * hd;
      for (int j = 0; j < hd; ++j) {
        const float i_gate = SigmoidF(g[j]);
        const float f_gate = SigmoidF(g[hd + j]);
        const float g_gate = std::tanh(g[2 * hd + j]);
        const float o_gate = SigmoidF(g[3 * hd + j]);
        g[j] = i_gate;
        g[hd + j] = f_gate;
        g[2 * hd + j] = g_gate;
        g[3 * hd + j] = o_gate;
        cn[j] = f_gate * cp[j] + i_gate * g_gate;
        tc[j] = std::tanh(cn[j]);
        hn[j] = o_gate * tc[j];
      }
    }
    cell = step.c;
    steps.push_back(std::move(step));
  }

  LstmResult r;
  if (c.return_sequences) {
    r.output = Tensor(Shape({batch, time, hd}));
    for (int64_t t = 0; t < time; ++t) {
      const Step& step = steps[static_cast<size_t>(t)];
      for (int64_t b = 0; b < batch; ++b) {
        for (int j = 0; j < hd; ++j) {
          r.output.data()[(b * time + t) * hd + j] =
              step.gates.at(b, 3 * hd + j) * step.tanh_c.at(b, j);
        }
      }
    }
  } else {
    r.output = h;
  }

  r.input_grad = Tensor(input.shape());
  Tensor dh(Shape({batch, hd}));
  if (!c.return_sequences) {
    std::copy(output_grad.data(), output_grad.data() + dh.size(), dh.data());
  }
  Tensor dc(Shape({batch, hd}));
  for (int64_t t = time - 1; t >= 0; --t) {
    if (c.return_sequences) {
      for (int64_t b = 0; b < batch; ++b) {
        for (int j = 0; j < hd; ++j) {
          dh.data()[b * hd + j] += output_grad.data()[(b * time + t) * hd + j];
        }
      }
    }
    const Step& step = steps[static_cast<size_t>(t)];
    Tensor dgates(Shape({batch, h4}));
    Tensor dh_next(Shape({batch, hd}));
    Tensor dc_next(Shape({batch, hd}));
    for (int64_t b = 0; b < batch; ++b) {
      const float* g = step.gates.data() + b * h4;
      const float* cp = step.c_prev.data() + b * hd;
      const float* tc = step.tanh_c.data() + b * hd;
      const float* dhb = dh.data() + b * hd;
      const float* dcb = dc.data() + b * hd;
      float* dg = dgates.data() + b * h4;
      float* dcn = dc_next.data() + b * hd;
      for (int j = 0; j < hd; ++j) {
        const float i_gate = g[j];
        const float f_gate = g[hd + j];
        const float g_gate = g[2 * hd + j];
        const float o_gate = g[3 * hd + j];
        const float dct = dcb[j] + dhb[j] * o_gate * (1.0f - tc[j] * tc[j]);
        dg[j] = dct * g_gate * i_gate * (1.0f - i_gate);
        dg[hd + j] = dct * cp[j] * f_gate * (1.0f - f_gate);
        dg[2 * hd + j] = dct * i_gate * (1.0f - g_gate * g_gate);
        dg[3 * hd + j] = dhb[j] * tc[j] * o_gate * (1.0f - o_gate);
        dcn[j] = dct * f_gate;
      }
    }
    Gemm(true, false, 1.0f, dgates, step.x, 1.0f, &wx_grad);
    Gemm(true, false, 1.0f, dgates, step.h_prev, 1.0f, &wh_grad);
    Tensor db(bias_grad.shape());
    SumRowsTo(dgates, &db);
    Axpy(1.0f, db, &bias_grad);
    Tensor dx(Shape({batch, in}));
    Gemm(false, false, 1.0f, dgates, wx, 0.0f, &dx);
    for (int64_t b = 0; b < batch; ++b) {
      std::copy(dx.data() + b * in, dx.data() + (b + 1) * in,
                r.input_grad.data() + (b * time + t) * in);
    }
    Gemm(false, false, 1.0f, dgates, wh, 0.0f, &dh_next);
    dh = std::move(dh_next);
    dc = std::move(dc_next);
  }
  r.wx_grad = std::move(wx_grad);
  r.wh_grad = std::move(wh_grad);
  r.bias_grad = std::move(bias_grad);
  return r;
}

void ExpectSameBits(const Tensor& actual, const Tensor& expected,
                    const char* what) {
  ASSERT_EQ(actual.shape(), expected.shape()) << what;
  if (std::memcmp(actual.data(), expected.data(),
                  static_cast<size_t>(actual.size()) * sizeof(float)) == 0) {
    return;
  }
  for (int64_t i = 0; i < actual.size(); ++i) {
    uint32_t a = 0, e = 0;
    std::memcpy(&a, actual.data() + i, sizeof(a));
    std::memcpy(&e, expected.data() + i, sizeof(e));
    if (a != e) {
      ADD_FAILURE() << what << " differs first at element " << i << ": "
                    << actual.at(i) << " vs reference " << expected.at(i);
      return;
    }
  }
}

// Gaussian values with a third of them exact zeros and, with `specials`,
// some -0 and one NaN.
void FillValues(Rng* rng, bool specials, Tensor* t) {
  t->FillGaussian(rng, 1.0f);
  for (int64_t i = 0; i < t->size(); ++i) {
    if (rng->NextUint64(3) == 0) t->data()[i] = 0.0f;
  }
  if (!specials) return;
  for (int64_t i = 1; i < t->size(); i += 7) t->data()[i] = -0.0f;
  t->data()[t->size() / 2] = HardwareNan();
}

void ExpectMatchesReference(const LstmCase& c) {
  SCOPED_TRACE(CaseName(c));
  Rng rng(0x157 + static_cast<uint64_t>(c.batch * 1009 + c.time * 31 +
                                        c.input_dim * 7 + c.hidden));
  LstmLayer lstm("lstm", c.input_dim, c.hidden, &rng, c.return_sequences);
  std::vector<ParamRef> params;
  lstm.CollectParams(&params);
  ASSERT_EQ(params.size(), 3u);
  params[2].value->FillGaussian(&rng, 0.1f);
  // Gradients start nonzero, as mid-step in a network: all accumulate.
  for (ParamRef& p : params) p.grad->FillGaussian(&rng, 0.01f);

  Tensor input(Shape({c.batch, c.time, c.input_dim}));
  Tensor output_grad(c.return_sequences
                         ? Shape({c.batch, c.time, c.hidden})
                         : Shape({c.batch, c.hidden}));
  // Two rounds, so the second one runs on reused stacks.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    FillValues(&rng, c.specials, &input);
    FillValues(&rng, /*specials=*/false, &output_grad);
    const LstmResult expected = PerStepReference(
        c, *params[0].value, *params[1].value, *params[2].value, input,
        output_grad, *params[0].grad, *params[1].grad, *params[2].grad);
    const Tensor output = lstm.Forward(input, /*training=*/true);
    const Tensor input_grad = lstm.Backward(output_grad);
    ExpectSameBits(output, expected.output, "output");
    ExpectSameBits(*params[0].grad, expected.wx_grad, "dWx");
    ExpectSameBits(*params[1].grad, expected.wh_grad, "dWh");
    ExpectSameBits(*params[2].grad, expected.bias_grad, "db");
    ExpectSameBits(input_grad, expected.input_grad, "dX");
  }
}

// Every combination of the per-rank batches, sequence lengths and layer
// widths around the benchmark's lstm_sparse_nccl network (batch 8, 20
// steps, 32 -> 64 -> 64), with odd widths that straddle the Gemm tile.
std::vector<LstmCase> AllCases() {
  std::vector<LstmCase> cases;
  for (const bool sequences : {false, true}) {
    for (const bool specials : {false, true}) {
      for (const int64_t batch : {1, 3, 8}) {
        for (const int64_t time : {1, 2, 20}) {
          for (const int input_dim : {5, 32, 33}) {
            for (const int hidden : {4, 64}) {
              cases.push_back(LstmCase{batch, time, input_dim, hidden,
                                       sequences, specials});
            }
          }
        }
      }
    }
  }
  return cases;
}

TEST(LstmBitExactTest, MatchesPerStepReference) {
  const std::vector<LstmCase> cases = AllCases();
  for (const SimdIsa isa : IsasUnderTest()) {
    SCOPED_TRACE(SimdIsaName(isa));
    ScopedSimdIsa force(isa);
    for (const LstmCase& c : cases) {
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(c));
    }
  }
}

}  // namespace
}  // namespace lpsgd
