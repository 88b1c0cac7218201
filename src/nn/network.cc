// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/network.h"

#include "base/logging.h"

namespace lpsgd {

namespace {

using LayerList = std::vector<std::unique_ptr<Layer>>;

// Runs `layers` in order. The first layer reads `input` in place, so only
// the layers' own outputs are materialized; with no layers, `input` is
// copied.
Tensor ForwardChain(const LayerList& layers, const Tensor& input,
                    bool training) {
  if (layers.empty()) return input;
  Tensor activation = layers.front()->Forward(input, training);
  for (size_t i = 1; i < layers.size(); ++i) {
    activation = layers[i]->Forward(activation, training);
  }
  return activation;
}

// Runs `layers` backward, last layer first, the same way.
Tensor BackwardChain(const LayerList& layers, const Tensor& grad) {
  if (layers.empty()) return grad;
  Tensor input_grad = layers.back()->Backward(grad);
  for (size_t i = layers.size() - 1; i-- > 0;) {
    input_grad = layers[i]->Backward(input_grad);
  }
  return input_grad;
}

// Adds `addend` into `sum` elementwise.
void AddInto(const Tensor& addend, Tensor* sum) {
  float* out = sum->data();
  const float* in = addend.data();
  for (int64_t i = 0; i < sum->size(); ++i) out[i] += in[i];
}

}  // namespace

Network& Network::Add(std::unique_ptr<Layer> layer) {
  CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Network::Forward(const Tensor& input, bool training) {
  return ForwardChain(layers_, input, training);
}

void Network::Backward(const Tensor& logits_grad) {
  BackwardChain(layers_, logits_grad);
}

std::vector<ParamRef> Network::Params() {
  std::vector<ParamRef> params;
  for (auto& layer : layers_) {
    layer->CollectParams(&params);
  }
  return params;
}

void Network::ZeroGrads() {
  for (ParamRef& param : Params()) {
    param.grad->SetZero();
  }
}

int64_t Network::ParameterCount() {
  int64_t count = 0;
  for (const ParamRef& param : Params()) {
    count += param.value->size();
  }
  return count;
}

void Network::CopyParamsFrom(Network& other) {
  std::vector<ParamRef> mine = Params();
  std::vector<ParamRef> theirs = other.Params();
  CHECK_EQ(mine.size(), theirs.size());
  for (size_t i = 0; i < mine.size(); ++i) {
    CHECK(mine[i].value->shape() == theirs[i].value->shape())
        << mine[i].name;
    *mine[i].value = *theirs[i].value;
  }
}

ResidualBlock::ResidualBlock(std::string name,
                             std::vector<std::unique_ptr<Layer>> inner,
                             std::vector<std::unique_ptr<Layer>> projection)
    : name_(std::move(name)),
      inner_(std::move(inner)),
      projection_(std::move(projection)) {
  CHECK(!inner_.empty()) << name_;
}

Tensor ResidualBlock::Forward(const Tensor& input, bool training) {
  Tensor main_path = ForwardChain(inner_, input, training);
  // The identity shortcut reads `input` itself.
  Tensor projected;
  if (!projection_.empty()) {
    projected = ForwardChain(projection_, input, training);
  }
  const Tensor& shortcut = projection_.empty() ? input : projected;
  CHECK(main_path.shape() == shortcut.shape())
      << name_ << ": inner " << main_path.shape().ToString()
      << " vs shortcut " << shortcut.shape().ToString();
  AddInto(shortcut, &main_path);
  return main_path;
}

Tensor ResidualBlock::Backward(const Tensor& output_grad) {
  Tensor main_grad = BackwardChain(inner_, output_grad);
  Tensor projected;
  if (!projection_.empty()) {
    projected = BackwardChain(projection_, output_grad);
  }
  const Tensor& shortcut_grad = projection_.empty() ? output_grad : projected;
  CHECK(main_grad.shape() == shortcut_grad.shape()) << name_;
  AddInto(shortcut_grad, &main_grad);
  return main_grad;
}

void ResidualBlock::CollectParams(std::vector<ParamRef>* params) {
  for (auto& layer : inner_) layer->CollectParams(params);
  for (auto& layer : projection_) layer->CollectParams(params);
}

Shape ResidualBlock::OutputShape(const Shape& input_shape) const {
  Shape shape = input_shape;
  for (const auto& layer : inner_) shape = layer->OutputShape(shape);
  return shape;
}

}  // namespace lpsgd
