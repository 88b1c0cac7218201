// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "nn/network.h"

#include "base/logging.h"

namespace lpsgd {

Network& Network::Add(std::unique_ptr<Layer> layer) {
  CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Network::Forward(const Tensor& input, bool training) {
  Tensor activation = input;
  for (auto& layer : layers_) {
    activation = layer->Forward(activation, training);
  }
  return activation;
}

void Network::Backward(const Tensor& logits_grad) {
  Tensor grad = logits_grad;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = (*it)->Backward(grad);
  }
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
  Tensor main_path = input;
  for (auto& layer : inner_) {
    main_path = layer->Forward(main_path, training);
  }
  Tensor shortcut = input;
  for (auto& layer : projection_) {
    shortcut = layer->Forward(shortcut, training);
  }
  CHECK(main_path.shape() == shortcut.shape())
      << name_ << ": inner " << main_path.shape().ToString()
      << " vs shortcut " << shortcut.shape().ToString();
  float* out = main_path.data();
  const float* sc = shortcut.data();
  for (int64_t i = 0; i < main_path.size(); ++i) out[i] += sc[i];
  return main_path;
}

Tensor ResidualBlock::Backward(const Tensor& output_grad) {
  Tensor main_grad = output_grad;
  for (auto it = inner_.rbegin(); it != inner_.rend(); ++it) {
    main_grad = (*it)->Backward(main_grad);
  }
  Tensor shortcut_grad = output_grad;
  for (auto it = projection_.rbegin(); it != projection_.rend(); ++it) {
    shortcut_grad = (*it)->Backward(shortcut_grad);
  }
  CHECK(main_grad.shape() == shortcut_grad.shape()) << name_;
  float* out = main_grad.data();
  const float* sc = shortcut_grad.data();
  for (int64_t i = 0; i < main_grad.size(); ++i) out[i] += sc[i];
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
