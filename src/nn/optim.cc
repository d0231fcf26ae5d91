#include "nn/optim.h"

#include <cmath>

#include "obs/scope.h"

namespace kglink::nn {

AdamW::AdamW(std::vector<NamedParam> params, AdamWOptions options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  decay_.reserve(params_.size());
  for (const auto& p : params_) {
    KGLINK_CHECK(p.tensor.requires_grad())
        << "optimizer param " << p.name << " does not require grad";
    m_.emplace_back(p.tensor.data().size(), 0.0f);
    v_.emplace_back(p.tensor.data().size(), 0.0f);
    bool no_decay = p.name.ends_with(".b") || p.name.ends_with(".gamma") ||
                    p.name.ends_with(".beta") ||
                    p.name.rfind("uw.", 0) == 0;
    decay_.push_back(!no_decay);
  }
}

void AdamW::Step(float lr) {
  KGLINK_SCOPE("nn.optim.step");
  ++step_;
  float bc1 = 1.0f - std::pow(options_.beta1, static_cast<float>(step_));
  float bc2 = 1.0f - std::pow(options_.beta2, static_cast<float>(step_));
  for (size_t pi = 0; pi < params_.size(); ++pi) {
    Tensor& t = params_[pi].tensor;
    auto& data = t.data();
    auto& grad = t.grad();
    auto& m = m_[pi];
    auto& v = v_[pi];
    for (size_t i = 0; i < data.size(); ++i) {
      float g = grad[i];
      m[i] = options_.beta1 * m[i] + (1.0f - options_.beta1) * g;
      v[i] = options_.beta2 * v[i] + (1.0f - options_.beta2) * g * g;
      float mhat = m[i] / bc1;
      float vhat = v[i] / bc2;
      float wd = decay_[pi] ? options_.weight_decay : 0.0f;
      data[i] -= lr * (mhat / (std::sqrt(vhat) + options_.eps) +
                       wd * data[i]);
    }
  }
}

void AdamW::ZeroGrad() {
  KGLINK_SCOPE("nn.optim.zero_grad");
  for (auto& p : params_) p.tensor.ZeroGrad();
}

float AdamW::ClipGradNorm(float max_norm) {
  KGLINK_SCOPE("nn.optim.clip_grad_norm");
  double total = 0.0;
  for (auto& p : params_) {
    for (float g : p.tensor.grad()) total += static_cast<double>(g) * g;
  }
  float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    float scale = max_norm / norm;
    for (auto& p : params_) {
      for (float& g : p.tensor.grad()) g *= scale;
    }
  }
  return norm;
}

}  // namespace kglink::nn
