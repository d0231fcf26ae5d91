#include "core/model.h"

#include "nn/checkpoint.h"

namespace kglink::core {

KgLinkModel::KgLinkModel(const KgLinkModelConfig& config, Rng& rng)
    : config_(config), encoder_(config.encoder, rng) {
  int d = config.encoder.dim;
  KGLINK_CHECK_GT(config.num_labels, 0);
  compose_ = nn::Linear(2 * d, d, rng, "model.compose");
  gate_ = nn::Linear(d, d, rng, "model.gate");
  feature_proj_ = nn::Linear(d, d, rng, "model.feature_proj");
  cls_head_ = nn::Linear(d, config.num_labels, rng, "model.cls_head");
  vocab_proj_ = nn::Linear(d, config.encoder.vocab_size, rng,
                           "model.vocab_proj");
}

nn::Tensor KgLinkModel::Encode(const std::vector<int>& tokens,
                               const std::vector<int>& segments, Rng& rng,
                               bool training) const {
  return encoder_.Forward(tokens, segments, rng, training);
}

nn::Tensor KgLinkModel::FeatureVector(const std::vector<int>& feature_tokens,
                                      Rng& rng, bool training) const {
  if (feature_tokens.empty()) {
    return nn::Tensor::Zeros({1, config_.encoder.dim});
  }
  return nn::MeanRows(Encode(feature_tokens, {}, rng, training));
}

nn::Tensor KgLinkModel::Compose(const nn::Tensor& cls_vec,
                                const nn::Tensor& feature_vec) const {
  switch (config_.composition) {
    case Composition::kConcatLinear:
      return compose_.Forward(nn::ConcatCols({cls_vec, feature_vec}));
    case Composition::kGatedSum: {
      nn::Tensor gate = nn::Sigmoid(gate_.Forward(feature_vec));
      return nn::Add(cls_vec,
                     nn::Mul(gate, feature_proj_.Forward(feature_vec)));
    }
  }
  KGLINK_CHECK(false) << "unknown composition";
  return {};
}

nn::Tensor KgLinkModel::Classify(const nn::Tensor& column_vectors) const {
  return cls_head_.Forward(column_vectors);
}

nn::Tensor KgLinkModel::ProjectToVocab(const nn::Tensor& hidden) const {
  return vocab_proj_.Forward(hidden);
}

std::vector<nn::NamedParam> KgLinkModel::Parameters() const {
  std::vector<nn::NamedParam> params = encoder_.Parameters();
  compose_.CollectParams(&params);
  gate_.CollectParams(&params);
  feature_proj_.CollectParams(&params);
  cls_head_.CollectParams(&params);
  vocab_proj_.CollectParams(&params);
  uw_.CollectParams(&params);
  return params;
}

Status KgLinkModel::Save(const std::string& path) const {
  return nn::SaveTensors(path, Parameters());
}

Status KgLinkModel::Load(const std::string& path) {
  auto params = Parameters();
  return nn::LoadTensors(path, &params);
}

}  // namespace kglink::core
