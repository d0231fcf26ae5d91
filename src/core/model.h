// The KGLink network (Part 2): shared transformer encoder, feature-vector
// composition phi (Eq. 15), classification head (Eq. 16 input), and the
// vocabulary projection W_o used by the column-type representation task
// (Eq. 14).
#ifndef KGLINK_CORE_MODEL_H_
#define KGLINK_CORE_MODEL_H_

#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/tensor.h"
#include "util/status.h"

namespace kglink::core {

// How phi combines the [CLS] column vector with the KG feature vector.
enum class Composition {
  kConcatLinear,  // phi = W [Ycls ; Yfv] + b (default)
  kGatedSum,      // phi = Ycls + sigmoid(Wg Yfv) * (Wf Yfv)   (ablation)
};

struct KgLinkModelConfig {
  nn::EncoderConfig encoder;
  int num_labels = 0;
  float dmlm_temperature = 2.0f;  // Hinton's T (paper sets 2)
  Composition composition = Composition::kConcatLinear;
};

class KgLinkModel {
 public:
  KgLinkModel(const KgLinkModelConfig& config, Rng& rng);

  // Encodes one token sequence -> [L, dim]. `segments` may be empty.
  nn::Tensor Encode(const std::vector<int>& tokens,
                    const std::vector<int>& segments, Rng& rng,
                    bool training) const;

  // Mean-pooled feature vector from a feature-sequence encoding, or an
  // all-zero constant when the column has no KG feature.
  nn::Tensor FeatureVector(const std::vector<int>& feature_tokens, Rng& rng,
                           bool training) const;

  // phi(Ycls, Yfv): both [1, dim] -> [1, dim].
  nn::Tensor Compose(const nn::Tensor& cls_vec,
                     const nn::Tensor& feature_vec) const;

  // [n, dim] composed column vectors -> [n, num_labels] logits.
  nn::Tensor Classify(const nn::Tensor& column_vectors) const;

  // [n, dim] hidden states -> [n, vocab] logits (W_o of Eq. 14).
  nn::Tensor ProjectToVocab(const nn::Tensor& hidden) const;

  nn::UncertaintyWeightedLoss& uncertainty_loss() { return uw_; }
  const nn::UncertaintyWeightedLoss& uncertainty_loss() const { return uw_; }

  const KgLinkModelConfig& config() const { return config_; }
  std::vector<nn::NamedParam> Parameters() const;

  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

 private:
  KgLinkModelConfig config_;
  nn::TransformerEncoder encoder_;
  nn::Linear compose_;       // [2d -> d] (kConcatLinear)
  nn::Linear gate_;          // [d -> d]  (kGatedSum)
  nn::Linear feature_proj_;  // [d -> d]  (kGatedSum)
  nn::Linear cls_head_;      // [d -> num_labels]
  nn::Linear vocab_proj_;    // [d -> vocab]
  nn::UncertaintyWeightedLoss uw_;
};

}  // namespace kglink::core

#endif  // KGLINK_CORE_MODEL_H_
