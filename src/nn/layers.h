// Neural-network building blocks on top of the tensor library: Linear,
// LayerNorm, multi-head self-attention, and the BERT-style transformer
// encoder used as the "pre-trained language model" substrate.
#ifndef KGLINK_NN_LAYERS_H_
#define KGLINK_NN_LAYERS_H_

#include <string>
#include <utility>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace kglink::nn {

// A named trainable parameter, for optimizers and checkpoints.
struct NamedParam {
  std::string name;
  Tensor tensor;
};

// Fully-connected layer y = xW + b.
class Linear {
 public:
  Linear() = default;
  Linear(int in_dim, int out_dim, Rng& rng, std::string name);

  Tensor Forward(const Tensor& x) const;
  void CollectParams(std::vector<NamedParam>* out) const;

  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }

 private:
  std::string name_;
  Tensor w_;  // [in, out]
  Tensor b_;  // [1, out]
};

// Layer normalization with learned affine.
class LayerNormLayer {
 public:
  LayerNormLayer() = default;
  LayerNormLayer(int dim, std::string name);

  Tensor Forward(const Tensor& x) const;
  void CollectParams(std::vector<NamedParam>* out) const;

 private:
  std::string name_;
  Tensor gamma_;
  Tensor beta_;
};

// Multi-head scaled-dot-product self-attention over a single sequence
// x: [L, d] -> [L, d].
class MultiHeadAttention {
 public:
  MultiHeadAttention() = default;
  MultiHeadAttention(int dim, int num_heads, Rng& rng, std::string name);

  Tensor Forward(const Tensor& x) const;
  void CollectParams(std::vector<NamedParam>* out) const;

 private:
  int num_heads_ = 1;
  int head_dim_ = 0;
  Linear q_, k_, v_, o_;
};

// Pre-LN transformer layer: x + MHA(LN(x)); x + FFN(LN(x)) with GELU.
class TransformerLayer {
 public:
  TransformerLayer() = default;
  TransformerLayer(int dim, int num_heads, int ffn_dim, float dropout,
                   Rng& rng, std::string name);

  Tensor Forward(const Tensor& x, Rng& rng, bool training) const;
  void CollectParams(std::vector<NamedParam>* out) const;

 private:
  float dropout_ = 0.0f;
  // Interned scope name ("nn.enc.layerN"); scopes need a non-null name,
  // so a default-constructed layer gets a literal.
  const char* scope_name_ = "nn.layer";
  MultiHeadAttention attn_;
  LayerNormLayer ln1_, ln2_;
  Linear ff1_, ff2_;
};

// Encoder hyperparameters. The defaults are the "BERT-role" configuration
// used across the experiments; `Large()` is the "DeBERTa-role" upgrade for
// the Table II ablation.
struct EncoderConfig {
  int vocab_size = 0;     // set from the tokenizer
  int max_seq_len = 256;  // position-embedding capacity
  // Segment-embedding capacity. Segments mark which column (or which
  // related-table section) a token belongs to — the from-scratch analogue
  // of what a pre-trained BERT infers from [CLS]/[SEP] structure.
  int max_segments = 16;
  int dim = 48;
  int num_heads = 4;
  int num_layers = 2;
  int ffn_dim = 128;
  float dropout = 0.1f;

  // Larger configuration standing in for a stronger PLM (DeBERTa row).
  static EncoderConfig Large() {
    EncoderConfig c;
    c.dim = 64;
    c.num_heads = 4;
    c.num_layers = 3;
    c.ffn_dim = 192;
    return c;
  }
};

// BERT-style encoder: token + position embeddings, N transformer layers,
// final LayerNorm. Input is one token-id sequence; output is [L, dim].
class TransformerEncoder {
 public:
  TransformerEncoder() = default;
  TransformerEncoder(const EncoderConfig& config, Rng& rng);

  // Encodes a token sequence. Sequences longer than config.max_seq_len are
  // truncated (counted in the `encode.truncated` metric), never rejected:
  // on the serving path an over-length input must degrade gracefully, not
  // take down the process. `segment_ids`, when non-empty, must be parallel
  // to `token_ids` with values in [0, max_segments); empty means all-zero
  // segments.
  Tensor Forward(const std::vector<int>& token_ids, Rng& rng,
                 bool training) const;
  Tensor Forward(const std::vector<int>& token_ids,
                 const std::vector<int>& segment_ids, Rng& rng,
                 bool training) const;

  const EncoderConfig& config() const { return config_; }
  const Tensor& token_embedding() const { return tok_emb_; }
  std::vector<NamedParam> Parameters() const;

 private:
  EncoderConfig config_;
  Tensor tok_emb_;  // [vocab, dim]
  Tensor pos_emb_;  // [max_seq_len, dim]
  Tensor seg_emb_;  // [max_segments, dim]
  // Cached 0..max_seq_len-1, sliced per call instead of rebuilt. Caching
  // the *ids* (not a lookup Tensor) keeps autograd sound: the optimizer
  // updates pos_emb_ in place, so a cached activation would go stale and
  // alias grads across steps, while cached ids are just indices.
  std::vector<int> pos_ids_;
  LayerNormLayer emb_ln_;
  std::vector<TransformerLayer> layers_;
  LayerNormLayer final_ln_;
};

}  // namespace kglink::nn

#endif  // KGLINK_NN_LAYERS_H_
