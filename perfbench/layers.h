// The traced pass of the KGLink benchmark: times calls into each layer's
// public functions from outside the library. Nothing inside src/ is
// instrumented; the sublayer numbers come from replaying the layer's
// public building blocks on the same inputs. See README.md.
#ifndef KGLINK_PERFBENCH_LAYERS_H_
#define KGLINK_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/annotator.h"
#include "core/serializer.h"
#include "linker/entity_linker.h"
#include "nn/layers.h"
#include "nn/vocab.h"
#include "table/corpus.h"

namespace kglink::perfbench {

// Sublayer times of one encoder forward, in microseconds. The buckets
// partition the forward: embedding = the three lookups and their adds;
// attention = Q/K/V projections, fused attention, output projection and
// its residual add; ffn_gemm = the two FFN linears and their residual add;
// gelu = the activation; layernorm = every LayerNorm.
struct NnTimes {
  double embedding = 0, attention = 0, layernorm = 0, ffn_gemm = 0,
         gelu = 0;
  double Sum() const {
    return embedding + attention + layernorm + ffn_gemm + gelu;
  }
  void Add(const NnTimes& o) {
    embedding += o.embedding;
    attention += o.attention;
    layernorm += o.layernorm;
    ffn_gemm += o.ffn_gemm;
    gelu += o.gelu;
  }
};

// Per-table results of the traced pass; one entry per traced table.
struct TableTrace {
  double process_us = 0;  // KgLinkAnnotator::Preprocess
  double predict_us = 0;  // KgLinkAnnotator::PredictProcessed
  double link_row_excl_us = 0;
  double filter_rows_us = 0;
  double candidate_types_us = 0;
  double feature_sequence_us = 0;
  double serialize_us = 0;
  double encoder_forward_us = 0;  // TransformerEncoder::Forward, summed
  NnTimes nn;                     // replayed sublayers, summed
  int64_t serialized_tokens = 0;
  int64_t encoded_tokens = 0;
  std::vector<int> predictions;
};

class LayerTracer {
 public:
  // Builds what the replays need and the annotator keeps private: a
  // cache-less linker with the annotator's linker config, a vocabulary
  // built from `train` the way Fit builds one, a serializer and an encoder
  // of the annotator's shape. `kg`, `engine` and `train` must outlive the
  // tracer.
  LayerTracer(const kg::KnowledgeGraph* kg,
              const search::SearchEngine* engine,
              const core::KgLinkOptions& options,
              const table::Corpus& train);
  // The serializer points into the tracer's own vocabulary.
  LayerTracer(const LayerTracer&) = delete;
  LayerTracer& operator=(const LayerTracer&) = delete;

  // The top-level spans: Part 1 and Part 2 through `annotator` as the two
  // calls AnnotateTable makes (Preprocess, PredictProcessed). Fills the
  // times and predictions of `out` and returns Part 1's output.
  linker::ProcessedTable TimeTopLevel(core::KgLinkAnnotator& annotator,
                                      const table::Table& t, TableTrace* out);

  // Replays every sublayer on `t`, whose Part-1 output is `pt`. Touches
  // none of the annotator's state, so it can run after all top-level
  // spans and leave them undisturbed.
  void Replay(const table::Table& t, const linker::ProcessedTable& pt,
              TableTrace* out);

  // LinkCell latencies with the cache disabled, one per string cell.
  const std::vector<double>& topk_us() const { return topk_us_; }
  // Replays whose result differed from the library's own (Part-1 replay
  // vs Preprocess, encoder replay vs Forward). Nonzero means a sublayer
  // breakdown no longer mirrors the code it stands for.
  int replay_mismatches() const { return replay_mismatches_; }

 private:
  // The encoder's parameters, resolved by name once.
  struct LayerParams {
    nn::Tensor ln1_g, ln1_b, q_w, q_b, k_w, k_b, v_w, v_b, o_w, o_b, ln2_g,
        ln2_b, ff1_w, ff1_b, ff2_w, ff2_b;
  };
  struct EncoderParams {
    nn::Tensor tok, pos, seg, emb_g, emb_b, final_g, final_b;
    std::vector<LayerParams> layers;
  };

  // TransformerEncoder::Forward in inference, op for op, with each op
  // timed into its sublayer bucket.
  nn::Tensor ReplayForward(const std::vector<int>& tokens,
                           const std::vector<int>& segments,
                           NnTimes* times) const;
  void EncodeAndReplay(const std::vector<int>& tokens,
                       const std::vector<int>& segments, TableTrace* out);

  const kg::KnowledgeGraph* kg_;
  core::KgLinkOptions options_;
  linker::EntityLinker uncached_;
  std::optional<nn::Vocabulary> vocab_;
  std::optional<core::TableSerializer> serializer_;
  std::optional<nn::TransformerEncoder> encoder_;
  EncoderParams params_;
  std::vector<int> pos_ids_;
  int64_t encodes_ = 0;
  int64_t rows_ = 0;
  std::vector<double> topk_us_;
  int replay_mismatches_ = 0;
};

}  // namespace kglink::perfbench

#endif  // KGLINK_PERFBENCH_LAYERS_H_
