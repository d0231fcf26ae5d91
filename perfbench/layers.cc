#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "linker/candidate_types.h"
#include "linker/feature_sequence.h"
#include "linker/pipeline.h"
#include "linker/row_filter.h"
#include "nn/tensor.h"
#include "util/check.h"

namespace kglink::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// Runs `f` and adds its wall time to `*us`.
template <typename F>
auto Timed(double* us, F&& f) {
  Clock::time_point start = Clock::now();
  auto result = f();
  *us += MicrosSince(start);
  return result;
}

linker::LinkerConfig Uncached(linker::LinkerConfig config) {
  config.cell_cache_capacity = 0;
  return config;
}

// The corpus texts KgLinkAnnotator's Fit builds its vocabulary from: label
// names plus, per processed training table, the kept cells, candidate-type
// labels and feature sequences.
nn::Vocabulary BuildVocabulary(const kg::KnowledgeGraph* kg,
                               const search::SearchEngine* engine,
                               const core::KgLinkOptions& options,
                               const table::Corpus& train) {
  linker::KgPipeline pipeline(kg, engine, options.linker);
  std::vector<std::string> texts = train.label_names;
  for (const table::LabeledTable& lt : train.tables) {
    linker::ProcessedTable pt = pipeline.Process(lt.table);
    const table::Table& t = pt.filtered;
    for (int r = 0; r < t.num_rows(); ++r) {
      for (int c = 0; c < t.num_cols(); ++c) texts.push_back(t.at(r, c).text);
    }
    for (const linker::ColumnKgInfo& info : pt.columns) {
      for (const std::string& label : info.candidate_type_labels) {
        texts.push_back(label);
      }
      if (info.has_feature) texts.push_back(info.feature_sequence);
    }
  }
  return nn::Vocabulary::Build(texts, options.max_vocab);
}

bool SameCandidateTypes(const std::vector<linker::CandidateType>& a,
                        const std::vector<linker::CandidateType>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const auto& x, const auto& y) {
                      return x.entity == y.entity && x.score == y.score;
                    });
}

}  // namespace

LayerTracer::LayerTracer(const kg::KnowledgeGraph* kg,
                         const search::SearchEngine* engine,
                         const core::KgLinkOptions& options,
                         const table::Corpus& train)
    : kg_(kg),
      options_(options),
      uncached_(kg, engine, Uncached(options.linker)) {
  vocab_.emplace(BuildVocabulary(kg, engine, options, train));
  serializer_.emplace(&*vocab_, options.serializer);
  nn::EncoderConfig config = options.encoder;
  config.vocab_size = vocab_->size();
  config.max_seq_len =
      std::max(config.max_seq_len, options.serializer.max_seq_len);
  Rng rng(options.seed);
  encoder_.emplace(config, rng);
  pos_ids_.resize(static_cast<size_t>(config.max_seq_len));
  std::iota(pos_ids_.begin(), pos_ids_.end(), 0);

  std::vector<nn::NamedParam> named = encoder_->Parameters();
  auto param = [&](const std::string& name) {
    for (const nn::NamedParam& p : named) {
      if (p.name == name) return p.tensor;
    }
    KGLINK_CHECK(false) << "encoder has no parameter " << name;
    return nn::Tensor();
  };
  params_.tok = param("enc.tok_emb");
  params_.pos = param("enc.pos_emb");
  params_.seg = param("enc.seg_emb");
  params_.emb_g = param("enc.emb_ln.gamma");
  params_.emb_b = param("enc.emb_ln.beta");
  params_.final_g = param("enc.final_ln.gamma");
  params_.final_b = param("enc.final_ln.beta");
  for (int i = 0; i < config.num_layers; ++i) {
    const std::string l = "enc.layer" + std::to_string(i);
    params_.layers.push_back(
        {param(l + ".ln1.gamma"), param(l + ".ln1.beta"),
         param(l + ".attn.q.w"), param(l + ".attn.q.b"),
         param(l + ".attn.k.w"), param(l + ".attn.k.b"),
         param(l + ".attn.v.w"), param(l + ".attn.v.b"),
         param(l + ".attn.o.w"), param(l + ".attn.o.b"),
         param(l + ".ln2.gamma"), param(l + ".ln2.beta"),
         param(l + ".ff1.w"), param(l + ".ff1.b"), param(l + ".ff2.w"),
         param(l + ".ff2.b")});
  }
}

linker::ProcessedTable LayerTracer::TimeTopLevel(
    core::KgLinkAnnotator& annotator, const table::Table& t,
    TableTrace* out) {
  linker::ProcessedTable pt =
      Timed(&out->process_us, [&] { return annotator.Preprocess(t); });
  out->predictions = Timed(&out->predict_us,
                           [&] { return annotator.PredictProcessed(pt); });
  return pt;
}

void LayerTracer::Replay(const table::Table& t,
                         const linker::ProcessedTable& pt, TableTrace* out) {
  // Part-1 replay with the cache disabled: LinkRow, and LinkCell on the
  // same cells so that LinkRow's own work (Eq. 3-6) is the difference.
  const linker::LinkerConfig& config = options_.linker;
  std::vector<linker::RowLinks> rows;
  std::vector<double> scores;
  double row_us = 0, cell_us = 0;
  auto link_cells = [&](int r) {
    for (int c = 0; c < t.num_cols(); ++c) {
      const table::Cell& cell = t.at(r, c);
      double us = 0;
      Timed(&us, [&] { return uncached_.LinkCell(cell); });
      cell_us += us;
      if (cell.kind == table::CellKind::kString) topk_us_.push_back(us);
    }
  };
  for (int r = 0; r < t.num_rows(); ++r) {
    // Whichever call comes second finds the postings in cache; alternate
    // so that neither LinkRow nor LinkCell always gets the warm run.
    const bool cells_first = (rows_++ % 2) == 0;
    if (cells_first) link_cells(r);
    rows.push_back(Timed(&row_us, [&] { return uncached_.LinkRow(t, r); }));
    scores.push_back(rows.back().row_score);
    if (!cells_first) link_cells(r);
  }
  out->link_row_excl_us = row_us - cell_us;
  std::vector<int> kept = Timed(
      &out->filter_rows_us, [&] { return linker::FilterRows(scores, config); });
  std::vector<linker::RowLinks> kept_links;
  for (int r : kept) kept_links.push_back(rows[static_cast<size_t>(r)]);
  bool same = kept == pt.kept_rows;
  for (int c = 0; c < t.num_cols(); ++c) {
    if (t.IsNumericColumn(c)) continue;
    std::vector<linker::CandidateType> types =
        Timed(&out->candidate_types_us, [&] {
          return linker::GenerateCandidateTypes(*kg_, kept_links, c, config);
        });
    std::string feature = Timed(&out->feature_sequence_us, [&] {
      kg::EntityId e = linker::SelectFeatureEntity(kept_links, c);
      return e == kg::kInvalidEntity
                 ? std::string()
                 : linker::SerializeFeatureSequence(*kg_, e, config);
    });
    const linker::ColumnKgInfo& info = pt.columns[static_cast<size_t>(c)];
    same = same && SameCandidateTypes(types, info.candidate_types) &&
           feature == info.feature_sequence;
  }
  if (!same) ++replay_mismatches_;

  // Part-2 replay: serialize with the tracer's vocabulary, then encode the
  // same sequences EvalForward encodes (each chunk, then each column's
  // feature sequence).
  std::vector<core::SerializedTable> chunks =
      Timed(&out->serialize_us, [&] {
        return serializer_->Serialize(pt, core::LabelSlot::kMask, nullptr,
                                      options_.use_candidate_types);
      });
  for (const core::SerializedTable& chunk : chunks) {
    out->serialized_tokens += static_cast<int64_t>(chunk.tokens.size());
    EncodeAndReplay(chunk.tokens, chunk.segments, out);
    for (const core::SerializedColumn& sc : chunk.columns) {
      const linker::ColumnKgInfo& info =
          pt.columns[static_cast<size_t>(sc.source_col)];
      if (!options_.use_feature_vector || !info.has_feature) continue;
      std::vector<int> feature =
          serializer_->EncodeFeature(info.feature_sequence);
      if (!feature.empty()) EncodeAndReplay(feature, {}, out);
    }
  }
}

void LayerTracer::EncodeAndReplay(const std::vector<int>& tokens,
                                  const std::vector<int>& segments,
                                  TableTrace* out) {
  // Alternate which of the two runs first, so neither always finds the
  // weights already in cache.
  const bool replay_first = (encodes_++ % 2) == 0;
  NnTimes times;
  nn::Tensor replayed;
  if (replay_first) replayed = ReplayForward(tokens, segments, &times);
  Rng rng(0);
  nn::Tensor reference = Timed(&out->encoder_forward_us, [&] {
    return encoder_->Forward(tokens, segments, rng, /*training=*/false);
  });
  if (!replay_first) replayed = ReplayForward(tokens, segments, &times);
  out->nn.Add(times);
  out->encoded_tokens += reference.rows();

  const std::vector<float>& a = reference.data();
  const std::vector<float>& b = replayed.data();
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = std::fabs(a[i] - b[i]) <= 1e-4f * (1.0f + std::fabs(a[i]));
  }
  if (!same) ++replay_mismatches_;
}

nn::Tensor LayerTracer::ReplayForward(const std::vector<int>& tokens,
                                      const std::vector<int>& segments,
                                      NnTimes* t) const {
  const nn::EncoderConfig& config = encoder_->config();
  const int len = static_cast<int>(
      std::min<size_t>(tokens.size(), static_cast<size_t>(config.max_seq_len)));
  const float scale =
      1.0f / std::sqrt(static_cast<float>(config.dim / config.num_heads));
  const EncoderParams& p = params_;

  nn::Tensor h = Timed(&t->embedding, [&] {
    nn::Tensor x = nn::Add(nn::EmbeddingLookup(p.tok, tokens.data(), len),
                           nn::EmbeddingLookup(p.pos, pos_ids_.data(), len));
    if (!segments.empty()) {
      x = nn::Add(x, nn::EmbeddingLookup(p.seg, segments.data(), len));
    }
    return x;
  });
  h = Timed(&t->layernorm, [&] { return nn::LayerNorm(h, p.emb_g, p.emb_b); });
  for (const LayerParams& l : p.layers) {
    nn::Tensor x1 = Timed(&t->layernorm,
                          [&] { return nn::LayerNorm(h, l.ln1_g, l.ln1_b); });
    h = Timed(&t->attention, [&] {
      nn::Tensor q = nn::Add(nn::MatMul(x1, l.q_w), l.q_b);
      nn::Tensor k = nn::Add(nn::MatMul(x1, l.k_w), l.k_b);
      nn::Tensor v = nn::Add(nn::MatMul(x1, l.v_w), l.v_b);
      nn::Tensor ctx =
          nn::MaskedAttention(q, k, v, config.num_heads, scale, {len}, len);
      return nn::Add(h, nn::Add(nn::MatMul(ctx, l.o_w), l.o_b));
    });
    nn::Tensor x2 = Timed(&t->layernorm,
                          [&] { return nn::LayerNorm(h, l.ln2_g, l.ln2_b); });
    nn::Tensor f1 = Timed(&t->ffn_gemm, [&] {
      return nn::Add(nn::MatMul(x2, l.ff1_w), l.ff1_b);
    });
    nn::Tensor g = Timed(&t->gelu, [&] { return nn::Gelu(f1); });
    h = Timed(&t->ffn_gemm, [&] {
      return nn::Add(h, nn::Add(nn::MatMul(g, l.ff2_w), l.ff2_b));
    });
  }
  return Timed(&t->layernorm,
               [&] { return nn::LayerNorm(h, p.final_g, p.final_b); });
}

}  // namespace kglink::perfbench
