// KgLinkAnnotator: the public end-to-end API. Wires Part 1 (KG pipeline)
// to Part 2 (serializer + model) and implements training with the adaptive
// combined loss (Eq. 17), early stopping, prediction, and persistence.
// Every ablation in the paper's Table II is an option flag here.
#ifndef KGLINK_CORE_ANNOTATOR_H_
#define KGLINK_CORE_ANNOTATOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/serializer.h"
#include "eval/annotator.h"
#include "linker/pipeline.h"
#include "nn/optim.h"
#include "nn/vocab.h"
#include "search/search_engine.h"
#include "util/deadline.h"

namespace kglink::core {

struct KgLinkOptions {
  linker::LinkerConfig linker;
  SerializerConfig serializer;
  nn::EncoderConfig encoder;  // vocab_size is filled in during Fit
  Composition composition = Composition::kConcatLinear;
  float dmlm_temperature = 2.0f;

  // Optimization. The paper fine-tunes a pre-trained BERT at lr 3e-5; our
  // encoder trains from scratch, so the default lr is higher.
  int epochs = 8;
  int batch_size = 8;  // gradient-accumulation batch
  float lr = 1e-3f;
  float adam_eps = 1e-6f;  // paper setting
  float weight_decay = 0.01f;
  float clip_norm = 1.0f;
  int early_stopping_patience = 3;
  int max_vocab = 6000;
  uint64_t seed = 1234;

  // Robustness: a batch whose loss or gradient norm is non-finite is
  // skipped (gradients zeroed, "train.skipped_batches" counter). An epoch
  // whose validation accuracy collapses by more than divergence_threshold
  // below the best seen (or whose loss is non-finite) rolls the parameters
  // back to the best snapshot; more than divergence_patience rollbacks
  // aborts training on that snapshot.
  float divergence_threshold = 0.25f;
  int divergence_patience = 2;

  // Ablation switches (Table II):
  bool use_mask_task = true;        // off = "KGLink w/o msk"
  bool use_candidate_types = true;  // off (with fv off) = "KGLink w/o ct"
  bool use_feature_vector = true;   // off = "KGLink w/o fv"

  // Sigma controls for the Fig. 8 experiments. Frozen sigmas keep the
  // uncertainty weights fixed at their initial values.
  bool freeze_sigmas = false;
  float init_log_var0 = 0.0f;  // log sigma0^2 (DMLM task)
  float init_log_var1 = 0.0f;  // log sigma1^2 (classification task)

  std::string display_name = "KGLink";
  bool verbose = false;
};

// Result of one deadline-aware AnnotateTable call. `predictions` is always
// sized to the table's columns when status is OK — on the degraded path it
// holds the PLM-only predictions, never a partial or empty vector.
struct AnnotateOutcome {
  std::vector<int> predictions;
  bool degraded = false;
  std::string degrade_reason;  // "deadline", "cancelled", budget reasons
  Status status;  // non-OK only when the predict pass itself failed hard
};

// Per-epoch training telemetry (drives the Fig. 8(b) sigma curves).
struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  double valid_accuracy = 0.0;
  float log_var0 = 0.0f;
  float log_var1 = 0.0f;
};

class KgLinkAnnotator : public eval::ColumnAnnotator {
 public:
  // `kg` and `engine` must outlive the annotator; `engine` finalized.
  KgLinkAnnotator(const kg::KnowledgeGraph* kg,
                  const search::SearchEngine* engine, KgLinkOptions options);
  ~KgLinkAnnotator() override;

  std::string name() const override { return options_.display_name; }
  void Fit(const table::Corpus& train, const table::Corpus& valid) override;
  std::vector<int> PredictTable(const table::Table& t) override;

  // Runs Part 1 only (exposed for the link-statistics experiment and the
  // examples).
  linker::ProcessedTable Preprocess(const table::Table& t) const;

  // Deadline-aware Preprocess: `rc` (borrowed, may be null) propagates to
  // the pipeline, search and the KG lookups.
  linker::ProcessedTable Preprocess(const table::Table& t,
                                    const RequestContext* rc) const;

  // Predictions with access to an already-processed table (saves the
  // pipeline pass when the caller already ran Preprocess).
  std::vector<int> PredictProcessed(const linker::ProcessedTable& pt);

  // The serving-path entry point: Part 1 + the PLM inference pass, both
  // under `rc`'s deadline/cancellation and the fault sites ("search.topk",
  // "kg.neighbors", "predict"). An expired request — before or during any
  // stage — yields the degraded PLM-only predictions with degrade_reason
  // "deadline"/"cancelled"; a hard predict failure yields a non-OK status.
  //
  // Thread safety: safe to call concurrently after Fit/Load completes (the
  // eval-mode forward pass only reads model parameters).
  AnnotateOutcome AnnotateTable(const table::Table& t,
                                const RequestContext* rc = nullptr);

  // The degraded PLM-only path directly, skipping Part 1 entirely — used
  // by the service's load shedding, where the KG pipeline is exactly the
  // work there is no budget for. Same thread-safety as AnnotateTable.
  AnnotateOutcome AnnotateDegraded(const table::Table& t, const char* reason);

  // Validates that every id indexes a vocabulary of `vocab_size` rows.
  // The annotate paths run this before each encode, so a corrupt id turns
  // into a per-request InvalidArgument (counted in `encode.bad_token_id`)
  // instead of tripping the process-fatal bounds check inside
  // nn::EmbeddingLookup. Exposed for tests.
  static Status ValidateTokenIds(const std::vector<int>& tokens,
                                 int vocab_size);

  const std::vector<EpochStats>& epoch_stats() const { return epoch_stats_; }
  double fit_seconds() const { return fit_seconds_; }

  // The Part-1 pipeline's cell-link cache; null when disabled. The serving
  // layer surfaces its hit/miss/eviction counts in HealthJson.
  const search::CellLinkCache* cell_cache() const {
    return pipeline_.cell_cache();
  }
  const std::vector<std::string>& label_names() const { return label_names_; }

  // Persistence: writes <prefix>.vocab, <prefix>.labels, <prefix>.weights.
  Status Save(const std::string& prefix) const;
  Status Load(const std::string& prefix);

  // Swaps the borrowed KG and engine for another generation (snapshot hot
  // reload). The model/vocab are untouched — only the Part-1 evidence
  // sources move. Callers must guarantee no concurrent Annotate*/Predict*
  // calls for the duration (serve::AnnotationService quiesces its worker
  // pool around this).
  void Rebind(const kg::KnowledgeGraph* kg,
              const search::SearchEngine* engine);

 private:
  struct PreparedTable;  // cached Part-1 output + label ids

  // Builds the vocabulary from training-table text, candidate types,
  // feature sequences and label names.
  void BuildVocabulary(const std::vector<PreparedTable>& prepared);

  // Training forward pass over one prepared table: encodes with dropout,
  // back-propagates the combined loss scaled by `loss_scale`, and returns
  // the unscaled loss value.
  double TrainForward(const PreparedTable& prepared, float loss_scale);

  // Eval-mode forward pass (the serving hot path). Validates token ids
  // before every encode and classifies per column. On a non-OK return
  // `predictions` keeps its full-width zero fill.
  Status EvalForward(const PreparedTable& prepared,
                     std::vector<int>* predictions,
                     std::vector<std::vector<float>>* logits_out);

  // PredictProcessed with the failure surfaced: builds the unlabeled
  // PreparedTable, runs EvalForward and emits provenance when armed.
  Status PredictWithStatus(const linker::ProcessedTable& pt,
                           std::vector<int>* predictions);

  // Emits one table record plus one record per column into the global
  // ProvenanceRecorder: BM25 hits with per-term score breakdowns, filter
  // keep/drop decisions, candidate types, the degraded marker, final
  // logits and (when the eval loop published them) gold labels. Called
  // from the predict path only when the recorder is armed.
  void EmitProvenance(const linker::ProcessedTable& pt,
                      const std::vector<std::vector<float>>& logits,
                      const std::vector<int>& predictions) const;

  double EvaluatePrepared(const std::vector<PreparedTable>& tables);

  const kg::KnowledgeGraph* kg_;
  const search::SearchEngine* engine_;
  KgLinkOptions options_;
  linker::KgPipeline pipeline_;

  std::vector<std::string> label_names_;
  std::optional<nn::Vocabulary> vocab_;
  std::optional<TableSerializer> serializer_;
  std::unique_ptr<KgLinkModel> model_;
  std::unique_ptr<Rng> rng_;

  std::vector<EpochStats> epoch_stats_;
  double fit_seconds_ = 0.0;
};

}  // namespace kglink::core

#endif  // KGLINK_CORE_ANNOTATOR_H_
