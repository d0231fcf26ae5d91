// Decision-provenance recording: the "why did KGLink label this column
// film.director?" layer. Instrumented code (KgLinkAnnotator's predict path)
// emits one JSON object per decision — per-column records carrying the BM25
// hits behind each cell, the entities kept/dropped by the overlapping-score
// filter, the generated candidate types, the degraded-fallback flag and the
// final classifier logits — and this recorder buffers them as JSONL for
// export (`kglink_cli --explain=DIR`) and aggregation
// (eval::BuildExplainReport).
//
// Two gates, like KGLINK_SCOPE's (obs/scope.h):
//   * runtime: records are captured only between Start() and Stop(); the
//     disarmed check is one relaxed atomic load, and the expensive record
//     assembly sits behind `if (recorder.enabled())` at every call-site;
//   * compile time: building with -DKGLINK_ENABLE_OBS=OFF (no
//     KGLINK_OBS_ENABLED define) folds enabled() to a constant
//     false, so call-site branches — and the record assembly behind them —
//     dead-strip entirely.
//
// The gold-label context is how ground truth reaches records without
// widening the ColumnAnnotator interface: the evaluation loop publishes the
// current table's gold labels here before calling PredictTable, and the
// annotator joins them in by (table id, column) when it emits.
#ifndef KGLINK_OBS_PROVENANCE_H_
#define KGLINK_OBS_PROVENANCE_H_

#include <atomic>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace kglink::obs {

// Sentinel for "no gold label known" — matches table::kUnlabeled.
inline constexpr int kProvenanceNoGold = -1;

class ProvenanceRecorder {
 public:
  ProvenanceRecorder() = default;
  ProvenanceRecorder(const ProvenanceRecorder&) = delete;
  ProvenanceRecorder& operator=(const ProvenanceRecorder&) = delete;

  // The process-wide recorder used by all instrumentation.
  static ProvenanceRecorder& Global();

  // Clears previously captured records and arms recording. A no-op in
  // obs-disabled builds (the recorder can never arm there).
  void Start();
  void Stop() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const {
#if defined(KGLINK_OBS_ENABLED)
    return enabled_.load(std::memory_order_relaxed);
#else
    return false;
#endif
  }

  // Appends one record: a complete JSON object without trailing newline.
  // Ignored while disarmed.
  void Emit(std::string record);

  size_t record_count() const;
  std::vector<std::string> Records() const;
  // All records joined by '\n' (with a trailing newline when non-empty) —
  // the JSONL document.
  std::string Jsonl() const;
  Status WriteJsonl(const std::string& path) const;

  // --- gold-label context -------------------------------------------------
  // Published by the evaluation loop around each PredictTable call so the
  // emitting annotator can attach ground truth. `gold` holds one label id
  // per column (kProvenanceNoGold for unlabeled columns); `label_names`
  // maps those ids to display names.
  void SetTableGold(std::string table_id, std::vector<int> gold,
                    std::vector<std::string> label_names);
  void ClearTableGold();
  // Gold label id for (table, col); kProvenanceNoGold when no context is
  // set, the table id does not match, or the column is out of range.
  int GoldFor(std::string_view table_id, size_t col) const;
  // Display name for a gold label id ("" when unknown).
  std::string GoldLabelName(int label) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::string> records_;
  std::string gold_table_;
  std::vector<int> gold_labels_;
  std::vector<std::string> gold_label_names_;
};

}  // namespace kglink::obs

#endif  // KGLINK_OBS_PROVENANCE_H_
