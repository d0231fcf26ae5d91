#include "obs/provenance.h"

#include "obs/metrics.h"
#include "util/csv.h"

namespace kglink::obs {

ProvenanceRecorder& ProvenanceRecorder::Global() {
  static ProvenanceRecorder& recorder = *new ProvenanceRecorder();
  return recorder;
}

void ProvenanceRecorder::Start() {
#if defined(KGLINK_OBS_ENABLED)
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  enabled_.store(true, std::memory_order_relaxed);
#endif
}

void ProvenanceRecorder::Emit(std::string record) {
  if (!enabled()) return;
  MetricsRegistry::Global().GetCounter("provenance.records").Add();
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

size_t ProvenanceRecorder::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::vector<std::string> ProvenanceRecorder::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::string ProvenanceRecorder::Jsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const std::string& r : records_) {
    out += r;
    out += '\n';
  }
  return out;
}

Status ProvenanceRecorder::WriteJsonl(const std::string& path) const {
  return WriteFile(path, Jsonl());
}

void ProvenanceRecorder::SetTableGold(std::string table_id,
                                      std::vector<int> gold,
                                      std::vector<std::string> label_names) {
  std::lock_guard<std::mutex> lock(mu_);
  gold_table_ = std::move(table_id);
  gold_labels_ = std::move(gold);
  gold_label_names_ = std::move(label_names);
}

void ProvenanceRecorder::ClearTableGold() {
  std::lock_guard<std::mutex> lock(mu_);
  gold_table_.clear();
  gold_labels_.clear();
  gold_label_names_.clear();
}

int ProvenanceRecorder::GoldFor(std::string_view table_id, size_t col) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (gold_table_.empty() || gold_table_ != table_id ||
      col >= gold_labels_.size()) {
    return kProvenanceNoGold;
  }
  return gold_labels_[col];
}

std::string ProvenanceRecorder::GoldLabelName(int label) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (label < 0 || static_cast<size_t>(label) >= gold_label_names_.size()) {
    return std::string();
  }
  return gold_label_names_[static_cast<size_t>(label)];
}

}  // namespace kglink::obs
