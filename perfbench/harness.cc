#include "harness.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "serve/loadgen.h"
#include "util/rng.h"

namespace kglink::perfbench {

namespace {

// ceil(q * n) without floating-point rounding pushing 0.99 * 1000 to 991.
size_t NearestRank(size_t n, double q) {
  double exact = q * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::llround(exact));
  if (std::fabs(exact - static_cast<double>(rank)) > 1e-9) {
    rank = static_cast<size_t>(std::ceil(exact));
  }
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  size_t rank = NearestRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

double MedianWindowPercentile(const std::vector<double>& samples,
                              size_t window, double q) {
  if (window == 0 || samples.size() < window) return Percentile(samples, q);
  std::vector<double> per_window;
  for (auto it = samples.begin();
       samples.end() - it >= static_cast<std::ptrdiff_t>(window);
       it += static_cast<std::ptrdiff_t>(window)) {
    per_window.push_back(Percentile(
        std::vector<double>(it, it + static_cast<std::ptrdiff_t>(window)), q));
  }
  return Percentile(std::move(per_window), 0.5);
}

std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double seconds, size_t num_tables,
                                     double zipf_s) {
  std::vector<Arrival> out;
  if (rate_per_s <= 0.0 || seconds <= 0.0 || num_tables == 0) return out;
  Rng gaps(seed ^ 0x6172726976616c73ULL);  // "arrivals"
  Rng picks(seed ^ 0x7461626c65736574ULL);  // "tableset"
  serve::ZipfPicker zipf(num_tables, zipf_s);
  const double horizon_us = seconds * 1e6;
  double t_us = 0.0;
  for (;;) {
    t_us += -std::log(1.0 - gaps.UniformDouble()) * 1e6 / rate_per_s;
    if (t_us >= horizon_us) break;
    out.push_back({static_cast<int64_t>(t_us), zipf.Pick(picks)});
  }
  return out;
}

AccuracyTally TallyByName(const std::vector<int>& predictions,
                          const std::vector<std::string>& model_labels,
                          const std::vector<std::string>& gold) {
  AccuracyTally tally;
  for (size_t c = 0; c < gold.size(); ++c) {
    if (gold[c].empty()) continue;
    ++tally.total;
    if (c < predictions.size() && predictions[c] >= 0 &&
        static_cast<size_t>(predictions[c]) < model_labels.size() &&
        model_labels[static_cast<size_t>(predictions[c])] == gold[c]) {
      ++tally.correct;
    }
  }
  return tally;
}

std::vector<std::string> GoldNames(const table::LabeledTable& t,
                                   const table::Corpus& corpus) {
  std::vector<std::string> names(t.column_labels.size());
  for (size_t c = 0; c < names.size(); ++c) {
    int label = t.column_labels[c];
    if (label >= 0 && label < corpus.num_labels()) {
      names[c] = corpus.label_names[static_cast<size_t>(label)];
    }
  }
  return names;
}

table::Corpus MergeByName(const std::vector<const table::Corpus*>& parts) {
  table::Corpus out;
  std::unordered_map<std::string, int> ids;
  for (const table::Corpus* part : parts) {
    if (!out.name.empty()) out.name += "+";
    out.name += part->name;
    for (const table::LabeledTable& t : part->tables) {
      table::LabeledTable copy = t;
      for (int& label : copy.column_labels) {
        if (label < 0 || label >= part->num_labels()) continue;
        const std::string& name =
            part->label_names[static_cast<size_t>(label)];
        auto [it, inserted] = ids.emplace(name, out.num_labels());
        if (inserted) out.label_names.push_back(name);
        label = it->second;
      }
      out.tables.push_back(std::move(copy));
    }
  }
  return out;
}

size_t DistinctCellTexts(const std::vector<const table::Table*>& tables) {
  std::unordered_set<std::string> texts;
  for (const table::Table* t : tables) {
    for (int r = 0; r < t->num_rows(); ++r) {
      for (int c = 0; c < t->num_cols(); ++c) {
        const table::Cell& cell = t->at(r, c);
        if (cell.kind == table::CellKind::kString) texts.insert(cell.text);
      }
    }
  }
  return texts.size();
}

}  // namespace kglink::perfbench
