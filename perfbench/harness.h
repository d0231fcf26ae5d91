// Helpers of the KGLink benchmark (kgbench.cc) that carry a rule
// worth testing on its own: the percentile rule, the open-loop arrival
// schedule, label-name accuracy and corpus merging. See README.md.
#ifndef KGLINK_PERFBENCH_HARNESS_H_
#define KGLINK_PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "table/corpus.h"

namespace kglink::perfbench {

// Nearest-rank percentile: the smallest sample with at least q of all
// samples at or below it, i.e. sorted[ceil(q * n) - 1]. `q` is in (0, 1];
// returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);

// Samples strictly beyond the nearest-rank q-percentile: n - ceil(q * n).
// A reported percentile is trusted only with at least 10 of them.
size_t SamplesBeyond(size_t n, double q);

// The q-percentile within each window of `window` consecutive samples
// (in the order given; a trailing partial window is dropped), then the
// median over the windows. Falls back to Percentile(samples, q) when fewer
// than `window` samples exist.
double MedianWindowPercentile(const std::vector<double>& samples,
                              size_t window, double q);

// One request of an open-loop schedule: when it is due, relative to the
// start of the run, and which table of the pool it carries.
struct Arrival {
  int64_t due_us = 0;
  size_t table = 0;
};

// Poisson arrivals at `rate_per_s` over [0, seconds), each carrying a
// table picked zipfian (weight 1 / (rank + 1)^zipf_s) over `num_tables`.
// The same arguments always give the same schedule.
std::vector<Arrival> PoissonSchedule(uint64_t seed, double rate_per_s,
                                     double seconds, size_t num_tables,
                                     double zipf_s);

// Correct / total over labelled columns, comparing label *names*: model
// and corpus number their labels independently.
struct AccuracyTally {
  int64_t correct = 0;
  int64_t total = 0;
  void Add(const AccuracyTally& other) {
    correct += other.correct;
    total += other.total;
  }
  double Percent() const {
    return total > 0 ? 100.0 * static_cast<double>(correct) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

// `gold` holds one label name per column, "" for an unlabelled column;
// `predictions` index `model_labels`.
AccuracyTally TallyByName(const std::vector<int>& predictions,
                          const std::vector<std::string>& model_labels,
                          const std::vector<std::string>& gold);

// Gold label names of one table's columns ("" where unlabelled).
std::vector<std::string> GoldNames(const table::LabeledTable& t,
                                   const table::Corpus& corpus);

// Concatenates corpora into one whose label vocabulary is the union of
// theirs by name (first occurrence order); column labels are re-mapped.
table::Corpus MergeByName(const std::vector<const table::Corpus*>& parts);

// Distinct texts of the string cells of `tables`: the keys the cell-link
// cache would hold if it kept every one of them.
size_t DistinctCellTexts(const std::vector<const table::Table*>& tables);

}  // namespace kglink::perfbench

#endif  // KGLINK_PERFBENCH_HARNESS_H_
