// Shared environment and helpers for the paper-reproduction benches. Every
// bench binary prints the corresponding paper table/figure layout with our
// measured values, followed by the paper's reported numbers for
// side-by-side shape comparison.
//
// All benches honour KGLINK_BENCH_SCALE (float, default 1.0): it scales
// corpus sizes (and therefore wall-clock) up or down.
#ifndef KGLINK_BENCH_BENCH_COMMON_H_
#define KGLINK_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/doduo.h"
#include "baselines/hnn.h"
#include "baselines/mtab.h"
#include "baselines/reca.h"
#include "baselines/sudowoodo.h"
#include "baselines/tabert.h"
#include "core/annotator.h"
#include "data/corpus_gen.h"
#include "data/world.h"
#include "eval/annotator.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"
#include "search/search_engine.h"
#include "table/corpus.h"

namespace kglink::bench {

// The two benchmark datasets of the paper, at bench scale.
struct BenchEnv {
  double scale = 1.0;
  data::World world;
  search::SearchEngine engine;
  table::SplitCorpus semtab;  // fine labels, fully KG-covered
  table::SplitCorpus viznet;  // coarse labels, noisy, numeric columns

  int semtab_tables = 0;
  int viznet_tables = 0;
};

// Builds (once) and returns the shared environment. Reads
// KGLINK_BENCH_SCALE from the environment. Also arms observability from
// KGLINK_TRACE / KGLINK_METRICS (see InitObservabilityFromEnv).
BenchEnv& GetEnv();

// If KGLINK_TRACE=<file> is set, starts the global trace recorder and
// registers an exit hook that writes the Chrome trace JSON there; if
// KGLINK_METRICS=<file> is set, registers an exit hook that writes the
// metrics snapshot. Idempotent; called by GetEnv().
void InitObservabilityFromEnv();

// Machine-readable bench telemetry: registers an exit hook that writes
// every metric recorded during the run to BENCH_<bench_name>.json in
// $KGLINK_BENCH_OUT, tagged with the build's git-describe and the bench
// scale, so scripts/bench_compare.py can diff two runs. With the variable
// unset nothing is written (one stderr line says so), so a run from the
// repo root cannot overwrite a committed baseline. Idempotent; the first
// name wins.
void InitBenchTelemetry(const std::string& bench_name);

// Appends one metric to the telemetry buffer. `unit` names what `value`
// measures (e.g. "percent", "seconds", "ns", "items_per_second");
// bench_compare.py uses it to pick the regression direction. Metric names
// are sanitized to [A-Za-z0-9._-]. Safe to call before InitBenchTelemetry
// (buffered) — but nothing is written unless some main initializes it.
void RecordBenchMetric(const std::string& name, double value,
                       const std::string& unit, int64_t repetitions = 1);

// Standard model configurations used across all benches (one per dataset
// flavour, mirroring the paper's per-dataset dropout/epochs).
core::KgLinkOptions KgLinkDefaults(bool viznet);
baselines::PlmOptions PlmDefaults(const std::string& name, bool viznet);

// Builds every system of Table I. `viznet` picks the per-dataset settings.
std::vector<std::unique_ptr<eval::ColumnAnnotator>> AllSystems(
    const BenchEnv& env, bool viznet);

// Fit on train/valid, evaluate on test; returns metrics plus wall-clock.
struct RunResult {
  std::string model;
  eval::Metrics metrics;
  double fit_seconds = 0.0;
  double eval_seconds = 0.0;
  std::vector<int> gold;
  std::vector<int> pred;
};
// `corpus_tag` labels the run's telemetry metrics
// (<model>.<corpus_tag>.accuracy etc.); pass something unique per
// configuration when sweeping, or "" for the default "run" tag.
RunResult RunSystem(eval::ColumnAnnotator& annotator,
                    const table::SplitCorpus& split,
                    const std::string& corpus_tag = "");

// Prints a titled block with an explanatory preamble.
void PrintHeader(const std::string& title, const std::string& detail);

}  // namespace kglink::bench

#endif  // KGLINK_BENCH_BENCH_COMMON_H_
