// Serving-path bench: throughput and tail latency of the concurrent
// AnnotationService at 1, 4 and 8 worker threads over the SemTab-like
// request stream. Emits BENCH_serve.json (per-thread-count throughput,
// p50/p99/p999 latency, and per-stage time shares from the request
// telemetry) so scripts/bench_compare.py can track regressions in the
// serving harness — queueing, admission and the per-request deadline
// checks — separately from model quality. The sliding
// window/SLO sections of HealthJson are printed per thread count, so a
// bench run doubles as a smoke test that they move (they are windowed,
// not cumulative). Every row also reports the cell-link cache hit rate
// over its own requests: the thread counts run back to back against one
// annotator, so only the first row starts cold.
#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/json_util.h"
#include "obs/request_telemetry.h"
#include "search/cell_link_cache.h"
#include "serve/annotation_service.h"
#include "util/stopwatch.h"

using namespace kglink;

namespace {

double PercentileUs(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

// Cumulative cell-link cache lookups; zero when the cache is disabled.
struct CacheCounts {
  int64_t hits = 0;
  int64_t misses = 0;
};

CacheCounts ReadCacheCounts(const core::KgLinkAnnotator& annotator) {
  const search::CellLinkCache* cache = annotator.cell_cache();
  if (cache == nullptr) return {};
  return {cache->hits(), cache->misses()};
}

}  // namespace

int main() {
  bench::InitBenchTelemetry("serve");
  bench::BenchEnv& env = bench::GetEnv();
  bench::PrintHeader(
      "Serving throughput and latency (AnnotationService)",
      "Concurrent annotation over the SemTab-like test tables. Expected "
      "shape: throughput scales with worker threads (the eval-mode "
      "forward pass and BM25 reads are shared-nothing) while p99 latency "
      "stays in the same decade — queueing, not contention, dominates.");

  // A deliberately small model: the bench measures the serving harness
  // (queueing, deadline checks), not model quality.
  core::KgLinkOptions o;
  o.epochs = 2;
  o.encoder.dim = 24;
  o.encoder.num_heads = 2;
  o.encoder.num_layers = 1;
  o.encoder.ffn_dim = 32;
  o.serializer.max_seq_len = 96;
  o.linker.top_k_rows = 8;
  o.seed = 99;
  core::KgLinkAnnotator annotator(&env.world.kg, &env.engine, o);
  annotator.Fit(env.semtab.train, env.semtab.valid);

  // Repeat the test tables into a fixed-size request stream so every
  // thread count serves identical work.
  std::vector<const table::Table*> requests;
  while (requests.size() < 64) {
    for (const auto& lt : env.semtab.test.tables) {
      requests.push_back(&lt.table);
      if (requests.size() >= 64) break;
    }
  }

  eval::TablePrinter table({"Threads", "Requests", "Throughput (tab/s)",
                            "p50 (ms)", "p99 (ms)", "p999 (ms)",
                            "Cache hit rate"});
  for (int threads : {1, 4, 8}) {
    serve::ServiceOptions so;
    so.num_threads = threads;
    so.max_queue = static_cast<int>(requests.size()) + 1;
    // A tight target so the bench exercises the SLO monitor's violation
    // path as well as the compliant one.
    so.slo_target_us = 20'000;
    serve::AnnotationService service(&annotator, so);

    const CacheCounts cache_before = ReadCacheCounts(annotator);
    Stopwatch wall;
    std::vector<std::future<serve::AnnotationResult>> futures;
    futures.reserve(requests.size());
    for (const auto* t : requests) futures.push_back(service.Submit(*t));
    std::vector<double> latency_us;
    latency_us.reserve(futures.size());
    uint64_t stage_sum[obs::kNumTelemetryStages] = {};
    for (auto& f : futures) {
      serve::AnnotationResult r = f.get();
      latency_us.push_back(static_cast<double>(r.queue_us + r.work_us));
      for (int s = 0; s < obs::kNumTelemetryStages; ++s) {
        stage_sum[s] +=
            r.telemetry.exclusive_stage_us(static_cast<obs::Stage>(s));
      }
    }
    double seconds = wall.ElapsedSeconds();
    const CacheCounts cache_after = ReadCacheCounts(annotator);
    const int64_t hits = cache_after.hits - cache_before.hits;
    const int64_t lookups = hits + cache_after.misses - cache_before.misses;
    double cache_hit_rate =
        lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                    : 0.0;
    // Snapshot the sliding-window health while the requests are still
    // inside the window; printed so bench runs show the windowed (not
    // cumulative) view moving between thread counts.
    std::string health = service.HealthJson();
    service.Shutdown();

    double throughput = static_cast<double>(requests.size()) / seconds;
    double p50 = PercentileUs(latency_us, 0.5);
    double p99 = PercentileUs(latency_us, 0.99);
    double p999 = PercentileUs(latency_us, 0.999);
    table.AddRow({std::to_string(threads), std::to_string(requests.size()),
                  eval::TablePrinter::Num(throughput, 1),
                  eval::TablePrinter::Num(p50 / 1000.0, 2),
                  eval::TablePrinter::Num(p99 / 1000.0, 2),
                  eval::TablePrinter::Num(p999 / 1000.0, 2),
                  eval::TablePrinter::Num(cache_hit_rate, 3)});
    const std::string prefix = "serve.threads" + std::to_string(threads);
    bench::RecordBenchMetric(prefix + ".throughput", throughput,
                             "items_per_second");
    bench::RecordBenchMetric(prefix + ".p50_latency", p50 / 1e6, "seconds");
    bench::RecordBenchMetric(prefix + ".p99_latency", p99 / 1e6, "seconds");
    bench::RecordBenchMetric(prefix + ".p999_latency", p999 / 1e6,
                             "seconds");
    bench::RecordBenchMetric(prefix + ".cache_hit_rate", cache_hit_rate,
                             "share");

    // Per-stage breakdown shares (exclusive stage time / total stage
    // time). Unit "share" is informational in bench_compare — the mix
    // shifts with hardware, so it documents rather than gates.
    uint64_t stage_total = 0;
    for (uint64_t s : stage_sum) stage_total += s;
    for (int s = 0; s < obs::kNumTelemetryStages; ++s) {
      double share = stage_total > 0
                         ? static_cast<double>(stage_sum[s]) /
                               static_cast<double>(stage_total)
                         : 0.0;
      bench::RecordBenchMetric(
          prefix + ".stage_share." +
              obs::StageName(static_cast<obs::Stage>(s)),
          share, "share");
    }

    // Surface the windowed view: parse HealthJson's window/slo sections.
    auto doc = obs::ParseJson(health);
    if (doc.has_value()) {
      const obs::JsonValue* window = doc->Find("window");
      const obs::JsonValue* slo = doc->Find("slo");
      if (window != nullptr && slo != nullptr) {
        std::printf(
            "threads=%d window: count=%.0f p50=%.0fus p99=%.0fus "
            "p999=%.0fus | slo short burn=%.2f long burn=%.2f\n",
            threads, window->NumberOr("count", 0.0),
            window->NumberOr("p50_us", 0.0),
            window->NumberOr("p99_us", 0.0),
            window->NumberOr("p999_us", 0.0),
            slo->Find("short") != nullptr
                ? slo->Find("short")->NumberOr("burn_rate", 0.0)
                : 0.0,
            slo->Find("long") != nullptr
                ? slo->Find("long")->NumberOr("burn_rate", 0.0)
                : 0.0);
      }
    }
  }
  table.Print();

  std::printf(
      "\nNo paper counterpart: KGLink reports offline accuracy only. This "
      "bench tracks the serving harness added on top (bounded queue, "
      "deadlines) across builds.\n");
  return 0;
}
