// google-benchmark microbenchmarks for the performance-critical kernels:
// BM25 retrieval, the Part-1 pipeline, serialization, encoder forward and
// a full training step. These back the complexity discussion in the
// paper's Section III-C (KGLink is linear in data size).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>

#include "bench_common.h"
#include "core/annotator.h"
#include "core/serializer.h"
#include "data/corpus_gen.h"
#include "data/world.h"
#include "linker/pipeline.h"
#include "nn/layers.h"
#include "search/search_engine.h"

namespace kglink {
namespace {

struct MicroEnv {
  data::World world;
  search::SearchEngine engine;
  table::Corpus corpus;
  nn::Vocabulary vocab;

  MicroEnv()
      : world(data::GenerateWorld({.seed = 42, .scale = 1.0})),
        engine(search::IndexKnowledgeGraph(world.kg)),
        corpus(data::GenerateSemTabCorpus(
            world, data::CorpusOptions::SemTabDefaults(24))) {
    std::vector<std::string> texts;
    for (const auto& lt : corpus.tables) {
      for (int r = 0; r < lt.table.num_rows(); ++r) {
        for (int c = 0; c < lt.table.num_cols(); ++c) {
          texts.push_back(lt.table.at(r, c).text);
        }
      }
    }
    vocab = nn::Vocabulary::Build(texts, 6000);
  }
};

MicroEnv& Env() {
  // Arm KGLINK_TRACE / KGLINK_METRICS export; bench_micro builds its own
  // corpus instead of going through bench::GetEnv().
  bench::InitObservabilityFromEnv();
  static MicroEnv& env = *new MicroEnv();
  return env;
}

void BM_Bm25TopK(benchmark::State& state) {
  MicroEnv& env = Env();
  const auto& t = env.corpus.tables[0].table;
  int64_t queries = 0;
  for (auto _ : state) {
    for (int r = 0; r < t.num_rows(); ++r) {
      benchmark::DoNotOptimize(env.engine.TopK(t.at(r, 0).text, 10));
      ++queries;
    }
  }
  state.SetItemsProcessed(queries);
}
BENCHMARK(BM_Bm25TopK);

void BM_Part1Pipeline(benchmark::State& state) {
  MicroEnv& env = Env();
  linker::KgPipeline pipeline(&env.world.kg, &env.engine, {});
  size_t i = 0;
  int64_t tables = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pipeline.Process(env.corpus.tables[i % env.corpus.tables.size()]
                             .table));
    ++i;
    ++tables;
  }
  state.SetItemsProcessed(tables);
}
BENCHMARK(BM_Part1Pipeline);

void BM_Serialize(benchmark::State& state) {
  MicroEnv& env = Env();
  linker::KgPipeline pipeline(&env.world.kg, &env.engine, {});
  linker::ProcessedTable pt = pipeline.Process(env.corpus.tables[0].table);
  core::TableSerializer serializer(&env.vocab, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(serializer.Serialize(
        pt, core::LabelSlot::kMask, nullptr, /*use_candidate_types=*/true));
  }
}
BENCHMARK(BM_Serialize);

// Wall time and iterations actually executed by BM_EncoderForward, summed
// over every trial (including google-benchmark's untimed calibration
// ramp-up runs, which the reporter never sees but the sampling profiler
// does). scripts/profile_report.py reconciles the profiler's inclusive
// nn.encoder_forward time against this total, not the reported per-iteration
// number, so calibration work cannot skew the comparison.
struct ForwardWallClock {
  int64_t wall_ns = 0;
  int64_t iterations = 0;
};

std::map<int64_t, ForwardWallClock>& ForwardWallClocks() {
  static std::map<int64_t, ForwardWallClock>& m =
      *new std::map<int64_t, ForwardWallClock>();
  return m;
}

void BM_EncoderForward(benchmark::State& state) {
  Rng init(1);
  nn::EncoderConfig config;
  config.vocab_size = 6000;
  config.max_seq_len = 192;
  nn::TransformerEncoder encoder(config, init);
  std::vector<int> tokens(static_cast<size_t>(state.range(0)));
  Rng rng(2);
  for (auto& t : tokens) t = static_cast<int>(rng.Uniform(6000));
  // The forward predict runs: no tape (BM_EncoderTrainStep times the tape).
  nn::NoGradScope no_grad;
  auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Forward(tokens, rng, false));
  }
  auto stop = std::chrono::steady_clock::now();
  ForwardWallClock& wc = ForwardWallClocks()[state.range(0)];
  wc.wall_ns +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count();
  wc.iterations += state.iterations();
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncoderForward)->Arg(64)->Arg(128)->Arg(192);

void BM_EncoderTrainStep(benchmark::State& state) {
  Rng init(1);
  nn::EncoderConfig config;
  config.vocab_size = 6000;
  config.max_seq_len = 192;
  nn::TransformerEncoder encoder(config, init);
  nn::AdamW optimizer(encoder.Parameters(), {});
  std::vector<int> tokens(128);
  Rng rng(2);
  for (auto& t : tokens) t = static_cast<int>(rng.Uniform(6000));
  for (auto _ : state) {
    optimizer.ZeroGrad();
    nn::Tensor h = encoder.Forward(tokens, rng, true);
    nn::Mean(nn::Mul(h, h)).Backward();
    optimizer.Step();
  }
}
BENCHMARK(BM_EncoderTrainStep);

void BM_CorpusGeneration(benchmark::State& state) {
  MicroEnv& env = Env();
  uint64_t seed = 1;
  for (auto _ : state) {
    data::CorpusOptions opts = data::CorpusOptions::SemTabDefaults(8, seed++);
    benchmark::DoNotOptimize(data::GenerateSemTabCorpus(env.world, opts));
  }
}
BENCHMARK(BM_CorpusGeneration);

// Display reporter that additionally records every run into the bench
// telemetry buffer, so bench_micro drops a BENCH_micro.json like the
// table/figure benches. Display goes to the library's default reporter, so
// --benchmark_format and --benchmark_color keep working.
class TelemetryReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      bench::RecordBenchMetric(run.benchmark_name(),
                               run.GetAdjustedRealTime(),
                               benchmark::GetTimeUnitString(run.time_unit),
                               run.iterations);
    }
    display_->ReportRuns(reports);
  }
  void Finalize() override { display_->Finalize(); }

 private:
  std::unique_ptr<benchmark::BenchmarkReporter> display_{
      benchmark::CreateDefaultDisplayReporter()};
};

}  // namespace
}  // namespace kglink

int main(int argc, char** argv) {
  kglink::bench::InitBenchTelemetry("micro");
  // Explicit: filters like --benchmark_filter=BM_EncoderForward never reach
  // Env(), which is otherwise what arms KGLINK_TRACE/KGLINK_METRICS/
  // KGLINK_PROFILE export.
  kglink::bench::InitObservabilityFromEnv();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  kglink::TelemetryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (std::getenv("KGLINK_PROFILE") != nullptr) {
    for (const auto& [arg, wc] : kglink::ForwardWallClocks()) {
      if (wc.iterations <= 0) continue;
      kglink::bench::RecordBenchMetric(
          "BM_EncoderForward_" + std::to_string(arg) + ".profiled_wall_us",
          static_cast<double>(wc.wall_ns) / 1000.0, "us_total",
          wc.iterations);
    }
  }
  return 0;
}
