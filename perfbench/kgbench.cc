// The KGLink benchmark program. One process runs one workload:
//
//   kgbench --workload semtab_cold|viznet_warm|serve_open --seed N
//           --seconds S --trace 0|1 --slo-ms L [--rate R]
//
// It builds the system (world, KG index, corpora, a short fixed-seed Fit)
// several times to time set-up, runs the workload on tables generated from
// the seed, checks the outputs, and prints one JSON object as its last
// line: the end-to-end metrics with --trace 0, the per-layer metrics of a
// separate traced pass with --trace 1. Exit status 1 means a correctness
// check failed, 2 a usage error. README.md describes every workload and
// metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/annotator.h"
#include "data/corpus_gen.h"
#include "data/world.h"
#include "harness.h"
#include "layers.h"
#include "search/search_engine.h"
#include "serve/annotation_service.h"

namespace kglink::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

enum class Workload { kSemTabCold, kVizNetWarm, kServeOpen };

struct Args {
  Workload workload = Workload::kSemTabCold;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  double rate = 0;     // serve_open arrivals per second
  double slo_ms = 0;   // latency limit of slo_met_share
};

// ---- Fixed parameters. Every one of them shapes the numbers, so they are
// constants of the benchmark, not options. ----

// Set-ups per run; setup_s, core.fit_s and search.index_build_s are the
// medians over them.
constexpr int kSetups = 3;
// Training tables per corpus kind and epochs of the short Fit.
constexpr int kTrainTables = 140;
constexpr int kEpochs = 6;
// Tables annotated after the timed part to score accuracy (and, on
// serve_open, to check every served answer against).
constexpr size_t kEvalTables = 1000;
// semtab_cold cycles through this many fresh tables: far more distinct
// cell texts than the cell cache holds.
constexpr size_t kColdPoolTables = 1500;
// viznet_warm's pool grows while its distinct cell texts stay within this
// share of the cache capacity.
constexpr double kWarmPoolFill = 0.75;
// serve_open: worker threads (with the submitting thread they leave one of
// four cores free) and the zipf exponent of table popularity.
constexpr int kServeThreads = 2;
constexpr double kZipfS = 0.5;
// Latency percentiles are taken within windows of this many consecutive
// requests (so p99 has 10 samples beyond it in every window) and reported
// as the median over the windows. A closed loop sends at least one window.
constexpr size_t kLatencyWindow = 1000;
// Tables of the traced pass (and of its untraced baseline).
constexpr size_t kTraceTables = 400;
// Top-level traced spans must add up to the untraced wall time within this
// share.
constexpr double kReconcileTolerance = 0.05;

// ---- System set-up ----

core::KgLinkOptions ModelOptions(Workload w) {
  core::KgLinkOptions o;  // product defaults: dim 48, 2 layers, seq 192
  if (w != Workload::kVizNetWarm) {
    // The served model of bench_serve / bench_load.
    o.encoder.dim = 24;
    o.encoder.num_heads = 2;
    o.encoder.num_layers = 1;
    o.encoder.ffn_dim = 32;
    o.serializer.max_seq_len = 96;
    o.linker.top_k_rows = 8;
  }
  o.epochs = kEpochs;
  o.seed = 99;
  return o;
}

struct PoolTable {
  const table::Table* table = nullptr;
  std::vector<std::string> gold;  // label name per column, "" unlabelled
};

// Everything one set-up builds. Heap-allocated and never moved: the
// annotator borrows the KG and the engine.
struct System {
  data::World world;
  search::SearchEngine engine;
  table::Corpus train;
  std::vector<table::Corpus> owned;  // the workload's generated tables
  // The workload's tables; requests draw from the first `request_tables`,
  // accuracy is scored on the first `eval_tables`.
  std::vector<PoolTable> tables;
  size_t request_tables = 0;
  size_t eval_tables = 0;
  core::KgLinkOptions options;
  std::unique_ptr<core::KgLinkAnnotator> annotator;
  double index_s = 0, fit_s = 0;
};

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

table::Corpus SemTab(const data::World& world, int n, uint64_t seed) {
  return data::GenerateSemTabCorpus(
      world, data::CorpusOptions::SemTabDefaults(n, seed));
}
table::Corpus VizNet(const data::World& world, int n, uint64_t seed) {
  return data::GenerateVizNetCorpus(
      world, data::CorpusOptions::VizNetDefaults(n, seed));
}

void AddTables(const table::Corpus& corpus, std::vector<PoolTable>* out) {
  for (const table::LabeledTable& lt : corpus.tables) {
    out->push_back({&lt.table, GoldNames(lt, corpus)});
  }
}

std::unique_ptr<System> SetUp(const Args& args) {
  auto sys = std::make_unique<System>();
  // The world, the training corpora and the model are fixed; only the
  // workload's tables come from the seed.
  data::WorldConfig wc;
  wc.open_class_scale = 20.0;
  wc.duplicate_entity_prob = 0.20;
  sys->world = data::GenerateWorld(wc);
  Clock::time_point index_start = Clock::now();
  sys->engine = search::IndexKnowledgeGraph(sys->world.kg);
  sys->index_s = SecondsSince(index_start);

  const Workload w = args.workload;
  table::Corpus train;
  if (w == Workload::kSemTabCold) {
    train = SemTab(sys->world, kTrainTables, 11);
  } else if (w == Workload::kVizNetWarm) {
    train = VizNet(sys->world, kTrainTables, 13);
  } else {
    table::Corpus s = SemTab(sys->world, kTrainTables, 11);
    table::Corpus v = VizNet(sys->world, kTrainTables, 13);
    train = MergeByName({&s, &v});
  }
  Rng split_rng(2024);
  table::SplitCorpus split =
      table::StratifiedSplit(train, 0.8, 0.15, split_rng);
  sys->train = std::move(split.train);
  sys->options = ModelOptions(w);

  const uint64_t pool_seed = Mix(args.seed ^ 0x6b676c696e6b0000ULL);
  sys->owned.reserve(2);  // PoolTable points into these corpora
  const int eval_n = static_cast<int>(kEvalTables);
  if (w == Workload::kSemTabCold) {
    sys->owned.push_back(
        SemTab(sys->world, static_cast<int>(kColdPoolTables), pool_seed));
    AddTables(sys->owned[0], &sys->tables);
    sys->request_tables = sys->tables.size();
  } else if (w == Workload::kVizNetWarm) {
    sys->owned.push_back(VizNet(sys->world, eval_n, pool_seed));
    AddTables(sys->owned[0], &sys->tables);
    // The longest prefix whose distinct cell texts fit the warm budget.
    const double budget =
        kWarmPoolFill * sys->options.linker.cell_cache_capacity;
    std::vector<const table::Table*> prefix;
    for (const PoolTable& p : sys->tables) {
      prefix.push_back(p.table);
      if (DistinctCellTexts(prefix) > budget) break;
      sys->request_tables = prefix.size();
    }
  } else {
    // Interleaved, so zipf popularity spans both kinds.
    sys->owned.push_back(SemTab(sys->world, eval_n / 2, pool_seed));
    sys->owned.push_back(VizNet(sys->world, eval_n / 2, pool_seed + 1));
    std::vector<PoolTable> s, v;
    AddTables(sys->owned[0], &s);
    AddTables(sys->owned[1], &v);
    for (size_t i = 0; i < s.size() || i < v.size(); ++i) {
      if (i < s.size()) sys->tables.push_back(s[i]);
      if (i < v.size()) sys->tables.push_back(v[i]);
    }
    sys->request_tables = sys->tables.size();
  }
  sys->eval_tables = std::min(kEvalTables, sys->tables.size());

  sys->annotator = std::make_unique<core::KgLinkAnnotator>(
      &sys->world.kg, &sys->engine, sys->options);
  Clock::time_point fit_start = Clock::now();
  sys->annotator->Fit(sys->train, split.valid);
  sys->fit_s = SecondsSince(fit_start);

  // Warm-up. viznet_warm fills the cache with its whole pool; the others
  // only warm code and allocator, on tables the timed part reaches last.
  size_t warm_begin = 0;
  if (w != Workload::kVizNetWarm) {
    warm_begin =
        sys->request_tables - std::min<size_t>(20, sys->request_tables);
  }
  for (size_t i = warm_begin; i < sys->request_tables; ++i) {
    sys->annotator->AnnotateTable(*sys->tables[i].table);
  }
  return sys;
}

// ---- Result checking ----

struct Checker {
  int failures = 0;
  void Fail(const std::string& what) {
    if (failures++ < 10) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

// Every prediction indexes the model's labels, one per column.
void CheckPredictions(const std::vector<int>& predictions,
                      const table::Table& t, size_t num_labels,
                      Checker* check) {
  if (predictions.size() != static_cast<size_t>(t.num_cols())) {
    check->Fail("table " + t.id() + ": " + std::to_string(predictions.size()) +
                " predictions for " + std::to_string(t.num_cols()) +
                " columns");
    return;
  }
  for (int p : predictions) {
    if (p < 0 || static_cast<size_t>(p) >= num_labels) {
      check->Fail("table " + t.id() + ": prediction " + std::to_string(p) +
                  " outside label_names()");
      return;
    }
  }
}

// The oracle: a direct, single-threaded AnnotateTable of every evaluation
// table. Also scores accuracy by label name.
struct Oracle {
  std::vector<std::vector<int>> predictions;
  AccuracyTally accuracy;
};

Oracle AnnotateDirect(System& sys, Checker* check) {
  Oracle o;
  const auto& labels = sys.annotator->label_names();
  for (size_t i = 0; i < sys.eval_tables; ++i) {
    const PoolTable& p = sys.tables[i];
    core::AnnotateOutcome out = sys.annotator->AnnotateTable(*p.table);
    if (!out.status.ok() || out.degraded) {
      check->Fail("direct annotation of " + p.table->id() + " not ok");
    }
    CheckPredictions(out.predictions, *p.table, labels.size(), check);
    o.accuracy.Add(TallyByName(out.predictions, labels, p.gold));
    o.predictions.push_back(std::move(out.predictions));
  }
  return o;
}

// Served answers must equal the oracle's; tables beyond the evaluation set
// must at least answer the same every time they are served.
struct AnswerBook {
  std::vector<std::vector<int>> first;
  void Record(size_t table, const std::vector<int>& predictions,
              const std::string& id, Checker* check) {
    if (first.size() <= table) first.resize(table + 1);
    if (first[table].empty()) {
      first[table] = predictions;
    } else if (first[table] != predictions) {
      check->Fail("table " + id + " answered differently on a repeat");
    }
  }
  void CompareWith(const Oracle& oracle, const System& sys, Checker* check) {
    for (size_t i = 0; i < first.size() && i < oracle.predictions.size();
         ++i) {
      if (!first[i].empty() && first[i] != oracle.predictions[i]) {
        check->Fail("table " + sys.tables[i].table->id() +
                    " served answer differs from direct AnnotateTable");
      }
    }
  }
};

// ---- Timed passes ----

struct Request {
  double latency_us = 0;     // from when the request was due
  double completion_s = 0;   // since the start of the timed pass
  bool ok = false;
};

struct PassResult {
  std::vector<Request> requests;
  double end_s = 0;
  int64_t cache_hits = 0, cache_misses = 0;
  // Requests through AnnotationService only.
  std::vector<double> queue_wait_us, work_us, lag_us;
  int max_queue_depth = 0;
  int64_t shed = 0;
};

struct CacheCounts {
  int64_t hits = 0, misses = 0;
};
CacheCounts ReadCache(const core::KgLinkAnnotator& a) {
  const search::CellLinkCache* c = a.cell_cache();
  return c == nullptr ? CacheCounts{} : CacheCounts{c->hits(), c->misses()};
}

// One client, one request in flight: each table is sent the moment the
// previous answer has been checked, so it is due when it is sent. Cycles
// through the request pool until at least `kLatencyWindow` requests were
// sent and `seconds` have passed.
PassResult RunClosedLoop(System& sys, double seconds, AnswerBook* book,
                         Checker* check) {
  PassResult r;
  core::KgLinkAnnotator& ann = *sys.annotator;
  const size_t labels = ann.label_names().size();
  const CacheCounts before = ReadCache(ann);
  const Clock::time_point start = Clock::now();
  for (size_t n = 0;; ++n) {
    if (n >= kLatencyWindow && SecondsSince(start) >= seconds) break;
    const size_t i = n % sys.request_tables;
    const table::Table& t = *sys.tables[i].table;
    const Clock::time_point sent = Clock::now();
    core::AnnotateOutcome out = ann.AnnotateTable(t);
    Request q;
    q.latency_us = MicrosSince(sent);
    q.ok = out.status.ok() && !out.degraded;
    r.requests.push_back(q);
    CheckPredictions(out.predictions, t, labels, check);
    if (q.ok) book->Record(i, out.predictions, t.id(), check);
  }
  r.end_s = SecondsSince(start);
  const CacheCounts after = ReadCache(ann);
  r.cache_hits = after.hits - before.hits;
  r.cache_misses = after.misses - before.misses;
  return r;
}

// Poisson arrivals on a precomputed schedule into AnnotationService. The
// submitting thread sleeps until each request is due; a request's latency
// is (submit - due) + queue wait + work, so a stalled submitter charges
// its lateness to every request it delays.
PassResult RunOpenLoop(System& sys, const Args& args, AnswerBook* book,
                       Checker* check) {
  PassResult r;
  core::KgLinkAnnotator& ann = *sys.annotator;
  const size_t labels = ann.label_names().size();
  const std::vector<Arrival> schedule = PoissonSchedule(
      args.seed, args.rate, args.seconds, sys.request_tables, kZipfS);
  serve::ServiceOptions options;
  options.num_threads = kServeThreads;
  serve::AnnotationService service(&ann, options);

  const CacheCounts before = ReadCache(ann);
  std::vector<std::future<serve::AnnotationResult>> futures;
  futures.reserve(schedule.size());
  std::vector<double> submit_us;
  submit_us.reserve(schedule.size());
  const Clock::time_point start = Clock::now();
  for (const Arrival& a : schedule) {
    const Clock::time_point due = start + std::chrono::microseconds(a.due_us);
    std::this_thread::sleep_until(due);
    submit_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
    r.lag_us.push_back(
        std::max(0.0, submit_us.back() - static_cast<double>(a.due_us)));
    futures.push_back(service.Submit(*sys.tables[a.table].table));
    r.max_queue_depth = std::max(r.max_queue_depth, service.queue_depth());
  }
  for (size_t k = 0; k < futures.size(); ++k) {
    serve::AnnotationResult res = futures[k].get();
    const size_t i = schedule[k].table;
    const table::Table& t = *sys.tables[i].table;
    Request q;
    const double service_us = static_cast<double>(res.queue_us + res.work_us);
    q.latency_us = r.lag_us[k] + service_us;
    q.completion_s = (submit_us[k] + service_us) / 1e6;
    q.ok = res.status == serve::RequestStatus::kOk;
    r.requests.push_back(q);
    r.queue_wait_us.push_back(static_cast<double>(res.queue_us));
    r.work_us.push_back(static_cast<double>(res.work_us));
    if (res.status == serve::RequestStatus::kShed) ++r.shed;
    if (res.status == serve::RequestStatus::kOverloaded ||
        res.status == serve::RequestStatus::kFailed) {
      continue;  // no predictions: counted as failed, not as wrong
    }
    CheckPredictions(res.predictions, t, labels, check);
    if (q.ok) book->Record(i, res.predictions, t.id(), check);
  }
  service.Shutdown();
  for (const Request& q : r.requests) {
    r.end_s = std::max(r.end_s, q.completion_s);
  }
  const CacheCounts after = ReadCache(ann);
  r.cache_hits = after.hits - before.hits;
  r.cache_misses = after.misses - before.misses;
  return r;
}

// ---- Output ----

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    s += buf;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

void PrintRegime(const System& sys, int64_t hits, int64_t misses) {
  std::vector<const table::Table*> pool;
  double rows = 0, cols = 0;
  for (size_t i = 0; i < sys.request_tables; ++i) {
    pool.push_back(sys.tables[i].table);
    rows += sys.tables[i].table->num_rows();
    cols += sys.tables[i].table->num_cols();
  }
  const double n = static_cast<double>(pool.size());
  const int64_t lookups = hits + misses;
  const size_t distinct = DistinctCellTexts(pool);
  const int capacity = sys.options.linker.cell_cache_capacity;
  std::printf(
      "input: %zu pool tables, mean %.1f rows x %.2f columns\n"
      "cache regime: %s (hit rate %.3f over %lld lookups; %zu distinct "
      "cell texts in the pool, cell_cache_capacity %d)\n",
      pool.size(), rows / n, cols / n,
      static_cast<int>(distinct) > capacity ? "pool exceeds the cache"
                                            : "pool fits the cache",
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0,
      static_cast<long long>(lookups), distinct, capacity);
}

// ---- Traced pass ----

// The serve layer on a closed-loop workload: the trace tables sent one at a
// time through a one-worker AnnotationService.
PassResult RunServeProbe(System& sys, const std::vector<size_t>& order,
                         Checker* check) {
  PassResult r;
  serve::ServiceOptions options;
  options.num_threads = 1;
  serve::AnnotationService service(sys.annotator.get(), options);
  const size_t labels = sys.annotator->label_names().size();
  Clock::time_point due = Clock::now();
  for (size_t i : order) {
    const table::Table& t = *sys.tables[i].table;
    r.lag_us.push_back(MicrosSince(due));
    std::future<serve::AnnotationResult> f = service.Submit(t);
    r.max_queue_depth = std::max(r.max_queue_depth, service.queue_depth());
    serve::AnnotationResult res = f.get();
    due = Clock::now();
    r.queue_wait_us.push_back(static_cast<double>(res.queue_us));
    r.work_us.push_back(static_cast<double>(res.work_us));
    if (res.status != serve::RequestStatus::kOk) {
      check->Fail("serve probe request for " + t.id() + " not ok");
    }
    CheckPredictions(res.predictions, t, labels, check);
  }
  service.Shutdown();
  return r;
}

std::vector<Metric> TracedMetrics(System& sys, const Args& args,
                                  const std::vector<double>& setup_index_s,
                                  const std::vector<double>& setup_fit_s,
                                  Checker* check, int64_t* attempted,
                                  int64_t* failed) {
  // The trace tables, in the order the workload sends them.
  std::vector<size_t> order;
  if (args.workload == Workload::kServeOpen) {
    for (const Arrival& a : PoissonSchedule(args.seed, args.rate, args.seconds,
                                            sys.request_tables, kZipfS)) {
      if (order.size() == kTraceTables) break;
      order.push_back(a.table);
    }
  } else {
    for (size_t n = 0; n < kTraceTables; ++n) {
      order.push_back(n % sys.request_tables);
    }
  }

  // The serve layer: under load on serve_open, else a one-worker probe.
  PassResult serve_pass;
  AnswerBook book;
  if (args.workload == Workload::kServeOpen) {
    serve_pass = RunOpenLoop(sys, args, &book, check);
    Oracle oracle = AnnotateDirect(sys, check);
    book.CompareWith(oracle, sys, check);
  } else {
    serve_pass = RunServeProbe(sys, order, check);
  }

  // Two passes over the trace tables. Each table runs once untraced
  // (AnnotateTable) and once as the two top-level spans, with the roles
  // alternating table by table and swapped in the second pass, so machine
  // drift hits both sides alike. The passes are kTraceTables apart, which
  // keeps semtab_cold cold for both.
  LayerTracer tracer(&sys.world.kg, &sys.engine, sys.options, sys.train);
  core::KgLinkAnnotator& ann = *sys.annotator;
  std::vector<TableTrace> traces(order.size());
  std::vector<linker::ProcessedTable> processed(order.size());
  std::vector<double> untraced_us(order.size());
  std::vector<std::vector<int>> untraced_predictions(order.size());
  const CacheCounts before = ReadCache(ann);
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t k = 0; k < order.size(); ++k) {
      const table::Table& t = *sys.tables[order[k]].table;
      if ((k + pass) % 2 == 0) {
        const Clock::time_point start = Clock::now();
        core::AnnotateOutcome out = ann.AnnotateTable(t);
        untraced_us[k] = MicrosSince(start);
        if (!out.status.ok() || out.degraded) {
          check->Fail("untraced annotation of " + t.id() + " not ok");
        }
        untraced_predictions[k] = std::move(out.predictions);
      } else {
        processed[k] = tracer.TimeTopLevel(ann, t, &traces[k]);
      }
    }
  }
  // The cache regime of serve_open is its open loop's; the closed loops'
  // is that of the two passes.
  const CacheCounts after = ReadCache(ann);
  int64_t hits = after.hits - before.hits;
  int64_t misses = after.misses - before.misses;
  size_t annotated = 2 * order.size();
  if (args.workload == Workload::kServeOpen) {
    hits = serve_pass.cache_hits;
    misses = serve_pass.cache_misses;
    annotated = serve_pass.requests.size();
  }
  PrintRegime(sys, hits, misses);
  const size_t labels = ann.label_names().size();
  for (size_t k = 0; k < order.size(); ++k) {
    const table::Table& t = *sys.tables[order[k]].table;
    CheckPredictions(untraced_predictions[k], t, labels, check);
    if (traces[k].predictions != untraced_predictions[k]) {
      check->Fail("traced annotation of " + t.id() + " differs from untraced");
    }
    book.Record(order[k], untraced_predictions[k], t.id(), check);
  }
  // The replays leave the annotator alone, so they run after all spans.
  for (size_t k = 0; k < order.size(); ++k) {
    tracer.Replay(*sys.tables[order[k]].table, processed[k], &traces[k]);
  }
  *attempted = static_cast<int64_t>(order.size());
  *failed = 0;

  // Per-table timings as medians over the trace tables; counts as means.
  auto median_of = [&](auto get) {
    std::vector<double> v;
    for (const TableTrace& t : traces) v.push_back(get(t));
    return Median(std::move(v));
  };
  auto us = [&](double TableTrace::*field) {
    return median_of([&](const TableTrace& t) { return t.*field; });
  };
  auto nn_us = [&](double NnTimes::*field) {
    return median_of([&](const TableTrace& t) { return t.nn.*field; });
  };
  auto mean_count = [&](int64_t TableTrace::*field) {
    double sum = 0;
    for (const TableTrace& t : traces) sum += static_cast<double>(t.*field);
    return sum / static_cast<double>(traces.size());
  };
  double traced_top = 0, untraced = 0, forward = 0, sublayers = 0;
  for (size_t k = 0; k < traces.size(); ++k) {
    traced_top += traces[k].process_us + traces[k].predict_us;
    untraced += untraced_us[k];
    forward += traces[k].encoder_forward_us;
    sublayers += traces[k].nn.Sum();
  }
  const double overhead = traced_top / untraced - 1.0;
  const double nn_gap = sublayers / forward - 1.0;
  std::printf(
      "reconcile: linker.process + core.predict = %.0f us vs untraced wall "
      "%.0f us over %zu tables (tracing overhead %+.1f%%); nn sublayers "
      "%.0f us vs encoder_forward %.0f us (%+.1f%%); tolerance %.0f%%%s\n",
      traced_top, untraced, traces.size(), 100 * overhead, sublayers, forward,
      100 * nn_gap, 100 * kReconcileTolerance,
      std::fabs(overhead) <= kReconcileTolerance &&
              std::fabs(nn_gap) <= kReconcileTolerance
          ? ""
          : "  [OUTSIDE TOLERANCE]");
  if (tracer.replay_mismatches() > 0) {
    std::fprintf(stderr,
                 "warning: %d layer replays differ from the library's own "
                 "result; the sublayer breakdown no longer mirrors the code\n",
                 tracer.replay_mismatches());
  }

  const double requests = static_cast<double>(serve_pass.work_us.size());
  std::vector<Metric> m = {
      {"search.topk_us", Median(tracer.topk_us()), "us"},
      {"search.cache_hit_rate",
       static_cast<double>(hits) /
           static_cast<double>(std::max<int64_t>(hits + misses, 1)),
       "ratio"},
      {"search.cache_misses",
       static_cast<double>(misses) / static_cast<double>(annotated), "count"},
      {"search.index_build_s", Median(setup_index_s), "s"},
      {"linker.process_us", us(&TableTrace::process_us), "us"},
      {"linker.link_row_excl_us", us(&TableTrace::link_row_excl_us), "us"},
      {"linker.filter_rows_us", us(&TableTrace::filter_rows_us), "us"},
      {"linker.candidate_types_us", us(&TableTrace::candidate_types_us), "us"},
      {"linker.feature_sequence_us", us(&TableTrace::feature_sequence_us),
       "us"},
      {"core.predict_us", us(&TableTrace::predict_us), "us"},
      {"core.serialize_us", us(&TableTrace::serialize_us), "us"},
      {"core.tokens_per_table", mean_count(&TableTrace::serialized_tokens),
       "count"},
      {"core.fit_s", Median(setup_fit_s), "s"},
      {"nn.encoder_forward_us", us(&TableTrace::encoder_forward_us), "us"},
      {"nn.embedding_us", nn_us(&NnTimes::embedding), "us"},
      {"nn.attention_us", nn_us(&NnTimes::attention), "us"},
      {"nn.layernorm_us", nn_us(&NnTimes::layernorm), "us"},
      {"nn.ffn_gemm_us", nn_us(&NnTimes::ffn_gemm), "us"},
      {"nn.gelu_us", nn_us(&NnTimes::gelu), "us"},
      {"nn.tokens_encoded", mean_count(&TableTrace::encoded_tokens), "count"},
      {"serve.queue_wait_p99_ms",
       Percentile(serve_pass.queue_wait_us, 0.99) / 1e3, "ms"},
      {"serve.work_p50_ms", Percentile(serve_pass.work_us, 0.5) / 1e3, "ms"},
      {"serve.max_queue_depth",
       static_cast<double>(serve_pass.max_queue_depth), "count"},
      {"serve.shed_share", static_cast<double>(serve_pass.shed) / requests,
       "ratio"},
      {"serve.generator_lag_p99_ms", Percentile(serve_pass.lag_us, 0.99) / 1e3,
       "ms"},
      {"trace.overhead_pct", 100 * overhead, "%"},
      {"trace.nn_sublayer_gap_pct", 100 * nn_gap, "%"},
  };
  return m;
}

// ---- main ----

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "kgbench: %s\nusage: kgbench --workload "
               "semtab_cold|viznet_warm|serve_open --seed N --seconds S "
               "--trace 0|1 --slo-ms MS [--rate PER_S]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = true;
      a.workload_name = value;
      if (value == "semtab_cold") {
        a.workload = Workload::kSemTabCold;
      } else if (value == "viznet_warm") {
        a.workload = Workload::kVizNetWarm;
      } else if (value == "serve_open") {
        a.workload = Workload::kServeOpen;
      } else {
        Usage(("unknown workload " + value).c_str());
      }
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = true;
    } else if (flag == "--trace") {
      a.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--rate") {
      a.rate = std::strtod(value.c_str(), &end);
    } else if (flag == "--slo-ms") {
      a.slo_ms = std::strtod(value.c_str(), &end);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    Usage("--workload, --seed and --seconds are required");
  }
  if (a.seconds <= 0) Usage("--seconds must be positive");
  if (a.slo_ms <= 0) Usage("--slo-ms must be positive");
  if (a.workload == Workload::kServeOpen && a.rate <= 0) {
    Usage("serve_open needs a positive --rate");
  }
  return a;
}

int Run(const Args& args, Clock::time_point process_start) {
  // Several set-ups; the last one serves the run.
  std::vector<double> setup_s, index_s, fit_s;
  std::unique_ptr<System> sys;
  Clock::time_point setup_start = process_start;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) {
      sys.reset();
      setup_start = Clock::now();
    }
    sys = SetUp(args);
    setup_s.push_back(SecondsSince(setup_start));
    index_s.push_back(sys->index_s);
    fit_s.push_back(sys->fit_s);
  }
  std::printf("workload %s, seed %llu: set-up %.3f s (median of %d)\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), Median(setup_s),
              kSetups);

  Checker check;
  if (args.trace) {
    int64_t attempted = 0, failed = 0;
    std::vector<Metric> m =
        TracedMetrics(*sys, args, index_s, fit_s, &check, &attempted, &failed);
    PrintResult(check.failures == 0, attempted, failed, m);
    return check.failures == 0 ? 0 : 1;
  }

  AnswerBook book;
  PassResult r = args.workload == Workload::kServeOpen
                     ? RunOpenLoop(*sys, args, &book, &check)
                     : RunClosedLoop(*sys, args.seconds, &book, &check);
  PrintRegime(*sys, r.cache_hits, r.cache_misses);
  Oracle oracle = AnnotateDirect(*sys, &check);
  book.CompareWith(oracle, *sys, &check);

  std::vector<double> latency;
  int64_t ok = 0, slo_met = 0;
  const double slo_us = args.slo_ms * 1e3;
  for (const Request& q : r.requests) {
    latency.push_back(q.latency_us);
    if (q.ok) {
      ++ok;
      if (q.latency_us <= slo_us) ++slo_met;
    }
  }
  const auto n = static_cast<int64_t>(r.requests.size());
  const double nd = static_cast<double>(std::max<int64_t>(n, 1));
  const double throughput = static_cast<double>(ok) / r.end_s;
  if (latency.size() < kLatencyWindow) {
    check.Fail("fewer than " + std::to_string(kLatencyWindow) + " requests");
  }
  const double p50_ms =
      MedianWindowPercentile(latency, kLatencyWindow, 0.5) / 1e3;
  const double p99_ms =
      MedianWindowPercentile(latency, kLatencyWindow, 0.99) / 1e3;
  std::printf(
      "latency over %lld requests in %zu windows of %zu: p50 %.3f ms, p99 "
      "%.3f ms (%zu samples beyond p99 per window; medians over the "
      "windows); accuracy %.2f%% over %lld labelled columns\n",
      static_cast<long long>(n), latency.size() / kLatencyWindow,
      kLatencyWindow, p50_ms, p99_ms, SamplesBeyond(kLatencyWindow, 0.99),
      oracle.accuracy.Percent(), static_cast<long long>(oracle.accuracy.total));
  if (args.workload == Workload::kServeOpen) {
    double work_us = 0;
    for (double w : r.work_us) work_us += w;
    std::printf("offered %.0f tables/s to %d workers: %.0f%% busy\n",
                args.rate, kServeThreads,
                100 * work_us / (1e6 * kServeThreads * r.end_s));
  }

  std::vector<Metric> m = {
      {"setup_s", Median(setup_s), "s"},
      {"tables_per_s", throughput, "1/s"},
      {"latency_p50_ms", p50_ms, "ms"},
      {"latency_p99_ms", p99_ms, "ms"},
      {"accuracy_pct", oracle.accuracy.Percent(), "%"},
      {"ok_share", static_cast<double>(ok) / nd, "ratio"},
      {"slo_met_share", static_cast<double>(slo_met) / nd, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  PrintResult(check.failures == 0, n, n - ok, m);
  return check.failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace kglink::perfbench

int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const kglink::perfbench::Args args =
      kglink::perfbench::ParseArgs(argc, argv);
  return kglink::perfbench::Run(args, start);
}
