// Concurrent chaos acceptance: the AnnotationService under 8 worker
// threads, injected search faults and a mix of live and already-expired
// deadlines. The per-request fault-injection RNG streams (keyed on the
// submission-order stream key) make every per-table status and prediction
// deterministic per seed no matter how the workers interleave — two
// identically seeded runs must agree exactly. This binary is also the
// primary ThreadSanitizer target (scripts/check.sh --tsan).
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "core/annotator.h"
#include "data/corpus_gen.h"
#include "data/world.h"
#include "robust/fault_injector.h"
#include "search/search_engine.h"
#include "serve/annotation_service.h"
#include "serve/loadgen.h"
#include "util/deadline.h"

namespace kglink::serve {
namespace {

class ConcurrentChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::WorldConfig wc;
    wc.scale = 0.25;
    world_ = new data::World(data::GenerateWorld(wc));
    engine_ = new search::SearchEngine(
        search::IndexKnowledgeGraph(world_->kg));
    table::Corpus corpus = data::GenerateSemTabCorpus(
        *world_, data::CorpusOptions::SemTabDefaults(32));
    Rng rng(5);
    split_ = new table::SplitCorpus(
        table::StratifiedSplit(corpus, 0.7, 0.1, rng));
    // One flat request stream over every table in the corpus, so the
    // concurrent runs have enough work to keep 8 threads busy.
    for (const auto* part : {&split_->train, &split_->valid, &split_->test}) {
      for (const auto& lt : part->tables) tables_.push_back(&lt.table);
    }

    core::KgLinkOptions o;
    o.epochs = 2;
    o.encoder.dim = 24;
    o.encoder.num_heads = 2;
    o.encoder.num_layers = 1;
    o.encoder.ffn_dim = 32;
    o.serializer.max_seq_len = 96;
    o.linker.top_k_rows = 8;
    o.seed = 99;
    annotator_ = new core::KgLinkAnnotator(&world_->kg, engine_, o);
    annotator_->Fit(split_->train, split_->valid);
  }
  static void TearDownTestSuite() {
    delete annotator_;
    delete split_;
    delete engine_;
    delete world_;
    tables_.clear();
  }

  void TearDown() override {
    robust::FaultInjector::Global().Disable();
  }

  struct RunOutcome {
    std::map<std::string, int> status_counts;
    // Per submission index: terminal status + predictions.
    std::vector<std::pair<RequestStatus, std::vector<int>>> results;
  };

  // Submits every table through a fresh 8-thread service; every odd
  // submission carries an already-spent deadline. The queue is sized so
  // admission never sheds — the deterministic chaos contract covers the
  // ok/degraded split, and shed/overloaded must be exactly zero.
  static RunOutcome RunChaos() {
    ServiceOptions so;
    so.num_threads = 8;
    so.max_queue = static_cast<int>(tables_.size()) + 1;
    RunOutcome out;
    AnnotationService service(annotator_, so);
    std::vector<std::future<AnnotationResult>> futures;
    for (size_t i = 0; i < tables_.size(); ++i) {
      Deadline d = (i % 2 == 1) ? Deadline::Expired() : Deadline::Infinite();
      futures.push_back(service.Submit(*tables_[i], d));
    }
    for (auto& f : futures) {
      AnnotationResult r = f.get();
      ++out.status_counts[RequestStatusName(r.status)];
      out.results.emplace_back(r.status, std::move(r.predictions));
    }
    return out;
  }

  static data::World* world_;
  static search::SearchEngine* engine_;
  static table::SplitCorpus* split_;
  static core::KgLinkAnnotator* annotator_;
  static std::vector<const table::Table*> tables_;
};
data::World* ConcurrentChaosTest::world_ = nullptr;
search::SearchEngine* ConcurrentChaosTest::engine_ = nullptr;
table::SplitCorpus* ConcurrentChaosTest::split_ = nullptr;
core::KgLinkAnnotator* ConcurrentChaosTest::annotator_ = nullptr;
std::vector<const table::Table*> ConcurrentChaosTest::tables_;

TEST_F(ConcurrentChaosTest, EightThreadChaosIsDeterministicPerSeed) {
  // Two identically seeded runs — 8 threads, 10% search faults, half the
  // requests pre-expired — must produce identical per-request statuses,
  // identical predictions and identical status counters.
  RunOutcome runs[2];
  for (int run = 0; run < 2; ++run) {
    ASSERT_TRUE(robust::FaultInjector::Global()
                    .ConfigureFromSpec("search.topk:0.1", 42)
                    .ok());
    runs[run] = RunChaos();
    robust::FaultInjector::Global().Disable();
  }

  EXPECT_EQ(runs[0].status_counts, runs[1].status_counts);
  ASSERT_EQ(runs[0].results.size(), runs[1].results.size());
  for (size_t i = 0; i < runs[0].results.size(); ++i) {
    EXPECT_EQ(runs[0].results[i].first, runs[1].results[i].first)
        << "request " << i;
    EXPECT_EQ(runs[0].results[i].second, runs[1].results[i].second)
        << "request " << i;
  }

  // Every pre-expired request degraded (never crashed, never partial) and
  // the sized queue kept admission out of the picture entirely.
  EXPECT_GE(runs[0].status_counts["degraded"],
            static_cast<int>(tables_.size() / 2));
  EXPECT_EQ(runs[0].status_counts["shed"], 0);
  EXPECT_EQ(runs[0].status_counts["overloaded"], 0);
  EXPECT_EQ(runs[0].status_counts["failed"], 0);
  for (size_t i = 0; i < runs[0].results.size(); ++i) {
    if (i % 2 == 1) {
      EXPECT_EQ(runs[0].results[i].first, RequestStatus::kDegraded)
          << "pre-expired request " << i;
    }
    EXPECT_EQ(runs[0].results[i].second.size(),
              static_cast<size_t>(tables_[i]->num_cols()))
        << "request " << i;
  }
}

TEST_F(ConcurrentChaosTest, SingleThreadServiceMatchesSequentialExactly) {
  // The serving harness must not perturb accuracy: a fault-free 1-thread
  // service returns bit-identical predictions to the sequential
  // PredictTable path for every table.
  std::vector<std::vector<int>> sequential;
  for (const auto* t : tables_) {
    sequential.push_back(annotator_->PredictTable(*t));
  }

  ServiceOptions so;
  so.num_threads = 1;
  so.max_queue = static_cast<int>(tables_.size()) + 1;
  AnnotationService service(annotator_, so);
  std::vector<std::future<AnnotationResult>> futures;
  for (const auto* t : tables_) futures.push_back(service.Submit(*t));
  for (size_t i = 0; i < futures.size(); ++i) {
    AnnotationResult r = futures[i].get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << "table " << i;
    EXPECT_EQ(r.predictions, sequential[i]) << "table " << i;
  }
}

TEST_F(ConcurrentChaosTest, SurvivesHeavyFaults) {
  // 90% search failure under 8 threads: every request still resolves with
  // full-width predictions (ok or degraded — nothing sheds, fails or
  // crashes).
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:0.9", 7)
                  .ok());
  ServiceOptions so;
  so.num_threads = 8;
  so.max_queue = static_cast<int>(tables_.size()) + 1;
  AnnotationService service(annotator_, so);

  std::vector<std::future<AnnotationResult>> futures;
  for (const auto* t : tables_) futures.push_back(service.Submit(*t));
  for (size_t i = 0; i < futures.size(); ++i) {
    AnnotationResult r = futures[i].get();
    ASSERT_TRUE(r.status == RequestStatus::kOk ||
                r.status == RequestStatus::kDegraded)
        << "request " << i << ": " << RequestStatusName(r.status);
    EXPECT_EQ(r.predictions.size(),
              static_cast<size_t>(tables_[i]->num_cols()))
        << "request " << i;
  }
}

TEST_F(ConcurrentChaosTest, LoadgenBatchChecksumIsByteIdenticalPerSeed) {
  // The loadgen determinism contract bench_load's --check-determinism gate
  // relies on: two identically seeded RunBatch rounds over a 4-thread
  // service with 10% search faults + 1% predict faults fold every result
  // (status, predictions, degrade_reason, in submission order) to the
  // same FNV-1a checksum, while a different seed diverges. Same conditions
  // as the gate: a queue large enough that nothing is shed and no
  // deadlines — wall-clock expiry is the one schedule-dependent piece.
  const char* kFaults = "search.topk:0.1,predict:0.01";
  LoadgenOptions lo;
  lo.seed = 42;
  lo.zipf_s = 1.1;
  lo.deadline_us = 0;
  auto run = [&](uint64_t seed) {
    EXPECT_TRUE(
        robust::FaultInjector::Global().ConfigureFromSpec(kFaults, seed).ok());
    ServiceOptions so;
    so.num_threads = 4;
    so.max_queue = static_cast<int>(tables_.size()) * 4;
    AnnotationService service(annotator_, so);
    lo.seed = seed;
    BatchResult r = RunBatch(service, tables_, 96, lo);
    robust::FaultInjector::Global().Disable();
    return r;
  };

  BatchResult a = run(42);
  BatchResult b = run(42);
  EXPECT_EQ(a.checksum, b.checksum);
  for (int i = 0; i < kNumRequestStatuses; ++i) {
    EXPECT_EQ(a.by_status[static_cast<size_t>(i)],
              b.by_status[static_cast<size_t>(i)])
        << RequestStatusName(static_cast<RequestStatus>(i));
  }
  // A different seed draws a different fault/popularity schedule; if the
  // checksum still matched, it would not be discriminating anything.
  BatchResult c = run(43);
  EXPECT_NE(a.checksum, c.checksum);
}

}  // namespace
}  // namespace kglink::serve
