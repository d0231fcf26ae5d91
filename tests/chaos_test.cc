// Chaos integration test (the capstone): the full Fit + Predict stack runs
// under injected faults — BM25 retrieval failures plus poisoned training
// batches — without crashing, with bounded accuracy loss against the
// fault-free baseline, and with the degradation counters visible in the
// metrics snapshot.
#include <gtest/gtest.h>

#include <string>

#include "core/annotator.h"
#include "data/corpus_gen.h"
#include "data/world.h"
#include "obs/metrics.h"
#include "robust/fault_injector.h"
#include "search/search_engine.h"

namespace kglink {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::WorldConfig wc;
    wc.scale = 0.25;
    world_ = new data::World(data::GenerateWorld(wc));
    engine_ = new search::SearchEngine(
        search::IndexKnowledgeGraph(world_->kg));
    table::Corpus corpus = data::GenerateSemTabCorpus(
        *world_, data::CorpusOptions::SemTabDefaults(40));
    Rng rng(5);
    split_ = new table::SplitCorpus(
        table::StratifiedSplit(corpus, 0.7, 0.1, rng));
  }
  static void TearDownTestSuite() {
    delete split_;
    delete engine_;
    delete world_;
  }

  void TearDown() override { robust::FaultInjector::Global().Disable(); }

  static core::KgLinkOptions FastOptions(uint64_t seed = 99) {
    core::KgLinkOptions o;
    o.epochs = 4;
    o.encoder.dim = 24;
    o.encoder.num_heads = 2;
    o.encoder.num_layers = 1;
    o.encoder.ffn_dim = 32;
    o.serializer.max_seq_len = 96;
    o.linker.top_k_rows = 8;
    o.seed = seed;
    return o;
  }

  // Trains and evaluates one annotator under whatever faults are active.
  static double TrainAndEvaluate(const core::KgLinkOptions& options) {
    core::KgLinkAnnotator annotator(&world_->kg, engine_, options);
    annotator.Fit(split_->train, split_->valid);
    return annotator.Evaluate(split_->test).accuracy;
  }

  static data::World* world_;
  static search::SearchEngine* engine_;
  static table::SplitCorpus* split_;
};
data::World* ChaosTest::world_ = nullptr;
search::SearchEngine* ChaosTest::engine_ = nullptr;
table::SplitCorpus* ChaosTest::split_ = nullptr;

TEST_F(ChaosTest, SurvivesSearchFaultsAndPoisonedBatches) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& degraded = reg.GetCounter("robust.degraded_tables");
  obs::Counter& skipped = reg.GetCounter("train.skipped_batches");

  // Fault-free baseline. 8 epochs (the production default) so the model is
  // converged enough that losing a batch to poisoning is absorbable.
  robust::FaultInjector::Global().Disable();
  core::KgLinkOptions options = FastOptions(7);
  options.epochs = 8;
  double clean_acc = TrainAndEvaluate(options);

  // Chaos run: 10% of BM25 retrievals fail (a trip degrades its table to
  // the PLM-only path) and ~1% of training tables come back with a
  // poisoned NaN loss. Deterministic per seed, so reproducible.
  int64_t degraded_before = degraded.value();
  int64_t skipped_before = skipped.value();
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:0.1,train.batch:0.01", 42)
                  .ok());
  double chaos_acc = TrainAndEvaluate(options);
  robust::FaultInjector::Global().Disable();

  // Graceful degradation happened (some tables fell back to PLM-only and
  // at least one poisoned batch was skipped) and was counted.
  EXPECT_GT(degraded.value(), degraded_before);
  EXPECT_GT(skipped.value(), skipped_before);

  // Bounded accuracy loss: within 5 points of the fault-free run.
  EXPECT_GE(chaos_acc, clean_acc - 0.05)
      << "clean=" << clean_acc << " chaos=" << chaos_acc;

  // The degradation counters are visible in the exported snapshot.
  std::string snapshot = reg.SnapshotJson();
  EXPECT_NE(snapshot.find("\"robust.degraded_tables\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"train.skipped_batches\""), std::string::npos);
}

TEST_F(ChaosTest, ChaosRunIsDeterministicPerSeed) {
  // Two identically seeded chaos runs produce identical accuracy and trip
  // counts: fault injection must not introduce nondeterminism.
  double accs[2];
  int64_t trips[2];
  for (int run = 0; run < 2; ++run) {
    ASSERT_TRUE(robust::FaultInjector::Global()
                    .ConfigureFromSpec("search.topk:0.1", 42)
                    .ok());
    accs[run] = TrainAndEvaluate(FastOptions(7));
    trips[run] = robust::FaultInjector::Global().trip_count(
        robust::FaultSite::kSearchTopK);
    robust::FaultInjector::Global().Disable();
  }
  EXPECT_EQ(accs[0], accs[1]);
  EXPECT_GT(trips[0], 0);
  EXPECT_EQ(trips[0], trips[1]);
}

TEST_F(ChaosTest, LatencyFaultsSlowButDoNotDegrade) {
  // Pure latency faults: every retrieval is delayed, none fails — the
  // output must match the fault-free pipeline exactly.
  linker::KgPipeline pipeline(&world_->kg, engine_, {});
  const table::Table& t = split_->test.tables[0].table;
  linker::ProcessedTable clean = pipeline.Process(t);

  robust::FaultInjector::Global().Configure(
      {{robust::FaultSite::kSearchTopK, {1.0, 50}}}, 3);
  linker::ProcessedTable slow = pipeline.Process(t);
  robust::FaultInjector::Global().Disable();

  EXPECT_FALSE(slow.degraded);
  ASSERT_EQ(slow.columns.size(), clean.columns.size());
  for (size_t c = 0; c < clean.columns.size(); ++c) {
    EXPECT_EQ(slow.columns[c].candidate_type_labels,
              clean.columns[c].candidate_type_labels);
    EXPECT_EQ(slow.columns[c].feature_sequence,
              clean.columns[c].feature_sequence);
  }
}

}  // namespace
}  // namespace kglink
