// Fault-injection framework tests: deterministic seeded trip streams,
// spec parsing, the per-table fault and deadline gate, and the linker
// pipeline's degraded (PLM-only) fallback.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "linker/pipeline.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "robust/fault_injector.h"
#include "search/search_engine.h"
#include "table/corpus_io.h"
#include "util/deadline.h"

namespace kglink::robust {
namespace {

// Every test leaves the global injector disabled.
class FaultInjectorTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disable(); }
};

TEST_F(FaultInjectorTest, SiteNamesRoundTrip) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    FaultSite site = static_cast<FaultSite>(i);
    auto parsed = FaultSiteFromName(FaultSiteName(site));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, site);
  }
  EXPECT_FALSE(FaultSiteFromName("no.such.site").has_value());
}

TEST_F(FaultInjectorTest, DisabledByDefaultAndAfterDisable) {
  EXPECT_FALSE(FaultInjector::Enabled());
  EXPECT_FALSE(MaybeInject(FaultSite::kSearchTopK));
  ASSERT_TRUE(FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:1.0", 1)
                  .ok());
  EXPECT_TRUE(FaultInjector::Enabled());
  FaultInjector::Global().Disable();
  EXPECT_FALSE(FaultInjector::Enabled());
  EXPECT_FALSE(MaybeInject(FaultSite::kSearchTopK));
}

TEST_F(FaultInjectorTest, ZeroProbabilityRulesStayDisabled) {
  ASSERT_TRUE(FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:0.0,io.read:0", 1)
                  .ok());
  EXPECT_FALSE(FaultInjector::Enabled());
}

TEST_F(FaultInjectorTest, TripStreamIsDeterministicPerSeed) {
  auto roll = [](uint64_t seed) {
    FaultInjector::Global().Configure(
        {{FaultSite::kSearchTopK, {0.5, 0}}}, seed);
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(FaultInjector::Global().ShouldFail(
          FaultSite::kSearchTopK));
    }
    return out;
  };
  std::vector<bool> a = roll(7);
  std::vector<bool> b = roll(7);
  std::vector<bool> c = roll(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Roughly half the rolls trip at p=0.5 (loose deterministic bound).
  int trips = 0;
  for (bool t : a) trips += t ? 1 : 0;
  EXPECT_GT(trips, 50);
  EXPECT_LT(trips, 150);
}

TEST_F(FaultInjectorTest, SitesHaveIndependentStreams) {
  FaultInjector::Global().Configure(
      {{FaultSite::kSearchTopK, {0.5, 0}}, {FaultSite::kIoRead, {0.5, 0}}},
      7);
  std::vector<bool> topk_interleaved, topk_alone;
  for (int i = 0; i < 100; ++i) {
    topk_interleaved.push_back(
        FaultInjector::Global().ShouldFail(FaultSite::kSearchTopK));
    FaultInjector::Global().ShouldFail(FaultSite::kIoRead);
  }
  FaultInjector::Global().Configure(
      {{FaultSite::kSearchTopK, {0.5, 0}}, {FaultSite::kIoRead, {0.5, 0}}},
      7);
  for (int i = 0; i < 100; ++i) {
    topk_alone.push_back(
        FaultInjector::Global().ShouldFail(FaultSite::kSearchTopK));
  }
  // Interleaving other sites' rolls does not perturb a site's stream.
  EXPECT_EQ(topk_interleaved, topk_alone);
}

TEST_F(FaultInjectorTest, SpecParsing) {
  auto& inj = FaultInjector::Global();
  EXPECT_TRUE(inj.ConfigureFromSpec("", 1).ok());  // empty clears
  EXPECT_FALSE(FaultInjector::Enabled());
  EXPECT_TRUE(
      inj.ConfigureFromSpec("search.topk:0.1,io.read:0.5:250", 1).ok());
  EXPECT_TRUE(FaultInjector::Enabled());
  EXPECT_FALSE(inj.ConfigureFromSpec("bogus.site:0.5", 1).ok());
  EXPECT_FALSE(inj.ConfigureFromSpec("search.topk:1.5", 1).ok());
  EXPECT_FALSE(inj.ConfigureFromSpec("search.topk:-0.1", 1).ok());
  EXPECT_FALSE(inj.ConfigureFromSpec("search.topk:0.5:-3", 1).ok());
  EXPECT_FALSE(inj.ConfigureFromSpec("search.topk", 1).ok());
  EXPECT_FALSE(inj.ConfigureFromSpec("search.topk:0.5:1:2", 1).ok());
}

TEST_F(FaultInjectorTest, LatencyRuleSleepsButSucceeds) {
  FaultInjector::Global().Configure(
      {{FaultSite::kIoRead, {1.0, 100}}}, 3);
  // probability 1 + latency: every call trips, none fails.
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(MaybeInject(FaultSite::kIoRead));
  }
  EXPECT_EQ(FaultInjector::Global().trip_count(FaultSite::kIoRead), 5);
}

TEST_F(FaultInjectorTest, TableOpContextPassesThroughWhenDisabled) {
  TableOpContext ctx(nullptr);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ctx.Attempt(FaultSite::kSearchTopK));
  }
  EXPECT_FALSE(ctx.degraded());
}

TEST_F(FaultInjectorTest, TableOpContextDegradesOnHardFailure) {
  FaultInjector::Global().Configure(
      {{FaultSite::kSearchTopK, {1.0, 0}}}, 5);
  TableOpContext ctx(nullptr);
  EXPECT_FALSE(ctx.Attempt(FaultSite::kSearchTopK));
  EXPECT_TRUE(ctx.degraded());
  EXPECT_STREQ(ctx.degrade_reason(), "search.topk");
  // Degraded contexts short-circuit without another draw.
  EXPECT_FALSE(ctx.Attempt(FaultSite::kSearchTopK));
  EXPECT_EQ(FaultInjector::Global().trip_count(FaultSite::kSearchTopK), 1);
}

// ---------------------------------------------------------------------------
// Degraded pipeline behaviour on a hand-built KG (mirrors linker_test's
// fixture world).

class DegradedPipelineTest : public FaultInjectorTest {
 protected:
  void SetUp() override {
    human_ = kg_.AddEntity({"T1", "human", {}, "", true, false, false});
    album_type_ = kg_.AddEntity({"T3", "album", {}, "", true, false, false});
    peter_ = kg_.AddEntity(
        {"Q1", "Peter Steele", {}, "", false, true, false});
    rust_ = kg_.AddEntity({"Q2", "Rust", {}, "", false, false, false});
    mia_ = kg_.AddEntity({"Q4", "Mia Torv", {}, "", false, true, false});
    echo_ = kg_.AddEntity({"Q5", "Echo", {}, "", false, false, false});
    kg::PredicateId performer = kg_.AddPredicate("performer");
    kg_.AddTriple(peter_, kg::KnowledgeGraph::kInstanceOf, human_);
    kg_.AddTriple(mia_, kg::KnowledgeGraph::kInstanceOf, human_);
    kg_.AddTriple(rust_, kg::KnowledgeGraph::kInstanceOf, album_type_);
    kg_.AddTriple(echo_, kg::KnowledgeGraph::kInstanceOf, album_type_);
    kg_.AddTriple(rust_, performer, peter_);
    kg_.AddTriple(echo_, performer, mia_);
    ASSERT_TRUE(kg_.Finalize().ok());
    engine_ = std::make_unique<search::SearchEngine>(
        search::IndexKnowledgeGraph(kg_));
    tbl_ = table::Table::FromStrings(
        "mixed", {{"Rust", "Peter Steele", "10"},
                  {"Echo", "Mia Torv", "30"}});
  }

  kg::KnowledgeGraph kg_;
  kg::EntityId human_, album_type_, peter_, rust_, mia_, echo_;
  std::unique_ptr<search::SearchEngine> engine_;
  table::Table tbl_;
};

TEST_F(DegradedPipelineTest, AllFaultsYieldDegradedPlmOnlyTable) {
  obs::MetricsRegistry::Global().GetCounter("robust.degraded_tables")
      .Reset();
  FaultInjector::Global().Configure(
      {{FaultSite::kSearchTopK, {1.0, 0}}}, 5);
  linker::KgPipeline pipeline(&kg_, engine_.get(), {});
  linker::ProcessedTable out = pipeline.Process(tbl_);

  EXPECT_TRUE(out.degraded);
  // Rows kept in original order, invariants intact.
  EXPECT_EQ(out.kept_rows, (std::vector<int>{0, 1}));
  EXPECT_EQ(out.filtered.num_rows(), 2);
  ASSERT_EQ(out.row_links.size(), 2u);
  ASSERT_EQ(out.row_links[0].cells.size(), 3u);
  // No KG evidence anywhere...
  ASSERT_EQ(out.columns.size(), 3u);
  EXPECT_TRUE(out.columns[0].candidate_types.empty());
  EXPECT_FALSE(out.columns[0].has_feature);
  EXPECT_TRUE(out.columns[1].candidate_types.empty());
  // ...but numeric stats survive (they need no KG).
  EXPECT_TRUE(out.columns[2].is_numeric);
  EXPECT_EQ(out.columns[2].stats.mean, 20.0);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetCounter("robust.degraded_tables")
                .value(),
            1);
}

// A degraded table is counted, not logged: under faults or overload most
// tables can degrade, and a per-table warning would flood stderr.
TEST_F(DegradedPipelineTest, DegradedTableIsCountedNotLogged) {
  obs::Counter& degraded =
      obs::MetricsRegistry::Global().GetCounter("robust.degraded_tables");
  degraded.Reset();
  std::vector<std::string> lines;
  obs::SetLogSink([&lines](obs::LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  linker::KgPipeline pipeline(&kg_, engine_.get(), {});
  RequestContext rc;
  rc.deadline = Deadline::Expired();
  linker::ProcessedTable out = pipeline.Process(tbl_, &rc);
  obs::SetLogSink(nullptr);

  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.degrade_reason, "deadline");
  EXPECT_EQ(degraded.value(), 1);
  EXPECT_TRUE(lines.empty()) << lines.front();
}

TEST_F(DegradedPipelineTest, InjectedFaultIsNeverRetried) {
  // search.topk: the first trip degrades the whole table, so one Process
  // makes exactly one draw at the site.
  FaultInjector::Global().Configure(
      {{FaultSite::kSearchTopK, {1.0, 0}}}, 5);
  linker::KgPipeline pipeline(&kg_, engine_.get(), {});
  linker::ProcessedTable out = pipeline.Process(tbl_);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.degrade_reason, "search.topk");
  EXPECT_EQ(FaultInjector::Global().trip_count(FaultSite::kSearchTopK), 1);

  // io.read: a corpus read fails with kIoError on its first trip.
  FaultInjector::Global().Disable();
  std::string dir =
      (std::filesystem::temp_directory_path() / "kglink_never_retried")
          .string();
  std::filesystem::remove_all(dir);
  table::Corpus corpus;
  corpus.name = "tiny";
  corpus.label_names = {"album", "human", "year"};
  corpus.tables.push_back({tbl_, {0, 1, 2}});
  ASSERT_TRUE(table::SaveCorpus(corpus, dir).ok());
  FaultInjector::Global().Configure({{FaultSite::kIoRead, {1.0, 0}}}, 5);
  StatusOr<table::Corpus> loaded = table::LoadCorpus(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_EQ(FaultInjector::Global().trip_count(FaultSite::kIoRead), 1);

  FaultInjector::Global().Disable();
  EXPECT_TRUE(table::LoadCorpus(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST_F(DegradedPipelineTest, NoFaultsMatchesBaselineOutput) {
  linker::KgPipeline pipeline(&kg_, engine_.get(), {});
  linker::ProcessedTable baseline = pipeline.Process(tbl_);
  ASSERT_FALSE(baseline.degraded);
  ASSERT_FALSE(baseline.columns.empty());

  // Faults configured at probability 0 must not change anything.
  FaultInjector::Global().Configure(
      {{FaultSite::kSearchTopK, {0.0, 0}}}, 5);
  linker::ProcessedTable again = pipeline.Process(tbl_);
  EXPECT_FALSE(again.degraded);
  ASSERT_EQ(again.columns.size(), baseline.columns.size());
  for (size_t c = 0; c < baseline.columns.size(); ++c) {
    EXPECT_EQ(again.columns[c].candidate_type_labels,
              baseline.columns[c].candidate_type_labels);
    EXPECT_EQ(again.columns[c].feature_sequence,
              baseline.columns[c].feature_sequence);
  }
}

TEST_F(DegradedPipelineTest, SoftKgNeighborFaultsDegradeEvidenceNotTables) {
  // kg.neighbors is a soft site: with every neighbour lookup tripping, no
  // candidate survives Eq. 3 pruning (no overlap evidence), but the table
  // is still processed normally — not degraded.
  FaultInjector::Global().Configure(
      {{FaultSite::kKgNeighbors, {1.0, 0}}}, 5);
  linker::KgPipeline pipeline(&kg_, engine_.get(), {});
  linker::ProcessedTable out = pipeline.Process(tbl_);
  EXPECT_FALSE(out.degraded);
  for (const auto& col : out.columns) {
    EXPECT_TRUE(col.candidate_types.empty());
  }
}

// --- Deadline and cancellation (serving path) ----------------------------

TEST_F(FaultInjectorTest, ExpiredRequestDegradesAttemptEvenWithoutFaults) {
  // Deadline enforcement is not gated on fault injection being enabled:
  // an expired request degrades the very first Attempt.
  RequestContext rc;
  rc.deadline = Deadline::Expired();
  TableOpContext ctx(&rc);
  EXPECT_FALSE(ctx.Attempt(FaultSite::kSearchTopK));
  EXPECT_TRUE(ctx.degraded());
  EXPECT_STREQ(ctx.degrade_reason(), "deadline");
}

TEST_F(FaultInjectorTest, CancellationWinsOverExpiredDeadline) {
  RequestContext rc;
  rc.deadline = Deadline::Expired();
  rc.cancel = CancellationToken::Cancellable();
  rc.cancel.Cancel();
  TableOpContext ctx(&rc);
  EXPECT_FALSE(ctx.Attempt(FaultSite::kPredict));
  EXPECT_TRUE(ctx.degraded());
  EXPECT_STREQ(ctx.degrade_reason(), "cancelled");
}

TEST_F(FaultInjectorTest, PerRequestStreamsAreScheduleIndependent) {
  // Two contexts for the same stream key draw identical fault sequences
  // even when unrelated traffic hammers the injector's shared streams in
  // between — the property that makes concurrent chaos deterministic.
  ASSERT_TRUE(FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:0.5", 42)
                  .ok());
  // SoftFault draws from the same per-request stream as Attempt but never
  // degrades, so one context yields a whole sequence.
  auto draw = [&](uint64_t stream_key) {
    RequestContext rc;
    rc.stream_key = stream_key;
    TableOpContext ctx(&rc);
    std::vector<bool> out;
    for (int i = 0; i < 40; ++i) {
      out.push_back(ctx.SoftFault(FaultSite::kSearchTopK));
    }
    return out;
  };

  std::vector<bool> first = draw(7);
  // Unrelated shared-stream traffic between the two same-key runs.
  for (int i = 0; i < 100; ++i) {
    FaultInjector::Global().ShouldFail(FaultSite::kSearchTopK);
  }
  std::vector<bool> second = draw(7);
  std::vector<bool> other = draw(8);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, other);
}

TEST_F(FaultInjectorTest, SoftFaultDrawsWithoutBudgetOrDegrade) {
  ASSERT_TRUE(FaultInjector::Global()
                  .ConfigureFromSpec("kg.neighbors:1.0", 11)
                  .ok());
  TableOpContext ctx(nullptr);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ctx.SoftFault(FaultSite::kKgNeighbors));
  }
  EXPECT_FALSE(ctx.degraded());

  FaultInjector::Global().Disable();
  EXPECT_FALSE(ctx.SoftFault(FaultSite::kKgNeighbors));
}

}  // namespace
}  // namespace kglink::robust
