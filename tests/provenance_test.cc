// Decision-provenance tests: recorder arm/buffer semantics, gold-label
// context joins, and the end-to-end contract — an armed recorder plus a
// real Fit/Evaluate run yields one JSON-parseable record per table and
// column, carrying the BM25 hits, filter decisions, candidate types,
// degraded flag and final logits that --explain surfaces. The degraded
// path is exercised by forcing every BM25 retrieval to fail.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/annotator.h"
#include "data/corpus_gen.h"
#include "data/world.h"
#include "eval/explain_report.h"
#include "obs/json_util.h"
#include "obs/provenance.h"
#include "robust/fault_injector.h"
#include "search/search_engine.h"
#include "table/table.h"

namespace kglink {
namespace {

using obs::ProvenanceRecorder;

TEST(ProvenanceRecorderTest, GoldContextJoinsByTableAndColumn) {
  ProvenanceRecorder rec;
  EXPECT_EQ(rec.GoldFor("t1", 0), obs::kProvenanceNoGold);
  rec.SetTableGold("t1", {2, obs::kProvenanceNoGold, 0},
                   {"city", "film", "person"});
  EXPECT_EQ(rec.GoldFor("t1", 0), 2);
  EXPECT_EQ(rec.GoldFor("t1", 1), obs::kProvenanceNoGold);
  EXPECT_EQ(rec.GoldFor("t1", 2), 0);
  EXPECT_EQ(rec.GoldFor("t1", 3), obs::kProvenanceNoGold);  // out of range
  EXPECT_EQ(rec.GoldFor("other", 0), obs::kProvenanceNoGold);
  EXPECT_EQ(rec.GoldLabelName(2), "person");
  EXPECT_EQ(rec.GoldLabelName(9), "");
  rec.ClearTableGold();
  EXPECT_EQ(rec.GoldFor("t1", 0), obs::kProvenanceNoGold);
}

#if defined(KGLINK_OBS_ENABLED)

TEST(ProvenanceRecorderTest, BuffersOnlyWhileArmed) {
  ProvenanceRecorder rec;
  rec.Emit("{\"dropped\":true}");  // disarmed -> ignored
  EXPECT_EQ(rec.record_count(), 0u);
  rec.Start();
  EXPECT_TRUE(rec.enabled());
  rec.Emit("{\"a\":1}");
  rec.Emit("{\"b\":2}");
  rec.Stop();
  rec.Emit("{\"dropped\":true}");
  EXPECT_EQ(rec.record_count(), 2u);
  EXPECT_EQ(rec.Jsonl(), "{\"a\":1}\n{\"b\":2}\n");
  // Start() clears the previous capture.
  rec.Start();
  EXPECT_EQ(rec.record_count(), 0u);
  rec.Stop();
}

// Shared tiny world/model fixture: training is the expensive part, so the
// suite fits one annotator and reuses it across provenance runs.
class ProvenanceE2eTest : public ::testing::Test {
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
    core::KgLinkOptions o;
    o.epochs = 4;
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
  }

  void TearDown() override {
    robust::FaultInjector::Global().Disable();
    ProvenanceRecorder::Global().Stop();
  }

  static data::World* world_;
  static search::SearchEngine* engine_;
  static table::SplitCorpus* split_;
  static core::KgLinkAnnotator* annotator_;
};
data::World* ProvenanceE2eTest::world_ = nullptr;
search::SearchEngine* ProvenanceE2eTest::engine_ = nullptr;
table::SplitCorpus* ProvenanceE2eTest::split_ = nullptr;
core::KgLinkAnnotator* ProvenanceE2eTest::annotator_ = nullptr;

TEST_F(ProvenanceE2eTest, EvaluateEmitsParseableRecordsWithGold) {
  ProvenanceRecorder& rec = ProvenanceRecorder::Global();
  rec.Start();
  annotator_->Evaluate(split_->test);
  rec.Stop();

  std::vector<std::string> records = rec.Records();
  ASSERT_FALSE(records.empty());

  size_t tables = 0, columns = 0, with_gold = 0, with_hits = 0;
  std::set<std::string> evidence_seen;
  for (const std::string& record : records) {
    ASSERT_TRUE(obs::IsValidJson(record)) << record;
    std::optional<obs::JsonValue> v = obs::ParseJson(record);
    ASSERT_TRUE(v.has_value());
    std::string kind = v->StringOr("kind", "");
    if (kind == "table") {
      ++tables;
      EXPECT_NE(v->Find("kept_rows"), nullptr);
      EXPECT_FALSE(v->BoolOr("degraded", true));
      continue;
    }
    ASSERT_EQ(kind, "column") << record;
    ++columns;
    evidence_seen.insert(v->StringOr("kg_evidence", ""));

    // The decision evidence --explain promises: per-cell BM25 hits with
    // kept/dropped filter outcomes, candidate types, and final logits.
    const obs::JsonValue* cells = v->Find("cells");
    ASSERT_NE(cells, nullptr) << record;
    for (const obs::JsonValue& cell : cells->array) {
      const obs::JsonValue* retrieved = cell.Find("retrieved");
      ASSERT_NE(retrieved, nullptr);
      if (!retrieved->array.empty()) {
        ++with_hits;
        const obs::JsonValue& hit = retrieved->array[0];
        EXPECT_NE(hit.Find("entity"), nullptr);
        EXPECT_NE(hit.Find("bm25"), nullptr);
      }
      EXPECT_NE(cell.Find("kept"), nullptr);
      EXPECT_NE(cell.Find("dropped"), nullptr);
    }
    ASSERT_NE(v->Find("candidate_types"), nullptr) << record;
    const obs::JsonValue* logits = v->Find("logits");
    ASSERT_NE(logits, nullptr);
    EXPECT_EQ(logits->array.size(),
              static_cast<size_t>(split_->test.num_labels()));
    EXPECT_NE(v->Find("pred"), nullptr);
    if (v->Find("gold") != nullptr) {
      ++with_gold;
      EXPECT_FALSE(v->StringOr("gold_label", "").empty()) << record;
      EXPECT_NE(v->Find("correct"), nullptr);
    }
  }
  EXPECT_EQ(tables, split_->test.tables.size());
  EXPECT_GT(columns, 0u);
  EXPECT_GT(with_gold, 0u);
  EXPECT_GT(with_hits, 0u) << "no cell retrieved any BM25 hit";
  EXPECT_TRUE(evidence_seen.count("linked"))
      << "SemTab-like columns should carry KG evidence";

  // The aggregate report derives from the same JSONL without skips.
  eval::ExplainReport report = eval::BuildExplainReport(rec.Jsonl());
  EXPECT_EQ(report.tables, static_cast<int64_t>(tables));
  EXPECT_EQ(report.columns, static_cast<int64_t>(columns));
  EXPECT_EQ(report.skipped_lines, 0);
  EXPECT_EQ(report.overall.total, static_cast<int64_t>(with_gold));
  EXPECT_EQ(report.degraded.total, 0);
}

TEST_F(ProvenanceE2eTest, ForcedSearchFailureMarksRecordsDegraded) {
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:1.0", 42)
                  .ok());
  ProvenanceRecorder& rec = ProvenanceRecorder::Global();
  rec.Start();
  annotator_->PredictTable(split_->test.tables[0].table);
  rec.Stop();
  robust::FaultInjector::Global().Disable();

  size_t degraded_columns = 0;
  for (const std::string& record : rec.Records()) {
    std::optional<obs::JsonValue> v = obs::ParseJson(record);
    ASSERT_TRUE(v.has_value()) << record;
    if (v->StringOr("kind", "") == "table") {
      EXPECT_TRUE(v->BoolOr("degraded", false));
      EXPECT_FALSE(v->StringOr("degrade_reason", "").empty()) << record;
      continue;
    }
    EXPECT_EQ(v->StringOr("kg_evidence", ""), "degraded") << record;
    ++degraded_columns;
  }
  EXPECT_GT(degraded_columns, 0u);
}

TEST_F(ProvenanceE2eTest, HostileCellTextStaysParseable) {
  // A table whose cells carry quotes, control bytes and invalid UTF-8 must
  // still produce valid JSON records that round-trip the text.
  std::string hostile = "qu\"ote\\back\x01\xff\xc3";
  auto t = table::Table::TryFromStrings(
      "hostile.csv",
      {{"h1", "h2"}, {hostile, "plain"}, {"Another cell", "x"}});
  ASSERT_TRUE(t.ok()) << t.status().ToString();

  ProvenanceRecorder& rec = ProvenanceRecorder::Global();
  rec.Start();
  annotator_->PredictTable(*t);
  rec.Stop();

  bool saw_hostile = false;
  for (const std::string& record : rec.Records()) {
    ASSERT_TRUE(obs::IsValidJson(record)) << record;
    std::optional<obs::JsonValue> v = obs::ParseJson(record);
    ASSERT_TRUE(v.has_value());
    if (v->StringOr("kind", "") != "column") continue;
    const obs::JsonValue* cells = v->Find("cells");
    ASSERT_NE(cells, nullptr);
    for (const obs::JsonValue& cell : cells->array) {
      std::string text = cell.StringOr("text", "");
      if (text.find("qu\"ote") != std::string::npos) {
        saw_hostile = true;
        // Invalid bytes were sanitized to U+FFFD; the valid prefix and the
        // control character survive the round trip.
        EXPECT_NE(text.find('\x01'), std::string::npos);
        EXPECT_NE(text.find("\xef\xbf\xbd"), std::string::npos);
      }
    }
  }
  EXPECT_TRUE(saw_hostile);
}

TEST_F(ProvenanceE2eTest, DisarmedRecorderAddsNoRecords) {
  ProvenanceRecorder& rec = ProvenanceRecorder::Global();
  rec.Start();
  rec.Stop();  // armed then immediately disarmed: buffer is empty
  annotator_->PredictTable(split_->test.tables[0].table);
  EXPECT_EQ(rec.record_count(), 0u);
}

#else  // !KGLINK_OBS_ENABLED

TEST(ProvenanceDisabledTest, StartCannotArm) {
  ProvenanceRecorder rec;
  rec.Start();
  EXPECT_FALSE(rec.enabled());
  rec.Emit("{\"a\":1}");
  EXPECT_EQ(rec.record_count(), 0u);
}

#endif  // KGLINK_OBS_ENABLED

}  // namespace
}  // namespace kglink
