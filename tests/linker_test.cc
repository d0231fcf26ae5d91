// Part-1 pipeline tests: BM25 cell linking, Eq. 3 pruning, Eq. 4-6 scores,
// row filtering, candidate-type generation with the PERSON/DATE filter,
// and feature sequences — on a hand-built KG where the right answers are
// known exactly. A generated world adds the per-thread counter cases:
// growth across KGs on one thread, and Process from several threads.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "data/corpus_gen.h"
#include "data/world.h"
#include "linker/candidate_types.h"
#include "linker/entity_linker.h"
#include "linker/feature_sequence.h"
#include "linker/pipeline.h"
#include "linker/row_filter.h"
#include "part1_reference.h"
#include "robust/fault_injector.h"
#include "search/search_engine.h"

namespace kglink::linker {
namespace {

// Fixture world: two musicians with albums (Fig. 5's scenario).
//   peter "Peter Steele" --instance of--> human(person type, but entity
//     flagged person)  --performer of--> rust
//   rust "Rust" --instance of--> album_type
//   decoy "Rust" (no edges) -- linking ambiguity
//   mia "Mia Torv" --performer of--> echo "Echo"
class LinkerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    human_ = kg_.AddEntity({"T1", "human", {}, "", true, false, false});
    musician_ = kg_.AddEntity({"T2", "musician", {}, "", true, false, false});
    album_type_ = kg_.AddEntity({"T3", "album", {}, "", true, false, false});
    peter_ = kg_.AddEntity(
        {"Q1", "Peter Steele", {}, "", false, true, false});
    rust_ = kg_.AddEntity({"Q2", "Rust", {}, "", false, false, false});
    decoy_rust_ = kg_.AddEntity({"Q3", "Rust", {}, "", false, false, false});
    mia_ = kg_.AddEntity({"Q4", "Mia Torv", {}, "", false, true, false});
    echo_ = kg_.AddEntity({"Q5", "Echo", {}, "", false, false, false});
    performer_ = kg_.AddPredicate("performer");
    kg_.AddTriple(peter_, kg::KnowledgeGraph::kInstanceOf, human_);
    kg_.AddTriple(peter_, kg::KnowledgeGraph::kInstanceOf, musician_);
    kg_.AddTriple(mia_, kg::KnowledgeGraph::kInstanceOf, musician_);
    kg_.AddTriple(rust_, kg::KnowledgeGraph::kInstanceOf, album_type_);
    kg_.AddTriple(echo_, kg::KnowledgeGraph::kInstanceOf, album_type_);
    kg_.AddTriple(rust_, performer_, peter_);
    kg_.AddTriple(echo_, performer_, mia_);
    ASSERT_TRUE(kg_.Finalize().ok());
    engine_ = std::make_unique<search::SearchEngine>(
        search::IndexKnowledgeGraph(kg_));
    // Fig. 5 table: album | artist.
    tbl_ = table::Table::FromStrings(
        "fig5", {{"Rust", "Peter Steele"}, {"Echo", "Mia Torv"}});
  }

  LinkerConfig config_;
  kg::KnowledgeGraph kg_;
  kg::EntityId human_, musician_, album_type_, peter_, rust_, decoy_rust_,
      mia_, echo_;
  kg::PredicateId performer_;
  std::unique_ptr<search::SearchEngine> engine_;
  table::Table tbl_;
};

TEST_F(LinkerFixture, NumberAndDateCellsGetZeroScore) {
  EntityLinker linker(&kg_, engine_.get(), config_);
  table::Cell number{"1993", table::CellKind::kNumber, 1993};
  CellLinks links = linker.LinkCell(number);
  EXPECT_FALSE(links.linkable);
  EXPECT_TRUE(links.retrieved.empty());
  EXPECT_EQ(links.score, 0.0);
  table::Cell date{"1993-05-01", table::CellKind::kDate, 0};
  EXPECT_FALSE(linker.LinkCell(date).linkable);
}

TEST_F(LinkerFixture, LinkCellRetrievesBothRustEntities) {
  EntityLinker linker(&kg_, engine_.get(), config_);
  table::Cell cell{"Rust", table::CellKind::kString, 0};
  CellLinks links = linker.LinkCell(cell);
  ASSERT_EQ(links.retrieved.size(), 2u);
  std::set<kg::EntityId> ids = {links.retrieved[0].entity,
                                links.retrieved[1].entity};
  EXPECT_TRUE(ids.count(rust_));
  EXPECT_TRUE(ids.count(decoy_rust_));
}

TEST_F(LinkerFixture, OverlapPruningDropsTheDecoy) {
  // Fig. 5's red link: Rust--performer--Peter Steele means only the real
  // Rust survives pruning, because the decoy has no neighbours in the
  // other column's retrieved set.
  EntityLinker linker(&kg_, engine_.get(), config_);
  RowLinks row = linker.LinkRow(tbl_, 0);
  const CellLinks& album_cell = row.cells[0];
  ASSERT_EQ(album_cell.pruned.size(), 1u);
  EXPECT_EQ(album_cell.pruned[0].entity, rust_);
  EXPECT_GT(album_cell.pruned[0].overlap_score, 0.0);
  const CellLinks& artist_cell = row.cells[1];
  ASSERT_EQ(artist_cell.pruned.size(), 1u);
  EXPECT_EQ(artist_cell.pruned[0].entity, peter_);
  // Row score = sum of max pruned linking scores (Eq. 4-5).
  EXPECT_NEAR(row.row_score, album_cell.score + artist_cell.score, 1e-9);
  EXPECT_GT(row.row_score, 0.0);
}

TEST_F(LinkerFixture, RowFilterOrdersByScore) {
  LinkerConfig config;
  config.top_k_rows = 2;
  std::vector<double> scores = {0.5, 3.0, 1.0, 2.0};
  auto kept = FilterRows(scores, config);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], 1);
  EXPECT_EQ(kept[1], 3);
  config.row_filter_mode = RowFilterMode::kOriginalOrder;
  kept = FilterRows(scores, config);
  EXPECT_EQ(kept[0], 0);
  EXPECT_EQ(kept[1], 1);
}

TEST_F(LinkerFixture, RowFilterAllModeCaps) {
  LinkerConfig config;
  config.top_k_rows = 0;  // "all"
  config.max_rows_cap = 3;
  std::vector<double> scores = {1, 2, 3, 4, 5};
  EXPECT_EQ(FilterRows(scores, config).size(), 3u);
}

TEST_F(LinkerFixture, CandidateTypesVoteAcrossRows) {
  EntityLinker linker(&kg_, engine_.get(), config_);
  std::vector<RowLinks> rows = {linker.LinkRow(tbl_, 0),
                                linker.LinkRow(tbl_, 1)};
  // Artist column: 'musician' is a one-hop neighbour (instance of) of both
  // Peter and Mia -> corroborated across 2 rows.
  auto artist_types = GenerateCandidateTypes(kg_, rows, 1, config_);
  ASSERT_FALSE(artist_types.empty());
  EXPECT_EQ(artist_types[0].entity, musician_);
  // Album column: 'album' type from both Rust and Echo.
  auto album_types = GenerateCandidateTypes(kg_, rows, 0, config_);
  ASSERT_FALSE(album_types.empty());
  EXPECT_EQ(album_types[0].entity, album_type_);
}

TEST_F(LinkerFixture, PersonEntitiesFilteredFromCandidateTypes) {
  EntityLinker linker(&kg_, engine_.get(), config_);
  std::vector<RowLinks> rows = {linker.LinkRow(tbl_, 0),
                                linker.LinkRow(tbl_, 1)};
  for (int col = 0; col < 2; ++col) {
    for (const auto& ct : GenerateCandidateTypes(kg_, rows, col, config_)) {
      EXPECT_FALSE(kg_.entity(ct.entity).is_person)
          << kg_.entity(ct.entity).label;
    }
  }
}

TEST_F(LinkerFixture, SingleRowYieldsNoCandidateTypes) {
  // Eq. 8's corroboration requirement: one row cannot vote alone.
  EntityLinker linker(&kg_, engine_.get(), config_);
  std::vector<RowLinks> rows = {linker.LinkRow(tbl_, 0)};
  EXPECT_TRUE(GenerateCandidateTypes(kg_, rows, 0, config_).empty());
}

TEST_F(LinkerFixture, FeatureSequenceSerializesNeighbourhood) {
  std::string s = SerializeFeatureSequence(kg_, peter_, config_);
  EXPECT_NE(s.find("Peter Steele"), std::string::npos);
  EXPECT_NE(s.find("instance of"), std::string::npos);
  EXPECT_NE(s.find("musician"), std::string::npos);
  EXPECT_NE(s.find("performer"), std::string::npos);
}

TEST_F(LinkerFixture, FeatureSequenceRespectsEdgeBudget) {
  LinkerConfig config;
  config.max_feature_edges = 1;
  std::string s = SerializeFeatureSequence(kg_, peter_, config);
  // Only one " | " separator section.
  size_t first = s.find(" | ");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(s.find(" | ", first + 3), std::string::npos);
}

TEST_F(LinkerFixture, SelectFeatureEntityFallsBackToRetrieved) {
  // A single-column table: pruning removes everything (no other columns),
  // but retrieval still supplies the feature entity.
  table::Table single = table::Table::FromStrings("s", {{"Rust"}});
  EntityLinker linker(&kg_, engine_.get(), config_);
  std::vector<RowLinks> rows = {linker.LinkRow(single, 0)};
  EXPECT_TRUE(rows[0].cells[0].pruned.empty());
  kg::EntityId id = SelectFeatureEntity(rows, 0);
  EXPECT_NE(id, kg::kInvalidEntity);
}

TEST_F(LinkerFixture, PipelineEndToEnd) {
  KgPipeline pipeline(&kg_, engine_.get(), config_);
  ProcessedTable pt = pipeline.Process(tbl_);
  EXPECT_EQ(pt.filtered.num_rows(), 2);
  EXPECT_EQ(pt.columns.size(), 2u);
  EXPECT_FALSE(pt.columns[0].is_numeric);
  ASSERT_FALSE(pt.columns[1].candidate_types.empty());
  EXPECT_EQ(pt.columns[1].candidate_type_labels[0], "musician");
  EXPECT_TRUE(pt.columns[0].has_feature);
  EXPECT_TRUE(pt.columns[1].has_feature);
}

TEST_F(LinkerFixture, PipelineNumericColumnGetsStatsNotLinks) {
  table::Table t = table::Table::FromStrings(
      "nums", {{"Rust", "10"}, {"Echo", "20"}, {"Rust", "30"}});
  KgPipeline pipeline(&kg_, engine_.get(), config_);
  ProcessedTable pt = pipeline.Process(t);
  ASSERT_EQ(pt.columns.size(), 2u);
  EXPECT_TRUE(pt.columns[1].is_numeric);
  EXPECT_FALSE(pt.columns[1].has_feature);
  EXPECT_TRUE(pt.columns[1].candidate_types.empty());
  EXPECT_DOUBLE_EQ(pt.columns[1].stats.mean, 20.0);
  EXPECT_DOUBLE_EQ(pt.columns[1].stats.median, 20.0);
}

TEST_F(LinkerFixture, PipelineTopKLimitsRows) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({"Rust", "Peter Steele"});
  table::Table t = table::Table::FromStrings("big", rows);
  LinkerConfig config;
  config.top_k_rows = 4;
  KgPipeline pipeline(&kg_, engine_.get(), config);
  ProcessedTable pt = pipeline.Process(t);
  EXPECT_EQ(pt.filtered.num_rows(), 4);
  EXPECT_EQ(pt.kept_rows.size(), 4u);
  EXPECT_EQ(pt.row_links.size(), 4u);
}

TEST_F(LinkerFixture, UnlinkableTableHasNoKgInfo) {
  table::Table t = table::Table::FromStrings(
      "none", {{"Zzyx Qwfp", "Vbnm Hjkl"}, {"Qqq Www", "Rrr Ttt"}});
  KgPipeline pipeline(&kg_, engine_.get(), config_);
  ProcessedTable pt = pipeline.Process(t);
  for (const auto& col : pt.columns) {
    EXPECT_TRUE(col.candidate_types.empty());
    EXPECT_FALSE(col.has_feature);
  }
}

TEST_F(LinkerFixture, DegradedLinkRowIsPaddedToFullWidth) {
  // Regression: a context that degrades mid-row used to return a RowLinks
  // with fewer cells than the table has columns, and
  // GenerateCandidateTypes indexed cells[col] out of bounds. With every
  // search.topk attempt failing, the context degrades at the first cell;
  // the row must still span all columns, padded unlinkable.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:1.0", 42)
                  .ok());
  EntityLinker linker(&kg_, engine_.get(), config_);
  robust::TableOpContext ctx(nullptr);
  RowLinks row = linker.LinkRow(tbl_, 0);
  RowLinks degraded = linker.LinkRow(tbl_, 0, &ctx);
  robust::FaultInjector::Global().Disable();
  ASSERT_TRUE(ctx.degraded());
  ASSERT_EQ(degraded.cells.size(), static_cast<size_t>(tbl_.num_cols()));
  for (const CellLinks& cell : degraded.cells) {
    EXPECT_TRUE(cell.retrieved.empty());
    EXPECT_TRUE(cell.pruned.empty());
  }
  // Downstream consumers index cells[col] per column: the padded row must
  // be safe for every column (this crashed / was UB before the fix).
  std::vector<RowLinks> rows = {degraded, row};
  for (int c = 0; c < tbl_.num_cols(); ++c) {
    auto types = GenerateCandidateTypes(kg_, rows, c, config_);
    (void)types;
  }
}

TEST_F(LinkerFixture, CandidateTypesTolerateShortRows) {
  // Belt-and-braces for the same bug: even a hand-built short row (as a
  // hypothetical future caller might produce) must not read out of
  // bounds — missing cells count as unlinked.
  EntityLinker linker(&kg_, engine_.get(), config_);
  RowLinks full = linker.LinkRow(tbl_, 0);
  RowLinks short_row;
  short_row.cells.resize(1);
  // Column 1 is past the short row's width; column 0 still aggregates the
  // two full rows (two distinct supporting rows, as Eq. 8 requires).
  std::vector<RowLinks> rows = {short_row, full, full};
  auto artist_types = GenerateCandidateTypes(kg_, rows, /*col=*/1, config_);
  EXPECT_FALSE(artist_types.empty());
  auto album_types = GenerateCandidateTypes(kg_, rows, /*col=*/0, config_);
  ASSERT_FALSE(album_types.empty());
  EXPECT_EQ(album_types[0].entity, album_type_);
  // SelectFeatureEntity reads the same cells and skips the short row too.
  EXPECT_EQ(SelectFeatureEntity(rows, /*col=*/1), peter_);
  EXPECT_EQ(SelectFeatureEntity(rows, /*col=*/0), rust_);
  std::vector<RowLinks> only_short = {short_row};
  EXPECT_EQ(SelectFeatureEntity(only_short, /*col=*/1), kg::kInvalidEntity);
}

// A generated world far larger than the fixture KG, for the per-thread
// scratch and concurrency cases.
struct GeneratedWorld {
  data::World world;
  search::SearchEngine engine;
  table::Corpus corpus;
  GeneratedWorld()
      : world(data::GenerateWorld({.seed = 9, .scale = 0.5})),
        engine(search::IndexKnowledgeGraph(world.kg)),
        corpus(data::GenerateSemTabCorpus(
            world, data::CorpusOptions::SemTabDefaults(12))) {}
};

GeneratedWorld& Generated() {
  static GeneratedWorld& env = *new GeneratedWorld();
  return env;
}

// LinkRow over every row, then candidate types for every column.
struct Part1Result {
  std::vector<RowLinks> rows;
  std::vector<std::vector<CandidateType>> types;
};

Part1Result RunPart1(const kg::KnowledgeGraph& kg,
                     const search::SearchEngine& engine,
                     const table::Table& t, const LinkerConfig& config) {
  EntityLinker linker(&kg, &engine, config);
  Part1Result out;
  for (int r = 0; r < t.num_rows(); ++r) {
    out.rows.push_back(linker.LinkRow(t, r));
  }
  for (int c = 0; c < t.num_cols(); ++c) {
    out.types.push_back(GenerateCandidateTypes(kg, out.rows, c, config));
  }
  return out;
}

void ExpectSamePart1(const Part1Result& a, const Part1Result& b,
                     const std::string& where) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << where;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    reference::ExpectSameRow(a.rows[r], b.rows[r],
                             where + " row " + std::to_string(r));
  }
  ASSERT_EQ(a.types.size(), b.types.size()) << where;
  for (size_t c = 0; c < a.types.size(); ++c) {
    reference::ExpectSameTypes(a.types[c], b.types[c],
                               where + " col " + std::to_string(c));
  }
}

TEST_F(LinkerFixture, ScratchGrowsAndShrinksAcrossKgsOnOneThread) {
  // LinkRow and GenerateCandidateTypes keep per-thread counters sized to
  // the largest KG the thread has seen. One thread runs the small fixture
  // KG, then a generated world, then the small KG again; every result must
  // equal what a fresh thread (empty scratch) computes for the same input.
  GeneratedWorld& big = Generated();
  const table::Table& big_table = big.corpus.tables[0].table;
  auto small = [&] { return RunPart1(kg_, *engine_, tbl_, config_); };
  auto large = [&] {
    return RunPart1(big.world.kg, big.engine, big_table, config_);
  };
  auto on_fresh_thread = [](auto fn) {
    Part1Result result;
    std::thread([&] { result = fn(); }).join();
    return result;
  };

  Part1Result small_first, large_second, small_third;
  std::thread([&] {
    small_first = small();
    large_second = large();
    small_third = small();
  }).join();

  ASSERT_GT(big.world.kg.num_entities(), 50 * kg_.num_entities());
  ASSERT_FALSE(small_first.types[0].empty());
  ExpectSamePart1(small_first, on_fresh_thread(small), "small, first");
  ExpectSamePart1(large_second, on_fresh_thread(large), "large, second");
  ExpectSamePart1(small_third, on_fresh_thread(small), "small, third");
}

TEST(LinkerConcurrencyTest, ParallelProcessMatchesSequential) {
  // Process is const and concurrent by contract; the per-thread counters
  // must keep it so. Four threads share one pipeline (and its cell cache)
  // and walk the corpus from different starting tables.
  GeneratedWorld& env = Generated();
  KgPipeline pipeline(&env.world.kg, &env.engine, LinkerConfig{});
  const std::vector<table::LabeledTable>& tables = env.corpus.tables;
  std::vector<ProcessedTable> sequential;
  for (const table::LabeledTable& lt : tables) {
    sequential.push_back(pipeline.Process(lt.table));
  }

  constexpr size_t kThreads = 4;
  std::vector<std::vector<ProcessedTable>> parallel(
      kThreads, std::vector<ProcessedTable>(tables.size()));
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (size_t k = 0; k < tables.size(); ++k) {
        size_t i = (k + w * tables.size() / kThreads) % tables.size();
        parallel[w][i] = pipeline.Process(tables[i].table);
      }
    });
  }
  for (std::thread& t : workers) t.join();

  for (size_t w = 0; w < kThreads; ++w) {
    for (size_t i = 0; i < tables.size(); ++i) {
      reference::ExpectSameProcessed(
          parallel[w][i], sequential[i],
          "thread " + std::to_string(w) + " " + tables[i].table.id());
    }
  }
}

TEST_F(LinkerFixture, NonAsciiLabelsLinkEndToEnd) {
  // Regression for the ASCII-only tokenizer: accented and CJK labels used
  // to tokenize to nothing, making their cells silently unlinkable.
  kg::KnowledgeGraph kg;
  kg::EntityId city_type =
      kg.AddEntity({"T1", "city", {}, "", true, false, false});
  kg::EntityId koeln =
      kg.AddEntity({"Q1", "Köln", {"Cologne"}, "", false, false, false});
  kg::EntityId tokyo =
      kg.AddEntity({"Q2", "東京", {"Tokyo"}, "", false, false, false});
  kg::EntityId rhine =
      kg.AddEntity({"Q3", "Rhein", {}, "", false, false, false});
  kg::EntityId sumida =
      kg.AddEntity({"Q4", "隅田川", {"Sumida"}, "", false, false, false});
  kg::PredicateId river = kg.AddPredicate("river");
  kg.AddTriple(koeln, kg::KnowledgeGraph::kInstanceOf, city_type);
  kg.AddTriple(tokyo, kg::KnowledgeGraph::kInstanceOf, city_type);
  kg.AddTriple(koeln, river, rhine);
  kg.AddTriple(tokyo, river, sumida);
  ASSERT_TRUE(kg.Finalize().ok());
  search::SearchEngine engine = search::IndexKnowledgeGraph(kg);

  EntityLinker linker(&kg, &engine, config_);
  table::Cell koeln_cell{"Köln", table::CellKind::kString, 0};
  CellLinks links = linker.LinkCell(koeln_cell);
  ASSERT_FALSE(links.retrieved.empty());
  EXPECT_EQ(links.retrieved[0].entity, koeln);

  // Whole-row linking with the overlap pruning, all through non-ASCII
  // mentions: city column | river column.
  table::Table t = table::Table::FromStrings(
      "cities", {{"Köln", "Rhein"}, {"東京", "隅田川"}});
  RowLinks row0 = linker.LinkRow(t, 0);
  ASSERT_EQ(row0.cells.size(), 2u);
  ASSERT_FALSE(row0.cells[0].pruned.empty());
  EXPECT_EQ(row0.cells[0].pruned[0].entity, koeln);
  RowLinks row1 = linker.LinkRow(t, 1);
  ASSERT_FALSE(row1.cells[0].pruned.empty());
  EXPECT_EQ(row1.cells[0].pruned[0].entity, tokyo);
}

}  // namespace
}  // namespace kglink::linker
