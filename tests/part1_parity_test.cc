// Golden parity of Part 1 against the hash-map reference in
// part1_reference.h: every table of a generated SemTab-like and VizNet-like
// corpus must come out of KgPipeline::Process bit-identical to the
// reference — kept rows, pruned candidates with overlap scores, row
// scores, candidate types with scores, and feature sequences — both clean
// and with "kg.neighbors" soft faults, which additionally pins the order
// of the fault draws.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/corpus_gen.h"
#include "data/world.h"
#include "linker/pipeline.h"
#include "part1_reference.h"
#include "robust/fault_injector.h"
#include "search/search_engine.h"

namespace kglink::linker {
namespace {

struct Shared {
  data::World world;
  search::SearchEngine engine;
  table::Corpus semtab;
  table::Corpus viznet;
  Shared()
      : world(data::GenerateWorld({.seed = 5})),
        engine(search::IndexKnowledgeGraph(world.kg)),
        semtab(data::GenerateSemTabCorpus(
            world, data::CorpusOptions::SemTabDefaults(40))),
        viznet(data::GenerateVizNetCorpus(
            world, data::CorpusOptions::VizNetDefaults(60))) {}
};

Shared& Env() {
  static Shared& env = *new Shared();
  return env;
}

std::vector<ProcessedTable> RunPipeline(const table::Corpus& corpus) {
  Shared& env = Env();
  KgPipeline pipeline(&env.world.kg, &env.engine, LinkerConfig{});
  std::vector<ProcessedTable> out;
  for (const table::LabeledTable& lt : corpus.tables) {
    out.push_back(pipeline.Process(lt.table));
  }
  return out;
}

std::vector<ProcessedTable> RunReference(const table::Corpus& corpus) {
  Shared& env = Env();
  EntityLinker linker(&env.world.kg, &env.engine, LinkerConfig{});
  std::vector<ProcessedTable> out;
  for (const table::LabeledTable& lt : corpus.tables) {
    out.push_back(reference::Process(linker, env.world.kg, lt.table));
  }
  return out;
}

void ExpectCorpusParity(const table::Corpus& corpus,
                        const std::vector<ProcessedTable>& got,
                        const std::vector<ProcessedTable>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    reference::ExpectSameProcessed(got[i], want[i],
                                   corpus.tables[i].table.id());
  }
}

// The corpus must exercise what the parity is about: pruned candidates,
// candidate types and feature sequences all occur.
void ExpectEvidence(const std::vector<ProcessedTable>& tables) {
  size_t pruned = 0, types = 0, features = 0;
  for (const ProcessedTable& pt : tables) {
    for (const RowLinks& row : pt.row_links) {
      for (const CellLinks& cell : row.cells) pruned += cell.pruned.size();
    }
    for (const ColumnKgInfo& col : pt.columns) {
      types += col.candidate_types.size();
      features += col.has_feature ? 1 : 0;
    }
  }
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(types, 0u);
  EXPECT_GT(features, 0u);
}

class Part1ParityTest : public ::testing::TestWithParam<bool> {
 protected:
  const table::Corpus& corpus() const {
    return GetParam() ? Env().semtab : Env().viznet;
  }
  void TearDown() override { robust::FaultInjector::Global().Disable(); }
};

TEST_P(Part1ParityTest, CleanRunMatchesReference) {
  std::vector<ProcessedTable> got = RunPipeline(corpus());
  std::vector<ProcessedTable> want = RunReference(corpus());
  ExpectEvidence(want);
  ExpectCorpusParity(corpus(), got, want);
}

TEST_P(Part1ParityTest, SoftFaultRunMatchesReference) {
  // Each run starts from the same reseeded "kg.neighbors" stream, shared
  // across the whole corpus: any change in the order or number of draws
  // shifts every later trip and shows up as a mismatch.
  robust::FaultInjector& faults = robust::FaultInjector::Global();
  ASSERT_TRUE(faults.ConfigureFromSpec("kg.neighbors:0.3", 2024).ok());
  std::vector<ProcessedTable> got = RunPipeline(corpus());
  int64_t trips = faults.trip_count(robust::FaultSite::kKgNeighbors);
  ASSERT_TRUE(faults.ConfigureFromSpec("kg.neighbors:0.3", 2024).ok());
  std::vector<ProcessedTable> want = RunReference(corpus());
  EXPECT_EQ(faults.trip_count(robust::FaultSite::kKgNeighbors), trips);
  faults.Disable();
  EXPECT_GT(trips, 0);
  ExpectCorpusParity(corpus(), got, want);

  // The faults changed the evidence, so the parity above is not the clean
  // run's parity again.
  auto pruned_count = [](const ProcessedTable& pt) {
    size_t n = 0;
    for (const RowLinks& row : pt.row_links) {
      for (const CellLinks& cell : row.cells) n += cell.pruned.size();
    }
    return n;
  };
  std::vector<ProcessedTable> clean = RunReference(corpus());
  size_t differing = 0;
  for (size_t i = 0; i < clean.size(); ++i) {
    differing += pruned_count(clean[i]) != pruned_count(want[i]);
  }
  EXPECT_GT(differing, 0u);
}

INSTANTIATE_TEST_SUITE_P(Corpora, Part1ParityTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return std::string(param.param ? "SemTab"
                                                          : "VizNet");
                         });

}  // namespace
}  // namespace kglink::linker
