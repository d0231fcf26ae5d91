// Crash-safety fuzz over the snapshot loader: every truncation prefix and
// every single-byte flip of a real snapshot must load cleanly or fail with
// a structured error — never crash, never trip a sanitizer. Uses a small
// hand-built KG so the file is a few KB and the sweep stays exhaustive.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "kg/knowledge_graph.h"
#include "search/search_engine.h"
#include "store/snapshot.h"
#include "store/snapshot_format.h"
#include "store/snapshot_writer.h"
#include "util/csv.h"

namespace kglink::store {
namespace {

kg::KnowledgeGraph SmallKg() {
  kg::KnowledgeGraph kg;
  kg::PredicateId born_in = kg.AddPredicate("born in");
  kg::EntityId type_city = kg.AddEntity(
      {"Q1", "city", {"town", "municipality"}, "a large settlement", true});
  kg::EntityId type_person =
      kg.AddEntity({"Q2", "human", {"person"}, "a people", true});
  kg::EntityId akron =
      kg.AddEntity({"Q3", "Akron", {"Akron Ohio"}, "city in Ohio"});
  kg::EntityId lebron = kg.AddEntity(
      {"Q4", "LeBron James", {"King James"}, "basketball player", false,
       true});
  kg::EntityId cle = kg.AddEntity({"Q5", "Cleveland", {}, "city in Ohio"});
  kg.AddTriple(akron, kg::KnowledgeGraph::kInstanceOf, type_city);
  kg.AddTriple(cle, kg::KnowledgeGraph::kInstanceOf, type_city);
  kg.AddTriple(lebron, kg::KnowledgeGraph::kInstanceOf, type_person);
  kg.AddTriple(lebron, born_in, akron);
  KGLINK_CHECK(kg.Finalize().ok());
  return kg;
}

class StoreFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kg_ = SmallKg();
    engine_ = search::IndexKnowledgeGraph(kg_);
    path_ = ::testing::TempDir() + "store_fuzz_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_TRUE(WriteSnapshot(path_, kg_, engine_, {}).ok());
    auto bytes = ReadFile(path_);
    ASSERT_TRUE(bytes.ok());
    bytes_ = *bytes;
  }

  // Loads `mutated` end to end (Open + both views) and, when everything
  // validates, exercises the borrowed views so any bad pointer the
  // validator missed would be dereferenced under ASan/UBSan. Returns
  // whether the load fully succeeded.
  bool LoadAndExercise(const std::string& mutated, ValidateMode mode) {
    std::string target = path_ + ".mut";
    EXPECT_TRUE(WriteFile(target, mutated).ok());
    LoadOptions options;
    options.validate = mode;
    auto snap = Snapshot::Open(target, options);
    if (!snap.ok()) return false;
    auto engine = (*snap)->MakeEngine();
    auto graph = (*snap)->MakeKg();
    if (!engine.ok() || !graph.ok()) return false;
    auto results = engine->TopK("LeBron James", 3);
    for (const auto& r : results) engine->Score("LeBron James", r.doc_id);
    for (kg::EntityId id = 0; id < graph->num_entities(); ++id) {
      for (const kg::Edge& e : graph->Edges(id)) {
        EXPECT_GE(e.target, 0);
        EXPECT_LT(e.target, graph->num_entities());
      }
      graph->NeighborSet(id);
      graph->InstanceTypes(id);
    }
    return true;
  }

  kg::KnowledgeGraph kg_;
  search::SearchEngine engine_;
  std::string path_;
  std::string bytes_;
};

TEST_F(StoreFuzzTest, EveryTruncationPrefixLoadsCleanOrFails) {
  // A snapshot of the small KG is a few KB; sweep every prefix length.
  ASSERT_LT(bytes_.size(), 64u * 1024);
  for (size_t len = 0; len < bytes_.size(); ++len) {
    std::string truncated = bytes_.substr(0, len);
    EXPECT_FALSE(LoadAndExercise(truncated, ValidateMode::kEager))
        << "truncation to " << len << " bytes validated as a full snapshot";
    // Lazy mode must be equally crash-free (it may defer the failure to
    // MakeEngine/MakeKg, which LoadAndExercise also runs).
    LoadAndExercise(truncated, ValidateMode::kLazy);
  }
  // Sanity: the untruncated file loads.
  EXPECT_TRUE(LoadAndExercise(bytes_, ValidateMode::kEager));
}

TEST_F(StoreFuzzTest, EverySingleByteFlipIsCaughtEagerly) {
  for (size_t pos = 0; pos < bytes_.size(); ++pos) {
    std::string flipped = bytes_;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xFF);
    // Eager validation covers every byte: header + section CRCs, the
    // whole-file CRC, and the trailing magic. No flip may slip through.
    EXPECT_FALSE(LoadAndExercise(flipped, ValidateMode::kEager))
        << "flip at byte " << pos << " validated as clean";
  }
}

TEST_F(StoreFuzzTest, SingleByteFlipsNeverCrashLazyLoads) {
  // Lazy mode skips the whole-file CRC, so flips in inter-section padding
  // can validate; the requirement is crash-freedom and structural sanity
  // of whatever loads (LoadAndExercise dereferences the views).
  for (size_t pos = 0; pos < bytes_.size(); ++pos) {
    std::string flipped = bytes_;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0xFF);
    LoadAndExercise(flipped, ValidateMode::kLazy);
  }
}

TEST_F(StoreFuzzTest, RandomMultiByteCorruptionNeverCrashes) {
  // Deterministic xorshift; multiple simultaneous corruptions per trial.
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 256; ++trial) {
    std::string mutated = bytes_;
    int edits = 1 + static_cast<int>(next() % 8);
    for (int e = 0; e < edits; ++e) {
      size_t pos = next() % mutated.size();
      mutated[pos] = static_cast<char>(next());
    }
    LoadAndExercise(mutated, ValidateMode::kEager);
    LoadAndExercise(mutated, ValidateMode::kLazy);
  }
}

}  // namespace
}  // namespace kglink::store
