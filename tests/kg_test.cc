// KnowledgeGraph tests: construction, lookups, neighbourhoods, type
// hierarchy closure, persistence.
#include "kg/knowledge_graph.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace kglink::kg {
namespace {

// A small fixture graph:
//   human <- athlete <- basketball player (subclass chain)
//   lebron: instance of basketball player, member of lakers, born in akron
//   lakers: instance of team
class KgFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    human_ = kg_.AddEntity({"Q1", "human", {}, "", true, false, false});
    athlete_ = kg_.AddEntity({"Q2", "athlete", {}, "", true, false, false});
    bball_ = kg_.AddEntity(
        {"Q3", "basketball player", {}, "", true, false, false});
    team_type_ = kg_.AddEntity({"Q4", "team", {}, "", true, false, false});
    lebron_ = kg_.AddEntity({"Q5",
                             "LeBron James",
                             {"L. James", "King James"},
                             "a player",
                             false,
                             true,
                             false});
    lakers_ = kg_.AddEntity({"Q6", "Lakers", {}, "", false, false, false});
    akron_ = kg_.AddEntity({"Q7", "Akron", {}, "", false, false, false});
    member_of_ = kg_.AddPredicate("member of sports team");
    born_in_ = kg_.AddPredicate("place of birth");
    kg_.AddTriple(athlete_, KnowledgeGraph::kSubclassOf, human_);
    kg_.AddTriple(bball_, KnowledgeGraph::kSubclassOf, athlete_);
    kg_.AddTriple(lebron_, KnowledgeGraph::kInstanceOf, bball_);
    kg_.AddTriple(lakers_, KnowledgeGraph::kInstanceOf, team_type_);
    kg_.AddTriple(lebron_, member_of_, lakers_);
    kg_.AddTriple(lebron_, born_in_, akron_);
    ASSERT_TRUE(kg_.Finalize().ok());
  }

  KnowledgeGraph kg_;
  EntityId human_, athlete_, bball_, team_type_, lebron_, lakers_, akron_;
  PredicateId member_of_, born_in_;
};

TEST_F(KgFixture, BasicCounts) {
  EXPECT_EQ(kg_.num_entities(), 7);
  EXPECT_EQ(kg_.num_triples(), 6);
  EXPECT_EQ(kg_.num_predicates(), 4);  // 2 built-in + 2 custom
}

TEST_F(KgFixture, LookupByQidAndLabel) {
  EXPECT_EQ(kg_.FindByQid("Q5"), lebron_);
  EXPECT_EQ(kg_.FindByQid("Q99"), kInvalidEntity);
  auto ids = kg_.FindByLabel("LeBron James");
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], lebron_);
  EXPECT_TRUE(kg_.FindByLabel("Nobody").empty());
}

TEST_F(KgFixture, EdgesAreBidirectional) {
  bool found_forward = false;
  for (const Edge& e : kg_.Edges(lebron_)) {
    if (e.predicate == member_of_ && e.target == lakers_ && e.forward) {
      found_forward = true;
    }
  }
  EXPECT_TRUE(found_forward);
  bool found_reverse = false;
  for (const Edge& e : kg_.Edges(lakers_)) {
    if (e.predicate == member_of_ && e.target == lebron_ && !e.forward) {
      found_reverse = true;
    }
  }
  EXPECT_TRUE(found_reverse);
}

TEST_F(KgFixture, NeighborSetIsSortedUniqueBothDirections) {
  const auto& nbrs = kg_.NeighborSet(lebron_);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(), lakers_));
  EXPECT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(), akron_));
  EXPECT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(), bball_));
  EXPECT_FALSE(std::binary_search(nbrs.begin(), nbrs.end(), human_));
  // Reverse direction: the type entity sees its instances.
  EXPECT_TRUE(kg_.IsNeighbor(bball_, lebron_));
}

TEST_F(KgFixture, MutationAfterFinalizeDies) {
  EXPECT_DEATH(kg_.AddTriple(lebron_, member_of_, human_), "frozen");
  EXPECT_DEATH(kg_.AddEntity({"Q8", "Ohio", {}, "", false, false, false}),
               "frozen");
}

TEST(KgTest, QueryBeforeFinalizeDies) {
  KnowledgeGraph kg;
  EntityId id = kg.AddEntity({"Q1", "Rust", {}, "", false, false, false});
  EXPECT_DEATH(kg.NeighborSet(id), "before Finalize");
  EXPECT_DEATH(kg.FindByQid("Q1"), "before Finalize");
}

TEST_F(KgFixture, InstanceTypesAndSuperClasses) {
  auto types = kg_.InstanceTypes(lebron_);
  ASSERT_EQ(types.size(), 1u);
  EXPECT_EQ(types[0], bball_);
  auto supers = kg_.SuperClasses(bball_);
  ASSERT_EQ(supers.size(), 2u);
  EXPECT_TRUE(kg_.IsSubtypeOf(bball_, human_));
  EXPECT_TRUE(kg_.IsSubtypeOf(bball_, bball_));
  EXPECT_FALSE(kg_.IsSubtypeOf(human_, bball_));
}

TEST_F(KgFixture, SaveLoadRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "kglink_kg_test.tsv")
          .string();
  ASSERT_TRUE(kg_.SaveToFile(path).ok());
  auto loaded = KnowledgeGraph::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_entities(), kg_.num_entities());
  EXPECT_EQ(loaded->num_triples(), kg_.num_triples());
  EXPECT_EQ(loaded->num_predicates(), kg_.num_predicates());
  EntityId lebron2 = loaded->FindByQid("Q5");
  ASSERT_NE(lebron2, kInvalidEntity);
  const Entity& e = loaded->entity(lebron2);
  EXPECT_EQ(e.label, "LeBron James");
  EXPECT_TRUE(e.is_person);
  ASSERT_EQ(e.aliases.size(), 2u);
  EXPECT_EQ(e.aliases[1], "King James");
  EXPECT_TRUE(loaded->IsNeighbor(lebron2, loaded->FindByQid("Q6")));
  std::remove(path.c_str());
}

TEST_F(KgFixture, LoadRejectsCorruptTriples) {
  std::string path =
      (std::filesystem::temp_directory_path() / "kglink_kg_bad.tsv")
          .string();
  for (const char* text : {
           "E\tQ1\tthing\t-\t\t\nT\t0\t0\t99\n",
           // Two entities sharing a qid: rejected, not a process abort.
           "E\tQ1\tthing\t-\t\t\nE\tQ1\tother\t-\t\t\n",
       }) {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(text, f);
    std::fclose(f);
    auto loaded = KnowledgeGraph::LoadFromFile(path);
    ASSERT_FALSE(loaded.ok()) << text;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << text;
  }
  std::remove(path.c_str());
}

TEST(KgTest, DuplicateLabelsAllowed) {
  KnowledgeGraph kg;
  kg.AddEntity({"Q1", "Rust", {}, "", false, false, false});
  kg.AddEntity({"Q2", "Rust", {}, "", false, false, false});
  ASSERT_TRUE(kg.Finalize().ok());
  EXPECT_EQ(kg.FindByLabel("Rust"), (std::vector<EntityId>{0, 1}));
}

}  // namespace
}  // namespace kglink::kg
