// BM25 search-engine tests: exact Eq. 1/2 scoring, ranking behaviour, and
// BM25 properties (IDF monotonicity, term-frequency saturation, length
// normalization).
#include "search/search_engine.h"

#include <gtest/gtest.h>

#include <cmath>

namespace kglink::search {
namespace {

SearchEngine ThreeDocs() {
  SearchEngine e;
  e.AddDocument(0, "LeBron James");
  e.AddDocument(1, "James Harden");
  e.AddDocument(2, "Rust album");
  e.Finalize();
  return e;
}

TEST(SearchTest, IdfMatchesEq2) {
  SearchEngine e = ThreeDocs();
  // "james" appears in 2 of 3 docs.
  double expected = std::log((3 - 2 + 0.5) / (2 + 0.5) + 1.0);
  EXPECT_NEAR(e.Idf("james"), expected, 1e-12);
  // unseen term: n = 0.
  double unseen = std::log((3 - 0 + 0.5) / 0.5 + 1.0);
  EXPECT_NEAR(e.Idf("zzz"), unseen, 1e-12);
}

// Pins the documented unseen-term contract: Idf() is NOT 0 for terms
// absent from the index — with n(w)=0, Eq. 2 yields the maximum IDF
// ln((N + 0.5)/0.5 + 1) — yet unseen-only queries still match nothing.
TEST(SearchTest, UnseenTermIdfIsMaximalNotZero) {
  SearchEngine e = ThreeDocs();  // N = 3
  double max_idf = std::log((3 + 0.5) / 0.5 + 1.0);  // = ln(8)
  EXPECT_NEAR(e.Idf("unseen_term"), max_idf, 1e-12);
  EXPECT_NEAR(e.Idf("unseen_term"), std::log(8.0), 1e-12);
  EXPECT_GT(e.Idf("unseen_term"), 0.0);
  // Maximal: no indexed term can have a higher IDF.
  for (const char* term : {"lebron", "james", "harden", "rust", "album"}) {
    EXPECT_LT(e.Idf(term), max_idf);
  }
  // Unseen terms contribute nothing to retrieval or scoring.
  EXPECT_TRUE(e.TopK("unseen_term", 3).empty());
  EXPECT_EQ(e.Score("unseen_term", 0), 0.0);
}

TEST(SearchTest, ScoreMatchesHandComputedBm25) {
  Bm25Params params;  // k1=1.2, b=0.75
  SearchEngine e(params);
  e.AddDocument(10, "alpha beta");        // len 2
  e.AddDocument(11, "alpha alpha gamma"); // len 3
  e.AddDocument(12, "delta");             // len 1
  e.Finalize();
  double avg = 2.0;  // (2+3+1)/3
  EXPECT_DOUBLE_EQ(e.average_doc_length(), avg);
  // Score of doc 11 for query "alpha": f=2, len=3.
  double idf = std::log((3 - 2 + 0.5) / (2 + 0.5) + 1.0);
  double tf = 2.0 * (1.2 + 1.0) /
              (2.0 + 1.2 * (1 - 0.75 + 0.75 * 3.0 / avg));
  EXPECT_NEAR(e.Score("alpha", 11), idf * tf, 1e-12);
  // No overlap -> 0.
  EXPECT_EQ(e.Score("alpha", 12), 0.0);
}

TEST(SearchTest, TopKRanksExactMatchFirst) {
  SearchEngine e = ThreeDocs();
  auto results = e.TopK("LeBron James", 3);
  ASSERT_GE(results.size(), 2u);
  EXPECT_EQ(results[0].doc_id, 0);  // both terms match
  EXPECT_EQ(results[1].doc_id, 1);  // only "james"
  EXPECT_GT(results[0].score, results[1].score);
}

TEST(SearchTest, TopKOmitsZeroOverlap) {
  SearchEngine e = ThreeDocs();
  auto results = e.TopK("LeBron", 10);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].doc_id, 0);
  EXPECT_TRUE(e.TopK("zzz unknown", 10).empty());
}

TEST(SearchTest, TopKRespectsK) {
  SearchEngine e;
  for (int i = 0; i < 20; ++i) {
    e.AddDocument(i, "common word number" + std::to_string(i));
  }
  e.Finalize();
  EXPECT_EQ(e.TopK("common", 5).size(), 5u);
  EXPECT_EQ(e.TopK("common", 0).size(), 0u);
}

TEST(SearchTest, TiesBrokenByDocIdForDeterminism) {
  SearchEngine e;
  e.AddDocument(5, "same text");
  e.AddDocument(3, "same text");
  e.AddDocument(9, "same text");
  e.Finalize();
  auto results = e.TopK("same", 3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].doc_id, 3);
  EXPECT_EQ(results[1].doc_id, 5);
  EXPECT_EQ(results[2].doc_id, 9);
}

TEST(SearchTest, CaseAndPunctuationInsensitive) {
  SearchEngine e = ThreeDocs();
  EXPECT_GT(e.Score("LEBRON, james!", 0), 0.0);
  EXPECT_NEAR(e.Score("LEBRON, james!", 0), e.Score("lebron james", 0),
              1e-12);
}

TEST(SearchTest, RareTermOutweighsCommonTerm) {
  SearchEngine e;
  // "common" is in every doc; "rare" in one.
  e.AddDocument(0, "common rare");
  e.AddDocument(1, "common x");
  e.AddDocument(2, "common y");
  e.AddDocument(3, "common z");
  e.Finalize();
  EXPECT_GT(e.Idf("rare"), e.Idf("common"));
  auto results = e.TopK("rare", 4);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].doc_id, 0);
}

TEST(SearchTest, TermFrequencySaturates) {
  SearchEngine e;
  e.AddDocument(0, "word");
  e.AddDocument(1, "word word");
  e.AddDocument(2, "word word word word word word word word");
  // Pad lengths to be equal so only tf varies.
  e.Finalize();
  double s1 = e.Score("word", 0);
  double s2 = e.Score("word", 1);
  double s8 = e.Score("word", 2);
  EXPECT_GT(s2, s1);
  // Saturation: the step from 2 to 8 occurrences is sub-linear. (Length
  // normalization also penalizes doc 2, reinforcing the property.)
  EXPECT_LT(s8 - s2, 6 * (s2 - s1));
}

TEST(SearchTest, LengthNormalizationPenalizesLongDocs) {
  SearchEngine e;
  e.AddDocument(0, "target");
  e.AddDocument(1, "target plus many extra padding words here");
  e.Finalize();
  EXPECT_GT(e.Score("target", 0), e.Score("target", 1));
}

TEST(SearchTest, IndexKnowledgeGraphCoversAliases) {
  kg::KnowledgeGraph kg;
  kg.AddEntity({"Q1", "LeBron James", {"King James"}, "", false, true,
                false});
  kg.AddEntity({"Q2", "Someone Else", {}, "", false, true, false});
  ASSERT_TRUE(kg.Finalize().ok());
  SearchEngine e = IndexKnowledgeGraph(kg);
  auto results = e.TopK("King", 5);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].doc_id, 0);
}

// Property sweep: for any (k1, b) the top hit for an exact full-label
// query is the labelled document.
class Bm25ParamTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(Bm25ParamTest, ExactLabelWins) {
  auto [k1, b] = GetParam();
  SearchEngine e({k1, b});
  e.AddDocument(0, "Velmor Systems");
  e.AddDocument(1, "Velmor Harbor");
  e.AddDocument(2, "Systems of Tandry");
  e.Finalize();
  auto results = e.TopK("Velmor Systems", 3);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].doc_id, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Params, Bm25ParamTest,
    ::testing::Combine(::testing::Values(0.5, 1.2, 2.0),
                       ::testing::Values(0.0, 0.75, 1.0)));

}  // namespace
}  // namespace kglink::search
