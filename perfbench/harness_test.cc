// Unit tests of the benchmark's own helpers. Run them with
// `python3 perfbench/run.py --test`.
#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

namespace kglink::perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);  // 1..1000, reversed below
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(Percentile(v, 0.5), 500.0);
  EXPECT_EQ(Percentile(v, 0.99), 990.0);
  EXPECT_EQ(Percentile(v, 1.0), 1000.0);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  // ceil(0.99 * 101) = 100: the 100th smallest of 1..101.
  std::vector<double> w(101);
  std::iota(w.begin(), w.end(), 1.0);
  EXPECT_EQ(Percentile(w, 0.99), 100.0);
}

TEST(Percentile, SamplesBeyondP99) {
  // p99 has at least 10 samples beyond it from 1000 samples on.
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(4177, 0.99), 41u);
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
}

TEST(Percentile, MedianOverWindows) {
  // Three windows of 4: p99s 4, 40, 8 -> median 8; the partial fourth
  // window (1000) is dropped.
  std::vector<double> v = {1, 2, 3, 4, 10, 20, 30, 40, 5, 6, 7, 8, 1000};
  EXPECT_EQ(MedianWindowPercentile(v, 4, 0.99), 8.0);
  EXPECT_EQ(MedianWindowPercentile(v, 4, 0.5), 6.0);  // p50s 2, 20, 6
  // Fewer samples than one window: the plain percentile.
  EXPECT_EQ(MedianWindowPercentile({3, 1, 2}, 4, 0.5), 2.0);
}

TEST(PoissonSchedule, DeterministicPerSeed) {
  auto a = PoissonSchedule(7, 500.0, 2.0, 100, 1.1);
  auto b = PoissonSchedule(7, 500.0, 2.0, 100, 1.1);
  auto c = PoissonSchedule(8, 500.0, 2.0, 100, 1.1);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_us, b[i].due_us);
    EXPECT_EQ(a[i].table, b[i].table);
  }
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_us != c[i].due_us || a[i].table != c[i].table;
  }
  EXPECT_TRUE(differs);
}

TEST(PoissonSchedule, RateOrderAndPopularity) {
  auto s = PoissonSchedule(3, 1000.0, 5.0, 50, 1.1);
  // 5000 expected arrivals; a Poisson count is within 5 sigma (~350).
  EXPECT_NEAR(static_cast<double>(s.size()), 5000.0, 350.0);
  std::vector<int> hits(50, 0);
  for (size_t i = 0; i < s.size(); ++i) {
    ASSERT_LT(s[i].due_us, 5'000'000);
    ASSERT_LT(s[i].table, 50u);
    if (i > 0) {
      ASSERT_GE(s[i].due_us, s[i - 1].due_us);
    }
    ++hits[s[i].table];
  }
  EXPECT_GT(hits[0], hits[10]);  // zipfian: rank 0 is the most popular
  EXPECT_TRUE(PoissonSchedule(3, 0.0, 5.0, 50, 1.1).empty());
}

TEST(Accuracy, ComparesLabelNamesNotIds) {
  const std::vector<std::string> model = {"city", "film", "person"};
  // Gold names in another corpus's numbering; "" = unlabelled column.
  AccuracyTally t = TallyByName({0, 2, 1, 1}, model,
                                {"city", "film", "film", ""});
  EXPECT_EQ(t.total, 3);
  EXPECT_EQ(t.correct, 2);
  EXPECT_NEAR(t.Percent(), 200.0 / 3.0, 1e-12);
  // Out-of-range predictions are wrong, never a crash.
  AccuracyTally bad = TallyByName({7, -1}, model, {"city", "city"});
  EXPECT_EQ(bad.correct, 0);
  EXPECT_EQ(bad.total, 2);
}

TEST(Accuracy, MergeByNameRemapsLabels) {
  table::Corpus a, b;
  a.name = "a";
  a.label_names = {"city", "film"};
  a.tables.push_back({table::Table("a0", 1, 2), {1, 0}});
  b.name = "b";
  b.label_names = {"person", "city"};
  b.tables.push_back({table::Table("b0", 1, 3), {1, table::kUnlabeled, 0}});
  table::Corpus m = MergeByName({&a, &b});
  ASSERT_EQ(m.tables.size(), 2u);
  ASSERT_EQ(m.num_labels(), 3);
  for (size_t i = 0; i < m.tables.size(); ++i) {
    const table::Corpus& src = i == 0 ? a : b;
    EXPECT_EQ(GoldNames(m.tables[i], m), GoldNames(src.tables[0], src));
  }
  EXPECT_EQ(GoldNames(m.tables[1], m),
            (std::vector<std::string>{"city", "", "person"}));
}

TEST(CacheRegime, DistinctCellTextsCountsStringCellsOnce) {
  table::Table a = table::Table::FromStrings(
      "a", {{"Paris", "12"}, {"Rome", "7"}, {"Paris", "3"}});
  table::Table b = table::Table::FromStrings("b", {{"Rome", "Oslo"}});
  EXPECT_EQ(DistinctCellTexts({&a, &b}), 3u);  // numbers are never linked
}

}  // namespace
}  // namespace kglink::perfbench
