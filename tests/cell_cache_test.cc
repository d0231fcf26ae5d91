// CellLinkCache unit tests (LRU semantics, stats, metrics) plus its
// integration with EntityLinker: repeated cell texts hit the cache with
// identical results, expired requests neither read nor poison it, and the
// concurrent test is part of the TSan suite (scripts/check.sh --tsan).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kg/knowledge_graph.h"
#include "linker/entity_linker.h"
#include "obs/metrics.h"
#include "robust/fault_injector.h"
#include "search/cell_link_cache.h"
#include "search/search_engine.h"
#include "table/table.h"
#include "util/deadline.h"

namespace kglink {
namespace {

using search::CellLinkCache;
using search::SearchResult;

std::vector<SearchResult> Results(int32_t doc_id) {
  return {{doc_id, static_cast<double>(doc_id) * 0.5}};
}

TEST(CellLinkCacheTest, GetReturnsWhatPutStored) {
  CellLinkCache cache(/*capacity=*/8, /*num_shards=*/1);
  std::vector<SearchResult> out;
  EXPECT_FALSE(cache.Get("rust", &out));
  cache.Put("rust", Results(7));
  ASSERT_TRUE(cache.Get("rust", &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].doc_id, 7);
  EXPECT_EQ(out[0].score, 3.5);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CellLinkCacheTest, LruEvictsLeastRecentlyUsed) {
  // One shard so the eviction order is exact.
  CellLinkCache cache(/*capacity=*/3, /*num_shards=*/1);
  cache.Put("a", Results(1));
  cache.Put("b", Results(2));
  cache.Put("c", Results(3));
  std::vector<SearchResult> out;
  // Touch "a" so "b" becomes the LRU entry.
  ASSERT_TRUE(cache.Get("a", &out));
  cache.Put("d", Results(4));
  EXPECT_FALSE(cache.Get("b", &out));
  EXPECT_TRUE(cache.Get("a", &out));
  EXPECT_TRUE(cache.Get("c", &out));
  EXPECT_TRUE(cache.Get("d", &out));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(CellLinkCacheTest, PutRefreshesExistingKey) {
  CellLinkCache cache(4, 1);
  cache.Put("k", Results(1));
  cache.Put("k", Results(9));
  std::vector<SearchResult> out;
  ASSERT_TRUE(cache.Get("k", &out));
  EXPECT_EQ(out[0].doc_id, 9);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0);
}

TEST(CellLinkCacheTest, EmptyResultVectorsAreCacheable) {
  // A *completed* TopK that found nothing is a legitimate value (the cell
  // is unlinkable); only deadline-truncated results are barred, by the
  // caller (EntityLinker skips Put on expiry).
  CellLinkCache cache(4, 1);
  cache.Put("no-match", {});
  std::vector<SearchResult> out = Results(3);
  ASSERT_TRUE(cache.Get("no-match", &out));
  EXPECT_TRUE(out.empty());
}

TEST(CellLinkCacheTest, CountersExportedToGlobalMetrics) {
  auto& reg = obs::MetricsRegistry::Global();
  int64_t hits0 = reg.GetCounter("search.cache.hits").value();
  int64_t misses0 = reg.GetCounter("search.cache.misses").value();
  int64_t evict0 = reg.GetCounter("search.cache.evictions").value();
  CellLinkCache cache(2, 1);
  std::vector<SearchResult> out;
  cache.Get("x", &out);              // miss
  cache.Put("x", Results(1));
  cache.Get("x", &out);              // hit
  cache.Put("y", Results(2));
  cache.Put("z", Results(3));        // evicts "x"
  EXPECT_EQ(reg.GetCounter("search.cache.hits").value() - hits0, 1);
  EXPECT_EQ(reg.GetCounter("search.cache.misses").value() - misses0, 1);
  EXPECT_EQ(reg.GetCounter("search.cache.evictions").value() - evict0, 1);
}

TEST(CellLinkCacheTest, TinyCapacityStillHoldsOneEntryPerShard) {
  // capacity < shards: the shard count shrinks rather than allotting zero
  // entries to a shard.
  CellLinkCache cache(/*capacity=*/2, /*num_shards=*/8);
  cache.Put("a", Results(1));
  std::vector<SearchResult> out;
  EXPECT_TRUE(cache.Get("a", &out));
  EXPECT_GE(cache.capacity(), 2u);
}

// The TSan-covered test: concurrent readers/writers over a shared key
// space. Any hit must carry the value that key was stored with — the
// sharded locking must never tear an entry or cross keys.
TEST(CellLinkCacheTest, ConcurrentGetPutKeepsEntriesConsistent) {
  CellLinkCache cache(/*capacity=*/64, /*num_shards=*/8);
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  constexpr int kKeys = 96;  // > capacity, so evictions run concurrently too
  std::vector<std::thread> workers;
  std::vector<int> bad_hits(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &bad_hits, t] {
      std::vector<SearchResult> out;
      for (int i = 0; i < kOps; ++i) {
        int key_id = (i * 31 + t * 7) % kKeys;
        std::string key = "cell-" + std::to_string(key_id);
        if (i % 3 == 0) {
          cache.Put(key, Results(key_id));
        } else if (cache.Get(key, &out)) {
          if (out.size() != 1 || out[0].doc_id != key_id) ++bad_hits[t];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad_hits[t], 0) << t;
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GT(cache.hits(), 0);
}

// --- EntityLinker integration ------------------------------------------

class LinkerCacheFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    rust_ = kg_.AddEntity({"Q1", "Rust", {}, "", false, false, false});
    echo_ = kg_.AddEntity({"Q2", "Echo", {}, "", false, false, false});
    ASSERT_TRUE(kg_.Finalize().ok());
    engine_ = std::make_unique<search::SearchEngine>(
        search::IndexKnowledgeGraph(kg_));
  }
  void TearDown() override { robust::FaultInjector::Global().Disable(); }

  kg::KnowledgeGraph kg_;
  kg::EntityId rust_, echo_;
  std::unique_ptr<search::SearchEngine> engine_;
};

TEST_F(LinkerCacheFixture, RepeatedCellTextsHitTheCache) {
  linker::LinkerConfig config;
  config.cell_cache_capacity = 128;
  linker::EntityLinker linker(&kg_, engine_.get(), config);
  ASSERT_NE(linker.cell_cache(), nullptr);
  table::Cell cell{"Rust", table::CellKind::kString, 0};
  linker::CellLinks first = linker.LinkCell(cell);
  linker::CellLinks second = linker.LinkCell(cell);
  EXPECT_EQ(linker.cell_cache()->misses(), 1);
  EXPECT_EQ(linker.cell_cache()->hits(), 1);
  ASSERT_EQ(first.retrieved.size(), second.retrieved.size());
  for (size_t i = 0; i < first.retrieved.size(); ++i) {
    EXPECT_EQ(first.retrieved[i].entity, second.retrieved[i].entity);
    EXPECT_EQ(first.retrieved[i].linking_score,
              second.retrieved[i].linking_score);
  }
  ASSERT_FALSE(first.retrieved.empty());
  EXPECT_EQ(first.retrieved[0].entity, rust_);
}

TEST_F(LinkerCacheFixture, ZeroCapacityDisablesTheCache) {
  linker::LinkerConfig config;
  config.cell_cache_capacity = 0;
  linker::EntityLinker linker(&kg_, engine_.get(), config);
  EXPECT_EQ(linker.cell_cache(), nullptr);
  table::Cell cell{"Rust", table::CellKind::kString, 0};
  // Still links correctly, straight through the engine.
  EXPECT_FALSE(linker.LinkCell(cell).retrieved.empty());
}

TEST_F(LinkerCacheFixture, ExpiredRequestNeitherReadsNorPoisonsCache) {
  linker::LinkerConfig config;
  config.cell_cache_capacity = 128;
  linker::EntityLinker linker(&kg_, engine_.get(), config);
  table::Cell cell{"Rust", table::CellKind::kString, 0};

  RequestContext expired;
  expired.deadline = Deadline::Expired();
  robust::TableOpContext ctx(&expired);
  linker::CellLinks degraded = linker.LinkCell(cell, &ctx);
  EXPECT_TRUE(degraded.retrieved.empty());
  // Nothing was stored: the truncated result must not poison later
  // lookups of the same cell text.
  EXPECT_EQ(linker.cell_cache()->size(), 0u);

  linker::CellLinks fresh = linker.LinkCell(cell);
  ASSERT_FALSE(fresh.retrieved.empty());
  EXPECT_EQ(fresh.retrieved[0].entity, rust_);
}

TEST_F(LinkerCacheFixture, ExpiredRequestNeverGetsACachedResult) {
  linker::LinkerConfig config;
  config.cell_cache_capacity = 128;
  linker::EntityLinker linker(&kg_, engine_.get(), config);
  table::Cell cell{"Rust", table::CellKind::kString, 0};
  // Warm the cache with the real result.
  ASSERT_FALSE(linker.LinkCell(cell).retrieved.empty());
  ASSERT_EQ(linker.cell_cache()->size(), 1u);

  RequestContext expired;
  expired.deadline = Deadline::Expired();
  robust::TableOpContext ctx(&expired);
  // The warm entry must not leak to an expired request — it degrades like
  // any other deadline miss instead of returning stale-but-fast data the
  // serving contract says it must not produce.
  linker::CellLinks got = linker.LinkCell(cell, &ctx);
  EXPECT_TRUE(got.retrieved.empty());
  EXPECT_EQ(linker.cell_cache()->hits(), 0);
}

TEST_F(LinkerCacheFixture, CacheHitsAreIndependentOfFaultDraws) {
  // The fault gate runs before the cache lookup, so the injected-fault
  // draw sequence for a fixed seed is identical whether or not the cache
  // is warm — chaos runs stay deterministic per seed. Same seed, two
  // linkers (cold vs warm cache): identical linkable/unlinkable pattern.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("search.topk:0.5", 42)
                  .ok());
  table::Cell cell{"Rust", table::CellKind::kString, 0};
  auto run = [&](bool warm) {
    linker::LinkerConfig config;
    config.cell_cache_capacity = 128;
    linker::EntityLinker linker(&kg_, engine_.get(), config);
    if (warm) linker.LinkCell(cell);  // no ctx: no fault draw, cache warm
    // A trip degrades its context, so each lookup gets a fresh one on its
    // own request stream.
    std::vector<bool> linkable;
    for (uint64_t i = 0; i < 16; ++i) {
      RequestContext rc;
      rc.stream_key = i;
      robust::TableOpContext ctx(&rc);
      linkable.push_back(linker.LinkCell(cell, &ctx).linkable);
    }
    return linkable;
  };
  EXPECT_EQ(run(/*warm=*/false), run(/*warm=*/true));
}

}  // namespace
}  // namespace kglink
