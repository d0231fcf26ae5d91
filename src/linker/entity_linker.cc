#include "linker/entity_linker.h"

#include <algorithm>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/scope.h"

namespace kglink::linker {

namespace {

struct LinkerMetrics {
  obs::Counter& cells_linked;    // string cells sent to BM25
  obs::Counter& cells_skipped;   // numeric/date cells (linking score 0)
  obs::Counter& cands_retrieved; // raw BM25 candidates
  obs::Counter& cands_kept;      // candidates surviving Eq. 3 pruning

  static LinkerMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static LinkerMetrics& m = *new LinkerMetrics{
        reg.GetCounter("linker.cells.linked"),
        reg.GetCounter("linker.cells.skipped"),
        reg.GetCounter("linker.candidates.retrieved"),
        reg.GetCounter("linker.candidates.kept")};
    return m;
  }
};

// Per-thread LinkRow scratch. The neighbour counter is dense over entity
// ids and cleared by bumping a stamp per column (the TopKScratch idiom of
// search_engine.cc); it grows to the largest KG seen by the thread. The
// support tallies are one row's, flattened over columns.
struct OverlapScratch {
  struct Slot {
    int32_t count = 0;
    uint32_t stamp = 0;
  };
  std::vector<Slot> slots;
  uint32_t cur = 0;
  std::vector<int> support;       // Eq. 6 support per candidate
  std::vector<size_t> col_begin;  // column c's candidates start here

  void Grow(size_t num_entities) {
    if (slots.size() < num_entities) slots.resize(num_entities);
  }
  void NextColumn() {
    if (++cur == 0) {  // stamp wrap: invalidate everything once per 2^32
      for (Slot& slot : slots) slot.stamp = 0;
      cur = 1;
    }
  }
  void Add(kg::EntityId e) {
    Slot& slot = slots[static_cast<size_t>(e)];
    if (slot.stamp == cur) {
      ++slot.count;
    } else {
      slot.stamp = cur;
      slot.count = 1;
    }
  }
  // Ids outside the KG count as unsupported instead of reading out of
  // bounds.
  int Count(kg::EntityId e) const {
    size_t i = static_cast<size_t>(e);
    return i < slots.size() && slots[i].stamp == cur ? slots[i].count : 0;
  }

  static OverlapScratch& Get() {
    thread_local OverlapScratch scratch;
    return scratch;
  }
};

}  // namespace

EntityLinker::EntityLinker(const kg::KnowledgeGraph* kg,
                           const search::SearchEngine* engine,
                           LinkerConfig config)
    : kg_(kg), engine_(engine), config_(config) {
  KGLINK_CHECK(kg_ != nullptr);
  KGLINK_CHECK(engine_ != nullptr);
  KGLINK_CHECK(engine_->finalized());
  if (config_.cell_cache_capacity > 0) {
    cache_ = std::make_unique<search::CellLinkCache>(
        static_cast<size_t>(config_.cell_cache_capacity));
  }
}

void EntityLinker::Rebind(const kg::KnowledgeGraph* kg,
                          const search::SearchEngine* engine) {
  KGLINK_CHECK(kg != nullptr);
  KGLINK_CHECK(engine != nullptr);
  KGLINK_CHECK(engine->finalized());
  kg_ = kg;
  engine_ = engine;
  if (cache_) cache_->Clear();
}

CellLinks EntityLinker::LinkCell(const table::Cell& cell,
                                 robust::TableOpContext* ctx) const {
  LinkerMetrics& metrics = LinkerMetrics::Get();
  CellLinks links;
  // Numbers and dates are unsuitable for KG linking: linking score 0
  // (paper Section III-A step 1 / Section IV preamble).
  if (cell.kind != table::CellKind::kString) {
    metrics.cells_skipped.Add();
    return links;
  }
  // Retrieval can fail in a real deployment (the paper's Elasticsearch
  // lookup). A trip degrades the context, so this cell comes back
  // unlinkable and KgPipeline::Process replaces the whole table with the
  // PLM-only fallback. This gate stays ahead of the cache lookup so the
  // injected-fault draw sequence is independent of cache hits (per-seed
  // chaos determinism).
  if (ctx != nullptr &&
      !ctx->Attempt(robust::FaultSite::kSearchTopK)) {
    return links;
  }
  metrics.cells_linked.Add();
  links.linkable = true;

  const RequestContext* rc = ctx != nullptr ? ctx->request() : nullptr;
  // An already-expired request bypasses the cache in both directions: it
  // gets the empty short-circuit TopK result (never a cached full one),
  // and nothing it produces is stored.
  bool expired = rc != nullptr && rc->Expired();
  std::vector<search::SearchResult> hits;
  bool cached = false;
  if (cache_ != nullptr && !expired) {
    KGLINK_SCOPE(obs::Stage::kCellCache, rc);
    cached = cache_->Get(cell.text, &hits);
    if (cached) {
      KGLINK_TELEMETRY_COUNT(rc, cache_hits, 1);
    } else {
      KGLINK_TELEMETRY_COUNT(rc, cache_misses, 1);
    }
  }
  if (!cached) {
    hits = engine_->TopK(cell.text, config_.max_entities_per_cell, rc);
    // A request that expired *during* TopK got a truncated (empty) result;
    // caching it would poison every later lookup of this cell text.
    if (cache_ != nullptr && !expired &&
        (rc == nullptr || !rc->Expired())) {
      KGLINK_SCOPE(obs::Stage::kCellCache, rc);
      cache_->Put(cell.text, hits);
    }
  }
  for (const search::SearchResult& hit : hits) {
    links.retrieved.push_back({hit.doc_id, hit.score, 0.0});
  }
  metrics.cands_retrieved.Add(static_cast<int64_t>(links.retrieved.size()));
  return links;
}

RowLinks EntityLinker::LinkRow(const table::Table& table, int row,
                               robust::TableOpContext* ctx) const {
  RowLinks out;
  int cols = table.num_cols();
  out.cells.reserve(static_cast<size_t>(cols));
  for (int c = 0; c < cols; ++c) {
    out.cells.push_back(LinkCell(table.at(row, c), ctx));
    if (ctx != nullptr && ctx->degraded()) {
      // Invariant: a RowLinks always spans the full row. Pad the cells the
      // degradation skipped as empty/unlinkable so downstream per-column
      // consumers (GenerateCandidateTypes indexes cells[col]) never read
      // out of bounds on a partial row.
      out.cells.resize(static_cast<size_t>(cols));
      return out;
    }
  }

  // Eq. 3 pruning + Eq. 6 overlap scores: a candidate's support is the
  // number of candidate entities in the *other* columns that have it as a
  // one-hop neighbour; it is kept when the support is positive. Column
  // c2's neighbour multiset goes into the stamped counter, then is read
  // once per candidate of every other column c1.
  OverlapScratch& s = OverlapScratch::Get();
  s.Grow(static_cast<size_t>(kg_->num_entities()));
  s.col_begin.assign(1, 0);
  for (const CellLinks& cell : out.cells) {
    s.col_begin.push_back(s.col_begin.back() + cell.retrieved.size());
  }
  s.support.assign(s.col_begin.back(), 0);
  for (int c2 = 0; c2 < cols; ++c2) {
    s.NextColumn();
    for (const EntityCandidate& cand :
         out.cells[static_cast<size_t>(c2)].retrieved) {
      // "kg.neighbors" is a soft fault site: a trip drops one candidate's
      // neighbour evidence (it just loses overlap support) and never
      // degrades. Draws run column by column, candidate by candidate.
      if (ctx != nullptr &&
          ctx->SoftFault(robust::FaultSite::kKgNeighbors)) {
        continue;
      }
      for (kg::EntityId nbr : kg_->NeighborSet(cand.entity)) s.Add(nbr);
    }
    for (int c1 = 0; c1 < cols; ++c1) {
      if (c1 == c2) continue;
      const std::vector<EntityCandidate>& cands1 =
          out.cells[static_cast<size_t>(c1)].retrieved;
      size_t begin = s.col_begin[static_cast<size_t>(c1)];
      for (size_t i = 0; i < cands1.size(); ++i) {
        s.support[begin + i] += s.Count(cands1[i].entity);
      }
    }
  }

  int64_t total_kept = 0;
  for (int c1 = 0; c1 < cols; ++c1) {
    CellLinks& cell = out.cells[static_cast<size_t>(c1)];
    size_t begin = s.col_begin[static_cast<size_t>(c1)];
    for (size_t i = 0; i < cell.retrieved.size(); ++i) {
      const EntityCandidate& cand = cell.retrieved[i];
      int support = s.support[begin + i];
      if (support > 0) {
        EntityCandidate pruned = cand;
        pruned.overlap_score = static_cast<double>(support);
        cell.pruned.push_back(pruned);
      }
    }
    // Eq. 4: cell linking score = max BM25 score among pruned candidates.
    for (const EntityCandidate& cand : cell.pruned) {
      cell.score = std::max(cell.score, cand.linking_score);
    }
    total_kept += static_cast<int64_t>(cell.pruned.size());
    out.row_score += cell.score;  // Eq. 5
  }
  LinkerMetrics::Get().cands_kept.Add(total_kept);
  return out;
}

}  // namespace kglink::linker
