// Test-only reference for Part 1's counting steps: the per-row hash-map
// Eq. 3/6 overlap counting and the hash-map Eq. 7-8 candidate voting that
// src/linker/ replaced with stamped dense counters. Cell linking, the row
// filter and the feature entity go through the production functions, so a
// mismatch against KgPipeline::Process points at the counting. Also holds
// the exact-equality checks the Part-1 tests share.
#ifndef KGLINK_TESTS_PART1_REFERENCE_H_
#define KGLINK_TESTS_PART1_REFERENCE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "kg/knowledge_graph.h"
#include "linker/entity_linker.h"
#include "linker/feature_sequence.h"
#include "linker/row_filter.h"
#include "linker/types.h"
#include "robust/fault_injector.h"
#include "table/table.h"

namespace kglink::linker::reference {

// Steps 1+2 for one row, as EntityLinker::LinkRow computes them, with the
// "kg.neighbors" soft-fault draws interleaved with the neighbour counting.
inline RowLinks LinkRow(const EntityLinker& linker,
                        const kg::KnowledgeGraph& kg,
                        const table::Table& table, int row,
                        robust::TableOpContext* ctx = nullptr) {
  RowLinks out;
  int cols = table.num_cols();
  for (int c = 0; c < cols; ++c) {
    out.cells.push_back(linker.LinkCell(table.at(row, c), ctx));
    if (ctx != nullptr && ctx->degraded()) {
      out.cells.resize(static_cast<size_t>(cols));
      return out;
    }
  }
  std::vector<std::unordered_map<kg::EntityId, int>> neighbor_counts(
      static_cast<size_t>(cols));
  for (int c = 0; c < cols; ++c) {
    for (const EntityCandidate& cand : out.cells[static_cast<size_t>(c)].retrieved) {
      if (ctx != nullptr &&
          ctx->SoftFault(robust::FaultSite::kKgNeighbors)) {
        continue;
      }
      for (kg::EntityId nbr : kg.NeighborSet(cand.entity)) {
        ++neighbor_counts[static_cast<size_t>(c)][nbr];
      }
    }
  }
  for (int c1 = 0; c1 < cols; ++c1) {
    CellLinks& cell = out.cells[static_cast<size_t>(c1)];
    for (const EntityCandidate& cand : cell.retrieved) {
      int support = 0;
      for (int c2 = 0; c2 < cols; ++c2) {
        if (c2 == c1) continue;
        auto it = neighbor_counts[static_cast<size_t>(c2)].find(cand.entity);
        if (it != neighbor_counts[static_cast<size_t>(c2)].end()) {
          support += it->second;
        }
      }
      if (support > 0) {
        EntityCandidate pruned = cand;
        pruned.overlap_score = static_cast<double>(support);
        cell.pruned.push_back(pruned);
      }
    }
    for (const EntityCandidate& cand : cell.pruned) {
      cell.score = std::max(cell.score, cand.linking_score);
    }
    out.row_score += cell.score;
  }
  return out;
}

// Step 3 (Eq. 7-8), as GenerateCandidateTypes computes it.
inline std::vector<CandidateType> CandidateTypes(
    const kg::KnowledgeGraph& kg, const std::vector<RowLinks>& row_links,
    int col, const LinkerConfig& config) {
  struct Accum {
    double score = 0.0;
    std::unordered_set<int> rows;
  };
  std::unordered_map<kg::EntityId, Accum> accum;
  for (size_t r = 0; r < row_links.size(); ++r) {
    if (static_cast<size_t>(col) >= row_links[r].cells.size()) continue;
    const CellLinks& cell = row_links[r].cells[static_cast<size_t>(col)];
    for (const EntityCandidate& cand : cell.pruned) {
      for (kg::EntityId ct : kg.NeighborSet(cand.entity)) {
        const kg::Entity& e = kg.entity(ct);
        if (e.is_person || e.is_date) continue;
        Accum& a = accum[ct];
        a.score += cand.overlap_score;
        a.rows.insert(static_cast<int>(r));
      }
    }
  }
  std::vector<CandidateType> out;
  for (const auto& [entity, a] : accum) {
    if (a.rows.size() < 2) continue;
    out.push_back({entity, a.score});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.entity < b.entity;
  });
  if (static_cast<int>(out.size()) > config.max_candidate_types) {
    out.resize(static_cast<size_t>(config.max_candidate_types));
  }
  return out;
}

// KgPipeline::Process for a table that no fault degrades (soft faults
// only), built from the two reference steps above.
inline ProcessedTable Process(const EntityLinker& linker,
                              const kg::KnowledgeGraph& kg,
                              const table::Table& table) {
  const LinkerConfig& config = linker.config();
  robust::TableOpContext ctx(nullptr);
  std::vector<RowLinks> all_rows;
  std::vector<double> row_scores;
  for (int r = 0; r < table.num_rows(); ++r) {
    all_rows.push_back(LinkRow(linker, kg, table, r, &ctx));
    row_scores.push_back(all_rows.back().row_score);
  }
  EXPECT_FALSE(ctx.degraded()) << table.id();

  ProcessedTable out;
  out.kept_rows = FilterRows(row_scores, config);
  out.filtered = table.SelectRows(out.kept_rows);
  for (int r : out.kept_rows) {
    out.row_links.push_back(all_rows[static_cast<size_t>(r)]);
  }
  out.columns.resize(static_cast<size_t>(table.num_cols()));
  for (int c = 0; c < table.num_cols(); ++c) {
    ColumnKgInfo& info = out.columns[static_cast<size_t>(c)];
    info.is_numeric = table.IsNumericColumn(c);
    if (info.is_numeric) {
      info.stats = table.ColumnStats(c);
      continue;
    }
    for (const CandidateType& ct :
         CandidateTypes(kg, out.row_links, c, config)) {
      info.candidate_types.push_back(ct);
      info.candidate_type_labels.push_back(kg.entity(ct.entity).label);
    }
    kg::EntityId feature_entity = SelectFeatureEntity(out.row_links, c);
    if (feature_entity != kg::kInvalidEntity) {
      info.has_feature = true;
      info.feature_sequence =
          SerializeFeatureSequence(kg, feature_entity, config);
    }
  }
  return out;
}

// Exact equality: doubles compare by bit pattern.
inline uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

inline void ExpectSameCandidates(const std::vector<EntityCandidate>& a,
                                 const std::vector<EntityCandidate>& b,
                                 const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].entity, b[i].entity) << where << " #" << i;
    EXPECT_EQ(Bits(a[i].linking_score), Bits(b[i].linking_score))
        << where << " #" << i;
    EXPECT_EQ(Bits(a[i].overlap_score), Bits(b[i].overlap_score))
        << where << " #" << i;
  }
}

inline void ExpectSameRow(const RowLinks& a, const RowLinks& b,
                          const std::string& where) {
  EXPECT_EQ(Bits(a.row_score), Bits(b.row_score)) << where;
  ASSERT_EQ(a.cells.size(), b.cells.size()) << where;
  for (size_t c = 0; c < a.cells.size(); ++c) {
    std::string cell_where = where + " col " + std::to_string(c);
    EXPECT_EQ(a.cells[c].linkable, b.cells[c].linkable) << cell_where;
    EXPECT_EQ(Bits(a.cells[c].score), Bits(b.cells[c].score)) << cell_where;
    ExpectSameCandidates(a.cells[c].retrieved, b.cells[c].retrieved,
                         cell_where + " retrieved");
    ExpectSameCandidates(a.cells[c].pruned, b.cells[c].pruned,
                         cell_where + " pruned");
  }
}

inline void ExpectSameTypes(const std::vector<CandidateType>& a,
                            const std::vector<CandidateType>& b,
                            const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].entity, b[i].entity) << where << " #" << i;
    EXPECT_EQ(Bits(a[i].score), Bits(b[i].score)) << where << " #" << i;
  }
}

inline void ExpectSameProcessed(const ProcessedTable& a,
                                const ProcessedTable& b,
                                const std::string& where) {
  EXPECT_EQ(a.degraded, b.degraded) << where;
  EXPECT_EQ(a.degrade_reason, b.degrade_reason) << where;
  EXPECT_EQ(a.kept_rows, b.kept_rows) << where;
  ASSERT_EQ(a.filtered.num_rows(), b.filtered.num_rows()) << where;
  ASSERT_EQ(a.filtered.num_cols(), b.filtered.num_cols()) << where;
  for (int r = 0; r < a.filtered.num_rows(); ++r) {
    for (int c = 0; c < a.filtered.num_cols(); ++c) {
      EXPECT_EQ(a.filtered.at(r, c).text, b.filtered.at(r, c).text)
          << where << " cell " << r << "," << c;
    }
  }
  ASSERT_EQ(a.row_links.size(), b.row_links.size()) << where;
  for (size_t r = 0; r < a.row_links.size(); ++r) {
    ExpectSameRow(a.row_links[r], b.row_links[r],
                  where + " kept row " + std::to_string(r));
  }
  ASSERT_EQ(a.columns.size(), b.columns.size()) << where;
  for (size_t c = 0; c < a.columns.size(); ++c) {
    const ColumnKgInfo& x = a.columns[c];
    const ColumnKgInfo& y = b.columns[c];
    std::string col_where = where + " col " + std::to_string(c);
    EXPECT_EQ(x.is_numeric, y.is_numeric) << col_where;
    ExpectSameTypes(x.candidate_types, y.candidate_types, col_where);
    EXPECT_EQ(x.candidate_type_labels, y.candidate_type_labels) << col_where;
    EXPECT_EQ(x.has_feature, y.has_feature) << col_where;
    EXPECT_EQ(x.feature_sequence, y.feature_sequence) << col_where;
    EXPECT_EQ(Bits(x.stats.mean), Bits(y.stats.mean)) << col_where;
    EXPECT_EQ(Bits(x.stats.variance), Bits(y.stats.variance)) << col_where;
    EXPECT_EQ(Bits(x.stats.median), Bits(y.stats.median)) << col_where;
    EXPECT_EQ(x.stats.count, y.stats.count) << col_where;
  }
}

}  // namespace kglink::linker::reference

#endif  // KGLINK_TESTS_PART1_REFERENCE_H_
