// Shared data model for KGLink Part 1 (knowledge-graph candidate-type
// extraction, paper Section III-A).
#ifndef KGLINK_LINKER_TYPES_H_
#define KGLINK_LINKER_TYPES_H_

#include <string>
#include <vector>

#include "kg/knowledge_graph.h"
#include "table/table.h"

namespace kglink::linker {

// How the row filter orders rows before taking the top k (Table V).
enum class RowFilterMode {
  kLinkingScore,   // paper's filter: descending row linking score (Eq. 5)
  kOriginalOrder,  // baseline: keep the table's first k rows
};

struct LinkerConfig {
  // Paper settings: up to 10 entities retrieved per cell mention, up to 3
  // candidate types per column, top-k = 25 rows.
  int max_entities_per_cell = 10;
  int max_candidate_types = 3;
  int top_k_rows = 25;
  // Hard cap standing in for "all" (the paper retains at most 64 rows).
  int max_rows_cap = 64;
  // Edge budget when serializing the feature sequence S(e) (Eq. 9).
  int max_feature_edges = 8;
  RowFilterMode row_filter_mode = RowFilterMode::kLinkingScore;

  // Cell-link cache: memoizes cell-text -> BM25 TopK results across rows
  // and tables (entries; 0 disables the cache). Tables repeat cell values
  // heavily, so this turns most retrievals into a hash lookup. Surfaced as
  // kglink_cli --cell-cache N; observable as search.cache.* metrics.
  int cell_cache_capacity = 4096;
};

// One retrieved KG entity for a cell mention.
struct EntityCandidate {
  kg::EntityId entity = kg::kInvalidEntity;
  double linking_score = 0.0;  // BM25, Eq. 1
  double overlap_score = 0.0;  // Eq. 6 (set after pruning)
};

// Linking state of one table cell.
struct CellLinks {
  // False for NUMBER/DATE/empty cells: they are never linked and carry
  // linking score 0 (paper Section III-A step 1).
  bool linkable = false;
  std::vector<EntityCandidate> retrieved;  // E_m, size <= max_entities_per_cell
  std::vector<EntityCandidate> pruned;     // Ê_m after Eq. 3
  double score = 0.0;                      // ls_{m_c^r}, Eq. 4
};

// Linking state of one table row.
struct RowLinks {
  std::vector<CellLinks> cells;
  double row_score = 0.0;  // ls_r, Eq. 5
};

struct CandidateType {
  kg::EntityId entity = kg::kInvalidEntity;
  double score = 0.0;  // cts, Eq. 8
};

// KG-derived annotation of one column, consumed by the Part-2 serializer.
struct ColumnKgInfo {
  bool is_numeric = false;
  std::vector<CandidateType> candidate_types;  // <= max_candidate_types
  std::vector<std::string> candidate_type_labels;
  // Serialized S(e) (Eq. 9); empty when no entity was retrieved anywhere in
  // the column (the "w/o fv" statistic of Table III).
  std::string feature_sequence;
  bool has_feature = false;
  table::NumericStats stats;  // populated for numeric columns
};

// Output of the Part-1 pipeline for one table.
struct ProcessedTable {
  table::Table filtered;           // top-k rows, in filter order
  std::vector<int> kept_rows;      // original row indices, filter order
  std::vector<RowLinks> row_links; // parallel to kept_rows
  std::vector<ColumnKgInfo> columns;
  // True when the table's fault budget was exhausted and KG evidence was
  // dropped: rows kept in original order, no candidate types, no feature
  // sequences — the PLM-only fallback (numeric stats are still computed,
  // they need no KG). The paper's unlinkable-cell fallback, table-wide.
  // Downstream consumers (provenance records, the linked/unlinked/degraded
  // eval split) read this marker instead of inferring degradation from
  // empty KG evidence.
  bool degraded = false;
  // Why the table degraded ("" when degraded == false), e.g.
  // "failed op budget exhausted at search.topk".
  std::string degrade_reason;
};

}  // namespace kglink::linker

#endif  // KGLINK_LINKER_TYPES_H_
