#include "linker/candidate_types.h"

#include <algorithm>
#include <cstdint>

#include "obs/metrics.h"

namespace kglink::linker {

namespace {

// Per-thread Eq. 8 accumulator, dense over entity ids and cleared by
// bumping a stamp per call (the TopKScratch idiom of search_engine.cc). It
// grows to the largest KG seen by the thread; `touched` lists the slots
// this call wrote.
struct VoteScratch {
  struct Slot {
    double score = 0.0;     // accumulated cts
    int32_t rows = 0;       // distinct supporting rows
    int32_t last_row = -1;  // the last row that supported this type
    uint32_t stamp = 0;
  };
  std::vector<Slot> slots;
  std::vector<kg::EntityId> touched;
  uint32_t cur = 0;

  void Begin(size_t num_entities) {
    if (slots.size() < num_entities) slots.resize(num_entities);
    touched.clear();
    if (++cur == 0) {  // stamp wrap: invalidate everything once per 2^32
      for (Slot& slot : slots) slot.stamp = 0;
      cur = 1;
    }
  }

  static VoteScratch& Get() {
    thread_local VoteScratch scratch;
    return scratch;
  }
};

}  // namespace

std::vector<CandidateType> GenerateCandidateTypes(
    const kg::KnowledgeGraph& kg, const std::vector<RowLinks>& row_links,
    int col, const LinkerConfig& config) {
  VoteScratch& s = VoteScratch::Get();
  s.Begin(static_cast<size_t>(kg.num_entities()));

  for (size_t r = 0; r < row_links.size(); ++r) {
    // LinkRow guarantees full-width rows (degraded rows are padded), but a
    // short row must never be UB here — treat missing cells as unlinked.
    if (static_cast<size_t>(col) >= row_links[r].cells.size()) continue;
    const CellLinks& cell = row_links[r].cells[static_cast<size_t>(col)];
    int32_t row = static_cast<int32_t>(r);
    for (const EntityCandidate& cand : cell.pruned) {
      for (kg::EntityId ct : kg.NeighborSet(cand.entity)) {
        const kg::Entity& e = kg.entity(ct);
        // Label-based filter: PERSON / DATE entities are not column types.
        if (e.is_person || e.is_date) continue;
        VoteScratch::Slot& slot = s.slots[static_cast<size_t>(ct)];
        if (slot.stamp != s.cur) {
          slot = {0.0, 0, -1, s.cur};
          s.touched.push_back(ct);
        }
        slot.score += cand.overlap_score;
        // Rows arrive in increasing order, so a new row is a new last row.
        if (slot.last_row != row) {
          slot.last_row = row;
          ++slot.rows;
        }
      }
    }
  }

  std::vector<CandidateType> out;
  for (kg::EntityId entity : s.touched) {
    const VoteScratch::Slot& slot = s.slots[static_cast<size_t>(entity)];
    // Eq. 8's r2 != r1: require corroboration from at least two rows.
    if (slot.rows < 2) continue;
    out.push_back({entity, slot.score});
  }
  // Score descending, entity ascending: a total order, so the result does
  // not depend on the order types were first touched.
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.entity < b.entity;
  });
  if (static_cast<int>(out.size()) > config.max_candidate_types) {
    out.resize(static_cast<size_t>(config.max_candidate_types));
  }

  static obs::Counter& generated =
      obs::MetricsRegistry::Global().GetCounter("linker.ctypes.generated");
  static obs::Counter& empty =
      obs::MetricsRegistry::Global().GetCounter("linker.ctypes.empty_columns");
  if (out.empty()) {
    empty.Add();
  } else {
    generated.Add(static_cast<int64_t>(out.size()));
  }
  return out;
}

}  // namespace kglink::linker
