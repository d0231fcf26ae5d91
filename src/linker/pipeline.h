// The Part-1 orchestrator: table in, ProcessedTable out (Fig. 4's three
// steps — mention linking, filtering, candidate-type generation — plus the
// feature sequence and numeric-column statistics).
#ifndef KGLINK_LINKER_PIPELINE_H_
#define KGLINK_LINKER_PIPELINE_H_

#include "linker/entity_linker.h"
#include "linker/types.h"
#include "search/search_engine.h"
#include "util/deadline.h"

namespace kglink::linker {

class KgPipeline {
 public:
  // Both pointers must outlive the pipeline; `engine` must be finalized.
  KgPipeline(const kg::KnowledgeGraph* kg,
             const search::SearchEngine* engine, LinkerConfig config);

  // Runs Part 1. When an injected fault trips at a table-level site
  // ("search.topk") the result is a *degraded* ProcessedTable
  // (degraded == true, degrade_reason the site name): first-k rows, no KG
  // candidate types or feature sequences — the PLM-only fallback — instead
  // of a crash or an error.
  //
  // Thread safety: Process is const and safe to call concurrently (the
  // pipeline reads a finalized SearchEngine and an immutable KG; each call
  // owns its fault context).
  ProcessedTable Process(const table::Table& table) const;

  // Serving-path overload: `rc` (borrowed, may be null) carries the
  // request's deadline/cancellation and its fault-stream key. A request
  // that is already expired — or expires at any gated site — comes back as
  // the degraded PLM-only table with degrade_reason "deadline" (or
  // "cancelled"), never as a crash or a partial result.
  ProcessedTable Process(const table::Table& table,
                         const RequestContext* rc) const;

  // The degraded PLM-only fallback, directly: first-k rows in original
  // order, no KG evidence. The serving path uses this for shed requests
  // whose remaining budget cannot fit a full Process.
  ProcessedTable ProcessDegraded(const table::Table& table,
                                 const char* reason) const;

  const LinkerConfig& config() const { return linker_.config(); }

  // The linker's cell-link cache; null when disabled (cell_cache_capacity
  // = 0). Exposed for health/metrics surfaces (e.g. the serving layer's
  // HealthJson reports hit/miss/eviction counts from it).
  const search::CellLinkCache* cell_cache() const {
    return linker_.cell_cache();
  }

  // Generation swap for snapshot hot reload: repoints the borrowed KG and
  // engine and clears the linker's cell cache. Not safe concurrently with
  // Process — the serving layer quiesces first.
  void Rebind(const kg::KnowledgeGraph* kg,
              const search::SearchEngine* engine);

 private:

  const kg::KnowledgeGraph* kg_;
  EntityLinker linker_;
};

}  // namespace kglink::linker

#endif  // KGLINK_LINKER_PIPELINE_H_
