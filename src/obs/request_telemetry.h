// Request-scoped telemetry: a plain-struct accounting record carried on
// RequestContext (util/deadline.h keeps only a forward-declared pointer so
// util stays dependency-free). Every serving layer adds what it knows —
// the service adds queue wait and the post-process remainder, the linker
// adds link/cell-cache time and cache hit counts, the search engine adds
// TopK time, the annotator adds the predict pass, and the robust layer
// counts degrades. Library layers time their stage with
// KGLINK_SCOPE(stage, rc) (obs/scope.h).
//
// Cost model: a request is handled by exactly one worker thread at a time,
// so the record needs no atomics — stage accounting is plain uint64 adds
// plus two steady_clock reads per timed scope (~40 ns), and code that runs
// with no telemetry attached (benchmarks, direct library use) pays a single
// null test. Building with -DKGLINK_ENABLE_OBS=OFF compiles the
// instrumentation macros out entirely.
//
// Stage nesting: kTopK and kCellCache run *inside* kLink, whose raw
// counter is therefore inclusive. exclusive_stage_us() subtracts the
// nested stages so that the exclusive stage times partition the request:
// their sum is <= the end-to-end latency by construction (disjoint
// sub-intervals of one monotonic clock, and a sum of floored microsecond
// spans never exceeds the floored total).
#ifndef KGLINK_OBS_REQUEST_TELEMETRY_H_
#define KGLINK_OBS_REQUEST_TELEMETRY_H_

#include <cstdint>
#include <string>

#include "util/deadline.h"

namespace kglink::obs {

enum class Stage : int {
  kQueueWait = 0,  // admission to worker pickup (service)
  kLink,           // Part-1 KG pipeline, inclusive of kTopK/kCellCache
  kTopK,           // BM25 retrieval calls inside the linker
  kCellCache,      // cell-link cache Get/Put
  kPredict,        // serializer + PLM forward pass
  kPostProcess,    // serving-harness remainder (gates, status mapping)
  kNumStages,
};

inline constexpr int kNumTelemetryStages = static_cast<int>(Stage::kNumStages);

// The stage's scope name, "<src module>.<stage>": "serve.queue_wait",
// "linker.process", "search.topk", "search.cell_cache", "core.predict",
// "serve.post_process".
const char* StageName(Stage stage);

struct RequestTelemetry {
  uint64_t stage_us[kNumTelemetryStages] = {};
  uint64_t stage_calls[kNumTelemetryStages] = {};
  uint64_t degrade_events = 0;  // TableOpContext::Degrade flips
  uint64_t cache_hits = 0;      // cell-link cache
  uint64_t cache_misses = 0;

  void AddStage(Stage stage, uint64_t us) {
    stage_us[static_cast<int>(stage)] += us;
    stage_calls[static_cast<int>(stage)] += 1;
  }
  uint64_t stage_micros(Stage stage) const {
    return stage_us[static_cast<int>(stage)];
  }
  uint64_t stage_count(Stage stage) const {
    return stage_calls[static_cast<int>(stage)];
  }

  // Stage time with nested stages subtracted (kLink minus kTopK/kCellCache,
  // clamped at zero); other stages are already exclusive.
  uint64_t exclusive_stage_us(Stage stage) const;

  // Sum of exclusive stage times across all stages — by construction <= the
  // request's end-to-end latency (queue_us + work_us).
  uint64_t TotalStageUs() const;

  // {"stages": {"serve.queue_wait_us": …, "linker.process_us": …, ...},
  //  "stage_total_us": …, "degrade_events": …, "cache_hits": …,
  //  "cache_misses": …}
  // Stage values are the exclusive times.
  std::string Json() const;
};

}  // namespace kglink::obs

#if defined(KGLINK_OBS_ENABLED)
// Bumps an event counter field (degrade_events, cache_hits, ...) if
// telemetry is attached; `rc` may be null.
#define KGLINK_TELEMETRY_COUNT(rc, field, delta)                       \
  do {                                                                 \
    if ((rc) != nullptr && (rc)->telemetry != nullptr) {               \
      (rc)->telemetry->field += static_cast<uint64_t>(delta);          \
    }                                                                  \
  } while (0)
#else
#define KGLINK_TELEMETRY_COUNT(rc, field, delta) ((void)0)
#endif

#endif  // KGLINK_OBS_REQUEST_TELEMETRY_H_
