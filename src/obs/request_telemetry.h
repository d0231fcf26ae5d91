// Request-scoped telemetry: a plain-struct accounting record carried on
// RequestContext (util/deadline.h keeps only a forward-declared pointer so
// util stays dependency-free). Every serving layer adds what it knows —
// the service adds queue wait and the post-process remainder, the linker
// adds link/cell-cache time and cache hit counts, the search engine adds
// TopK time, the annotator adds the encoder forward pass, and the robust
// layer counts degrades.
//
// Cost model: a request is handled by exactly one worker thread at a time,
// so the record needs no atomics — stage accounting is plain uint64 adds
// plus two steady_clock reads per timed scope (~40 ns), and code that runs
// with no telemetry attached (benchmarks, direct library use) pays a single
// null test. Building with KGLINK_ENABLE_REQUEST_TELEMETRY=OFF (no
// KGLINK_TELEMETRY_ENABLED define) compiles the instrumentation macros out
// entirely, mirroring the KGLINK_TRACE_SPAN gate.
//
// Stage nesting: kTopK and kCellCache run *inside* kLink, whose raw
// counter is therefore inclusive. exclusive_stage_us() subtracts the
// nested stages so that the exclusive stage times partition the request:
// their sum is <= the end-to-end latency by construction (disjoint
// sub-intervals of one monotonic clock, and a sum of floored microsecond
// spans never exceeds the floored total).
#ifndef KGLINK_OBS_REQUEST_TELEMETRY_H_
#define KGLINK_OBS_REQUEST_TELEMETRY_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/profiler.h"
#include "util/deadline.h"

namespace kglink::obs {

enum class Stage : int {
  kQueueWait = 0,  // admission to worker pickup (service)
  kLink,           // Part-1 KG pipeline, inclusive of kTopK/kCellCache
  kTopK,           // BM25 retrieval calls inside the linker
  kCellCache,      // cell-link cache Get/Put
  kEncode,         // serializer + PLM forward pass
  kPostProcess,    // serving-harness remainder (gates, status mapping)
  kNumStages,
};

inline constexpr int kNumTelemetryStages = static_cast<int>(Stage::kNumStages);

// Lowercase snake name, e.g. "queue_wait", "topk".
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

  // {"stages": {"queue_wait_us": …, "link_us": …, ...}, "stage_total_us": …,
  //  "degrade_events": …, "cache_hits": …, "cache_misses": …}
  // Stage values are the exclusive times.
  std::string Json() const;
};

// RAII stage timer keyed off the context's telemetry pointer: no-ops (one
// null test, no clock read) when the request carries no telemetry. Use via
// KGLINK_STAGE_TIMER so telemetry-disabled builds compile it out. The
// timer doubles as the profiler's stage frame: while the sampling
// profiler is armed, the scope appears on the thread's profile stack
// under the stage's name (even for requests with no telemetry attached).
class ScopedStageTimer {
 public:
  ScopedStageTimer(const RequestContext* rc, Stage stage)
      : telemetry_(rc != nullptr ? rc->telemetry : nullptr),
        stage_(stage),
        profile_frame_(StageName(stage)) {
    if (telemetry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedStageTimer() {
    if (telemetry_ != nullptr) {
      telemetry_->AddStage(
          stage_,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count()));
    }
  }
  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  RequestTelemetry* telemetry_;
  Stage stage_;
  [[no_unique_address]] ProfileFrame profile_frame_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace kglink::obs

#define KGLINK_TELEMETRY_CONCAT_IMPL_(a, b) a##b
#define KGLINK_TELEMETRY_CONCAT_(a, b) KGLINK_TELEMETRY_CONCAT_IMPL_(a, b)

#if defined(KGLINK_TELEMETRY_ENABLED)
// Times the enclosing scope into `stage` of rc->telemetry (if attached).
#define KGLINK_STAGE_TIMER(rc, stage)                                  \
  ::kglink::obs::ScopedStageTimer KGLINK_TELEMETRY_CONCAT_(            \
      kglink_stage_, __LINE__)((rc), (stage))
// Bumps an event counter field (degrade_events, cache_hits, ...) if
// telemetry is attached; `rc` may be null.
#define KGLINK_TELEMETRY_COUNT(rc, field, delta)                       \
  do {                                                                 \
    if ((rc) != nullptr && (rc)->telemetry != nullptr) {               \
      (rc)->telemetry->field += static_cast<uint64_t>(delta);          \
    }                                                                  \
  } while (0)
#elif defined(KGLINK_PROFILER_ENABLED)
// Telemetry compiled out but the profiler is in: stage scopes still show
// up as profile frames (rc is deliberately unused).
#define KGLINK_STAGE_TIMER(rc, stage) \
  KGLINK_PROFILE_FRAME(::kglink::obs::StageName(stage))
#define KGLINK_TELEMETRY_COUNT(rc, field, delta) ((void)0)
#else
#define KGLINK_STAGE_TIMER(rc, stage) ((void)0)
#define KGLINK_TELEMETRY_COUNT(rc, field, delta) ((void)0)
#endif

#endif  // KGLINK_OBS_REQUEST_TELEMETRY_H_
