// One instrumentation scope for every timed region: KGLINK_SCOPE opens an
// obs::Scope that feeds all three observability sinks from one name.
//
//   KGLINK_SCOPE("linker.link_rows");           // named scope
//   KGLINK_SCOPE(obs::Stage::kTopK, rc);         // request-stage scope
//
// For the rest of the enclosing block the scope
//   * opens a trace span (B/E event pair) while TraceRecorder is armed;
//   * pushes a profile frame while the sampling Profiler is armed;
//   * in the stage form, adds its wall time to rc->telemetry when the
//     request carries a telemetry record.
//
// Names follow one vocabulary, "<src module>.<stage>" (linker.process,
// search.topk, core.predict, nn.attention.qkv, ...), so a trace, a profile
// and a request's telemetry JSON name the same region the same way. A name
// must be a string literal or an InternFrameName result: sinks keep the
// pointer, not a copy.
//
// Cost: when neither recorder is armed a scope is one relaxed load of a
// shared armed bitmask and a branch; the stage form adds the rc null test
// and, with telemetry attached, two steady_clock reads. Building with
// -DKGLINK_ENABLE_OBS=OFF (no KGLINK_OBS_ENABLED define) expands
// KGLINK_SCOPE and KGLINK_OBS_HOT to nothing.
//
// KGLINK_OBS_HOT wraps metric updates on paths so short (SearchEngine::TopK,
// under a microsecond per short query) that even a relaxed fetch_add is a
// measurable fraction. Cool-path metrics (per table, per epoch) call
// Counter/Gauge directly and stay available in every build.
#ifndef KGLINK_OBS_SCOPE_H_
#define KGLINK_OBS_SCOPE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "obs/request_telemetry.h"
#include "util/deadline.h"

namespace kglink::obs {

namespace scope_internal {

// Bits of g_armed: which sinks a scope opened now must feed.
inline constexpr uint32_t kTraceArmed = 1u;    // TraceRecorder::Start()
inline constexpr uint32_t kProfileArmed = 2u;  // Profiler::Start()

extern std::atomic<uint32_t> g_armed;

inline bool Armed() { return g_armed.load(std::memory_order_relaxed) != 0; }

}  // namespace scope_internal

class Scope {
 public:
  explicit Scope(const char* name) {
    if (scope_internal::Armed()) Open(name);
  }
  // Named StageName(stage); times the scope into rc->telemetry (rc may be
  // null, and so may its telemetry).
  Scope(Stage stage, const RequestContext* rc)
      : telemetry_(rc != nullptr ? rc->telemetry : nullptr), stage_(stage) {
    if (scope_internal::Armed()) Open(StageName(stage));
    if (telemetry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~Scope() {
    if (telemetry_ != nullptr) {
      telemetry_->AddStage(
          stage_, static_cast<uint64_t>(
                      std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count()));
    }
    if (opened_ != 0) Close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // Trace nesting depth of this scope (0 = outermost). Meaningful only when
  // the trace recorder was armed at construction.
  int depth() const { return depth_; }

  // The calling thread's count of open traced scopes.
  static int CurrentDepth();

 private:
  void Open(const char* name);
  void Close();

  const char* name_ = nullptr;
  RequestTelemetry* telemetry_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
  Stage stage_ = Stage::kQueueWait;
  int depth_ = 0;
  uint32_t opened_ = 0;  // the g_armed bits Open() acted on
};

}  // namespace kglink::obs

#define KGLINK_OBS_CONCAT_IMPL_(a, b) a##b
#define KGLINK_OBS_CONCAT_(a, b) KGLINK_OBS_CONCAT_IMPL_(a, b)

#if defined(KGLINK_OBS_ENABLED)
#define KGLINK_SCOPE(...)                                              \
  ::kglink::obs::Scope KGLINK_OBS_CONCAT_(kglink_scope_, __LINE__)(    \
      __VA_ARGS__)
#define KGLINK_OBS_HOT(...) __VA_ARGS__
#else
#define KGLINK_SCOPE(...) ((void)0)
#define KGLINK_OBS_HOT(...) ((void)0)
#endif

#endif  // KGLINK_OBS_SCOPE_H_
