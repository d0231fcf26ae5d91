// In-process wall-clock sampling profiler.
//
// Frame model: while the profiler is armed, every obs::Scope
// (KGLINK_SCOPE, obs/scope.h) pushes its interned, immutable `const char*`
// name onto a per-thread fixed-depth stack. A background sampler thread
// walks every registered thread's stack at a configurable rate and folds
// each observation into a ring of (thread, interned-stack-id) samples. The
// exporter merges the ring into collapsed-stack text (flamegraph.pl input:
// "a;b;c <count>") and speedscope-compatible JSON.
//
// Overhead contract:
//   - profiler idle (not started): the scope's one relaxed load of the
//     shared armed bitmask + branch.
//   - profiler armed: push = one pointer store + one release store of
//     the depth; pop = one release store. No locks, no allocation on
//     the mutator path (first frame on a new thread registers it once).
//   - compiled out (-DKGLINK_ENABLE_OBS=OFF): KGLINK_SCOPE expands to
//     nothing and Profiler::Start refuses.
//
// Thread safety: the per-thread stack slots and depth are atomics
// (release on publish, acquire on the sampler's read), so the sampler
// observes a consistent prefix without stopping the world. A sample that
// races a push/pop can see a stack that is one frame stale — acceptable
// for statistical profiling, never undefined behavior.
#ifndef KGLINK_OBS_PROFILER_H_
#define KGLINK_OBS_PROFILER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace kglink::obs {

#if defined(KGLINK_OBS_ENABLED)
inline constexpr bool kProfilerCompiledIn = true;
#else
inline constexpr bool kProfilerCompiledIn = false;
#endif

// Maximum tracked stack depth per thread; deeper frames still run their
// scopes but are not recorded (the sampler sees the truncated prefix).
inline constexpr uint32_t kMaxProfileDepth = 32;

// Interns `name` into a process-lifetime pool and returns a stable
// pointer. Use for dynamically built scope names ("nn.enc.layer3"); string
// literals can be used directly. Takes a lock — call at construction
// time, not per forward pass.
const char* InternFrameName(std::string_view name);

namespace profiler_internal {

// Pushes `name` onto the calling thread's stack (registering the thread
// on first use). Returns false if the thread is tearing down.
bool PushFrame(const char* name);
// Pops the calling thread's top frame. Only call when PushFrame
// returned true.
void PopFrame();
// Copies the calling thread's current stack (bottom→top) into `buf`
// (capacity kMaxProfileDepth) and returns its depth; 0 if the thread has
// no frames or never pushed. Used by the heap profiler to attribute
// allocations to the active frame.
uint32_t CaptureOwnStack(const char** buf);

}  // namespace profiler_internal

struct ProfilerOptions {
  // Sampling rate. Prime by default so the sampler does not phase-lock
  // with millisecond-periodic work.
  int hz = 997;
  // Ring capacity in samples; the oldest samples are overwritten (and
  // counted as dropped) once full. 1<<16 entries is 512 KiB.
  size_t ring_capacity = 1u << 16;
};

// One merged observation: `count` samples saw `frames` (bottom→top) on
// thread `tid` (a small registration ordinal, not an OS id).
// `weight_us` is the measured wall time those samples cover — the sum of
// the actual inter-tick intervals, not count × nominal period, so late or
// skipped sampler ticks do not make the profile undercount wall time.
struct StackSample {
  uint32_t tid = 0;
  std::vector<const char*> frames;
  uint64_t count = 0;
  uint64_t weight_us = 0;
};

// Pure exporters, exposed for tests: fold merged samples into the two
// output formats. `period_us` is the wall-time weight of one sample,
// used only for samples that carry no measured weight_us.
// CollapsedFromSamples merges across threads and sorts lines
// lexicographically (deterministic for equal sample sets).
std::string CollapsedFromSamples(const std::vector<StackSample>& samples);
std::string SpeedscopeFromSamples(const std::vector<StackSample>& samples,
                                  double period_us);

// Refreshes process.mem.{rss_bytes,peak_rss_bytes,arena_bytes} gauges in
// MetricsRegistry; unsupported values are set to -1.
void UpdateProcessMemoryGauges();

// Process-wide sampling profiler. All methods are thread-safe.
class Profiler {
 public:
  static Profiler& Global();

  // Starts the sampler thread and arms frame collection. Clears any
  // samples from a previous run. kFailedPrecondition if already running.
  Status Start(const ProfilerOptions& options = {});
  // Disarms frames and joins the sampler. Samples remain available for
  // export. No-op if not running.
  void Stop();
  bool running() const;

  ProfilerOptions options() const;
  // Sampler ticks taken, samples recorded (one per non-idle thread per
  // tick), and samples overwritten by ring wrap-around.
  int64_t ticks() const;
  int64_t samples() const;
  int64_t dropped() const;

  // Ring contents merged by (thread, stack), deterministically ordered.
  std::vector<StackSample> MergedSamples() const;
  // Export formats (see CollapsedFromSamples / SpeedscopeFromSamples).
  std::string CollapsedStacks() const;
  std::string SpeedscopeJson() const;
  Status WriteCollapsed(const std::string& path) const;
  Status WriteSpeedscope(const std::string& path) const;

  // Human-readable top-N frames by exclusive time, for ServedEval and
  // bench stderr summaries. Empty string when no samples were taken.
  std::string SummaryText(size_t top_n = 12) const;

  // The `profile` block for healthz/statsz: run state, sample counters,
  // heap-profiler status and process memory gauges (refreshed here).
  std::string StatusJson() const;

 private:
  Profiler();
  void SamplerLoop();
  void TakeSample();

  struct Impl;
  Impl* impl_;  // owned, intentionally leaked (process singleton)
};

}  // namespace kglink::obs

#endif  // KGLINK_OBS_PROFILER_H_
