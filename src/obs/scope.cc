#include "obs/scope.h"

#include "obs/profiler.h"
#include "obs/trace.h"

namespace kglink::obs {

namespace scope_internal {
std::atomic<uint32_t> g_armed{0};
}  // namespace scope_internal

namespace {
thread_local int t_trace_depth = 0;
}  // namespace

void Scope::Open(const char* name) {
  const uint32_t armed =
      scope_internal::g_armed.load(std::memory_order_relaxed);
  name_ = name;
  if ((armed & scope_internal::kProfileArmed) != 0 &&
      profiler_internal::PushFrame(name)) {
    opened_ |= scope_internal::kProfileArmed;
  }
  // A begin event dropped by the full buffer opens no span: no depth, and
  // Close() records no end.
  if ((armed & scope_internal::kTraceArmed) != 0 &&
      TraceRecorder::Global().Record(name, 'B', t_trace_depth)) {
    depth_ = t_trace_depth++;
    opened_ |= scope_internal::kTraceArmed;
  }
}

void Scope::Close() {
  if ((opened_ & scope_internal::kTraceArmed) != 0) {
    --t_trace_depth;
    // Record the end even if Stop() raced in between, so every 'B' has a
    // matching 'E' and the exported trace stays balanced.
    TraceRecorder::Global().Record(name_, 'E', depth_);
  }
  if ((opened_ & scope_internal::kProfileArmed) != 0) {
    profiler_internal::PopFrame();
  }
}

int Scope::CurrentDepth() { return t_trace_depth; }

}  // namespace kglink::obs
