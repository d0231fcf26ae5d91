// Chrome trace_event JSON export for obs::Scope (obs/scope.h). While the
// recorder is armed, every KGLINK_SCOPE records a begin event at entry and
// an end event at exit; nesting is tracked per thread, and each thread
// exports as its own track (tid), so tools (and tests) can reconstruct
// every thread's span tree. The exported file loads directly in
// chrome://tracing or Perfetto.
//
// The buffer is bounded: once it holds kMaxEvents events, new begin events
// are dropped (and counted in the trace.events_dropped counter) while ends
// of already-recorded spans are still kept, so the export stays balanced.
#ifndef KGLINK_OBS_TRACE_H_
#define KGLINK_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace kglink::obs {

struct TraceEvent {
  const char* name;  // the scope's name (a literal or an interned name)
  char phase;        // 'B' (begin) or 'E' (end)
  int64_t ts_us;     // microseconds since TraceRecorder::Start()
  int depth;         // span nesting depth at the event (0 = top level)
  int tid;           // ordinal of the recording thread (1 = first seen)
};

// The process-wide event buffer. Start() arms recording; Stop() disarms it;
// ExportChromeJson() serializes whatever was captured.
class TraceRecorder {
 public:
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  static TraceRecorder& Global();

  // Clears previously captured events and begins recording; timestamps are
  // relative to this call.
  void Start();
  void Stop();

  // Begin events past this many buffered events are dropped.
  static constexpr size_t kMaxEvents = size_t{1} << 19;

  // `name` must outlive the recorder's events (see obs/scope.h). Returns
  // false when a 'B' event was dropped because the buffer is full; the
  // caller must then record no matching 'E'. 'E' events are always kept.
  bool Record(const char* name, char phase, int depth);

  size_t event_count() const;
  std::vector<TraceEvent> Events() const;

  // Chrome trace-event format: {"traceEvents": [...]}, one track (tid)
  // per recording thread. Event args carry the nesting depth.
  std::string ExportChromeJson() const;
  Status WriteChromeJson(const std::string& path) const;

 private:
  TraceRecorder() = default;

  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::chrono::steady_clock::time_point origin_{};
};

}  // namespace kglink::obs

#endif  // KGLINK_OBS_TRACE_H_
