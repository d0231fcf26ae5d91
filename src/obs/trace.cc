#include "obs/trace.h"

#include <atomic>

#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "util/csv.h"

namespace kglink::obs {

namespace {

// Ordinal of the calling thread, assigned on its first trace event.
int ThreadOrdinal() {
  static std::atomic<int> next{0};
  thread_local const int ordinal =
      next.fetch_add(1, std::memory_order_relaxed) + 1;
  return ordinal;
}

}  // namespace

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder& recorder = *new TraceRecorder();
  return recorder;
}

void TraceRecorder::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  origin_ = std::chrono::steady_clock::now();
  scope_internal::g_armed.fetch_or(scope_internal::kTraceArmed,
                                   std::memory_order_release);
}

void TraceRecorder::Stop() {
  scope_internal::g_armed.fetch_and(~scope_internal::kTraceArmed,
                                    std::memory_order_release);
}

bool TraceRecorder::Record(const char* name, char phase, int depth) {
  auto now = std::chrono::steady_clock::now();
  const int tid = ThreadOrdinal();
  std::lock_guard<std::mutex> lock(mu_);
  if (phase == 'B' && events_.size() >= kMaxEvents) {
    static Counter& dropped =
        MetricsRegistry::Global().GetCounter("trace.events_dropped");
    dropped.Add();
    return false;
  }
  int64_t ts =
      std::chrono::duration_cast<std::chrono::microseconds>(now - origin_)
          .count();
  events_.push_back(TraceEvent{name, phase, ts, depth, tid});
  return true;
}

size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string TraceRecorder::ExportChromeJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": \"" + JsonEscape(e.name) + "\", \"cat\": \"kglink\"";
    out += ", \"ph\": \"";
    out += e.phase;
    out += "\", \"ts\": " + std::to_string(e.ts_us);
    out += ", \"pid\": 1, \"tid\": " + std::to_string(e.tid);
    out += ", \"args\": {\"depth\": " + std::to_string(e.depth) + "}}";
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

Status TraceRecorder::WriteChromeJson(const std::string& path) const {
  return WriteFile(path, ExportChromeJson());
}

}  // namespace kglink::obs
