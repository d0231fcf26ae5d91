// Slow-request flight recorder: the "why was this one request slow"
// artifact. The serving layer asks Trigger() after each completed request;
// requests over a latency threshold (or sampled 1-in-N) get their full
// stage breakdown serialized as one structured JSON line and kept in a
// bounded in-memory ring, dumpable on demand (--slow-log in kglink_cli).
// Chrome traces cover offline runs; this stays cheap enough to leave armed
// in production — a disarmed recorder costs one relaxed atomic load per
// completion.
//
// Process-wide singleton following the FaultInjector idiom:
// Configure() arms it (tests and the CLI own configuration; the service
// only consults it), Disable() disarms but keeps the captured records so
// they can still be dumped after the service shuts down.
#ifndef KGLINK_OBS_FLIGHT_RECORDER_H_
#define KGLINK_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace kglink::obs {

struct FlightRecorderOptions {
  // Record any request whose end-to-end latency is >= threshold_us
  // (0 disables the threshold trigger).
  int64_t threshold_us = 0;
  // Also record every Nth completion regardless of latency (0 disables).
  uint32_t sample_every_n = 0;
  // Ring capacity; the oldest record is dropped when full.
  size_t capacity = 256;
};

class FlightRecorder {
 public:
  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  static FlightRecorder& Global();

  // Arms the recorder and clears previously captured records.
  void Configure(const FlightRecorderOptions& options);
  // Disarms; captured records stay available for dumping.
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Decision for one completed request: "" (don't record), "threshold" or
  // "sample". Counts the completion for 1-in-N sampling either way.
  const char* Trigger(int64_t total_us);

  // Appends one pre-serialized JSON object line to the ring.
  void Record(std::string json_line);

  size_t size() const;
  int64_t recorded() const;     // total records ever accepted
  int64_t overwritten() const;  // records dropped to capacity
  std::vector<std::string> Records() const;
  // All records, newline-terminated (JSONL). Empty string when none.
  std::string Jsonl() const;
  Status WriteJsonl(const std::string& path) const;
  FlightRecorderOptions options() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> completions_{0};
  mutable std::mutex mu_;
  FlightRecorderOptions options_;
  std::deque<std::string> ring_;
  int64_t recorded_ = 0;
  int64_t overwritten_ = 0;
};

}  // namespace kglink::obs

#endif  // KGLINK_OBS_FLIGHT_RECORDER_H_
