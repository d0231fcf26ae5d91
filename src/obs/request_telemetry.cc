#include "obs/request_telemetry.h"

namespace kglink::obs {

namespace {

constexpr const char* kStageNames[kNumTelemetryStages] = {
    "serve.queue_wait",  "linker.process", "search.topk",
    "search.cell_cache", "core.predict",   "serve.post_process",
};

}  // namespace

const char* StageName(Stage stage) {
  return kStageNames[static_cast<size_t>(stage)];
}

uint64_t RequestTelemetry::exclusive_stage_us(Stage stage) const {
  uint64_t us = stage_micros(stage);
  if (stage == Stage::kLink) {
    // kTopK/kCellCache are nested inside kLink; clamp so that coarse timer
    // granularity can never produce a negative exclusive time.
    uint64_t nested =
        stage_micros(Stage::kTopK) + stage_micros(Stage::kCellCache);
    us = us > nested ? us - nested : 0;
  }
  return us;
}

uint64_t RequestTelemetry::TotalStageUs() const {
  uint64_t total = 0;
  for (int i = 0; i < kNumTelemetryStages; ++i) {
    total += exclusive_stage_us(static_cast<Stage>(i));
  }
  return total;
}

std::string RequestTelemetry::Json() const {
  std::string out = "{\"stages\": {";
  for (int i = 0; i < kNumTelemetryStages; ++i) {
    auto stage = static_cast<Stage>(i);
    if (i > 0) out += ", ";
    out += std::string("\"") + StageName(stage) +
           "_us\": " + std::to_string(exclusive_stage_us(stage));
  }
  out += "}, \"stage_total_us\": " + std::to_string(TotalStageUs());
  out += ", \"degrade_events\": " + std::to_string(degrade_events);
  out += ", \"cache_hits\": " + std::to_string(cache_hits);
  out += ", \"cache_misses\": " + std::to_string(cache_misses);
  out += "}";
  return out;
}

}  // namespace kglink::obs
