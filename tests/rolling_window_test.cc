// Sliding-window statistics tests: slot rotation and expiry under a
// virtual clock, percentile estimates validated against an exact sorted
// reference, SLO compliance/burn-rate math across both windows, flight-
// recorder trigger/ring semantics, and the RequestTelemetry exclusive-
// stage arithmetic the serve-path stage-sum invariant relies on.
#include "obs/rolling_window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/json_util.h"
#include "obs/request_telemetry.h"

namespace kglink::obs {
namespace {

// Deterministic uniform-ish value stream (splitmix64-style).
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

RollingWindowOptions TestWindow(int64_t window_us = 10'000'000,
                                int num_slots = 10) {
  RollingWindowOptions o;
  o.window_us = window_us;
  o.num_slots = num_slots;
  return o;
}

TEST(RollingWindowTest, EmptyWindowIsZero) {
  int64_t now = 0;
  RollingWindow w(TestWindow(), [&now] { return now; });
  RollingWindow::Snapshot snap = w.Snap();
  EXPECT_EQ(snap.count, 0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
}

TEST(RollingWindowTest, ValuesExpireAfterWindow) {
  int64_t now = 0;
  RollingWindow w(TestWindow(), [&now] { return now; });
  for (int i = 0; i < 100; ++i) w.Record(500.0);
  EXPECT_EQ(w.Snap().count, 100);
  // Advance past the whole window: everything recorded at t=0 is gone.
  now = 10'000'001;
  EXPECT_EQ(w.Snap().count, 0);
  // New values are visible again.
  w.Record(700.0);
  EXPECT_EQ(w.Snap().count, 1);
}

TEST(RollingWindowTest, PartialExpirySlidesSlotBySlot) {
  int64_t now = 0;
  RollingWindow w(TestWindow(10'000'000, 10), [&now] { return now; });
  w.Record(100.0);    // slot 0
  now = 5'000'000;    // slot 5
  w.Record(200.0);
  EXPECT_EQ(w.Snap().count, 2);
  // At t=9.5s both slots are still inside [t-10s, t].
  now = 9'500'000;
  EXPECT_EQ(w.Snap().count, 2);
  // At t=10.5s slot 0 has rotated out; slot 5 survives.
  now = 10'500'000;
  EXPECT_EQ(w.Snap().count, 1);
  // At t=15.5s everything is out.
  now = 15'500'000;
  EXPECT_EQ(w.Snap().count, 0);
}

TEST(RollingWindowTest, SlotReuseClearsStaleData) {
  int64_t now = 0;
  RollingWindow w(TestWindow(1'000'000, 4), [&now] { return now; });
  w.Record(10.0);
  // Advance exactly one full ring revolution: the new sequence number maps
  // to the same ring slot and must evict the stale epoch's data.
  now = 1'000'000;
  w.Record(20.0);
  RollingWindow::Snapshot snap = w.Snap();
  EXPECT_EQ(snap.count, 1);
  EXPECT_DOUBLE_EQ(snap.sum, 20.0);
}

TEST(RollingWindowTest, PercentilesMatchExactReferenceWithinBucketError) {
  int64_t now = 0;
  RollingWindowOptions o = TestWindow();
  // Fine-grained buckets: factor 1.25 bounds the relative interpolation
  // error of any quantile to one bucket (25%).
  o.buckets = HistogramBuckets::Exponential(1.0, 1.25, 60);
  RollingWindow w(o, [&now] { return now; });

  std::vector<double> exact;
  for (int i = 0; i < 10'000; ++i) {
    // Long-tailed deterministic stream in [1, ~100000].
    double u = static_cast<double>(Mix(static_cast<uint64_t>(i)) % 1'000'000) /
               1'000'000.0;
    double v = std::pow(10.0, 5.0 * u);
    exact.push_back(v);
    w.Record(v);
    now += 500;  // spread across slots, well inside the window
  }
  std::sort(exact.begin(), exact.end());
  RollingWindow::Snapshot snap = w.Snap();
  ASSERT_EQ(snap.count, 10'000);

  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    double est = snap.Quantile(q);
    double ref =
        exact[std::min(exact.size() - 1,
                       static_cast<size_t>(q * static_cast<double>(
                                                   exact.size())))];
    // The estimate must land within one bucket (factor 1.25) of the exact
    // order statistic.
    EXPECT_LE(est, ref * 1.25 * 1.001) << "q=" << q;
    EXPECT_GE(est, ref / 1.25 / 1.001) << "q=" << q;
  }
}

TEST(RollingWindowTest, OverflowQuantileReturnsLargestFiniteBound) {
  int64_t now = 0;
  RollingWindowOptions o = TestWindow();
  o.buckets = HistogramBuckets::Exponential(1.0, 2.0, 4);  // top bound 8
  RollingWindow w(o, [&now] { return now; });
  for (int i = 0; i < 10; ++i) w.Record(1e9);
  EXPECT_DOUBLE_EQ(w.Snap().Quantile(0.5), 8.0);
}

TEST(RollingWindowTest, SnapshotJsonIsValidAndWindowed) {
  int64_t now = 0;
  RollingWindow w(TestWindow(), [&now] { return now; });
  for (int i = 0; i < 50; ++i) w.Record(1000.0);
  std::string json = w.SnapshotJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->NumberOr("count", -1.0), 50.0);
  EXPECT_DOUBLE_EQ(doc->NumberOr("window_s", -1.0), 10.0);
  // After the window passes, the same JSON reports an empty window — the
  // stats are sliding, not cumulative.
  now = 20'000'000;
  auto later = ParseJson(w.SnapshotJson());
  ASSERT_TRUE(later.has_value());
  EXPECT_DOUBLE_EQ(later->NumberOr("count", -1.0), 0.0);
}

TEST(RollingWindowTest, ConcurrentRecordAndSnap) {
  // Real clock here on purpose: exercises the mutex under TSan.
  RollingWindow w(TestWindow());
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&w] {
      for (int i = 0; i < 2'000; ++i) w.Record(static_cast<double>(i));
    });
  }
  int64_t max_seen = 0;
  for (int i = 0; i < 200; ++i) {
    max_seen = std::max(max_seen, w.Snap().count);
  }
  for (auto& th : writers) th.join();
  EXPECT_EQ(w.Snap().count, 8'000);
  EXPECT_LE(max_seen, 8'000);
}

TEST(SloMonitorTest, BurnRateAgainstObjective) {
  int64_t now = 0;
  SloOptions o;
  o.target_latency_us = 100;
  o.objective = 0.99;
  o.short_window_us = 10'000'000;
  o.long_window_us = 60'000'000;
  SloMonitor slo(o, [&now] { return now; });

  // 99 compliant + 1 violating request: exactly the provisioned error
  // budget, so burn rate 1.0 in both windows.
  for (int i = 0; i < 99; ++i) slo.Record(50);
  slo.Record(200);
  SloMonitor::Snapshot snap = slo.Snap();
  EXPECT_EQ(snap.short_total, 100);
  EXPECT_EQ(snap.short_violations, 1);
  EXPECT_DOUBLE_EQ(snap.short_compliance, 0.99);
  EXPECT_NEAR(snap.short_burn_rate, 1.0, 1e-9);
  EXPECT_NEAR(snap.long_burn_rate, 1.0, 1e-9);
  EXPECT_FALSE(snap.burning);  // burning requires strictly > 1

  // Ten violations in a row: the short window burns at 10x.
  for (int i = 0; i < 10; ++i) slo.Record(500);
  snap = slo.Snap();
  EXPECT_GT(snap.short_burn_rate, 1.0);
  EXPECT_GT(snap.long_burn_rate, 1.0);
  EXPECT_TRUE(snap.burning);
}

TEST(SloMonitorTest, ShortWindowForgetsLongWindowRemembers) {
  int64_t now = 0;
  SloOptions o;
  o.target_latency_us = 100;
  o.short_window_us = 10'000'000;
  o.long_window_us = 60'000'000;
  SloMonitor slo(o, [&now] { return now; });
  for (int i = 0; i < 20; ++i) slo.Record(500);  // all violations at t=0
  // 15s later the short window has rotated the burst out; the long window
  // still sees it — the classic "page only if both burn" setup.
  now = 15'000'000;
  SloMonitor::Snapshot snap = slo.Snap();
  EXPECT_EQ(snap.short_total, 0);
  EXPECT_DOUBLE_EQ(snap.short_burn_rate, 0.0);
  EXPECT_EQ(snap.long_total, 20);
  EXPECT_GT(snap.long_burn_rate, 1.0);
  EXPECT_FALSE(snap.burning);
}

TEST(SloMonitorTest, IdleReportsFullCompliance) {
  int64_t now = 0;
  SloMonitor slo(SloOptions{}, [&now] { return now; });
  SloMonitor::Snapshot snap = slo.Snap();
  EXPECT_DOUBLE_EQ(snap.short_compliance, 1.0);
  EXPECT_DOUBLE_EQ(snap.short_burn_rate, 0.0);
  EXPECT_FALSE(snap.burning);
}

TEST(SloMonitorTest, SnapshotJsonIsValid) {
  int64_t now = 0;
  SloMonitor slo(SloOptions{}, [&now] { return now; });
  slo.Record(50);
  slo.Record(500'000);
  std::string json = slo.SnapshotJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->NumberOr("target_us", -1.0), 100'000.0);
  const JsonValue* short_window = doc->Find("short");
  ASSERT_NE(short_window, nullptr);
  EXPECT_DOUBLE_EQ(short_window->NumberOr("total", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(short_window->NumberOr("violations", -1.0), 1.0);
}

TEST(FlightRecorderTest, ThresholdAndSampleTriggers) {
  FlightRecorder recorder;  // local instance; Global() untouched
  FlightRecorderOptions o;
  o.threshold_us = 1'000;
  o.sample_every_n = 4;
  recorder.Configure(o);
  EXPECT_STREQ(recorder.Trigger(5'000), "threshold");  // completion 1
  EXPECT_STREQ(recorder.Trigger(10), "");              // 2
  EXPECT_STREQ(recorder.Trigger(10), "");              // 3
  EXPECT_STREQ(recorder.Trigger(10), "sample");        // 4: 1-in-4
  EXPECT_STREQ(recorder.Trigger(999), "");             // 5: under threshold
  recorder.Disable();
  EXPECT_STREQ(recorder.Trigger(1'000'000), "");  // disarmed
}

TEST(FlightRecorderTest, RingDropsOldestBeyondCapacity) {
  FlightRecorder recorder;
  FlightRecorderOptions o;
  o.threshold_us = 1;
  o.capacity = 3;
  recorder.Configure(o);
  for (int i = 0; i < 5; ++i) {
    recorder.Record("{\"n\": " + std::to_string(i) + "}");
  }
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.recorded(), 5);
  EXPECT_EQ(recorder.overwritten(), 2);
  std::vector<std::string> records = recorder.Records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.front(), "{\"n\": 2}");  // 0 and 1 dropped
  EXPECT_EQ(records.back(), "{\"n\": 4}");
  // Disable keeps the captured ring dumpable; Configure clears it.
  recorder.Disable();
  EXPECT_EQ(recorder.size(), 3u);
  recorder.Configure(o);
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(FlightRecorderTest, JsonlLinesAreValidJson) {
  FlightRecorder recorder;
  FlightRecorderOptions o;
  o.sample_every_n = 1;
  recorder.Configure(o);
  recorder.Record("{\"a\": 1}");
  recorder.Record("{\"b\": [1, 2]}");
  std::string jsonl = recorder.Jsonl();
  size_t lines = 0;
  size_t start = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    EXPECT_TRUE(IsValidJson(jsonl.substr(start, end - start)));
    start = end + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

TEST(RequestTelemetryTest, ExclusiveLinkSubtractsNestedStages) {
  RequestTelemetry t;
  t.AddStage(Stage::kLink, 1'000);      // inclusive
  t.AddStage(Stage::kTopK, 300);        // nested in link
  t.AddStage(Stage::kCellCache, 200);   // nested in link
  t.AddStage(Stage::kPredict, 400);
  t.AddStage(Stage::kQueueWait, 50);
  EXPECT_EQ(t.exclusive_stage_us(Stage::kLink), 500u);
  EXPECT_EQ(t.exclusive_stage_us(Stage::kTopK), 300u);
  // Sum of exclusives = queue + inclusive link + encode.
  EXPECT_EQ(t.TotalStageUs(), 50u + 1'000u + 400u);
}

TEST(RequestTelemetryTest, ExclusiveLinkClampsAtZero) {
  RequestTelemetry t;
  // Timer-granularity artifact: nested floors can exceed the inclusive
  // floor by a microsecond — must clamp, not wrap.
  t.AddStage(Stage::kLink, 2);
  t.AddStage(Stage::kTopK, 3);
  EXPECT_EQ(t.exclusive_stage_us(Stage::kLink), 0u);
}

TEST(RequestTelemetryTest, JsonCarriesStagesAndEvents) {
  RequestTelemetry t;
  t.AddStage(Stage::kLink, 900);
  t.AddStage(Stage::kTopK, 400);
  t.degrade_events = 2;
  t.cache_hits = 7;
  std::string json = t.Json();
  EXPECT_TRUE(IsValidJson(json)) << json;
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* stages = doc->Find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_DOUBLE_EQ(stages->NumberOr("linker.process_us", -1.0),
                   500.0);  // exclusive
  EXPECT_DOUBLE_EQ(stages->NumberOr("search.topk_us", -1.0), 400.0);
  EXPECT_DOUBLE_EQ(doc->NumberOr("degrade_events", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(doc->NumberOr("cache_hits", -1.0), 7.0);
  EXPECT_DOUBLE_EQ(doc->NumberOr("stage_total_us", -1.0), 900.0);
}

}  // namespace
}  // namespace kglink::obs
