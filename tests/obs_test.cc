// Unit tests for the observability layer: histogram bucket boundaries,
// counter overflow/reset semantics, nested-scope parenting, one scope
// feeding the trace, the profiler and request telemetry, Chrome trace JSON
// structure (timestamps excluded from comparisons — they are the one
// nondeterministic field), and the structured logger's line format.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/scope.h"
#include "obs/trace.h"

namespace kglink::obs {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(CounterTest, OverflowWrapsInsteadOfUb) {
  Counter c;
  c.Add(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(c.value(), std::numeric_limits<int64_t>::max());
  // One more wraps to the minimum (two's complement), not UB; a further
  // increment keeps counting from there.
  c.Add(1);
  EXPECT_EQ(c.value(), std::numeric_limits<int64_t>::min());
  c.Add(1);
  EXPECT_EQ(c.value(), std::numeric_limits<int64_t>::min() + 1);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  g.Set(1.5);
  g.Set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h(HistogramBuckets{{1.0, 10.0, 100.0}});
  ASSERT_EQ(h.upper_bounds().size(), 3u);

  h.Record(0.5);    // <= 1      -> bucket 0
  h.Record(1.0);    // == bound  -> bucket 0 (le semantics)
  h.Record(1.0001); //           -> bucket 1
  h.Record(10.0);   // == bound  -> bucket 1
  h.Record(99.9);   //           -> bucket 2
  h.Record(100.0);  // == bound  -> bucket 2
  h.Record(100.5);  // overflow  -> bucket 3
  h.Record(1e9);    // overflow  -> bucket 3

  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 2);
  EXPECT_EQ(h.bucket_count(2), 2);
  EXPECT_EQ(h.bucket_count(3), 2);
  EXPECT_EQ(h.count(), 8);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.9 + 100.0 + 100.5 + 1e9,
              1e-6);

  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.bucket_count(3), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, ExponentialBucketLayout) {
  HistogramBuckets b = HistogramBuckets::Exponential(1.0, 4.0, 5);
  EXPECT_EQ(b.upper_bounds, (std::vector<double>{1, 4, 16, 64, 256}));
}

TEST(MetricsThreadingTest, ConcurrentUpdatesObeyPublicationContract) {
  // Writers hammer a counter, a gauge and a histogram while a reader
  // repeatedly snapshots them. The histogram's release/acquire contract
  // must hold at every instant: a snapshot that reads count() first never
  // sees bucket totals *behind* that count. Totals are exact at the end.
  MetricsRegistry reg;
  Counter& counter = reg.GetCounter("mt.events");
  Gauge& gauge = reg.GetGauge("mt.level");
  Histogram& hist =
      reg.GetHistogram("mt.lat", HistogramBuckets{{1.0, 10.0, 100.0}});

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> done{false};
  std::atomic<int64_t> torn_reads{0};

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      int64_t count = hist.count();  // acquire: fence for the bucket reads
      int64_t buckets = 0;
      for (size_t i = 0; i <= hist.upper_bounds().size(); ++i) {
        buckets += hist.bucket_count(i);
      }
      if (buckets < count) torn_reads.fetch_add(1);
      gauge.value();
      reg.SnapshotJson();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        counter.Add();
        gauge.Set(static_cast<double>(i));
        hist.Record(static_cast<double>((w * kPerWriter + i) % 200));
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(counter.value(), static_cast<int64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(hist.count(), static_cast<int64_t>(kWriters) * kPerWriter);
  int64_t buckets = 0;
  for (size_t i = 0; i <= hist.upper_bounds().size(); ++i) {
    buckets += hist.bucket_count(i);
  }
  EXPECT_EQ(buckets, hist.count());
}

TEST(MetricsRegistryTest, SameNameSameMetric) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x.calls");
  Counter& b = reg.GetCounter("x.calls");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3);
  // Distinct kinds may share a name without colliding.
  Gauge& g = reg.GetGauge("x.calls");
  g.Set(7.0);
  EXPECT_EQ(b.value(), 3);
}

TEST(MetricsRegistryTest, SnapshotJsonIsValidAndSorted) {
  MetricsRegistry reg;
  reg.GetCounter("b.two").Add(2);
  reg.GetCounter("a.one").Add(1);
  reg.GetGauge("loss").Set(0.125);
  reg.GetHistogram("lat", HistogramBuckets{{1.0, 2.0}}).Record(1.5);
  std::string json = reg.SnapshotJson();

  EXPECT_TRUE(IsValidJson(json)) << json;
  // Keys serialize sorted -> deterministic snapshots.
  EXPECT_LT(json.find("a.one"), json.find("b.two"));
  EXPECT_NE(json.find("\"a.one\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"loss\": 0.125"), std::string::npos) << json;
  EXPECT_NE(json.find("\"+Inf\""), std::string::npos) << json;

  reg.ResetAll();
  std::string after = reg.SnapshotJson();
  EXPECT_NE(after.find("\"a.one\": 0"), std::string::npos) << after;
}

TEST(JsonUtilTest, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_TRUE(IsValidJson("[1, 2.5, -3e4, \"x\", true, false, null]"));
  EXPECT_TRUE(IsValidJson("{\"a\": {\"b\": [\"\\u00e9\", \"\\n\"]}}"));
  EXPECT_FALSE(IsValidJson(""));
  EXPECT_FALSE(IsValidJson("{"));
  EXPECT_FALSE(IsValidJson("{\"a\": 1,}"));
  EXPECT_FALSE(IsValidJson("[1] trailing"));
  EXPECT_FALSE(IsValidJson("{'a': 1}"));
  EXPECT_FALSE(IsValidJson("01"));
  EXPECT_FALSE(IsValidJson("{\"a\": nan}"));
}

TEST(JsonUtilTest, NumberFormatting) {
  EXPECT_EQ(JsonNumber(3.0), "3");
  EXPECT_EQ(JsonNumber(-42.0), "-42");
  EXPECT_EQ(JsonNumber(0.125), "0.125");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_TRUE(IsValidJson(JsonNumber(1.0 / 3.0)));
}

TEST(JsonUtilTest, EscapeControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape("line\nfeed\rreturn"), "line\\nfeed\\rreturn");
  EXPECT_EQ(JsonEscape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(JsonEscape("\x01\x1f"), "\\u0001\\u001f");
  // Every escaped string must embed into a valid JSON document.
  for (int c = 0; c < 0x20; ++c) {
    std::string s(1, static_cast<char>(c));
    EXPECT_TRUE(IsValidJson("\"" + JsonEscape(s) + "\"")) << c;
  }
}

TEST(JsonUtilTest, EscapePassesValidUtf8Through) {
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");           // é
  EXPECT_EQ(JsonEscape("\xe6\x97\xa5\xe6\x9c\xac"),              // 日本
            "\xe6\x97\xa5\xe6\x9c\xac");
  EXPECT_EQ(JsonEscape("\xf0\x9f\x8e\x89"), "\xf0\x9f\x8e\x89");  // 🎉
}

TEST(JsonUtilTest, EscapeReplacesInvalidUtf8) {
  // Each invalid byte becomes U+FFFD so the output is always valid JSON.
  EXPECT_EQ(JsonEscape("\xff"), "\\ufffd");
  // Stray continuation byte.
  EXPECT_EQ(JsonEscape("a\x80ز"), "a\\ufffd\xd8\xb2");
  // Truncated two-byte sequence at end of input.
  EXPECT_EQ(JsonEscape("x\xc3"), "x\\ufffd");
  // Overlong encoding of '/' (0xC0 0xAF) is rejected byte by byte.
  EXPECT_EQ(JsonEscape("\xc0\xaf"), "\\ufffd\\ufffd");
  // CESU-8 style surrogate encoding (ED A0 80 = U+D800) is invalid UTF-8.
  EXPECT_EQ(JsonEscape("\xed\xa0\x80"), "\\ufffd\\ufffd\\ufffd");
  // Out-of-range 4-byte sequence (> U+10FFFF).
  EXPECT_EQ(JsonEscape("\xf5\x80\x80\x80"),
            "\\ufffd\\ufffd\\ufffd\\ufffd");
  EXPECT_TRUE(
      IsValidJson("\"" + JsonEscape("mixed \xfe garbage \xc3\x28") + "\""));
}

TEST(JsonParseTest, BuildsDomForScalarsArraysObjects) {
  std::optional<JsonValue> v =
      ParseJson("{\"n\": -2.5e1, \"b\": true, \"s\": \"hi\", "
                "\"a\": [1, null], \"o\": {\"k\": false}}");
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->kind, JsonValue::Kind::kObject);
  EXPECT_DOUBLE_EQ(v->NumberOr("n", 0), -25.0);
  EXPECT_TRUE(v->BoolOr("b", false));
  EXPECT_EQ(v->StringOr("s", ""), "hi");
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 2u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[1].kind, JsonValue::Kind::kNull);
  const JsonValue* o = v->Find("o");
  ASSERT_NE(o, nullptr);
  EXPECT_FALSE(o->BoolOr("k", true));
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParseTest, DecodesEscapesAndSurrogatePairs) {
  std::optional<JsonValue> v =
      ParseJson("\"q\\\"b\\\\s\\/n\\nu\\u00e9p\\ud83c\\udf89\"");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->string_value,
            "q\"b\\s/n\nu\xc3\xa9p\xf0\x9f\x8e\x89");
  // A lone high surrogate decodes to U+FFFD instead of corrupt output.
  std::optional<JsonValue> lone = ParseJson("\"\\ud800x\"");
  ASSERT_TRUE(lone.has_value());
  EXPECT_EQ(lone->string_value, "\xef\xbf\xbdx");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").has_value());
  EXPECT_FALSE(ParseJson("{\"a\":}").has_value());
  EXPECT_FALSE(ParseJson("[1,]").has_value());
  EXPECT_FALSE(ParseJson("\"unterminated").has_value());
  EXPECT_FALSE(ParseJson("\"bad\\x\"").has_value());
  EXPECT_FALSE(ParseJson("12 34").has_value());
}

TEST(JsonParseTest, RoundTripsEscapedStrings) {
  std::string nasty = "quote\" back\\ ctrl\x01\ttab nul(";
  nasty += '\0';
  nasty += ") caf\xc3\xa9 \xf0\x9f\x8e\x89";
  std::string doc = "{\"cell\": \"" + JsonEscape(nasty) + "\"}";
  std::optional<JsonValue> v = ParseJson(doc);
  ASSERT_TRUE(v.has_value()) << doc;
  EXPECT_EQ(v->StringOr("cell", ""), nasty);
}

// Validates balanced, properly nested B/E events with a stack; returns the
// maximum nesting depth or -1 on imbalance. Timestamps are ignored.
int CheckBalanced(const std::vector<TraceEvent>& events) {
  std::vector<const TraceEvent*> stack;
  size_t max_depth = 0;
  for (const TraceEvent& e : events) {
    if (e.phase == 'B') {
      if (static_cast<size_t>(e.depth) != stack.size()) return -1;
      stack.push_back(&e);
      max_depth = std::max(max_depth, stack.size());
    } else if (e.phase == 'E') {
      if (stack.empty() || std::strcmp(stack.back()->name, e.name) != 0 ||
          stack.back()->depth != e.depth) {
        return -1;
      }
      stack.pop_back();
    } else {
      return -1;
    }
  }
  return stack.empty() ? static_cast<int>(max_depth) : -1;
}

TEST(ScopeTest, NestedScopeParenting) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Start();
  {
    Scope outer("outer");
    EXPECT_EQ(outer.depth(), 0);
    EXPECT_EQ(Scope::CurrentDepth(), 1);
    {
      Scope inner("inner");
      EXPECT_EQ(inner.depth(), 1);
      Scope innermost("innermost");
      EXPECT_EQ(innermost.depth(), 2);
    }
    Scope sibling("sibling");
    EXPECT_EQ(sibling.depth(), 1);
  }
  rec.Stop();

  std::vector<TraceEvent> events = rec.Events();
  ASSERT_EQ(events.size(), 8u);  // 4 scopes x (B + E)
  EXPECT_EQ(CheckBalanced(events), 3);
  // Sequential order pins the parenting: outer B, inner B, innermost B/E,
  // inner E, sibling B/E, outer E.
  std::vector<std::string> names;
  std::vector<char> phases;
  for (const auto& e : events) {
    names.push_back(e.name);
    phases.push_back(e.phase);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"outer", "inner", "innermost",
                                             "innermost", "inner", "sibling",
                                             "sibling", "outer"}));
  EXPECT_EQ(phases,
            (std::vector<char>{'B', 'B', 'B', 'E', 'E', 'B', 'E', 'E'}));
}

TEST(ScopeTest, DisarmedScopeRecordsNothing) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Start();
  rec.Stop();
  {
    Scope scope("ignored");
    EXPECT_EQ(Scope::CurrentDepth(), 0);  // inactive scope: no depth
  }
  EXPECT_EQ(rec.event_count(), 0u);
}

// The stage form feeds all three sinks under StageName(stage): one
// balanced B/E pair, profile samples under that frame, and one telemetry
// stage call.
TEST(ScopeTest, StageScopeFeedsTraceProfileAndTelemetry) {
  if (!kProfilerCompiledIn) GTEST_SKIP() << "profiler compiled out";
  RequestTelemetry telemetry;
  RequestContext rc;
  rc.telemetry = &telemetry;
  TraceRecorder& rec = TraceRecorder::Global();
  Profiler& profiler = Profiler::Global();
  rec.Start();
  ASSERT_TRUE(profiler.Start({.hz = 2000}).ok());
  {
    Scope scope(Stage::kLink, &rc);
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (profiler.samples() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  profiler.Stop();
  rec.Stop();

  std::vector<TraceEvent> events = rec.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "linker.process");
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].phase, 'E');
  EXPECT_EQ(CheckBalanced(events), 1);

  uint64_t under_frame = 0;
  for (const StackSample& s : profiler.MergedSamples()) {
    if (!s.frames.empty() && std::strcmp(s.frames[0], "linker.process") == 0) {
      under_frame += s.count;
    }
  }
  EXPECT_GE(under_frame, 1u);

  EXPECT_EQ(telemetry.stage_count(Stage::kLink), 1u);
  EXPECT_EQ(Scope::CurrentDepth(), 0);
}

// Golden-structure test for the exporter: the JSON parses, contains one
// object per event with the Chrome-required keys, and B/E balance. The
// "ts" values are intentionally not compared — they are wall-clock.
TEST(TraceTest, ChromeJsonExportGolden) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Start();
  {
    Scope outer("stage \"one\"");  // quote needs escaping
    Scope inner("stage.two");
  }
  rec.Stop();
  std::string json = rec.ExportChromeJson();

  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"stage \\\"one\\\"\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\": \"stage.two\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"kglink\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"depth\": 1}"), std::string::npos);
  EXPECT_EQ(CheckBalanced(rec.Events()), 2);

  // Restarting clears the buffer: export is a snapshot, not an append log.
  rec.Start();
  rec.Stop();
  EXPECT_EQ(rec.event_count(), 0u);
}

// Concurrent threads each get their own track: the merged event stream
// interleaves, but every tid's events nest and balance on their own.
TEST(TraceTest, EachThreadRecordsOnItsOwnTrack) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Start();
  auto work = [] {
    for (int i = 0; i < 200; ++i) {
      Scope outer("thread.outer");
      Scope inner("thread.inner");
    }
  };
  std::thread a(work);
  std::thread b(work);
  a.join();
  b.join();
  rec.Stop();

  std::map<int, std::vector<TraceEvent>> by_tid;
  for (const TraceEvent& e : rec.Events()) by_tid[e.tid].push_back(e);
  ASSERT_EQ(by_tid.size(), 2u);
  std::string json = rec.ExportChromeJson();
  for (const auto& [tid, events] : by_tid) {
    EXPECT_EQ(events.size(), 800u) << "tid " << tid;
    EXPECT_EQ(CheckBalanced(events), 2) << "tid " << tid;
    EXPECT_NE(json.find("\"tid\": " + std::to_string(tid) + ","),
              std::string::npos)
        << "tid " << tid;
  }
}

// Past kMaxEvents the recorder drops begin events (counted), records no
// end for them, and keeps the ends of spans it did record.
TEST(TraceTest, FullBufferDropsBeginsAndStaysBalanced) {
  TraceRecorder& rec = TraceRecorder::Global();
  Counter& dropped =
      MetricsRegistry::Global().GetCounter("trace.events_dropped");
  const int64_t dropped_before = dropped.value();
  const size_t cap = TraceRecorder::kMaxEvents;
  rec.Start();
  {
    Scope held("held.open");
    for (size_t i = 0; i < cap; ++i) {
      Scope filler("filler");
    }
    // Dropped fillers opened no span.
    EXPECT_EQ(Scope::CurrentDepth(), 1);
  }
  rec.Stop();

  // "held.open" B, then cap/2 recorded filler pairs fill the buffer; the
  // other cap/2 fillers are dropped, and held.open's E is still kept.
  EXPECT_EQ(dropped.value() - dropped_before, static_cast<int64_t>(cap / 2));
  std::vector<TraceEvent> events = rec.Events();
  ASSERT_EQ(events.size(), cap + 2);
  EXPECT_STREQ(events.back().name, "held.open");
  EXPECT_EQ(events.back().phase, 'E');
  EXPECT_EQ(CheckBalanced(events), 2);
}

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogSink([this](LogLevel level, const std::string& line) {
      levels_.push_back(level);
      lines_.push_back(line);
    });
    SetMinLogLevel(LogLevel::kInfo);
  }
  void TearDown() override {
    SetLogSink(nullptr);
    SetMinLogLevel(LogLevel::kInfo);
  }
  std::vector<LogLevel> levels_;
  std::vector<std::string> lines_;
};

TEST_F(LogTest, StructuredLineFormatIsByteStable) {
  KGLINK_LOG(kInfo, "train.epoch")
      .With("epoch", 3)
      .With("loss", 0.123456, 4)
      .With("model", "KGLink")
      .With("note", "two words")
      .With("ok", true);
  ASSERT_EQ(lines_.size(), 1u);
  EXPECT_EQ(lines_[0],
            "[kglink] I train.epoch epoch=3 loss=0.1235 model=KGLink "
            "note=\"two words\" ok=true");
}

TEST_F(LogTest, LevelsFilter) {
  KGLINK_LOG(kDebug, "hidden").With("x", 1);
  KGLINK_LOG(kWarn, "shown");
  ASSERT_EQ(lines_.size(), 1u);
  EXPECT_EQ(lines_[0], "[kglink] W shown");
  EXPECT_EQ(levels_[0], LogLevel::kWarn);

  SetMinLogLevel(LogLevel::kDebug);
  KGLINK_LOG(kDebug, "now.visible");
  ASSERT_EQ(lines_.size(), 2u);
  EXPECT_EQ(lines_[1], "[kglink] D now.visible");

  SetMinLogLevel(LogLevel::kOff);
  KGLINK_LOG(kWarn, "suppressed");
  EXPECT_EQ(lines_.size(), 2u);
}

}  // namespace
}  // namespace kglink::obs
