// Sampling profiler + heap attribution tests: exporter formats from
// synthetic samples, live sampling against threads holding known frame
// stacks, start/stop lifecycle, and (when compiled in) deterministic heap
// call-site accounting and the allocations an untaped encoder forward
// saves. The concurrent push/pop-vs-sampler case doubles as the TSan
// target for the profiler's lock-free stack protocol.
#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "nn/layers.h"
#include "nn/tensor.h"
#include "obs/heap_profiler.h"
#include "obs/json_util.h"
#include "obs/scope.h"
#include "util/rng.h"

namespace kglink::obs {
namespace {

// ----- pure exporters ---------------------------------------------------

std::vector<StackSample> SyntheticSamples() {
  // Thread 0: main -> work (3), main (2). Thread 1: main -> work (5).
  std::vector<StackSample> samples;
  samples.push_back({0, {"main", "work"}, 3});
  samples.push_back({0, {"main"}, 2});
  samples.push_back({1, {"main", "work"}, 5});
  return samples;
}

TEST(CollapsedExportTest, MergesThreadsAndSortsLines) {
  std::string text = CollapsedFromSamples(SyntheticSamples());
  // Cross-thread merge: main;work appears once with 3+5 = 8.
  EXPECT_EQ(text, "main 2\nmain;work 8\n");
}

TEST(CollapsedExportTest, EmptyInputYieldsEmptyString) {
  EXPECT_EQ(CollapsedFromSamples({}), "");
}

TEST(SpeedscopeExportTest, EmitsValidJsonWithPerThreadProfiles) {
  std::string json = SpeedscopeFromSamples(SyntheticSamples(), 1000.0);
  ASSERT_TRUE(IsValidJson(json)) << json;
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* frames = doc->Find("shared");
  ASSERT_NE(frames, nullptr);
  frames = frames->Find("frames");
  ASSERT_NE(frames, nullptr);
  // Frames dedupe by name across threads.
  std::set<std::string> names;
  for (const JsonValue& f : frames->array) {
    names.insert(f.StringOr("name", ""));
  }
  EXPECT_EQ(names, (std::set<std::string>{"main", "work"}));

  const JsonValue* profiles = doc->Find("profiles");
  ASSERT_NE(profiles, nullptr);
  ASSERT_EQ(profiles->array.size(), 2u);  // one per thread
  // Per-profile weight sums: thread 0 = (3+2) * 1000us, thread 1 = 5000us.
  double weights[2] = {0, 0};
  for (size_t p = 0; p < 2; ++p) {
    const JsonValue* w = profiles->array[p].Find("weights");
    ASSERT_NE(w, nullptr);
    for (const JsonValue& v : w->array) weights[p] += v.number;
    EXPECT_EQ(profiles->array[p].NumberOr("endValue", -1), weights[p]);
  }
  EXPECT_DOUBLE_EQ(weights[0], 5000.0);
  EXPECT_DOUBLE_EQ(weights[1], 5000.0);
}

TEST(SpeedscopeExportTest, EmptyProfileIsStillValidJson) {
  std::string json = SpeedscopeFromSamples({}, 1000.0);
  EXPECT_TRUE(IsValidJson(json)) << json;
}

// ----- frame-name interning --------------------------------------------

TEST(InternTest, SameContentSamePointer) {
  const char* a = InternFrameName("enc.layer0");
  const char* b = InternFrameName(std::string("enc.layer") + "0");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "enc.layer0");
  EXPECT_NE(a, InternFrameName("enc.layer1"));
}

#if !defined(KGLINK_OBS_ENABLED)

// Compiled out: no scope ever pushes a frame and nothing ever samples.
TEST(ProfilerDisabledTest, StartRefusesAndStatusSaysSo) {
  EXPECT_FALSE(kProfilerCompiledIn);
  Profiler& p = Profiler::Global();
  EXPECT_FALSE(p.Start({}).ok());
  EXPECT_FALSE(p.running());
  EXPECT_EQ(p.samples(), 0);
  std::string status = p.StatusJson();
  EXPECT_TRUE(IsValidJson(status)) << status;
  auto doc = ParseJson(status);
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(doc->BoolOr("compiled_in", true));
}

#else  // KGLINK_OBS_ENABLED

// ----- live sampling ----------------------------------------------------

// Holds `frames` (bottom→top) on this thread until `stop` fires.
void HoldFrames(const std::vector<const char*>& frames,
                std::atomic<bool>& stop) {
  if (frames.empty()) {
    while (!stop.load()) std::this_thread::yield();
    return;
  }
  KGLINK_SCOPE(frames[0]);
  HoldFrames({frames.begin() + 1, frames.end()}, stop);
}

// Sums the counts of merged samples whose stack starts with `prefix`.
uint64_t InclusiveCount(const std::vector<StackSample>& samples,
                        const std::vector<const char*>& prefix) {
  uint64_t total = 0;
  for (const StackSample& s : samples) {
    if (s.frames.size() < prefix.size()) continue;
    bool match = true;
    for (size_t i = 0; i < prefix.size(); ++i) {
      if (std::strcmp(s.frames[i], prefix[i]) != 0) match = false;
    }
    if (match) total += s.count;
  }
  return total;
}

TEST(ProfilerLiveTest, SamplesThreadsAndRespectsFrameNesting) {
  Profiler& p = Profiler::Global();
  ProfilerOptions opts;
  opts.hz = 4000;
  ASSERT_TRUE(p.Start(opts).ok());
  EXPECT_TRUE(p.running());
  EXPECT_FALSE(p.Start(opts).ok()) << "Start while running must refuse";

  std::atomic<bool> stop{false};
  std::thread t1([&] { HoldFrames({"root", "leaf_a"}, stop); });
  std::thread t2([&] { HoldFrames({"root", "leaf_b"}, stop); });
  // Poll until both stacks were observed (bounded; 4 kHz makes this fast).
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(10);
  std::vector<StackSample> merged;
  while (std::chrono::steady_clock::now() < deadline) {
    merged = p.MergedSamples();
    if (InclusiveCount(merged, {"root", "leaf_a"}) > 0 &&
        InclusiveCount(merged, {"root", "leaf_b"}) > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  t1.join();
  t2.join();
  p.Stop();
  EXPECT_FALSE(p.running());

  merged = p.MergedSamples();
  uint64_t root = InclusiveCount(merged, {"root"});
  uint64_t leaf_a = InclusiveCount(merged, {"root", "leaf_a"});
  uint64_t leaf_b = InclusiveCount(merged, {"root", "leaf_b"});
  EXPECT_GT(leaf_a, 0u);
  EXPECT_GT(leaf_b, 0u);
  // Children never exceed their parent's inclusive count.
  EXPECT_LE(leaf_a + leaf_b, root);
  EXPECT_GT(p.ticks(), 0);
  EXPECT_GE(p.samples(), static_cast<int64_t>(leaf_a + leaf_b));

  // Cross-thread merge in the collapsed export: both leaves under root.
  std::string collapsed = p.CollapsedStacks();
  EXPECT_NE(collapsed.find("root;leaf_a "), std::string::npos) << collapsed;
  EXPECT_NE(collapsed.find("root;leaf_b "), std::string::npos) << collapsed;

  std::string speedscope = p.SpeedscopeJson();
  EXPECT_TRUE(IsValidJson(speedscope));
  EXPECT_NE(p.SummaryText(), "");
}

TEST(ProfilerLiveTest, RestartClearsPreviousSamples) {
  Profiler& p = Profiler::Global();
  ASSERT_TRUE(p.Start({.hz = 2000}).ok());
  {
    KGLINK_SCOPE("restart_marker");
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(10);
    while (p.samples() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  p.Stop();
  ASSERT_GT(p.samples(), 0);

  // Restart: counters and the ring reset.
  ASSERT_TRUE(p.Start({.hz = 2000}).ok());
  p.Stop();
  EXPECT_EQ(
      InclusiveCount(p.MergedSamples(), {"restart_marker"}), 0u);
  p.Stop();  // idempotent
}

TEST(ProfilerLiveTest, StatusJsonIsValid) {
  Profiler& p = Profiler::Global();
  std::string status = p.StatusJson();
  ASSERT_TRUE(IsValidJson(status)) << status;
  auto doc = ParseJson(status);
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->BoolOr("compiled_in", false));
  const JsonValue* process = doc->Find("process");
  ASSERT_NE(process, nullptr);
#if defined(__linux__)
  EXPECT_GT(process->NumberOr("rss_bytes", -1), 0);
#endif
  ASSERT_NE(doc->Find("heap"), nullptr);
}

// TSan target: mutator threads churning push/pop while the sampler reads
// their stacks. Exercises the release/acquire depth protocol; any missing
// ordering shows up as a data-race report under scripts/check.sh --tsan.
TEST(ProfilerConcurrencyTest, PushPopRacesSamplerCleanly) {
  Profiler& p = Profiler::Global();
  ASSERT_TRUE(p.Start({.hz = 10000}).ok());
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        KGLINK_SCOPE("churn_outer");
        for (int i = 0; i < 64; ++i) {
          KGLINK_SCOPE("churn_inner");
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (auto& t : threads) t.join();
  p.Stop();
  // Every observed stack must be a valid prefix of the real one.
  for (const StackSample& s : p.MergedSamples()) {
    if (s.frames.empty() ||
        std::strcmp(s.frames[0], "churn_outer") != 0) {
      continue;  // another test's thread
    }
    ASSERT_LE(s.frames.size(), 2u);
    if (s.frames.size() == 2) {
      EXPECT_STREQ(s.frames[1], "churn_inner");
    }
  }
}

TEST(ProfilerLiveTest, DeepStacksTruncateAtMaxDepth) {
  Profiler& p = Profiler::Global();
  ASSERT_TRUE(p.Start({.hz = 100}).ok());
  // Deeper than kMaxProfileDepth: the overflowing frames are dropped, the
  // scopes still run, and pops stay balanced (no crash, no underflow).
  std::vector<const char*> names;
  for (uint32_t i = 0; i < kMaxProfileDepth + 8; ++i) {
    names.push_back(InternFrameName("deep" + std::to_string(i)));
  }
  std::atomic<bool> stop{true};  // no need to hold; just push/pop once
  HoldFrames(names, stop);
  const char* buf[kMaxProfileDepth];
  EXPECT_EQ(profiler_internal::CaptureOwnStack(buf), 0u);
  p.Stop();
}

#endif  // KGLINK_OBS_ENABLED

// ----- heap attribution -------------------------------------------------

TEST(HeapProfilerTest, StatusReportsCompiledState) {
  std::string status = HeapProfiler::Global().StatusJson();
  ASSERT_TRUE(IsValidJson(status)) << status;
  auto doc = ParseJson(status);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->BoolOr("compiled_in", !kHeapProfilerCompiledIn),
            kHeapProfilerCompiledIn);
}

#if defined(KGLINK_HEAP_PROFILER_ENABLED)

TEST(HeapProfilerTest, DeterministicCountsWithExactSampling) {
  // Frames only push while the profiler is armed, so call-site
  // attribution needs a running sampler (the CLI pairs --heap-profile
  // with --profile for the same reason).
  if (!kProfilerCompiledIn) {
    GTEST_SKIP() << "needs KGLINK_ENABLE_OBS=ON for frame stacks";
  }
  ASSERT_TRUE(Profiler::Global().Start({.hz = 10}).ok());
  HeapProfiler& hp = HeapProfiler::Global();
  HeapProfilerOptions opts;
  opts.sample_every = 1;  // exact per-site accounting
  hp.Enable(opts);
  hp.FlushCurrentThread();
  hp.ResetForTest();

  constexpr int kAllocs = 100;
  constexpr size_t kBytes = 1024;
  {
    KGLINK_SCOPE("heap_test_site");
    std::vector<char*> blocks;
    blocks.reserve(kAllocs);
    for (int i = 0; i < kAllocs; ++i) blocks.push_back(new char[kBytes]);
    for (char* b : blocks) delete[] b;
  }
  hp.FlushCurrentThread();
  hp.Disable();
  Profiler::Global().Stop();

  HeapTotals totals = hp.totals();
  EXPECT_GE(totals.alloc_count, static_cast<uint64_t>(kAllocs));
  EXPECT_GE(totals.alloc_bytes, static_cast<uint64_t>(kAllocs) * kBytes);
  EXPECT_GE(totals.free_count, static_cast<uint64_t>(kAllocs));

  bool found = false;
  for (const HeapSite& site : hp.Sites()) {
    if (site.frames.empty()) continue;
    if (std::strcmp(site.frames.back(), "heap_test_site") != 0) continue;
    found = true;
    EXPECT_GE(site.count, static_cast<uint64_t>(kAllocs));
    EXPECT_GE(site.bytes, static_cast<uint64_t>(kAllocs) * kBytes);
  }
  EXPECT_TRUE(found) << "allocation site not attributed";
  EXPECT_NE(hp.CollapsedAllocBytes().find("heap_test_site"),
            std::string::npos);
}

// An eval forward inside a NoGradScope allocates no tape: no closures,
// parent links, LayerNorm statistics or attention probability slabs. With
// exact accounting, a scoped 64-token forward of the product-default
// encoder makes strictly fewer allocations and bytes than a taped one.
TEST(HeapProfilerTest, ScopedEncoderForwardAllocatesLess) {
  nn::EncoderConfig config;
  config.vocab_size = 6000;
  config.max_seq_len = 192;
  Rng init(1);
  nn::TransformerEncoder encoder(config, init);
  std::vector<int> tokens(64);
  for (size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = static_cast<int>((i * 37) % 6000);
  }
  auto forward = [&](bool scoped) {
    Rng rng(2);
    std::optional<nn::NoGradScope> no_grad;
    if (scoped) no_grad.emplace();
    return encoder.Forward(tokens, rng, /*training=*/false);
  };
  // Warm both paths first so per-thread scratch capacity is not charged
  // to the measured forward.
  forward(false);
  forward(true);

  HeapProfiler& hp = HeapProfiler::Global();
  HeapProfilerOptions opts;
  opts.sample_every = 1;
  auto measure = [&](bool scoped) {
    hp.Enable(opts);
    hp.FlushCurrentThread();
    hp.ResetForTest();
    {
      nn::Tensor out = forward(scoped);
    }
    hp.FlushCurrentThread();
    hp.Disable();
    return hp.totals();
  };
  const HeapTotals taped = measure(false);
  const HeapTotals scoped = measure(true);
  std::cout << "64-token encoder forward: taped " << taped.alloc_count
            << " allocations / " << taped.alloc_bytes << " bytes, scoped "
            << scoped.alloc_count << " allocations / " << scoped.alloc_bytes
            << " bytes\n";
  EXPECT_GT(scoped.alloc_count, 0u);
  EXPECT_LT(scoped.alloc_count, taped.alloc_count);
  EXPECT_LT(scoped.alloc_bytes, taped.alloc_bytes);
}

#else

TEST(HeapProfilerTest, CompiledOutEnableIsNoop) {
  HeapProfiler& hp = HeapProfiler::Global();
  hp.Enable({});
  EXPECT_FALSE(hp.enabled());
  EXPECT_EQ(hp.totals().alloc_count, 0u);
  EXPECT_EQ(hp.Sites().size(), 0u);
}

#endif  // KGLINK_HEAP_PROFILER_ENABLED

}  // namespace
}  // namespace kglink::obs
