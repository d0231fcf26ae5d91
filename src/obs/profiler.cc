#include "obs/profiler.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "obs/heap_profiler.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "util/csv.h"

namespace kglink::obs {

namespace profiler_internal {

// One per registered thread; owned by the thread, torn down under the
// registry lock so the sampler can never read a freed stack.
struct ThreadStack {
  std::atomic<uint32_t> depth{0};
  std::array<std::atomic<const char*>, kMaxProfileDepth> frames{};
  uint32_t tid = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<ThreadStack*> threads;
  uint32_t next_tid = 0;
};

Registry& GlobalRegistry() {
  static Registry& r = *new Registry();
  return r;
}

namespace {

// POD thread-locals so they stay readable during thread teardown; the
// StackOwner destructor (registered on first push) unregisters the stack
// and flips `t_retired` so late frames degrade to no-ops instead of
// re-registering a thread that is exiting.
thread_local ThreadStack* t_stack = nullptr;
thread_local bool t_retired = false;

struct StackOwner {
  ~StackOwner() {
    if (t_stack != nullptr) {
      Registry& reg = GlobalRegistry();
      std::lock_guard<std::mutex> lock(reg.mu);
      auto it = std::find(reg.threads.begin(), reg.threads.end(), t_stack);
      if (it != reg.threads.end()) reg.threads.erase(it);
      delete t_stack;
      t_stack = nullptr;
    }
    t_retired = true;
  }
};
thread_local StackOwner t_owner;

ThreadStack* CurrentThreadStack() {
  if (t_stack != nullptr) return t_stack;
  if (t_retired) return nullptr;
  (void)&t_owner;  // odr-use: pins the thread-exit cleanup
  auto* ts = new ThreadStack();
  Registry& reg = GlobalRegistry();
  std::lock_guard<std::mutex> lock(reg.mu);
  ts->tid = reg.next_tid++;
  reg.threads.push_back(ts);
  t_stack = ts;
  return ts;
}

}  // namespace

bool PushFrame(const char* name) {
  ThreadStack* ts = CurrentThreadStack();
  if (ts == nullptr) return false;
  uint32_t d = ts->depth.load(std::memory_order_relaxed);
  if (d < kMaxProfileDepth) {
    ts->frames[d].store(name, std::memory_order_relaxed);
  }
  // Release so a sampler that observes the new depth also observes the
  // frame pointer stored above.
  ts->depth.store(d + 1, std::memory_order_release);
  return true;
}

void PopFrame() {
  ThreadStack* ts = t_stack;
  if (ts == nullptr) return;
  uint32_t d = ts->depth.load(std::memory_order_relaxed);
  if (d > 0) ts->depth.store(d - 1, std::memory_order_release);
}

uint32_t CaptureOwnStack(const char** buf) {
  ThreadStack* ts = t_stack;
  if (ts == nullptr) return 0;
  uint32_t d =
      std::min(ts->depth.load(std::memory_order_relaxed), kMaxProfileDepth);
  for (uint32_t i = 0; i < d; ++i) {
    buf[i] = ts->frames[i].load(std::memory_order_relaxed);
  }
  return d;
}

}  // namespace profiler_internal

namespace {

struct InternPool {
  std::mutex mu;
  std::set<std::string, std::less<>> names;
};

InternPool& GlobalInternPool() {
  static InternPool& p = *new InternPool();
  return p;
}

}  // namespace

const char* InternFrameName(std::string_view name) {
  InternPool& pool = GlobalInternPool();
  std::lock_guard<std::mutex> lock(pool.mu);
  auto it = pool.names.find(name);
  if (it == pool.names.end()) {
    it = pool.names.emplace(std::string(name)).first;
  }
  return it->c_str();
}

namespace {

// Process memory readings; -1 where the platform gives no answer.
struct ProcessMemory {
  int64_t rss_bytes = -1;
  int64_t peak_rss_bytes = -1;
  int64_t arena_bytes = -1;
};

ProcessMemory ReadProcessMemory() {
  ProcessMemory pm;
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long long total = 0, resident = 0;
    if (std::fscanf(f, "%lld %lld", &total, &resident) == 2) {
      pm.rss_bytes = resident * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
    }
    std::fclose(f);
  }
#endif
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    pm.peak_rss_bytes = static_cast<int64_t>(ru.ru_maxrss);  // bytes
#else
    pm.peak_rss_bytes = static_cast<int64_t>(ru.ru_maxrss) * 1024;  // KiB
#endif
  }
#if defined(__GLIBC__) && defined(__GLIBC_PREREQ)
#if __GLIBC_PREREQ(2, 33)
  {
    struct mallinfo2 mi = mallinfo2();
    pm.arena_bytes =
        static_cast<int64_t>(mi.arena) + static_cast<int64_t>(mi.hblkhd);
  }
#endif
#endif
  return pm;
}

std::string JoinFrames(const std::vector<const char*>& frames) {
  std::string out;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (i > 0) out.push_back(';');
    out.append(frames[i]);
  }
  return out;
}

}  // namespace

void UpdateProcessMemoryGauges() {
  ProcessMemory pm = ReadProcessMemory();
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetGauge("process.mem.rss_bytes").Set(static_cast<double>(pm.rss_bytes));
  reg.GetGauge("process.mem.peak_rss_bytes")
      .Set(static_cast<double>(pm.peak_rss_bytes));
  reg.GetGauge("process.mem.arena_bytes")
      .Set(static_cast<double>(pm.arena_bytes));
}

std::string CollapsedFromSamples(const std::vector<StackSample>& samples) {
  // Merge across threads; sorted lines make equal sample sets export
  // byte-identically.
  std::map<std::string, uint64_t> lines;
  for (const StackSample& s : samples) {
    if (s.frames.empty() || s.count == 0) continue;
    lines[JoinFrames(s.frames)] += s.count;
  }
  std::string out;
  for (const auto& [stack, count] : lines) {
    out += stack;
    out.push_back(' ');
    out += std::to_string(count);
    out.push_back('\n');
  }
  return out;
}

std::string SpeedscopeFromSamples(const std::vector<StackSample>& samples,
                                  double period_us) {
  // Shared frame table keyed by name content (literals for the same
  // scope may have distinct addresses across translation units).
  std::map<std::string, size_t, std::less<>> frame_idx;
  std::vector<std::string> frame_names;
  auto frame_id = [&](const char* name) {
    auto it = frame_idx.find(std::string_view(name));
    if (it != frame_idx.end()) return it->second;
    size_t id = frame_names.size();
    frame_names.emplace_back(name);
    frame_idx.emplace(frame_names.back(), id);
    return id;
  };

  std::map<uint32_t, std::vector<const StackSample*>> by_tid;
  for (const StackSample& s : samples) {
    if (s.frames.empty() || s.count == 0) continue;
    by_tid[s.tid].push_back(&s);
  }
  // Build per-thread sample/weight arrays first so the frame table is
  // complete before serialization.
  struct Profile {
    uint32_t tid;
    std::string samples_json;
    std::string weights_json;
    double end_value = 0;
  };
  std::vector<Profile> profiles;
  for (const auto& [tid, stacks] : by_tid) {
    Profile p;
    p.tid = tid;
    p.samples_json = "[";
    p.weights_json = "[";
    bool first = true;
    for (const StackSample* s : stacks) {
      if (!first) {
        p.samples_json += ", ";
        p.weights_json += ", ";
      }
      first = false;
      p.samples_json += "[";
      for (size_t i = 0; i < s->frames.size(); ++i) {
        if (i > 0) p.samples_json += ", ";
        p.samples_json += std::to_string(frame_id(s->frames[i]));
      }
      p.samples_json += "]";
      double w = s->weight_us > 0
                     ? static_cast<double>(s->weight_us)
                     : static_cast<double>(s->count) * period_us;
      p.weights_json += JsonNumber(w);
      p.end_value += w;
    }
    p.samples_json += "]";
    p.weights_json += "]";
    profiles.push_back(std::move(p));
  }
  if (profiles.empty()) {
    profiles.push_back({0, "[]", "[]", 0});
  }

  std::string out =
      "{\"$schema\": \"https://www.speedscope.app/file-format-schema.json\", "
      "\"exporter\": \"kglink-profiler\", \"name\": \"kglink profile\", "
      "\"activeProfileIndex\": 0, \"shared\": {\"frames\": [";
  for (size_t i = 0; i < frame_names.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + JsonEscape(frame_names[i]) + "\"}";
  }
  out += "]}, \"profiles\": [";
  for (size_t i = 0; i < profiles.size(); ++i) {
    const Profile& p = profiles[i];
    if (i > 0) out += ", ";
    out += "{\"type\": \"sampled\", \"name\": \"thread " +
           std::to_string(p.tid) + "\", \"unit\": \"microseconds\", " +
           "\"startValue\": 0, \"endValue\": " + JsonNumber(p.end_value) +
           ", \"samples\": " + p.samples_json +
           ", \"weights\": " + p.weights_json + "}";
  }
  out += "]}";
  return out;
}

struct Profiler::Impl {
  std::mutex mu;
  std::condition_variable cv;
  bool running = false;
  bool stop_requested = false;
  std::thread sampler;
  ProfilerOptions opts;
  int64_t ticks = 0;
  int64_t total_samples = 0;
  int64_t dropped = 0;
  // Sampler-side stack interning: the ring stores small ids, the map
  // recovers (tid, frames) at export time.
  using StackKey = std::pair<uint32_t, std::vector<const char*>>;
  std::map<StackKey, uint32_t> stack_ids;
  std::vector<const StackKey*> stacks;  // id → key (stable map nodes)
  // Each entry carries the measured interval since the previous tick so
  // profiles stay wall-accurate when the sampler runs late or skips.
  struct RingEntry {
    uint32_t stack_id;
    uint32_t weight_us;
  };
  std::vector<RingEntry> ring;
  size_t ring_head = 0;
  std::chrono::steady_clock::time_point last_tick{};
};

Profiler::Profiler() : impl_(new Impl()) {}

Profiler& Profiler::Global() {
  static Profiler& p = *new Profiler();
  return p;
}

Status Profiler::Start(const ProfilerOptions& options) {
  if (!kProfilerCompiledIn) {
    // No frames are ever pushed in this build; running a sampler would
    // only produce empty profiles.
    return Status::FailedPrecondition(
        "profiler compiled out (KGLINK_ENABLE_OBS=OFF)");
  }
  if (options.hz <= 0 || options.hz > 100000) {
    return Status::InvalidArgument("profiler hz out of range: " +
                                   std::to_string(options.hz));
  }
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  if (im.running) {
    return Status::FailedPrecondition("profiler already running");
  }
  im.opts = options;
  if (im.opts.ring_capacity < 1024) im.opts.ring_capacity = 1024;
  im.ticks = 0;
  im.total_samples = 0;
  im.dropped = 0;
  im.stack_ids.clear();
  im.stacks.clear();
  im.ring.clear();
  im.ring.reserve(std::min<size_t>(im.opts.ring_capacity, 1u << 16));
  im.ring_head = 0;
  im.last_tick = std::chrono::steady_clock::now();
  im.stop_requested = false;
  im.running = true;
  im.sampler = std::thread([this] { SamplerLoop(); });
  scope_internal::g_armed.fetch_or(scope_internal::kProfileArmed,
                                   std::memory_order_release);
  return Status::Ok();
}

void Profiler::Stop() {
  Impl& im = *impl_;
  std::thread joiner;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    if (!im.running) return;
    scope_internal::g_armed.fetch_and(~scope_internal::kProfileArmed,
                                      std::memory_order_release);
    im.stop_requested = true;
    joiner = std::move(im.sampler);
    im.running = false;
  }
  im.cv.notify_all();
  if (joiner.joinable()) joiner.join();
}

bool Profiler::running() const {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  return im.running;
}

ProfilerOptions Profiler::options() const {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  return im.opts;
}

int64_t Profiler::ticks() const {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  return im.ticks;
}

int64_t Profiler::samples() const {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  return im.total_samples;
}

int64_t Profiler::dropped() const {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  return im.dropped;
}

void Profiler::SamplerLoop() {
  Impl& im = *impl_;
  const auto period = std::chrono::microseconds(
      std::max<int64_t>(1, 1000000 / im.opts.hz));
  std::unique_lock<std::mutex> lock(im.mu);
  auto next = std::chrono::steady_clock::now() + period;
  while (!im.stop_requested) {
    if (im.cv.wait_until(lock, next,
                         [&] { return im.stop_requested; })) {
      break;
    }
    next += period;
    auto now = std::chrono::steady_clock::now();
    if (next < now) next = now + period;  // fell behind: skip, don't burst
    lock.unlock();
    TakeSample();
    lock.lock();
  }
}

void Profiler::TakeSample() {
  Impl& im = *impl_;
  struct Observation {
    uint32_t tid;
    uint32_t depth;
    std::array<const char*, kMaxProfileDepth> frames;
  };
  // Snapshot all registered stacks under the registry lock (held only
  // for the copies — mutator push/pop never touches this lock).
  std::vector<Observation> observed;
  {
    profiler_internal::Registry& reg = profiler_internal::GlobalRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    observed.reserve(reg.threads.size());
    for (profiler_internal::ThreadStack* ts : reg.threads) {
      uint32_t d =
          std::min(ts->depth.load(std::memory_order_acquire),
                   kMaxProfileDepth);
      if (d == 0) continue;
      Observation o;
      o.tid = ts->tid;
      bool ok = true;
      for (uint32_t i = 0; i < d; ++i) {
        o.frames[i] = ts->frames[i].load(std::memory_order_relaxed);
        if (o.frames[i] == nullptr) ok = false;
      }
      // If the stack shrank mid-copy keep only the still-valid prefix.
      uint32_t d2 = std::min(ts->depth.load(std::memory_order_acquire),
                             kMaxProfileDepth);
      o.depth = std::min(d, d2);
      if (ok && o.depth > 0) observed.push_back(o);
    }
  }

  auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(im.mu);
  // Weight this tick's samples by the measured interval since the last
  // tick: a late wake or a skipped tick stretches the interval instead of
  // silently shrinking the profile's wall total.
  auto interval = std::chrono::duration_cast<std::chrono::microseconds>(
                      now - im.last_tick)
                      .count();
  im.last_tick = now;
  uint32_t weight = static_cast<uint32_t>(
      std::clamp<int64_t>(interval, 1, UINT32_MAX));
  ++im.ticks;
  for (const Observation& o : observed) {
    Impl::StackKey key{o.tid, std::vector<const char*>(
                                  o.frames.begin(), o.frames.begin() + o.depth)};
    auto [it, inserted] =
        im.stack_ids.emplace(std::move(key),
                             static_cast<uint32_t>(im.stacks.size()));
    if (inserted) im.stacks.push_back(&it->first);
    Impl::RingEntry entry{it->second, weight};
    if (im.ring.size() < im.opts.ring_capacity) {
      im.ring.push_back(entry);
    } else {
      im.ring[im.ring_head] = entry;
      im.ring_head = (im.ring_head + 1) % im.ring.size();
      ++im.dropped;
    }
    ++im.total_samples;
  }
}

std::vector<StackSample> Profiler::MergedSamples() const {
  Impl& im = *impl_;
  std::vector<StackSample> out;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    std::map<uint32_t, std::pair<uint64_t, uint64_t>> counts;  // count, us
    for (const Impl::RingEntry& e : im.ring) {
      auto& [count, weight] = counts[e.stack_id];
      ++count;
      weight += e.weight_us;
    }
    out.reserve(counts.size());
    for (const auto& [id, cw] : counts) {
      const Impl::StackKey& key = *im.stacks[id];
      StackSample s;
      s.tid = key.first;
      s.frames = key.second;
      s.count = cw.first;
      s.weight_us = cw.second;
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const StackSample& a, const StackSample& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              size_t n = std::min(a.frames.size(), b.frames.size());
              for (size_t i = 0; i < n; ++i) {
                int c = std::strcmp(a.frames[i], b.frames[i]);
                if (c != 0) return c < 0;
              }
              return a.frames.size() < b.frames.size();
            });
  return out;
}

std::string Profiler::CollapsedStacks() const {
  return CollapsedFromSamples(MergedSamples());
}

std::string Profiler::SpeedscopeJson() const {
  double period_us = 1000000.0 / options().hz;
  return SpeedscopeFromSamples(MergedSamples(), period_us);
}

Status Profiler::WriteCollapsed(const std::string& path) const {
  return WriteFile(path, CollapsedStacks());
}

Status Profiler::WriteSpeedscope(const std::string& path) const {
  return WriteFile(path, SpeedscopeJson());
}

std::string Profiler::SummaryText(size_t top_n) const {
  std::vector<StackSample> samples = MergedSamples();
  if (samples.empty()) return "";
  double period_us = 1000000.0 / options().hz;
  struct FrameStat {
    uint64_t inclusive_us = 0;
    uint64_t exclusive_us = 0;
  };
  std::map<std::string, FrameStat, std::less<>> stats;
  uint64_t count_total = 0;
  uint64_t us_total = 0;
  for (const StackSample& s : samples) {
    count_total += s.count;
    uint64_t us = s.weight_us > 0
                      ? s.weight_us
                      : static_cast<uint64_t>(s.count * period_us);
    us_total += us;
    // A frame may legitimately recurse; charge inclusive once per sample.
    std::set<std::string_view> seen;
    for (const char* f : s.frames) {
      if (seen.insert(f).second) {
        stats[std::string(f)].inclusive_us += us;
      }
    }
    stats[std::string(s.frames.back())].exclusive_us += us;
  }
  std::vector<std::pair<std::string, FrameStat>> rows(stats.begin(),
                                                      stats.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.exclusive_us != b.second.exclusive_us) {
      return a.second.exclusive_us > b.second.exclusive_us;
    }
    return a.first < b.first;
  });
  if (rows.size() > top_n) rows.resize(top_n);

  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line),
                "profile: %lld samples @ %d Hz (%lld dropped)\n",
                static_cast<long long>(count_total), options().hz,
                static_cast<long long>(dropped()));
  out += line;
  std::snprintf(line, sizeof(line), "  %-32s %10s %10s %6s\n", "frame",
                "incl_ms", "excl_ms", "excl%");
  out += line;
  for (const auto& [name, st] : rows) {
    std::snprintf(line, sizeof(line), "  %-32s %10.1f %10.1f %5.1f%%\n",
                  name.c_str(), st.inclusive_us / 1000.0,
                  st.exclusive_us / 1000.0,
                  us_total ? 100.0 * st.exclusive_us / us_total : 0.0);
    out += line;
  }
  return out;
}

std::string Profiler::StatusJson() const {
  UpdateProcessMemoryGauges();
  ProcessMemory pm = ReadProcessMemory();
  Impl& im = *impl_;
  size_t threads = 0;
  {
    profiler_internal::Registry& reg = profiler_internal::GlobalRegistry();
    std::lock_guard<std::mutex> lock(reg.mu);
    threads = reg.threads.size();
  }
  size_t interned = 0;
  {
    InternPool& pool = GlobalInternPool();
    std::lock_guard<std::mutex> lock(pool.mu);
    interned = pool.names.size();
  }
  std::lock_guard<std::mutex> lock(im.mu);
  std::string out = "{";
  out += "\"compiled_in\": ";
  out += kProfilerCompiledIn ? "true" : "false";
  out += ", \"running\": ";
  out += im.running ? "true" : "false";
  out += ", \"hz\": " + std::to_string(im.opts.hz);
  out += ", \"ticks\": " + std::to_string(im.ticks);
  out += ", \"samples\": " + std::to_string(im.total_samples);
  out += ", \"dropped\": " + std::to_string(im.dropped);
  out += ", \"threads\": " + std::to_string(threads);
  out += ", \"unique_stacks\": " + std::to_string(im.stacks.size());
  out += ", \"interned_names\": " + std::to_string(interned);
  out += ", \"heap\": " + HeapProfiler::Global().StatusJson();
  out += ", \"process\": {\"rss_bytes\": " + std::to_string(pm.rss_bytes) +
         ", \"peak_rss_bytes\": " + std::to_string(pm.peak_rss_bytes) +
         ", \"arena_bytes\": " + std::to_string(pm.arena_bytes) + "}";
  out += "}";
  return out;
}

}  // namespace kglink::obs
