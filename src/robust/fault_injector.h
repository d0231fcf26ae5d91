// Deterministic, seeded fault injection at named sites. Production code
// places a fault point (MaybeInject / TableOpContext::Attempt) in front of
// an operation that could fail in a real deployment (a search RPC, a KG
// lookup, a file read); the injector decides — from a seeded per-site RNG,
// so runs are reproducible — whether that call trips. A trip is never
// retried: a file read returns kIoError, and a table-level site degrades
// its table to the PLM-only path (TableOpContext below).
//
// Disabled is the default and the hot path: MaybeInject is a single relaxed
// atomic load and branch, so fault points cost nothing measurable when no
// faults are configured.
//
// Configuration: programmatic (Configure / ConfigureFromSpec) or via the
// environment at process start — KGLINK_FAULTS="site:prob[:latency_us],..."
// and KGLINK_FAULT_SEED=N. A rule with latency_us > 0 is a latency fault:
// when it trips, the caller sleeps that long and then proceeds (the call
// succeeds slowly instead of failing).
#ifndef KGLINK_ROBUST_FAULT_INJECTOR_H_
#define KGLINK_ROBUST_FAULT_INJECTOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>

#include "util/deadline.h"
#include "util/rng.h"
#include "util/status.h"

namespace kglink::robust {

// The catalog of injectable operations. Keep FaultSiteName in sync.
enum class FaultSite : int {
  kSearchTopK = 0,  // "search.topk":  BM25 retrieval for one cell mention
  kKgNeighbors,     // "kg.neighbors": one-hop neighbour lookup (soft site)
  kIoRead,          // "io.read":      reading a persisted artifact
  kIoWrite,         // "io.write":     writing a persisted artifact
  kTrainBatch,      // "train.batch":  one gradient batch (poisons the loss)
  kPredict,         // "predict":      one PLM inference pass for a table
  // New sites are appended so existing per-site RNG streams (keyed by site
  // index) keep their historical draw sequences.
  kIoMmap,          // "io.mmap":      memory-mapping a snapshot file
  kStoreLoad,       // "store.load":   validating/loading a mapped snapshot
  kEncodeBadToken,  // "encode.bad_token": corrupts one token id pre-encode
  kNumSites,
};

inline constexpr int kNumFaultSites = static_cast<int>(FaultSite::kNumSites);

// Dotted lowercase name, e.g. "search.topk".
const char* FaultSiteName(FaultSite site);
std::optional<FaultSite> FaultSiteFromName(std::string_view name);

// One configured fault at a site.
struct FaultRule {
  double probability = 0.0;  // per-attempt trip chance in [0, 1]
  int64_t latency_us = 0;    // > 0: sleep-then-succeed instead of failing
};

class FaultInjector {
 public:
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // The process-wide injector used by all fault points.
  static FaultInjector& Global();

  // True when at least one rule with nonzero probability is active. This is
  // the only check on the no-faults hot path.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Replaces the active rules and reseeds every per-site RNG stream, so two
  // Configure calls with equal arguments produce identical trip sequences.
  void Configure(const std::map<FaultSite, FaultRule>& rules, uint64_t seed);

  // Parses "site:prob[:latency_us]" comma-separated, e.g.
  // "search.topk:0.1,io.read:0.05:250". Empty spec clears all rules.
  Status ConfigureFromSpec(std::string_view spec, uint64_t seed);

  // Clears every rule and turns the fast path back off.
  void Disable();

  // Slow path: rolls the site's RNG against its rule. For latency rules a
  // trip sleeps and returns false (the operation proceeds). With a non-null
  // `request`, the injected sleep is capped at the request's remaining
  // deadline budget — a fault can never sleep a worker past its own
  // request's expiry — and each capped sleep counts in the
  // "robust.faults.latency_truncated" metric. Never call directly from
  // production code — use MaybeInject.
  bool ShouldFail(FaultSite site, const RequestContext* request = nullptr);

  // Like ShouldFail, but draws from `rng` — a caller-owned stream — instead
  // of the site's shared global stream. The serving path gives every
  // request its own stream (seeded from the injector seed and the
  // request's stream key), so trip decisions are deterministic per seed no
  // matter how worker threads interleave; the shared streams above stay
  // schedule-dependent under concurrency by construction. No draw happens
  // when the site has no active rule, which is stable for a fixed config.
  bool ShouldFailWithRng(FaultSite site, Rng& rng,
                         const RequestContext* request = nullptr);

  // Injected latency sleeps that were cut short by a request deadline.
  int64_t latency_truncations() const;

  // Copy of the site's active rule (zero probability when none).
  FaultRule RuleFor(FaultSite site) const;

  uint64_t seed() const;
  int64_t trip_count(FaultSite site) const;

 private:
  FaultInjector();

  struct SiteState {
    FaultRule rule;
    Rng rng{0};
    int64_t trips = 0;
  };

  // Sleeps a tripped latency rule, capped at the request's remaining
  // deadline budget when one is supplied.
  void SleepLatency(int64_t latency_us, const RequestContext* request);

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  uint64_t seed_ = 0;
  std::array<SiteState, kNumFaultSites> sites_;
  std::atomic<int64_t> latency_truncations_{0};
};

// The fault point used by production code: false (no fault) unless faults
// are enabled AND the site's rule trips this call. `request` (optional)
// makes an injected latency sleep deadline-aware.
inline bool MaybeInject(FaultSite site,
                        const RequestContext* request = nullptr) {
  if (!FaultInjector::Enabled()) return false;
  return FaultInjector::Global().ShouldFail(site, request);
}

// The fault and deadline gate for processing one table, used by
// linker::KgPipeline and the predict pass. Each fallible operation calls
// Attempt(site): one fault draw, and a trip degrades the table, which makes
// the pipeline emit the PLM-only ProcessedTable — the paper's
// no-KG-context path — instead of failing. The owning request's deadline
// and cancellation degrade it the same way ("deadline" / "cancelled").
//
// A context built with a RequestContext draws from a private per-request
// stream (injector seed ^ the mixed stream key), so trip decisions are
// deterministic per seed no matter how worker threads interleave. Without
// one it draws from the injector's shared per-site streams.
class TableOpContext {
 public:
  // `request` is borrowed, may be null, and must outlive the context.
  explicit TableOpContext(const RequestContext* request);

  // Gate for one fallible operation at `site`. True when it may proceed;
  // false when the context is (now) degraded — by a trip here, whose
  // degrade_reason() is the site name, or by the request's deadline or
  // cancellation. Cheap no-op branch when fault injection is disabled.
  bool Attempt(FaultSite site);

  // Single-draw fault gate for soft sites (a trip drops one lookup's
  // evidence and never degrades). Draws from the same stream as Attempt,
  // independent of degraded state, so callers on already-degraded paths
  // still get a stable draw sequence.
  bool SoftFault(FaultSite site);

  bool degraded() const { return degraded_; }
  const char* degrade_reason() const { return degrade_reason_; }
  // The owning request (may be null) — lower layers forward it to
  // deadline-aware calls like SearchEngine::TopK.
  const RequestContext* request() const { return request_; }

 private:
  void Degrade(const char* reason);
  // Degrades with reason "cancelled" / "deadline" when the request is
  // cancelled or expired. Returns true when the context is (now) degraded.
  // Clock-read-free when there is no request or it is unbounded.
  bool CheckDeadline();
  // One fault-injection draw at `site` from this context's stream.
  bool RollFault(FaultSite site);

  const RequestContext* request_;
  Rng fault_rng_{0};  // per-request stream; used iff request_ != nullptr
  bool degraded_ = false;
  const char* degrade_reason_ = "";
};

}  // namespace kglink::robust

#endif  // KGLINK_ROBUST_FAULT_INJECTOR_H_
