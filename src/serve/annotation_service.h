// AnnotationService: concurrent table annotation with deadlines and
// admission control — the serving harness around core::KgLinkAnnotator.
//
// Architecture:
//
//   Submit ──► max_queue admission ───► bounded queue ──► worker pool
//                │ (full queue)                             │
//                └─► shed: degraded PLM-only run inline,    └─► deadline /
//                    or kOverloaded when the deadline           cancellation
//                    cannot even fit that                       propagate to
//                                                               every layer
//
// - Every request carries a Deadline + CancellationToken (RequestContext)
//   through linker::KgPipeline, search::SearchEngine::TopK and the predict
//   pass. An expired request short-circuits to the degraded PLM-only
//   ProcessedTable (degrade_reason "deadline" / "cancelled") — full-width
//   predictions, never a crash or a partial result.
// - Admission is the hard max_queue bound: when the queue is full the
//   caller thread runs the degraded PLM-only path inline (status kShed) if
//   the request's deadline still allows, else the request is refused
//   (kOverloaded) without touching the model.
// - Faults are never retried: an injected search.topk trip degrades that
//   table to the PLM-only path (kDegraded), a predict trip fails the
//   request (kFailed).
// - Health/readiness: HealthJson() snapshots queue depth, inflight count
//   and per-status totals; the same numbers are exported through the obs
//   metrics registry ("serve.*").
//
// Thread safety: all public methods are safe from any thread. The borrowed
// annotator must have finished Fit/Load before the first Submit, and
// every submitted table must stay alive until its future resolves.
#ifndef KGLINK_SERVE_ANNOTATION_SERVICE_H_
#define KGLINK_SERVE_ANNOTATION_SERVICE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <memory>

#include "core/annotator.h"
#include "obs/request_telemetry.h"
#include "obs/rolling_window.h"
#include "store/snapshot_store.h"
#include "table/table.h"
#include "util/deadline.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace kglink::serve {

struct ServiceOptions {
  int num_threads = 4;
  int max_queue = 64;
  // Applied to Submit calls that do not bring their own deadline;
  // 0 = unbounded.
  int64_t default_deadline_us = 0;

  // Latency SLO surfaced by HealthJson(): target end-to-end latency, the
  // fraction of requests required to meet it, and the two burn-rate
  // windows (short for paging, long for confirmation).
  int64_t slo_target_us = 100'000;
  double slo_objective = 0.99;
  int64_t slo_short_window_us = 10'000'000;
  int64_t slo_long_window_us = 60'000'000;
  // Sliding latency-stats window (p50/p99/p999 in HealthJson) and its
  // slot granularity.
  int64_t stats_window_us = 10'000'000;
  int stats_window_slots = 10;

  // Injectable monotonic-microseconds clock driving the latency/SLO
  // windows and queue-wait measurement. Empty = steady clock; tests inject
  // a virtual clock for deterministic behavior.
  obs::ClockMicrosFn clock;
};

// Clamps nonsensical parameters to sane values instead of letting a
// misconfigured service run silently: at least one thread and one queue
// slot, and a negative default deadline becomes 0 (warning logged). Applied by the constructor.
ServiceOptions ValidatedServiceOptions(ServiceOptions options);

// Terminal state of one request. Ordered roughly by "how much work ran".
enum class RequestStatus : int {
  kOk = 0,        // full KG+PLM annotation inside the deadline
  kDegraded,      // PLM-only fallback (deadline, cancellation, faults)
  kShed,          // queue full: degraded PLM-only run in the caller thread
  kOverloaded,    // refused outright (queue full and no deadline headroom,
                  // or the service is shutting down)
  kCancelled,     // cancellation token fired
  kFailed,        // hard failure (an injected fault at the predict site)
  kNumStatuses,
};

inline constexpr int kNumRequestStatuses =
    static_cast<int>(RequestStatus::kNumStatuses);

// Lowercase name, e.g. "ok", "degraded", "overloaded".
const char* RequestStatusName(RequestStatus status);

struct AnnotationResult {
  RequestStatus status = RequestStatus::kOk;
  // Per original column; empty only for kOverloaded / kFailed.
  std::vector<int> predictions;
  // Set for kDegraded / kShed / kCancelled.
  std::string degrade_reason;
  Status error;                // set for kOverloaded / kFailed
  int64_t queue_us = 0;        // time spent waiting for a worker
  int64_t work_us = 0;         // time spent annotating
  // Per-stage accounting for this request. The service always fills queue
  // wait and the post-process remainder; the library stages
  // (linker.process, search.topk, search.cell_cache, core.predict) stay
  // zero when the build compiles instrumentation out
  // (KGLINK_ENABLE_OBS=OFF).
  obs::RequestTelemetry telemetry;

  int64_t total_us() const { return queue_us + work_us; }
};

class AnnotationService {
 public:
  // `annotator` is borrowed and must outlive the service; Fit/Load must
  // have completed.
  AnnotationService(core::KgLinkAnnotator* annotator, ServiceOptions options);
  ~AnnotationService();  // implies Shutdown()

  AnnotationService(const AnnotationService&) = delete;
  AnnotationService& operator=(const AnnotationService&) = delete;

  // Enqueues one table (borrowed; must outlive the returned future's
  // resolution) under the service default deadline.
  std::future<AnnotationResult> Submit(const table::Table& table);

  // Enqueues with an explicit per-request deadline and (optionally) a
  // cancellation token the caller may fire at any point.
  std::future<AnnotationResult> Submit(const table::Table& table,
                                       Deadline deadline,
                                       CancellationToken cancel = {});

  // Stops admission, drains every queued request through the workers and
  // joins them. Idempotent; called by the destructor.
  void Shutdown();

  // ---- Snapshot serving (RCU-style hot reload) -------------------------
  //
  // The service can serve the annotator's KG/engine out of a refcounted
  // snapshot generation (store::LoadedSnapshot). AttachSnapshotStore
  // borrows the store (must outlive the service) and, if the store already
  // holds a good generation, adopts it immediately. ReloadSnapshot loads
  // `path` into a *new* generation and swaps it in between requests:
  //
  //     serving gen G ── Load(path) ──► ok? ──► pause dispatch
  //         │                │                  wait inflight == 0
  //         │                └─ fail ──► G keeps serving (rollback);
  //         │                            corruption quarantined by the
  //         │                            store, error returned
  //         └──────────────────────────► Rebind annotator onto G+1,
  //                                      resume dispatch, release G
  //
  // The swap window touches no request: workers pause between items, the
  // quiesce wait covers shed-inline runs too, and queued requests simply
  // wait out the (microseconds-scale) rebind. On load failure nothing is
  // swapped — the previous generation keeps serving and the error lands in
  // HealthJson's snapshot.last_error.
  void AttachSnapshotStore(store::SnapshotStore* store);
  Status ReloadSnapshot(const std::string& path);

  // Generation currently being served from, or null (built in memory, not
  // snapshot-backed).
  std::shared_ptr<const store::LoadedSnapshot> serving_snapshot() const;

  // {"accepting":…, "threads":…, "queue_depth":…, "max_queue":…,
  //  "inflight":…, "completed":{status:count,…},
  //  "window":{window_s,count,mean_us,p50_us,p99_us,p999_us},
  //  "slo":{target_us,objective,burning,short:{…},long:{…}},
  //  "snapshot":{attached,generation,sequence,source,reloading,
  //              loads,load_failures,quarantined,version_skew
  //              [,mapped_bytes,resident_bytes][,last_error]},
  //  "cell_cache":{capacity,size,hits,misses,evictions},
  //  "profile":{compiled_in,running,hz,ticks,samples,…,heap:{…},
  //             process:{rss_bytes,peak_rss_bytes,arena_bytes}}}
  // "window"/"slo" cover the sliding windows configured in ServiceOptions
  // (not cumulative-since-start). snapshot appears only after
  // AttachSnapshotStore (mapped/resident bytes once a generation is
  // adopted — a mincore scan refreshed per render, -1 where unsupported);
  // cell_cache only when the annotator's cell-link cache is enabled.
  std::string HealthJson() const;

  // Total requests that finished with `status` (includes shed/overloaded
  // resolutions performed in Submit).
  int64_t completed(RequestStatus status) const;

  int queue_depth() const;
  const ServiceOptions& options() const { return options_; }

 private:
  struct Request {
    const table::Table* table = nullptr;
    RequestContext rc;
    std::promise<AnnotationResult> promise;
    // Enqueue time on the service clock; the result's queue_us is the
    // dequeue time minus this.
    int64_t enqueue_us = 0;
  };

  int64_t NowMicros() const;
  void WorkerLoop();
  AnnotationResult RunRequest(Request& req, int64_t queue_us);
  // The shed path: degraded PLM-only annotation in the calling thread.
  AnnotationResult RunShedInline(const table::Table& table,
                                 const RequestContext& rc);
  // Decrements the quiesce-tracked inflight count (taken under mu_ before
  // any annotator call — worker or shed-inline — starts) and wakes a
  // reload waiting for the pool to drain.
  void FinishInflight();
  // The swap itself: pause dispatch, wait inflight == 0, Rebind, resume.
  // Caller holds reload_mu_.
  void AdoptGeneration(std::shared_ptr<const store::LoadedSnapshot> gen);
  void CountCompletion(RequestStatus status);
  // Feeds the rolling latency window + SLO monitor and, when the global
  // FlightRecorder is armed and triggers, emits this request's stage
  // breakdown as one JSON line.
  void ObserveCompletion(const table::Table& table, const RequestContext& rc,
                         const AnnotationResult& result);

  core::KgLinkAnnotator* annotator_;
  ServiceOptions options_;
  // Sliding-window latency stats and SLO burn tracking (HealthJson).
  std::unique_ptr<obs::RollingWindow> latency_window_;
  std::unique_ptr<obs::SloMonitor> slo_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  uint64_t next_stream_key_ = 0;  // assigned under mu_ in submission order
  bool accepting_ = false;
  bool stopping_ = false;
  // Reload quiesce state, all under mu_. `inflight_` counts requests
  // currently inside the annotator (worker runs and shed-inline runs); it
  // is incremented before mu_ is released to start the work, so a reload
  // that holds mu_ and sees inflight_ == 0 knows no annotator call is in
  // flight or can start. `paused_` gates worker dispatch during the swap.
  int inflight_ = 0;
  bool paused_ = false;
  std::condition_variable quiesce_cv_;  // signalled when inflight_ hits 0

  // Serializes AttachSnapshotStore/ReloadSnapshot against each other
  // (never held while annotating; acquired before mu_).
  std::mutex reload_mu_;
  store::SnapshotStore* snapshot_store_ = nullptr;  // borrowed, may be null
  // Under mu_: the generation the annotator is bound to, and the last
  // failed reload's error (cleared by a successful swap).
  std::shared_ptr<const store::LoadedSnapshot> serving_snapshot_;
  std::string last_reload_error_;

  std::vector<std::thread> workers_;
  std::array<std::atomic<int64_t>, kNumRequestStatuses> completed_{};
};

}  // namespace kglink::serve

#endif  // KGLINK_SERVE_ANNOTATION_SERVICE_H_
