// Overload-control unit tests: ServiceOptions validation clamps and
// deadline-aware latency-fault truncation.
#include <gtest/gtest.h>

#include "robust/fault_injector.h"
#include "serve/annotation_service.h"
#include "util/deadline.h"
#include "util/stopwatch.h"

namespace kglink::serve {
namespace {

// --- ServiceOptions validation ------------------------------------------

TEST(ValidatedServiceOptionsTest, ClampsNonsenseToSaneValues) {
  ServiceOptions o;
  o.num_threads = 0;
  o.max_queue = -5;
  o.default_deadline_us = -1;
  ServiceOptions v = ValidatedServiceOptions(o);
  EXPECT_EQ(v.num_threads, 1);
  EXPECT_EQ(v.max_queue, 1);
  EXPECT_EQ(v.default_deadline_us, 0);
}

// --- Deadline-aware latency faults --------------------------------------

TEST(LatencyFaultTest, InjectedSleepIsCappedAtRemainingDeadline) {
  // A 200ms latency rule against a 2ms deadline: the sleep must be cut to
  // the remaining budget, not run its full course.
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("predict:1.0:200000", 3)
                  .ok());
  int64_t before = robust::FaultInjector::Global().latency_truncations();
  RequestContext rc;
  rc.deadline = Deadline::AfterMicros(2'000);
  Stopwatch watch;
  // Latency rules sleep then report no failure.
  EXPECT_FALSE(robust::MaybeInject(robust::FaultSite::kPredict, &rc));
  EXPECT_LT(watch.ElapsedSeconds(), 0.15);  // nowhere near 200ms
  EXPECT_EQ(robust::FaultInjector::Global().latency_truncations(),
            before + 1);
  robust::FaultInjector::Global().Disable();
}

TEST(LatencyFaultTest, CancelledRequestSkipsTheSleepEntirely) {
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("predict:1.0:200000", 3)
                  .ok());
  RequestContext rc;
  rc.cancel = CancellationToken::Cancellable();
  rc.cancel.Cancel();
  Stopwatch watch;
  EXPECT_FALSE(robust::MaybeInject(robust::FaultSite::kPredict, &rc));
  EXPECT_LT(watch.ElapsedSeconds(), 0.05);
  robust::FaultInjector::Global().Disable();
}

TEST(LatencyFaultTest, UnboundedRequestSleepsTheFullRule) {
  ASSERT_TRUE(robust::FaultInjector::Global()
                  .ConfigureFromSpec("predict:1.0:20000", 3)
                  .ok());
  int64_t before = robust::FaultInjector::Global().latency_truncations();
  Stopwatch watch;
  EXPECT_FALSE(robust::MaybeInject(robust::FaultSite::kPredict, nullptr));
  EXPECT_GE(watch.ElapsedSeconds(), 0.015);
  EXPECT_EQ(robust::FaultInjector::Global().latency_truncations(), before);
  robust::FaultInjector::Global().Disable();
}

}  // namespace
}  // namespace kglink::serve
