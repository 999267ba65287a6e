// Cancellation-latency suite for the hung-query watchdog: a query is hung
// (via the injector's hung-morsel mode) at each of four pipeline sites —
// engine scan, Bernoulli sampler draw, grace-sample draw, and pool dispatch —
// under small executor-thread counts, and the suite asserts the watchdog
// declares it hung within deadline + grace, reclaims its admission slot
// while the morsel is still stalled (capacity is reusable immediately), and
// that the eventual late completion does not double-release the slot.

#include "service/watchdog.h"

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "gov/fault_injector.h"
#include "service/query_service.h"
#include "workload/datagen.h"

namespace aqp {
namespace service {
namespace {

constexpr const char* kSumQuery =
    "SELECT SUM(extendedprice) AS s FROM lineitem WITH ERROR 5% "
    "CONFIDENCE 95%";

constexpr int64_t kHangMs = 800;
constexpr int64_t kGraceMs = 150;

/// Polls `pred` every 5 ms until it holds or `timeout_ms` passes.
template <typename Pred>
bool WaitFor(Pred pred, int64_t timeout_ms) {
  auto give_up =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < give_up) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// One hang scenario: where the morsel stalls, how many executor threads the
/// query runs with, and the submission deadline that the watchdog enforces.
struct HangCase {
  const char* site;
  int num_threads;
  int64_t deadline_ms;
  bool use_synopsis_cache;  // Off forces the ladder past rung 1 (OLA case).
};

std::string CaseName(const ::testing::TestParamInfo<HangCase>& info) {
  std::string site = info.param.site;
  for (char& c : site) {
    if (c == '.') c = '_';
  }
  return site + "_threads" + std::to_string(info.param.num_threads);
}

class WatchdogHangTest : public ::testing::TestWithParam<HangCase> {
 protected:
  void SetUp() override {
    catalog_ = workload::GenerateLineitemLike(60000, 11).value();
    // The hung query parks on a pool worker for the whole hang; later
    // submissions need workers of their own to prove the reclaimed slot is
    // actually usable.
    ThreadPool::Shared().EnsureAtLeast(8);
  }

  ServiceOptions Options(const HangCase& c) const {
    ServiceOptions o;
    o.gov.aqp.pilot_rate = 0.02;
    o.gov.aqp.block_size = 64;
    o.gov.aqp.min_table_rows = 1000;
    o.gov.aqp.max_rate = 0.8;
    // Row sampling: the default block method never draws a Bernoulli
    // sample, and its post-draw gathers are too small to fan out — neither
    // the sampler.bernoulli nor the pool.dispatch hang would ever be hit.
    // The engine's Bernoulli scan draws over the full base table, so it both
    // hits the sampler site and (morselized, 60k rows) dispatches pool
    // helpers.
    o.gov.aqp.method = SampleSpec::Method::kBernoulliRow;
    o.gov.aqp.exec.num_threads = c.num_threads;
    o.synopsis_rows = 4000;
    o.synopsis_min_table_rows = 10000;
    o.use_synopsis_cache = c.use_synopsis_cache;
    o.admission.max_inflight = 1;  // One slot: a leak would be total outage.
    o.admission.max_queue = 4;
    o.admission.queue_timeout_ms = 4000;
    o.watchdog.period_ms = 20;
    o.watchdog.grace_ms = kGraceMs;
    return o;
  }

  Catalog catalog_;
};

TEST_P(WatchdogHangTest, ReclaimsSlotWithinGraceWhileMorselStalls) {
  const HangCase c = GetParam();
  gov::ScopedFaultInjection quiet;  // Env-armed matrix off; hangs only.
  QueryService service(&catalog_, Options(c));
  auto session = service.OpenSession();

  gov::FaultInjector::Global().ArmHang(c.site, kHangMs, /*count=*/1);
  auto hang_start = std::chrono::steady_clock::now();
  Submission hung_submission{kSumQuery};
  hung_submission.deadline_ms = c.deadline_ms;
  std::future<Result<core::ApproxResult>> hung_future =
      service.Submit(session, hung_submission);

  // The watchdog must declare the query hung and reclaim its slot while the
  // morsel is still stalled — well before the hang's own end.
  ASSERT_TRUE(WaitFor([&] { return service.watchdog().stats().hung >= 1; },
                      kHangMs - 100))
      << "watchdog never declared the stalled query hung";
  const double declare_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - hang_start)
          .count();
  // Cancellation latency: deadline + grace + scan period + scheduling slack.
  EXPECT_LE(declare_ms, c.deadline_ms + kGraceMs + 400.0);

  WatchdogStats wd = service.watchdog().stats();
  EXPECT_EQ(wd.hung, 1u);
  EXPECT_EQ(wd.reclaimed_slots, 1u);
  ASSERT_TRUE(WaitFor(
      [&] { return service.admission_stats().inflight == 0; }, 1000))
      << "reclaimed slot still counted in flight";

  // The reclaimed slot is immediately usable: with max_inflight = 1 this
  // query could only be admitted because the watchdog freed the hung one's.
  Submission follow_up{kSumQuery};
  follow_up.deadline_ms = 5000;
  auto r = service.Execute(session, follow_up);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // The hung query eventually unblocks, sees the watchdog's hard cancel at
  // its next cooperative check, and finishes without double-releasing.
  ASSERT_EQ(hung_future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  (void)hung_future.get();  // Outcome (degraded/failed) is site-dependent.
  wd = service.watchdog().stats();
  EXPECT_EQ(wd.completed_late, 1u);
  EXPECT_EQ(wd.tracked, 0u);

  AdmissionStats admission = service.admission_stats();
  EXPECT_EQ(admission.inflight, 0u);  // A double release would corrupt this.
  EXPECT_EQ(admission.admitted, 2u);
  EXPECT_EQ(service.StatsSnapshot().outstanding, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sites, WatchdogHangTest,
    ::testing::Values(
        // Scan head: the first fetch of every table scan.
        HangCase{"engine.scan", 1, 50, true},
        HangCase{"engine.scan", 4, 50, true},
        // Sampler draw: the Bernoulli scan the pilot stage's plan runs.
        HangCase{"sampler.bernoulli", 1, 50, true},
        HangCase{"sampler.bernoulli", 4, 50, true},
        // Grace-sample draw: reachable only on rung 2, so the deadline is
        // already expired and the synopsis rung is disabled.
        HangCase{"grace.sample", 1, 0, false},
        HangCase{"grace.sample", 4, 0, false},
        // Helper dispatch: a lone service query fans out over idle pool
        // workers, so its first parallel loop consults the dispatch site
        // (never with one thread: a serial loop dispatches nothing).
        HangCase{"pool.dispatch", 2, 50, true},
        HangCase{"pool.dispatch", 4, 50, true}),
    CaseName);

// The same pool.dispatch stall without the service around it: a context
// registered with the watchdog and a morselized ParallelFor issued from a
// plain thread, whose first helper dispatch stalls. Pins the watchdog's
// behavior for parallel loops issued outside any service worker.
TEST(WatchdogTest, ReclaimsSlotWhilePoolDispatchStalls) {
  gov::ScopedFaultInjection quiet;
  ThreadPool::Shared().EnsureAtLeast(8);

  AdmissionOptions admission_options;
  admission_options.max_inflight = 1;
  AdmissionController admission(admission_options);
  ASSERT_TRUE(admission.Acquire().ok());

  WatchdogOptions options;
  options.period_ms = 20;
  options.grace_ms = 50;
  Watchdog watchdog(&admission, options);

  gov::QueryContext ctx(gov::Limits{/*deadline_ms=*/30, 0}, nullptr);
  ctx.Start();
  auto ticket = watchdog.Register(1, "SELECT 1", 7, &ctx, /*deadline_ms=*/30);
  ASSERT_NE(ticket, nullptr);

  gov::FaultInjector::Global().ArmHang("pool.dispatch", kHangMs, /*count=*/1);
  std::atomic<bool> done{false};
  std::thread runner([&] {
    // 60k items across 4 threads: dispatching the first helper stalls.
    (void)ThreadPool::Shared().ParallelFor(
        60000, 4096, 4, ThreadPool::ParallelForOptions{&ctx.token()},
        [](size_t, size_t, size_t, size_t) {});
    done.store(true);
  });

  ASSERT_TRUE(WaitFor([&] { return watchdog.stats().hung >= 1; },
                      kHangMs - 200))
      << "watchdog never declared the stalled dispatch hung";
  EXPECT_FALSE(done.load());  // The dispatch is still stalled.
  EXPECT_TRUE(ctx.cancelled());
  WatchdogStats s = watchdog.stats();
  EXPECT_EQ(s.hung, 1u);
  EXPECT_EQ(s.reclaimed_slots, 1u);
  EXPECT_EQ(admission.stats().inflight, 0u);

  runner.join();
  // The completion path loses the slot race and must not release again.
  EXPECT_TRUE(ticket->slot_released.exchange(true));
  watchdog.Unregister(ticket);
  EXPECT_EQ(watchdog.stats().completed_late, 1u);
  EXPECT_EQ(admission.stats().inflight, 0u);
  gov::FaultInjector::Global().ClearHangs();
}

TEST(WatchdogTest, QueryWithoutDeadlineIsTrackedButNeverReclaimed) {
  gov::ScopedFaultInjection quiet;
  AdmissionOptions admission_options;
  AdmissionController admission(admission_options);
  WatchdogOptions options;
  options.period_ms = 0;  // Manual scans only.
  Watchdog watchdog(&admission, options);

  gov::QueryContext ctx(gov::Limits{-1, 0}, nullptr);
  ctx.Start();
  auto ticket = watchdog.Register(1, "SELECT 1", 7, &ctx, /*deadline_ms=*/-1);
  ASSERT_NE(ticket, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  watchdog.CheckNow();
  WatchdogStats s = watchdog.stats();
  EXPECT_EQ(s.tracked, 1u);
  EXPECT_EQ(s.hung, 0u);  // No deadline: no contract to enforce.
  watchdog.Unregister(ticket);
  EXPECT_EQ(watchdog.stats().tracked, 0u);
}

TEST(WatchdogTest, DisabledWatchdogReturnsNullTickets) {
  gov::ScopedFaultInjection quiet;
  AdmissionOptions admission_options;
  AdmissionController admission(admission_options);
  WatchdogOptions options;
  options.enabled = false;
  Watchdog watchdog(&admission, options);
  gov::QueryContext ctx(gov::Limits{10, 0}, nullptr);
  ctx.Start();
  EXPECT_EQ(watchdog.Register(1, "SELECT 1", 7, &ctx, 10), nullptr);
  watchdog.Unregister(nullptr);  // Must be a safe no-op.
  EXPECT_EQ(watchdog.stats().registered, 0u);
}

TEST(WatchdogTest, ManualScanCancelsOverdueContext) {
  gov::ScopedFaultInjection quiet;
  AdmissionOptions admission_options;
  admission_options.max_inflight = 1;
  AdmissionController admission(admission_options);
  ASSERT_TRUE(admission.Acquire().ok());

  WatchdogOptions options;
  options.period_ms = 0;
  options.grace_ms = 10;
  Watchdog watchdog(&admission, options);

  gov::QueryContext ctx(gov::Limits{5, 0}, nullptr);
  ctx.Start();
  auto ticket = watchdog.Register(1, "SELECT 1", 7, &ctx, /*deadline_ms=*/5);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  watchdog.CheckNow();

  EXPECT_TRUE(ctx.cancelled());
  WatchdogStats s = watchdog.stats();
  EXPECT_EQ(s.hung, 1u);
  EXPECT_EQ(s.reclaimed_slots, 1u);
  EXPECT_EQ(admission.stats().inflight, 0u);  // The watchdog released it.

  // The completion path loses the slot race and must not release again.
  EXPECT_TRUE(ticket->slot_released.exchange(true));
  watchdog.Unregister(ticket);
  EXPECT_EQ(watchdog.stats().completed_late, 1u);
  EXPECT_EQ(admission.stats().inflight, 0u);

  // A second scan must not double-fire the same ticket's incident.
  watchdog.CheckNow();
  EXPECT_EQ(watchdog.stats().hung, 1u);
}

}  // namespace
}  // namespace service
}  // namespace aqp
