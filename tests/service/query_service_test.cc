#include "service/query_service.h"

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gov/fault_injector.h"
#include "obs/metrics.h"
#include "workload/datagen.h"

namespace aqp {
namespace service {
namespace {

constexpr const char* kSumQuery =
    "SELECT SUM(extendedprice) AS s FROM lineitem WITH ERROR 5% "
    "CONFIDENCE 95%";

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = workload::GenerateLineitemLike(60000, 11).value();
  }

  ServiceOptions Options() const {
    ServiceOptions o;
    o.gov.aqp.pilot_rate = 0.02;
    o.gov.aqp.block_size = 64;
    o.gov.aqp.min_table_rows = 1000;
    o.gov.aqp.max_rate = 0.8;
    o.gov.aqp.exec.num_threads = 2;
    o.synopsis_rows = 4000;
    o.synopsis_min_table_rows = 10000;  // The 60k-row test table qualifies.
    return o;
  }

  Catalog catalog_;
};

TEST_F(QueryServiceTest, ExecutesAndStampsServiceProfile) {
  gov::ScopedFaultInjection quiet;
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();

  auto r = service.Execute(session, {kSumQuery});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().profile.degradation_rung, 0);
  EXPECT_GE(r.value().profile.admission_wait_seconds, 0.0);
  EXPECT_TRUE(r.value().profile.cache_source.empty());

  AdmissionStats stats = service.admission_stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST_F(QueryServiceTest, RepeatSubmissionHitsResultCache) {
  gov::ScopedFaultInjection quiet;
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();

  auto first = service.Execute(session, {kSumQuery});
  ASSERT_TRUE(first.ok());
  auto second = service.Execute(session, {kSumQuery});
  ASSERT_TRUE(second.ok());

  EXPECT_EQ(second.value().profile.cache_source, "result-cache");
  EXPECT_EQ(service.result_cache_stats().hits, 1u);
  // The cached answer IS the first answer, bit for bit — not a re-execution
  // with a fresh sample draw.
  ASSERT_FALSE(second.value().cis.empty());
  EXPECT_EQ(second.value().cis[0][0].estimate, first.value().cis[0][0].estimate);
  EXPECT_EQ(second.value().table.num_rows(), first.value().table.num_rows());
}

TEST_F(QueryServiceTest, TableReplaceInvalidatesResultCache) {
  gov::ScopedFaultInjection quiet;
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();

  ASSERT_TRUE(service.Execute(session, {kSumQuery}).ok());

  // Replace the table: its version bumps, so the old fingerprint is
  // unreachable and the repeat must execute (a miss), not hit.
  Catalog fresh = workload::GenerateLineitemLike(50000, 23).value();
  catalog_.RegisterOrReplace("lineitem", fresh.Get("lineitem").value());

  auto r = service.Execute(session, {kSumQuery});
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r.value().profile.cache_source, "result-cache");
  EXPECT_EQ(service.result_cache_stats().hits, 0u);
  EXPECT_EQ(service.result_cache_stats().entries, 2u);
}

TEST_F(QueryServiceTest, ZeroDeadlineAnswersFromSharedSynopsis) {
  gov::ScopedFaultInjection quiet;
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();

  Submission submission{kSumQuery};
  submission.deadline_ms = 0;  // Already expired: forces the ladder.
  auto r = service.Execute(session, submission);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().profile.degradation_rung, 1);
  EXPECT_EQ(r.value().profile.cache_source, "synopsis-cache");
  EXPECT_GE(service.synopsis_cache_stats().builds, 1u);
  // Degraded answers must NOT be cached: they encode a transient resource
  // situation, not the query's answer.
  EXPECT_EQ(service.result_cache_stats().entries, 0u);

  // The second zero-deadline run reuses the cached synopsis.
  uint64_t builds = service.synopsis_cache_stats().builds;
  ASSERT_TRUE(service.Execute(session, submission).ok());
  EXPECT_EQ(service.synopsis_cache_stats().builds, builds);
  EXPECT_GE(service.synopsis_cache_stats().hits, 1u);
}

TEST_F(QueryServiceTest, SessionMemoryBudgetIsEnforced) {
  gov::ScopedFaultInjection quiet;
  ServiceOptions opts = Options();
  opts.use_synopsis_cache = false;  // Make rung 1 unavailable.
  QueryService service(&catalog_, opts);
  SessionOptions tight;
  tight.memory_budget_bytes = 8 * 1024;  // Far below any materialization.
  auto session = service.OpenSession(tight);

  auto r = service.Execute(session, {kSumQuery});
  if (r.ok()) {
    EXPECT_GT(r.value().profile.degradation_rung, 0);
  } else {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
  // Whatever happened, the session's live set drained back to zero.
  EXPECT_EQ(session->memory().used(), 0u);
  EXPECT_GT(session->memory().exhausted_count(), 0u);
}

TEST_F(QueryServiceTest, PerQueryBudgetOverridesServiceDefault) {
  gov::ScopedFaultInjection quiet;
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();

  Submission tight{kSumQuery};
  tight.memory_budget_bytes = 4 * 1024;
  auto r = service.Execute(session, tight);
  // The per-query budget must have had SOME effect: degradation or refusal.
  if (r.ok()) {
    EXPECT_GT(r.value().profile.degradation_rung, 0);
  } else {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST_F(QueryServiceTest, NullSessionIsInvalidArgument) {
  QueryService service(&catalog_, Options());
  auto r = service.Execute(nullptr, {kSumQuery});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryServiceTest, MalformedSqlSurfacesParserError) {
  gov::ScopedFaultInjection quiet;
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();
  auto r = service.Execute(session, {"SELEKT oops"});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);  // The parser's.
  EXPECT_EQ(service.result_cache_stats().entries, 0u);
  // A query that fails to prepare logs and counts like any other failure.
  std::vector<obs::QueryLogEvent> events = service.query_log().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].status, "failed");
  EXPECT_EQ(events[0].sql, "SELEKT oops");
  EXPECT_EQ(service.StatsSnapshot().queries_failed, 1u);
  EXPECT_EQ(session->stats().failed, 1u);
}

TEST_F(QueryServiceTest, ConcurrentSessionsAllComplete) {
  gov::ScopedFaultInjection quiet;
  QueryService service(&catalog_, Options());

  constexpr int kSessions = 4;
  constexpr int kQueries = 4;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      auto session = service.OpenSession();
      for (int q = 0; q < kQueries; ++q) {
        // Distinct predicate per (session, query): the cold pass is honest.
        std::string sql =
            "SELECT SUM(extendedprice) AS s FROM lineitem WHERE quantity < " +
            std::to_string(10 + s * kQueries + q) +
            " WITH ERROR 10% CONFIDENCE 90%";
        auto r = service.Execute(session, {sql});
        if (r.ok()) ok_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ok_count.load(), kSessions * kQueries);
  EXPECT_EQ(service.admission_stats().admitted,
            static_cast<uint64_t>(kSessions * kQueries));
  EXPECT_EQ(service.admission_stats().inflight, 0u);
}

TEST_F(QueryServiceTest, SubmitReturnsWorkingFutures) {
  gov::ScopedFaultInjection quiet;
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();

  std::vector<std::future<Result<core::ApproxResult>>> futures;
  for (int i = 0; i < 4; ++i) {
    std::string sql =
        "SELECT AVG(quantity) AS q FROM lineitem WHERE quantity < " +
        std::to_string(20 + i) + " WITH ERROR 10% CONFIDENCE 90%";
    futures.push_back(service.Submit(session, {sql}));
  }
  for (auto& f : futures) {
    auto r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST_F(QueryServiceTest, OverloadIsRefusedNotQueuedForever) {
  gov::ScopedFaultInjection quiet;
  ServiceOptions opts = Options();
  opts.admission.max_inflight = 1;
  opts.admission.max_queue = 1;
  opts.admission.queue_timeout_ms = 50;
  opts.use_result_cache = false;  // Keep every query genuinely slow.
  QueryService service(&catalog_, opts);

  constexpr int kThreads = 6;
  constexpr int kPerThread = 4;
  std::atomic<int> ok_count{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto session = service.OpenSession();
      for (int i = 0; i < kPerThread; ++i) {
        auto r = service.Execute(session, {kSumQuery});
        if (r.ok()) {
          ok_count.fetch_add(1);
        } else {
          ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted)
              << r.status().ToString();
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ok_count.load() + rejected.load(), kThreads * kPerThread);
  AdmissionStats stats = service.admission_stats();
  EXPECT_EQ(stats.rejected_queue_full + stats.rejected_timeout,
            static_cast<uint64_t>(rejected.load()));
  // With one slot, a one-deep queue, and 6 hammering submitters, overload
  // must actually have been refused at least once.
  EXPECT_GT(rejected.load(), 0);
}

TEST_F(QueryServiceTest, DestructorDrainsInflightQueries) {
  gov::ScopedFaultInjection quiet;
  std::future<Result<core::ApproxResult>> future;
  {
    QueryService service(&catalog_, Options());
    auto session = service.OpenSession();
    future = service.Submit(session, {kSumQuery});
  }  // Destructor must wait for the in-flight query.
  auto r = future.get();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST_F(QueryServiceTest, StatsSnapshotAggregatesServiceAndSessionCounters) {
  gov::ScopedFaultInjection quiet;
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();

  ASSERT_TRUE(service.Execute(session, {kSumQuery}).ok());
  ASSERT_TRUE(service.Execute(session, {kSumQuery}).ok());  // Cache hit.
  ASSERT_FALSE(service.Execute(session, {"SELEKT oops"}).ok());

  ServiceStatsSnapshot snap = service.StatsSnapshot();
  EXPECT_EQ(snap.queries_ok, 2u);
  EXPECT_EQ(snap.queries_failed, 1u);
  EXPECT_EQ(snap.queries_rejected, 0u);
  EXPECT_EQ(snap.outstanding, 0u);
  EXPECT_EQ(snap.sessions_opened, 1u);
  EXPECT_EQ(snap.admission.admitted, 3u);
  EXPECT_EQ(snap.result_cache.hits, 1u);
  EXPECT_GT(snap.cache_bytes, 0u);  // The cached first answer is resident.
  EXPECT_EQ(snap.query_log.appended, 3u);  // One event per submission.

  SessionStats ss = session->stats();
  EXPECT_EQ(ss.submitted, 3u);
  EXPECT_EQ(ss.ok, 2u);
  EXPECT_EQ(ss.failed, 1u);
  EXPECT_EQ(ss.rejected, 0u);
}

TEST_F(QueryServiceTest, PublishStatsMirrorsTheSnapshotIntoMetrics) {
  gov::ScopedFaultInjection quiet;
  bool was_enabled = obs::MetricsRegistry::Global().enabled();
  obs::MetricsRegistry::Global().set_enabled(true);
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();
  ASSERT_TRUE(service.Execute(session, {kSumQuery}).ok());

  service.PublishStats();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  EXPECT_EQ(reg.GetGauge("service.queries_ok")->value(), 1.0);
  EXPECT_EQ(reg.GetGauge("service.sessions_opened")->value(), 1.0);
  EXPECT_EQ(reg.GetGauge("service.outstanding")->value(), 0.0);
  EXPECT_EQ(reg.GetGauge("service.query_log.appended")->value(), 1.0);
  obs::MetricsRegistry::Global().set_enabled(was_enabled);
}

TEST_F(QueryServiceTest, QueryLogRecordsOneEventPerSubmission) {
  gov::ScopedFaultInjection quiet;
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();

  ASSERT_TRUE(service.Execute(session, {kSumQuery}).ok());
  ASSERT_TRUE(service.Execute(session, {kSumQuery}).ok());
  ASSERT_FALSE(service.Execute(session, {"SELEKT oops"}).ok());

  std::vector<obs::QueryLogEvent> events = service.query_log().Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, "query");
  EXPECT_EQ(events[0].status, "ok");
  EXPECT_TRUE(events[0].cache_source.empty());
  EXPECT_EQ(events[0].session_id, session->id());
  EXPECT_GT(events[0].wall_ms, 0.0);
  EXPECT_GE(events[0].admission_wait_ms, 0.0);
  EXPECT_GT(events[0].estimated_error, 0.0);

  EXPECT_EQ(events[1].status, "ok");
  EXPECT_EQ(events[1].cache_source, "result-cache");
  // Identical SQL fingerprints identically — the join key works.
  EXPECT_EQ(events[0].sql_fingerprint, events[1].sql_fingerprint);

  EXPECT_EQ(events[2].status, "failed");
  EXPECT_NE(events[2].sql_fingerprint, events[0].sql_fingerprint);
}

TEST_F(QueryServiceTest, RejectedSubmissionsAreLoggedToo) {
  gov::ScopedFaultInjection quiet;
  ServiceOptions opts = Options();
  opts.admission.max_inflight = 1;
  opts.admission.max_queue = 1;
  opts.admission.queue_timeout_ms = 50;
  opts.use_result_cache = false;
  QueryService service(&catalog_, opts);

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto session = service.OpenSession();
      for (int i = 0; i < 4; ++i) {
        (void)service.Execute(session, {kSumQuery});
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ServiceStatsSnapshot snap = service.StatsSnapshot();
  ASSERT_GT(snap.queries_rejected, 0u);
  EXPECT_EQ(snap.query_log.appended,
            snap.queries_ok + snap.queries_failed + snap.queries_rejected);
  uint64_t rejected_events = 0;
  for (const obs::QueryLogEvent& e : service.query_log().Snapshot()) {
    if (e.status == "rejected") ++rejected_events;
  }
  EXPECT_EQ(rejected_events, snap.queries_rejected);
}

TEST_F(QueryServiceTest, DegradedAnswerRecordsPreAndPostInflationError) {
  gov::ScopedFaultInjection quiet;
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();

  Submission submission{kSumQuery};
  submission.deadline_ms = 0;  // Forces a degraded (rung >= 1) answer.
  auto r = service.Execute(session, submission);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const obs::ExecutionProfile& profile = r.value().profile;
  ASSERT_GE(profile.degradation_rung, 1);
  // The degraded answer's CIs were widened: both the error actually
  // achieved by the rung (pre-inflation) and the error reported to the
  // client (post-inflation) are on the profile, and inflation only widens.
  EXPECT_GT(profile.pre_inflation_error, 0.0);
  EXPECT_GT(profile.estimated_error, profile.pre_inflation_error);

  // The query log carries both numbers.
  std::vector<obs::QueryLogEvent> events = service.query_log().Snapshot();
  ASSERT_FALSE(events.empty());
  const obs::QueryLogEvent& e = events.back();
  EXPECT_EQ(e.degradation_rung, profile.degradation_rung);
  EXPECT_EQ(e.pre_inflation_error, profile.pre_inflation_error);
  EXPECT_EQ(e.estimated_error, profile.estimated_error);
}

TEST_F(QueryServiceTest, AuditorSamplesCompletedAnswersThroughTheService) {
  gov::ScopedFaultInjection quiet;
  ServiceOptions opts = Options();
  opts.audit.fraction = 1.0;
  opts.use_result_cache = false;  // Every submission is a fresh answer.
  QueryService service(&catalog_, opts);
  auto session = service.OpenSession();

  for (int i = 0; i < 3; ++i) {
    std::string sql =
        "SELECT SUM(extendedprice) AS s FROM lineitem WHERE quantity < " +
        std::to_string(20 + i) + " WITH ERROR 5% CONFIDENCE 95%";
    ASSERT_TRUE(service.Execute(session, {sql}).ok());
  }
  service.auditor().Drain();

  AuditorStats s = service.auditor().stats();
  EXPECT_EQ(s.eligible, 3u);
  EXPECT_EQ(s.audited + s.failed, 3u);
  EXPECT_GT(s.cells, 0u);

  // Audit verdicts land in the same query log as the queries they audited,
  // joinable by fingerprint.
  uint64_t audit_events = 0;
  for (const obs::QueryLogEvent& e : service.query_log().Snapshot()) {
    if (e.kind == "audit") {
      ++audit_events;
      EXPECT_EQ(e.audited_table, "lineitem");
    }
  }
  EXPECT_EQ(audit_events, s.audited + s.failed);
}

TEST_F(QueryServiceTest, AuditingDisabledByDefault) {
  gov::ScopedFaultInjection quiet;
  QueryService service(&catalog_, Options());
  auto session = service.OpenSession();
  ASSERT_TRUE(service.Execute(session, {kSumQuery}).ok());
  EXPECT_FALSE(service.auditor().enabled());
  EXPECT_EQ(service.auditor().stats().eligible, 0u);
}

}  // namespace
}  // namespace service
}  // namespace aqp
