#include "service/query_service.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "engine/executor.h"
#include "gov/fault_injector.h"
#include "obs/metrics.h"
#include "storage/extent/extent_writer.h"
#include "test_util.h"
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

  // Writes lineitem to 8 extents at `path` and registers the file as
  // "lineitem_ext", the in-memory table's extent-backed twin.
  void RegisterExtentTwin(const std::string& path) {
    extent::ExtentWriter::Options extents;
    extents.extent_rows = 8192;
    ASSERT_TRUE(extent::WriteTableToExtents(
                    path, *ReadTable(catalog_, "lineitem").value(), extents)
                    .ok());
    Result<std::shared_ptr<const extent::ExtentReader>> reader =
        extent::ExtentReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    catalog_.RegisterExtentBacked("lineitem_ext", reader.value());
  }

  static std::string GroupByQuery(const std::string& table) {
    return "SELECT shipmode, SUM(extendedprice) AS s FROM " + table +
           " GROUP BY shipmode WITH ERROR 5% CONFIDENCE 95%";
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
  catalog_.RegisterOrReplace("lineitem", ReadTable(fresh, "lineitem").value());

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

// Every rung answers over an extent-backed name exactly as over its
// in-memory twin: rung 0 samples it, rung 1 builds the synopsis from it,
// and rung 2 draws the grace sample from it.
TEST_F(QueryServiceTest, ExtentBackedNameAnswersAtEveryRung) {
  gov::ScopedFaultInjection quiet;
  const std::string path = ::testing::TempDir() + "aqp_service_lineitem.aqpx";
  ASSERT_NO_FATAL_FAILURE(RegisterExtentTwin(path));

  struct Rung {
    int rung;
    std::optional<int64_t> deadline_ms;
    bool use_synopsis_cache;
  };
  for (const Rung& rung : {Rung{0, std::nullopt, true}, Rung{1, 0, true},
                           Rung{2, 0, false}}) {
    ServiceOptions opts = Options();
    opts.use_synopsis_cache = rung.use_synopsis_cache;
    std::vector<core::ApproxResult> answers;
    for (const std::string table : {"lineitem", "lineitem_ext"}) {
      QueryService service(&catalog_, opts);
      Submission submission{GroupByQuery(table)};
      submission.deadline_ms = rung.deadline_ms;
      auto r = service.Execute(service.OpenSession(), submission);
      ASSERT_TRUE(r.ok()) << table << " at rung " << rung.rung << ": "
                          << r.status().ToString();
      EXPECT_EQ(r.value().profile.degradation_rung, rung.rung) << table;
      if (rung.rung == 2 && table == "lineitem_ext") {
        // The grace rung decodes only the two columns the query reads,
        // never the whole table.
        EXPECT_LT(r.value().profile.memory_peak_bytes,
                  ReadTable(catalog_, "lineitem").value()->ApproxBytes());
      }
      answers.push_back(std::move(r).value());
    }
    EXPECT_TRUE(
        testutil::TablesBitIdentical(answers[0].table, answers[1].table))
        << "rung " << rung.rung;
    ASSERT_EQ(answers[0].cis.size(), answers[1].cis.size());
    for (size_t row = 0; row < answers[0].cis.size(); ++row) {
      ASSERT_EQ(answers[0].cis[row].size(), answers[1].cis[row].size());
      for (size_t i = 0; i < answers[0].cis[row].size(); ++i) {
        const stats::ConfidenceInterval& a = answers[0].cis[row][i];
        const stats::ConfidenceInterval& b = answers[1].cis[row][i];
        EXPECT_EQ(std::bit_cast<uint64_t>(a.low), std::bit_cast<uint64_t>(b.low))
            << "rung " << rung.rung << " row " << row;
        EXPECT_EQ(std::bit_cast<uint64_t>(a.high),
                  std::bit_cast<uint64_t>(b.high))
            << "rung " << rung.rung << " row " << row;
      }
    }
  }
  std::remove(path.c_str());
}

// A synopsis build may decode an extent-backed name only within the cache's
// byte budget. A file whose columns do not fit is refused before it is
// decoded, nothing stays charged, and the query answers at rung 0 exactly
// as its in-memory twin does.
TEST_F(QueryServiceTest, ExtentSynopsisOverCacheBudgetAnswersAtRungZero) {
  gov::ScopedFaultInjection quiet;
  const std::string path = ::testing::TempDir() + "aqp_service_tight.aqpx";
  ASSERT_NO_FATAL_FAILURE(RegisterExtentTwin(path));
  ServiceOptions opts = Options();
  opts.synopsis_cache_bytes = 64 * 1024;  // Far below the 60k-row decode.
  opts.use_result_cache = false;  // Cache bytes are the synopses' alone.
  std::vector<core::ApproxResult> answers;
  for (const std::string table : {"lineitem", "lineitem_ext"}) {
    QueryService service(&catalog_, opts);
    auto r = service.Execute(service.OpenSession(), {GroupByQuery(table)});
    ASSERT_TRUE(r.ok()) << table << ": " << r.status().ToString();
    EXPECT_EQ(r.value().profile.degradation_rung, 0) << table;
    answers.push_back(std::move(r).value());
    if (table == "lineitem_ext") {
      // Uniform and stratified builds were both refused, unread.
      const SynopsisCacheStats s = service.synopsis_cache_stats();
      EXPECT_EQ(s.builds, 0u);
      EXPECT_EQ(s.build_failures, 2u);
      EXPECT_EQ(s.bytes_used, 0u);
      EXPECT_EQ(service.StatsSnapshot().cache_bytes, 0u);
    }
  }
  EXPECT_TRUE(testutil::TablesBitIdentical(answers[0].table, answers[1].table));
  std::remove(path.c_str());
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

/// Every confidence interval of `a` and `b` equal bit for bit.
::testing::AssertionResult CisBitIdentical(const core::ApproxResult& a,
                                           const core::ApproxResult& b) {
  if (a.cis.size() != b.cis.size()) {
    return ::testing::AssertionFailure()
           << "ci rows " << a.cis.size() << " vs " << b.cis.size();
  }
  for (size_t r = 0; r < a.cis.size(); ++r) {
    if (a.cis[r].size() != b.cis[r].size()) {
      return ::testing::AssertionFailure() << "ci row " << r << " width";
    }
    for (size_t i = 0; i < a.cis[r].size(); ++i) {
      const stats::ConfidenceInterval& x = a.cis[r][i];
      const stats::ConfidenceInterval& y = b.cis[r][i];
      for (auto [u, v] : {std::pair{x.estimate, y.estimate},
                          std::pair{x.low, y.low}, std::pair{x.high, y.high}}) {
        if (std::bit_cast<uint64_t>(u) != std::bit_cast<uint64_t>(v)) {
          return ::testing::AssertionFailure()
                 << "ci [" << r << "][" << i << "]: " << u << " vs " << v;
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST_F(QueryServiceTest, LoneQueryFansOutOverIdleCores) {
  // With nothing else in flight, a query's core share is the whole
  // configured thread count: its morsel loops reach idle pool workers, and
  // its answer is bit-identical to a service that runs every query serial.
  gov::ScopedFaultInjection quiet;
  ServiceOptions opts = Options();
  opts.gov.aqp.exec.num_threads = 4;
  opts.gov.aqp.method = SampleSpec::Method::kBernoulliRow;
  opts.use_result_cache = false;
  ServiceOptions serial_opts = opts;
  serial_opts.gov.aqp.exec.num_threads = 1;
  QueryService service(&catalog_, opts);
  QueryService serial(&catalog_, serial_opts);
  auto session = service.OpenSession();
  auto serial_session = serial.OpenSession();

  const std::string group_query =
      "SELECT shipmode, SUM(extendedprice) AS s, COUNT(*) AS n "
      "FROM lineitem WHERE quantity < 40 GROUP BY shipmode";
  for (const std::string& sql : {group_query, std::string(kSumQuery)}) {
    auto expected = serial.Execute(serial_session, {sql});
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(expected->profile.parallel.has_value()) << sql;
    EXPECT_EQ(expected->profile.parallel->num_threads, 1u);
    // Whether a woken helper claims a morsel before the caller drains them
    // all is a scheduling race, so the fan-out check gets a few tries; the
    // answer must be identical on every one.
    bool fanned_out = false;
    for (int attempt = 0; attempt < 20 && !fanned_out; ++attempt) {
      auto r = service.Execute(session, {sql});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_TRUE(r->profile.parallel.has_value()) << sql;
      EXPECT_EQ(r->profile.parallel->num_threads, 4u);
      size_t slots_with_rows = 0;
      for (uint64_t rows : r->profile.parallel->worker_rows) {
        if (rows > 0) ++slots_with_rows;
      }
      fanned_out = slots_with_rows > 1;
      EXPECT_TRUE(testutil::TablesBitIdentical(expected->table, r->table)) << sql;
      EXPECT_TRUE(CisBitIdentical(*expected, *r)) << sql;
    }
    EXPECT_TRUE(fanned_out) << sql;
  }
}

TEST_F(QueryServiceTest, SaturatedServiceGrantsOneThreadPerQuery) {
  // max_inflight queries admitted at once split four threads four ways:
  // each is granted one and runs the serial code.
  gov::ScopedFaultInjection quiet;
  constexpr size_t kInflight = 4;
  ServiceOptions opts = Options();
  opts.gov.aqp.exec.num_threads = 4;
  opts.admission.max_inflight = kInflight;
  opts.use_result_cache = false;
  QueryService service(&catalog_, opts);
  auto session = service.OpenSession();

  // Park every pool worker so all submissions are admitted before any
  // starts, and hang each query's scan so none releases its slot before
  // the others have taken their share.
  ThreadPool& pool = ThreadPool::Shared();
  const size_t workers = pool.num_workers();
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<size_t> parked{0};
  std::atomic<size_t> unparked{0};
  for (size_t w = 0; w < workers; ++w) {
    pool.Post([&] {
      parked.fetch_add(1);
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return open; });
      }
      unparked.fetch_add(1);  // Last touch of this frame's state.
    });
  }
  while (parked.load() < workers) std::this_thread::yield();
  gov::FaultInjector::Global().ArmHang("engine.scan", 200, kInflight);

  std::vector<std::future<Result<core::ApproxResult>>> futures;
  for (size_t q = 0; q < kInflight; ++q) {
    futures.push_back(service.Submit(
        session, {"SELECT SUM(extendedprice) AS s FROM lineitem WHERE "
                  "quantity < " + std::to_string(20 + q)}));
  }
  EXPECT_EQ(service.admission_stats().inflight, kInflight);
  {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
  }
  cv.notify_all();
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->profile.parallel.has_value());
    EXPECT_EQ(r->profile.parallel->num_threads, 1u);
    EXPECT_EQ(r->profile.parallel->worker_rows.size(), 1u);
  }
  gov::FaultInjector::Global().ClearHangs();
  while (unparked.load() < workers) std::this_thread::yield();
}

}  // namespace
}  // namespace service
}  // namespace aqp
