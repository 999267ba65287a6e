#include "service/accuracy_auditor.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "obs/query_log.h"
#include "workload/datagen.h"

namespace aqp {
namespace service {
namespace {

constexpr const char* kSql = "SELECT SUM(x) AS s FROM t";

class AccuracyAuditorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<workload::ColumnSpec> cols;
    workload::ColumnSpec key;
    key.name = "k";
    key.dist = workload::ColumnSpec::Dist::kUniformInt;
    key.min_value = 0;
    key.max_value = 9;
    cols.push_back(key);
    workload::ColumnSpec measure;
    measure.name = "x";
    measure.dist = workload::ColumnSpec::Dist::kExponential;
    cols.push_back(measure);
    Table t = workload::GenerateTable(cols, 2000, 7).value();
    exact_sum_ = 0.0;
    const Column& x = t.column(1);
    for (size_t r = 0; r < t.num_rows(); ++r) {
      exact_sum_ += x.GetValue(r).AsDouble();
    }
    ASSERT_TRUE(catalog_.Register("t", std::make_shared<Table>(std::move(t)))
                    .ok());
  }

  /// A synthetic single-cell approximate answer for kSql whose CI either
  /// covers or misses the exact SUM(x).
  core::ApproxResult FakeAnswer(bool ci_covers) {
    core::ApproxResult r;
    r.approximated = true;
    r.profile.sampled_table = "t";
    Schema schema;
    schema.AddField({"s", DataType::kDouble});
    Table answer(schema);
    EXPECT_TRUE(
        answer.AppendRow({Value(exact_sum_ * (ci_covers ? 1.001 : 2.0))})
            .ok());
    r.table = std::move(answer);
    stats::ConfidenceInterval ci;
    if (ci_covers) {
      ci.estimate = exact_sum_ * 1.001;
      ci.low = exact_sum_ * 0.9;
      ci.high = exact_sum_ * 1.1;
    } else {
      ci.estimate = exact_sum_ * 2.0;
      ci.low = exact_sum_ * 1.9;
      ci.high = exact_sum_ * 2.1;
    }
    r.cis = {{ci}};
    r.profile.estimated_error = 0.05;
    return r;
  }

  Catalog catalog_;
  double exact_sum_ = 0.0;
};

TEST_F(AccuracyAuditorTest, FractionZeroIsInert) {
  AuditOptions opts;  // fraction == 0.
  AccuracyAuditor auditor(&catalog_, opts);
  EXPECT_FALSE(auditor.enabled());
  EXPECT_FALSE(auditor.MaybeEnqueue(kSql, FakeAnswer(true)));
  auditor.Drain();  // No worker: must return immediately.
  EXPECT_EQ(auditor.stats().eligible, 0u);
}

TEST_F(AccuracyAuditorTest, CoveringAnswerCountsAsCovered) {
  AuditOptions opts;
  opts.fraction = 1.0;
  AccuracyAuditor auditor(&catalog_, opts);
  ASSERT_TRUE(auditor.enabled());
  EXPECT_TRUE(auditor.MaybeEnqueue(kSql, FakeAnswer(true)));
  auditor.Drain();
  AuditorStats s = auditor.stats();
  EXPECT_EQ(s.eligible, 1u);
  EXPECT_EQ(s.sampled, 1u);
  EXPECT_EQ(s.audited, 1u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.cells, 1u);
  EXPECT_EQ(s.covered, 1u);
  EXPECT_EQ(s.coverage(), 1.0);
  EXPECT_FALSE(s.coverage_regression);
}

TEST_F(AccuracyAuditorTest, MissingAnswerCountsAsUncovered) {
  AuditOptions opts;
  opts.fraction = 1.0;
  AccuracyAuditor auditor(&catalog_, opts);
  ASSERT_TRUE(auditor.MaybeEnqueue(kSql, FakeAnswer(false)));
  auditor.Drain();
  AuditorStats s = auditor.stats();
  EXPECT_EQ(s.cells, 1u);
  EXPECT_EQ(s.covered, 0u);
}

TEST_F(AccuracyAuditorTest, SamplingFractionPicksEveryNth) {
  AuditOptions opts;
  opts.fraction = 0.25;  // Every 4th eligible answer.
  AccuracyAuditor auditor(&catalog_, opts);
  int enqueued = 0;
  for (int i = 0; i < 12; ++i) {
    if (auditor.MaybeEnqueue(kSql, FakeAnswer(true))) ++enqueued;
  }
  auditor.Drain();
  EXPECT_EQ(enqueued, 3);
  AuditorStats s = auditor.stats();
  EXPECT_EQ(s.eligible, 12u);
  EXPECT_EQ(s.sampled, 3u);
  EXPECT_EQ(s.audited, 3u);
}

TEST_F(AccuracyAuditorTest, ExactAnswersAreNotEligible) {
  AuditOptions opts;
  opts.fraction = 1.0;
  AccuracyAuditor auditor(&catalog_, opts);
  core::ApproxResult exact = FakeAnswer(true);
  exact.approximated = false;
  EXPECT_FALSE(auditor.MaybeEnqueue(kSql, exact));
  core::ApproxResult no_cis = FakeAnswer(true);
  no_cis.cis.clear();
  EXPECT_FALSE(auditor.MaybeEnqueue(kSql, no_cis));
  EXPECT_EQ(auditor.stats().eligible, 0u);
}

TEST_F(AccuracyAuditorTest, FullQueueDropsInsteadOfBlocking) {
  AuditOptions opts;
  opts.fraction = 1.0;
  opts.queue_capacity = 0;  // Every sampled answer finds the queue "full".
  AccuracyAuditor auditor(&catalog_, opts);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(auditor.MaybeEnqueue(kSql, FakeAnswer(true)));
  }
  auditor.Drain();
  AuditorStats s = auditor.stats();
  EXPECT_EQ(s.sampled, 5u);
  EXPECT_EQ(s.dropped, 5u);
  EXPECT_EQ(s.audited, 0u);
}

TEST_F(AccuracyAuditorTest, UnparseableAuditCountsAsFailed) {
  AuditOptions opts;
  opts.fraction = 1.0;
  AccuracyAuditor auditor(&catalog_, opts);
  ASSERT_TRUE(auditor.MaybeEnqueue("SELEKT broken", FakeAnswer(true)));
  auditor.Drain();
  AuditorStats s = auditor.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.audited, 0u);
  EXPECT_EQ(s.cells, 0u);
}

TEST_F(AccuracyAuditorTest, SustainedMissesRaiseTheRegressionFlagAndRecover) {
  AuditOptions opts;
  opts.fraction = 1.0;
  opts.window_cells = 128;
  AccuracyAuditor auditor(&catalog_, opts);
  // 60 straight misses (>= the 50-cell minimum, coverage 0 << 95% - slack).
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(auditor.MaybeEnqueue(kSql, FakeAnswer(false)));
    auditor.Drain();  // Keep the bounded queue from dropping any.
  }
  EXPECT_TRUE(auditor.stats().coverage_regression);
  // The window is rolling: enough covering answers push the misses out and
  // the flag clears (it is recomputed, not latched).
  for (int i = 0; i < 128; ++i) {
    ASSERT_TRUE(auditor.MaybeEnqueue(kSql, FakeAnswer(true)));
    auditor.Drain();
  }
  EXPECT_FALSE(auditor.stats().coverage_regression);
}

TEST_F(AccuracyAuditorTest, VerdictsAppendAuditEventsToTheQueryLog) {
  obs::QueryLog log;
  AuditOptions opts;
  opts.fraction = 1.0;
  AccuracyAuditor auditor(&catalog_, opts, &log);
  ASSERT_TRUE(auditor.MaybeEnqueue(kSql, FakeAnswer(true)));
  ASSERT_TRUE(auditor.MaybeEnqueue(kSql, FakeAnswer(false)));
  auditor.Drain();
  std::vector<obs::QueryLogEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  for (const obs::QueryLogEvent& e : events) {
    EXPECT_EQ(e.kind, "audit");
    EXPECT_EQ(e.status, "ok");
    EXPECT_EQ(e.audited_table, "t");
    EXPECT_EQ(e.audit_cells, 1u);
    EXPECT_NE(e.sql_fingerprint, 0u);
  }
  EXPECT_EQ(events[0].audit_covered, 1u);
  EXPECT_EQ(events[1].audit_covered, 0u);
  EXPECT_GT(events[1].observed_error, 0.5);  // Estimate was 2x the truth.
}

TEST_F(AccuracyAuditorTest, GroupedAnswerChecksOnlyAggregateCells) {
  AuditOptions opts;
  opts.fraction = 1.0;
  AccuracyAuditor auditor(&catalog_, opts);

  // Exact per-group sums for SELECT k, SUM(x) GROUP BY k.
  const Table& t = *ReadTable(catalog_, "t").value();
  std::map<int64_t, double> sums;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    sums[t.column(0).GetValue(r).int64()] +=
        t.column(1).GetValue(r).AsDouble();
  }

  core::ApproxResult r;
  r.approximated = true;
  r.profile.sampled_table = "t";
  Schema schema;
  schema.AddField({"k", DataType::kInt64});
  schema.AddField({"s", DataType::kDouble});
  Table answer(schema);
  // Two real groups (one covering, one missing) and one invented group the
  // exact answer does not contain (all its cells must count as misses).
  auto it = sums.begin();
  int64_t g0 = it->first;
  double s0 = it->second;
  ++it;
  int64_t g1 = it->first;
  double s1 = it->second;
  ASSERT_TRUE(answer.AppendRow({Value(g0), Value(s0)}).ok());
  ASSERT_TRUE(answer.AppendRow({Value(g1), Value(s1 * 2.0)}).ok());
  ASSERT_TRUE(answer.AppendRow({Value(int64_t{9999}), Value(1.0)}).ok());
  r.table = std::move(answer);
  auto ci = [](double est, double lo, double hi) {
    stats::ConfidenceInterval c;
    c.estimate = est;
    c.low = lo;
    c.high = hi;
    return c;
  };
  stats::ConfidenceInterval key_ci;  // Zero-width placeholder for group keys.
  r.cis = {{key_ci, ci(s0, s0 * 0.9, s0 * 1.1)},
           {key_ci, ci(s1 * 2.0, s1 * 1.9, s1 * 2.1)},
           {key_ci, ci(1.0, 0.9, 1.1)}};

  ASSERT_TRUE(
      auditor.MaybeEnqueue("SELECT k, SUM(x) AS s FROM t GROUP BY k", r));
  auditor.Drain();
  AuditorStats s = auditor.stats();
  // Three aggregate cells (the key column has no CI to check): the honest
  // group covers, the doubled group misses, the invented group misses.
  EXPECT_EQ(s.cells, 3u);
  EXPECT_EQ(s.covered, 1u);
}

}  // namespace
}  // namespace service
}  // namespace aqp
