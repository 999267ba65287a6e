#include "core/drift_baseline.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/memory_tracker.h"
#include "test_util.h"

namespace aqp {
namespace core {
namespace {

// Every column-level case runs on an exact column (at most
// ColumnStats::kMaxValues values: the scorer reads its value list) and on a
// sampled one (more values: the scorer reads its sample and KMV sketch).
enum class Kind { kExact, kSampled };

class ColumnDriftTest : public ::testing::TestWithParam<Kind> {
 protected:
  bool exact() const { return GetParam() == Kind::kExact; }
  // Distinct values each logical value stands for.
  int spread() const { return exact() ? 1 : 64; }

  // The numbers offset + scale * v for v in [lo, hi): v itself in an exact
  // column, and v + j / 64 for each j < 64 in a sampled one, so that a
  // range of 100 or more numbers holds more than kMaxValues values.
  void Range(std::vector<double>* rows, int64_t lo, int64_t hi,
             double scale = 1.0, double offset = 0.0) const {
    for (int64_t v = lo; v < hi; ++v) {
      for (int j = 0; j < spread(); ++j) {
        rows->push_back(offset +
                        scale * (static_cast<double>(v) +
                                 static_cast<double>(j) / spread()));
      }
    }
  }

  // The strings "k<n>" for the same values.
  void Keys(std::vector<std::string>* rows, int64_t lo, int64_t hi) const {
    for (int64_t v = lo; v < hi; ++v) {
      for (int j = 0; j < spread(); ++j) {
        rows->push_back("k" + std::to_string(v * spread() + j));
      }
    }
  }

  ColumnStats Built(const Column& column) const {
    Result<ColumnStats> stats = BuildColumnStats(column, 1, nullptr);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (column.size() > column.null_count()) {
      EXPECT_EQ(stats.value().exact, exact()) << "column of the wrong kind";
    }
    return std::move(stats).value();
  }

  // `rows` followed by `nulls` NULLs.
  ColumnStats Numbers(std::vector<double> rows, size_t nulls = 0) const {
    std::vector<uint8_t> valid(rows.size(), 1);
    rows.resize(rows.size() + nulls, 0.0);
    valid.resize(rows.size(), 0);
    return Built(Column::FromValues(std::move(rows), std::move(valid)));
  }

  ColumnStats Strings(std::vector<std::string> rows) const {
    return Built(Column::FromString(std::move(rows)));
  }
};

INSTANTIATE_TEST_SUITE_P(Columns, ColumnDriftTest,
                         ::testing::Values(Kind::kExact, Kind::kSampled),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           return std::string(info.param == Kind::kExact
                                                  ? "exact"
                                                  : "sampled");
                         });

TEST_P(ColumnDriftTest, IdenticalContentScoresZero) {
  std::vector<double> rows;
  Range(&rows, 0, 2000);
  ColumnDriftScore score = ScoreColumnDrift(Numbers(rows), Numbers(rows));
  // Same data, same build (the sample's seed is fixed): the statistics are
  // identical, so every component is exactly zero — the determinism
  // contract the DriftMonitor's no-drift path relies on.
  EXPECT_EQ(score.ks, 0.0);
  EXPECT_EQ(score.domain_churn, 0.0);
  EXPECT_EQ(score.hh_turnover, 0.0);
  EXPECT_EQ(score.moment_shift, 0.0);
  EXPECT_EQ(score.score, 0.0);
}

// A column without values is the same whatever its kind.
TEST_P(ColumnDriftTest, EmptyPairScoresZero) {
  EXPECT_EQ(ScoreColumnDrift(Numbers({}), Numbers({})).score, 0.0);
  EXPECT_EQ(ScoreColumnDrift(Numbers({}, 5), Numbers({}, 9)).score, 0.0);
}

TEST_P(ColumnDriftTest, EmptyVsPopulatedIsTotalDrift) {
  std::vector<double> rows;
  Range(&rows, 0, 100);
  const ColumnStats empty = Numbers({});
  const ColumnStats full = Numbers(rows);
  EXPECT_EQ(ScoreColumnDrift(empty, full).score, 1.0);
  EXPECT_EQ(ScoreColumnDrift(full, empty).score, 1.0);
}

// The containment correction: under pure append the current sketch retains
// the k smallest hashes of a superset, so every baseline min-hash small
// enough to be in the union's k minima must still be present. Appending new
// distinct values therefore reads as growth (moment shift), NOT as domain
// churn — the signature of replacement.
TEST_P(ColumnDriftTest, PureAppendIsNotDomainChurn) {
  std::vector<double> base, cur;
  Range(&base, 0, 1000);
  Range(&cur, 0, 1000);
  Range(&cur, 1000, 2000);  // 1000 brand-new distinct values.
  ColumnDriftScore score = ScoreColumnDrift(Numbers(base), Numbers(cur));
  EXPECT_EQ(score.domain_churn, 0.0) << "append misread as churn";
  // The doubling IS drift (stored samples freeze population counts, so SUM
  // scaling breaks) — it must show up, just in the right component.
  EXPECT_GE(score.moment_shift, 0.9);
}

TEST_P(ColumnDriftTest, DomainReplacementIsChurn) {
  // Same row count, entirely disjoint string domains: no moments and no
  // KS, so churn is the only live signal.
  std::vector<std::string> base, cur;
  Keys(&base, 0, 1000);
  Keys(&cur, 100000, 101000);
  ColumnDriftScore score = ScoreColumnDrift(Strings(base), Strings(cur));
  EXPECT_GE(score.domain_churn, 0.9);
  EXPECT_GE(score.score, 0.9);
}

TEST_P(ColumnDriftTest, DistributionShiftRaisesKs) {
  // Uniform on [0, 1) vs uniform on [5, 6): disjoint supports, KS -> 1.
  std::vector<double> base, cur;
  Range(&base, 0, 2000, 1.0 / 2000);
  Range(&cur, 0, 2000, 1.0 / 2000, 5.0);
  ColumnDriftScore score = ScoreColumnDrift(Numbers(base), Numbers(cur));
  EXPECT_GE(score.ks, 0.9);
}

TEST_P(ColumnDriftTest, HeavyHitterDisappearanceIsTurnover) {
  // Baseline: one key holds half the rows over a uniform tail. Current:
  // the dominant key vanished, tail unchanged.
  std::vector<std::string> base(1000 * spread(), "hot");
  std::vector<std::string> cur;
  Keys(&base, 0, 1000);
  Keys(&cur, 0, 1000);
  ColumnDriftScore score = ScoreColumnDrift(Strings(base), Strings(cur));
  EXPECT_GE(score.hh_turnover, 0.8) << "lost hot key not detected";
}

TEST_P(ColumnDriftTest, NullFractionShiftIsMomentShift) {
  std::vector<double> rows;
  Range(&rows, 0, 1000);
  // 0% -> 50% NULLs.
  ColumnDriftScore score =
      ScoreColumnDrift(Numbers(rows), Numbers(rows, rows.size()));
  EXPECT_GE(score.moment_shift, 0.3);
}

TEST_P(ColumnDriftTest, ReorderedRowsScoreNearZero) {
  std::vector<double> rows;
  Range(&rows, 0, 4000);
  std::vector<double> reversed(rows.rbegin(), rows.rend());
  const ColumnStats a = Numbers(rows);
  const ColumnStats b = Numbers(reversed);
  EXPECT_EQ(a.moments.count, b.moments.count);
  EXPECT_NEAR(a.moments.mean, b.moments.mean, 1e-9);
  EXPECT_NEAR(a.moments.variance(), b.moments.variance(),
              a.moments.variance() * 1e-9);
  // A sampled column draws other rows from the reordered data, so the
  // comparison is approximate — but it must stay far below any actionable
  // drift threshold.
  EXPECT_LT(ScoreColumnDrift(a, b).score, 0.05);
}

TEST_P(ColumnDriftTest, ScoreIsMaxOfComponents) {
  std::vector<double> base, cur;
  Range(&base, 0, 1000);
  Range(&cur, 100000, 101000);
  ColumnDriftScore s = ScoreColumnDrift(Numbers(base), Numbers(cur));
  EXPECT_EQ(s.score,
            std::max({s.ks, s.domain_churn, s.hh_turnover, s.moment_shift}));
  for (double c : {s.ks, s.domain_churn, s.hh_turnover, s.moment_shift}) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST_P(ColumnDriftTest, ApproxBytesIsBounded) {
  std::vector<double> rows;
  Range(&rows, 0, 4000);
  const uint64_t bytes = Numbers(rows).ApproxBytes();
  EXPECT_GT(bytes, 0u);
  // At most kMaxValues values (with their spreads, or sampled) and one
  // sketch, whatever the row count: four times the rows cost nothing more.
  std::vector<double> more;
  for (int i = 0; i < 4; ++i) more.insert(more.end(), rows.begin(), rows.end());
  EXPECT_EQ(Numbers(more).ApproxBytes(), bytes);
  EXPECT_LT(bytes, sizeof(ColumnStats) +
                       ColumnStats::kMaxValues *
                           (sizeof(Value) + sizeof(ValueSpread) +
                            sizeof(uint64_t)) +
                       ColumnStats::kDistinctK * 64);
}

// Table-level cases over a table with one exact column ("g", 12 values) and
// one sampled column ("x", a double per row).

TEST(DriftBaselineTest, CapturesEveryColumn) {
  Table t = testutil::ZipfGroupedTable(20000, 12, 0.8, 3);
  auto r = BuildDriftBaseline(t, "t", /*catalog_version=*/7);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const TableDriftBaseline& b = r.value();
  EXPECT_EQ(b.table, "t");
  EXPECT_EQ(b.catalog_version, 7u);
  EXPECT_EQ(b.rows, 20000u);
  ASSERT_EQ(b.columns.size(), 2u);
  EXPECT_EQ(b.columns[0].first, "g");
  EXPECT_EQ(b.columns[1].first, "x");
  EXPECT_EQ(b.columns[0].second.rows, 20000u);
  EXPECT_TRUE(b.columns[0].second.exact);
  EXPECT_FALSE(b.columns[1].second.exact);
  EXPECT_EQ(b.columns[1].second.sample.size(), ColumnStats::kMaxValues);
  EXPECT_GT(b.ApproxBytes(), 0u);
  EXPECT_GT(b.built_unix_seconds, 0.0);
}

TEST(DriftBaselineTest, SelfComparisonScoresZero) {
  Table t = testutil::ZipfGroupedTable(20000, 12, 0.8, 3);
  auto base = BuildDriftBaseline(t, "t", 1);
  auto again = BuildDriftBaseline(t, "t", 1);
  ASSERT_TRUE(base.ok() && again.ok());
  TableDriftReport report = ScoreDrift(base.value(), again.value());
  // Deterministic statistics over identical data: exact zero, per column
  // and rolled up — so the monitor's steady-state sweeps are guaranteed
  // quiet.
  EXPECT_EQ(report.score, 0.0);
  ASSERT_EQ(report.columns.size(), 2u);
  for (const ColumnDriftEntry& c : report.columns) {
    EXPECT_EQ(c.score.score, 0.0) << c.column;
  }
}

TEST(DriftBaselineTest, InPlaceAppendShiftIsDetected) {
  Table t = testutil::ZipfGroupedTable(20000, 12, 0.8, 3);
  auto base = BuildDriftBaseline(t, "t", 1);
  ASSERT_TRUE(base.ok());

  // The silent-staleness hazard: append rows with a shifted measure through
  // a retained handle (no version bump anywhere).
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(static_cast<int64_t>(i % 12)), Value(500.0 + i)})
            .ok());
  }
  auto cur = BuildDriftBaseline(t, "t", 1);
  ASSERT_TRUE(cur.ok());
  TableDriftReport report = ScoreDrift(base.value(), cur.value());
  EXPECT_GT(report.score, 0.15) << "drift below the default flag threshold";
  EXPECT_EQ(report.worst_column, "x");  // The shifted measure, not the group.
  EXPECT_GT(report.moment_shift, 0.15);
}

TEST(DriftBaselineTest, SchemaDriftIsTotalDrift) {
  Table a(Schema({{"x", DataType::kDouble}}));
  Table b(Schema({{"y", DataType::kDouble}}));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(a.AppendRow({Value(1.0 * i)}).ok());
    ASSERT_TRUE(b.AppendRow({Value(1.0 * i)}).ok());
  }
  auto ra = BuildDriftBaseline(a, "t", 1);
  auto rb = BuildDriftBaseline(b, "t", 1);
  ASSERT_TRUE(ra.ok() && rb.ok());
  TableDriftReport report = ScoreDrift(ra.value(), rb.value());
  // "x" vanished and "y" appeared: both score 1.
  EXPECT_EQ(report.score, 1.0);
  EXPECT_EQ(report.columns.size(), 2u);
}

TEST(DriftBaselineTest, TypeChangeIsTotalDrift) {
  Table a(Schema({{"x", DataType::kDouble}}));
  Table b(Schema({{"x", DataType::kString}}));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(a.AppendRow({Value(1.0 * i)}).ok());
    ASSERT_TRUE(b.AppendRow({Value(std::to_string(i))}).ok());
  }
  auto ra = BuildDriftBaseline(a, "t", 1);
  auto rb = BuildDriftBaseline(b, "t", 1);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ScoreDrift(ra.value(), rb.value()).score, 1.0);
}

TEST(DriftBaselineTest, CancellationAborts) {
  Table t = testutil::ZipfGroupedTable(100000, 12, 0.8, 3);
  CancellationSource source;
  source.RequestCancel(StopCause::kUserCancel, "test cancel");
  CancellationToken token = source.token();
  auto r = BuildDriftBaseline(t, "t", 1, nullptr, &token);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST(DriftBaselineTest, TrackerChargedDuringBuildReleasedAfter) {
  Table t = testutil::ZipfGroupedTable(20000, 12, 0.8, 3);
  MemoryTracker tracker;
  auto r = BuildDriftBaseline(t, "t", 1, &tracker);
  ASSERT_TRUE(r.ok());
  // The build's working set was charged (peak) and fully released (used):
  // retention cost is the caller's decision, priced via ApproxBytes().
  EXPECT_GT(tracker.peak(), 0u);
  EXPECT_EQ(tracker.used(), 0u);
}

TEST(DriftBaselineTest, MemoryBudgetRefusalFailsTheBuild) {
  Table t = testutil::ZipfGroupedTable(20000, 12, 0.8, 3);
  MemoryTracker tracker(/*budget_bytes=*/1);  // Nothing fits.
  auto r = BuildDriftBaseline(t, "t", 1, &tracker);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tracker.used(), 0u);  // Refused charges leak nothing.
}

}  // namespace
}  // namespace core
}  // namespace aqp
