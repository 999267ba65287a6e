#include "core/online_aggregation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/memory_tracker.h"
#include "engine/executor.h"
#include "sql/parser.h"
#include "storage/extent/extent_writer.h"
#include "test_util.h"
#include "workload/datagen.h"

namespace aqp {
namespace core {
namespace {

Catalog OneTable(Table t) {
  Catalog catalog;
  catalog.RegisterOrReplace("t", std::make_shared<Table>(std::move(t)));
  return catalog;
}

// Row sampling: every round of these tables draws thousands of units, so
// each interval rests on far more than min_units.
AqpOptions RowRounds(uint64_t seed) {
  AqpOptions opt;
  opt.method = SampleSpec::Method::kBernoulliRow;
  opt.seed = seed;
  return opt;
}

const char* kSumX = "SELECT SUM(x) AS s FROM t";

TEST(OlaTest, RequiresLinearAggregates) {
  Table t(Schema({{"s", DataType::kString}, {"x", DataType::kDouble}}));
  ASSERT_TRUE(t.AppendRow({Value(std::string("a")), Value(1.0)}).ok());
  Catalog catalog = OneTable(t);
  for (const char* sql :
       {"SELECT SUM(s) FROM t", "SELECT x FROM t", "SELECT MIN(x) FROM t",
        "SELECT s, SUM(x) FROM t GROUP BY s HAVING SUM(x) > 0"}) {
    SCOPED_TRACE(sql);
    EXPECT_FALSE(OnlineAggregator::Create(catalog, sql, RowRounds(1)).ok());
  }
}

TEST(OlaTest, CompleteRoundIsExact) {
  Catalog catalog = OneTable(testutil::DoubleTable({1.0, 2.0, 3.0, 4.0}));
  OnlineAggregator ola =
      OnlineAggregator::Create(
          catalog, "SELECT SUM(x) AS s, AVG(x) AS a, COUNT(*) AS n FROM t",
          RowRounds(3))
          .value();
  OlaRound r = ola.Round(1.0, 0.95).value();
  EXPECT_TRUE(r.complete);
  EXPECT_DOUBLE_EQ(r.table.column(0).DoubleAt(0), 10.0);
  EXPECT_DOUBLE_EQ(r.cis[0][0].low, 10.0);
  EXPECT_DOUBLE_EQ(r.cis[0][0].high, 10.0);
  EXPECT_DOUBLE_EQ(r.table.column(1).DoubleAt(0), 2.5);
  EXPECT_EQ(r.table.column(2).Int64At(0), 4);
  for (const stats::ConfidenceInterval& ci : r.cis[0]) {
    EXPECT_EQ(ci.half_width(), 0.0);
  }
}

TEST(OlaTest, IntervalShrinksAsRoundsGrow) {
  Catalog catalog = OneTable(testutil::ZipfGroupedTable(50000, 10, 0.5, 3));
  OnlineAggregator ola =
      OnlineAggregator::Create(catalog, kSumX, RowRounds(7)).value();
  OlaRound early = ola.Round(0.02, 0.95).value();
  OlaRound later = ola.Round(0.32, 0.95).value();
  EXPECT_LT(later.cis[0][0].half_width(), early.cis[0][0].half_width());
  EXPECT_GT(later.stats.rows_scanned, early.stats.rows_scanned);
  EXPECT_FALSE(later.complete);
}

TEST(OlaTest, EstimateTracksTruthEarly) {
  Table t = testutil::ZipfGroupedTable(50000, 10, 0.5, 3);
  double truth = testutil::ExactSum(t, "x");
  Catalog catalog = OneTable(std::move(t));
  OnlineAggregator ola =
      OnlineAggregator::Create(catalog, kSumX, RowRounds(11)).value();
  OlaRound r = ola.Round(0.1, 0.95).value();
  EXPECT_FALSE(r.complete);
  EXPECT_TRUE(r.cis[0][0].Covers(truth))
      << "[" << r.cis[0][0].low << "," << r.cis[0][0].high << "] vs "
      << truth;
}

TEST(OlaTest, PredicateRestriction) {
  Catalog catalog = OneTable(testutil::GroupedTable(
      {{0, 1.0}, {1, 100.0}, {0, 2.0}, {1, 200.0}}));
  OnlineAggregator ola =
      OnlineAggregator::Create(
          catalog,
          "SELECT SUM(x) AS s, COUNT(*) AS n, AVG(x) AS a FROM t WHERE g = 1",
          RowRounds(3))
          .value();
  OlaRound r = ola.Round(1.0, 0.95).value();
  EXPECT_DOUBLE_EQ(r.table.column(0).DoubleAt(0), 300.0);
  EXPECT_EQ(r.table.column(1).Int64At(0), 2);
  EXPECT_DOUBLE_EQ(r.table.column(2).DoubleAt(0), 150.0);
}

TEST(OlaTest, RunToTargetStopsEarly) {
  Catalog catalog = OneTable(testutil::ZipfGroupedTable(100000, 5, 0.3, 5));
  OnlineAggregator ola =
      OnlineAggregator::Create(catalog, kSumX, RowRounds(13)).value();
  OlaRound r = ola.RunToTarget(0.05, 0.95, 0.02).value();
  EXPECT_LE(r.cis[0][0].relative_half_width(), 0.05);
  EXPECT_FALSE(r.complete);
  EXPECT_LT(r.stats.rows_scanned, 100000u) << "should stop before full scan";
}

TEST(OlaTest, RunToTargetExhaustsWhenImpossible) {
  Catalog catalog = OneTable(testutil::DoubleTable({1.0, -1.0, 2.0, -2.0}));
  OnlineAggregator ola =
      OnlineAggregator::Create(catalog, kSumX, RowRounds(3)).value();
  // Sum is 0: relative error target can never be met; must terminate anyway.
  OlaRound r = ola.RunToTarget(0.01, 0.95, 0.25).value();
  EXPECT_TRUE(r.complete);
}

TEST(OlaTest, RunToTargetTerminatesOnZeroSumAfterSampledRounds) {
  // Large enough to sample: every sampled round estimates near 0 with a
  // non-zero width, which never meets a relative target, so the doubling
  // schedule runs to the exact round.
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(1.0 + i % 7);
    values.push_back(-(1.0 + i % 7));
  }
  Catalog catalog = OneTable(testutil::DoubleTable(values));
  OnlineAggregator ola =
      OnlineAggregator::Create(catalog, kSumX, RowRounds(3)).value();
  OlaRound r = ola.RunToTarget(0.01, 0.95, 0.05).value();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.table.column(0).DoubleAt(0), 0.0);
}

TEST(OlaTest, RunToTargetDoesNotStopOnARoundWithNoQualifyingRow) {
  // 100k rows; the 20 that pass the predicate sit together in one block.
  std::vector<double> values(100000, 1.0);
  for (size_t i = 50000; i < 50020; ++i) values[i] = 500.0;
  Catalog catalog = OneTable(testutil::DoubleTable(values));
  const char* sql = "SELECT SUM(x) AS s FROM t WHERE x > 100";
  for (SampleSpec::Method method : {SampleSpec::Method::kSystemBlock,
                                    SampleSpec::Method::kBernoulliRow}) {
    SCOPED_TRACE(static_cast<int>(method));
    AqpOptions opt;
    opt.method = method;
    opt.seed = 3;
    OnlineAggregator ola = OnlineAggregator::Create(catalog, sql, opt).value();
    // The first round keeps no qualifying row: 0 with a zero-width interval.
    OlaRound first = ola.Round(1.0 / 1024, 0.95).value();
    ASSERT_EQ(first.cis[0][0].estimate, 0.0);
    ASSERT_EQ(first.cis[0][0].half_width(), 0.0);
    OlaRound r = ola.RunToTarget(0.05, 0.95, 1.0 / 1024).value();
    EXPECT_NE(r.cis[0][0].estimate, 0.0);
    if (!r.complete) {
      EXPECT_GT(r.cis[0][0].half_width(), 0.0);
      EXPECT_LE(r.cis[0][0].relative_half_width(), 0.05);
    } else {
      EXPECT_EQ(r.table.column(0).DoubleAt(0), 10000.0);
    }
  }
}

TEST(OlaTest, RunToTargetDoesNotStopOnARoundWithNoGroup) {
  // A selective GROUP BY: a sampled round that keeps no qualifying row
  // answers with no group at all, which must not count as within target,
  // even when (row sampling) it drew more than min_units units.
  std::vector<double> values(100000, 1.0);
  for (size_t i = 70000; i < 70010; ++i) values[i] = 500.0;
  Catalog catalog = OneTable(testutil::DoubleTable(values));
  AqpOptions opt = RowRounds(9);
  OnlineAggregator ola =
      OnlineAggregator::Create(
          catalog, "SELECT x, COUNT(*) AS n FROM t WHERE x > 100 GROUP BY x",
          opt)
          .value();
  OlaRound first = ola.Round(1.0 / 1024, 0.95).value();
  ASSERT_EQ(first.table.num_rows(), 0u);
  ASSERT_GE(first.stats.sampled_units.units, opt.min_units);
  OlaRound r = ola.RunToTarget(0.5, 0.95, 1.0 / 1024).value();
  ASSERT_EQ(r.table.num_rows(), 1u);
  if (!r.complete) {
    EXPECT_GE(r.stats.sampled_units.units, opt.min_units);
  } else {
    EXPECT_EQ(r.table.column(1).Int64At(0), 10);
  }
}

TEST(OlaTest, RunToTargetWaitsForMinUnits) {
  // Nearly constant values: a round of a few 1024-row blocks already reads
  // a narrow interval, but it rests on fewer than min_units units.
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) values.push_back(1.0 + 0.01 * (i % 7));
  Catalog catalog = OneTable(testutil::DoubleTable(values));
  AqpOptions opt;
  opt.seed = 4;
  OnlineAggregator ola = OnlineAggregator::Create(catalog, kSumX, opt).value();
  OlaRound first = ola.Round(1.0 / 32, 0.95).value();
  ASSERT_LT(first.stats.sampled_units.units, opt.min_units);
  ASSERT_LE(first.cis[0][0].relative_half_width(), 0.05);
  OlaRound r = ola.RunToTarget(0.05, 0.95, 1.0 / 32).value();
  EXPECT_FALSE(r.complete);
  EXPECT_GE(r.stats.sampled_units.units, opt.min_units);
  EXPECT_LE(r.cis[0][0].relative_half_width(), 0.05);
}

TEST(OlaTest, CoverageAcrossSeeds) {
  Table t = testutil::ZipfGroupedTable(20000, 10, 0.5, 17);
  double truth = testutil::ExactSum(t, "x");
  Catalog catalog = OneTable(std::move(t));
  int covered = 0;
  const int kTrials = 100;
  for (int trial = 0; trial < kTrials; ++trial) {
    OnlineAggregator ola =
        OnlineAggregator::Create(catalog, kSumX, RowRounds(1000 + trial))
            .value();
    OlaRound r = ola.Round(0.1, 0.95).value();
    if (r.cis[0][0].Covers(truth)) ++covered;
  }
  EXPECT_GE(covered, 88);
}

TEST(OlaTest, NullMeasuresContributeZeroToSum) {
  Table t(Schema({{"x", DataType::kDouble}}));
  ASSERT_TRUE(t.AppendRow({Value(5.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  Catalog catalog = OneTable(std::move(t));
  OnlineAggregator ola =
      OnlineAggregator::Create(catalog, kSumX, RowRounds(3)).value();
  EXPECT_DOUBLE_EQ(ola.Round(1.0, 0.95)->table.column(0).DoubleAt(0), 5.0);
}

TEST(OlaTest, CancelledRoundReturnsCancelledAndKeepsThePreviousAnswer) {
  Catalog catalog = OneTable(testutil::ZipfGroupedTable(50000, 10, 0.5, 3));
  CancellationSource source;
  CancellationToken token = source.token();
  AqpOptions opt = RowRounds(7);
  opt.exec.cancel = &token;
  OnlineAggregator ola =
      OnlineAggregator::Create(catalog, kSumX, opt).value();
  OlaRound first = ola.Round(0.05, 0.95).value();
  source.RequestCancel(StopCause::kUserCancel, "stop");
  for (double rate : {0.1, 1.0}) {
    Result<OlaRound> next = ola.Round(rate, 0.95);
    EXPECT_EQ(next.status().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(ola.RunToTarget(0.01, 0.95, 0.1).status().code(),
            StatusCode::kCancelled);
  // The round the caller already holds stays a valid answer.
  EXPECT_TRUE(std::isfinite(first.cis[0][0].half_width()));
  EXPECT_GT(first.cis[0][0].half_width(), 0.0);
}

TEST(OlaTest, MemoryIsChargedPerRound) {
  Catalog catalog = OneTable(testutil::ZipfGroupedTable(50000, 10, 0.5, 3));
  MemoryTracker memory;
  AqpOptions opt = RowRounds(7);
  opt.exec.memory = &memory;
  OnlineAggregator ola =
      OnlineAggregator::Create(catalog, kSumX, opt).value();
  EXPECT_EQ(memory.peak(), 0u) << "no state is charged between rounds";
  ASSERT_TRUE(ola.Round(0.2, 0.95).ok());
  EXPECT_GT(memory.peak(), 0u);
  EXPECT_EQ(memory.used(), 0u);
}

// The units a sampled scan of `table` keeps at `rate` with the rounds'
// spec, read from its "__unit" column.
std::set<int64_t> DrawnUnits(const Catalog& catalog, const AqpOptions& opt,
                             double rate) {
  sql::SelectStmt stmt = sql::Parse("SELECT __unit FROM fact").value();
  stmt.from.sample = {opt.method, rate, opt.seed, opt.block_size};
  sql::BoundQuery bound = sql::Bind(stmt, catalog).value();
  Table units = Execute(bound.plan, catalog).value();
  std::set<int64_t> out;
  for (size_t i = 0; i < units.num_rows(); ++i) {
    out.insert(units.column(0).Int64At(i));
  }
  return out;
}

TEST(OlaTest, ExtentBackedGroupByRoundsMatchInMemoryAndNest) {
  workload::StarSchemaSpec spec;
  spec.fact_rows = 60000;
  spec.dim_sizes = {12};
  spec.fk_skew = 0.25;
  Catalog memory = workload::GenerateStarSchema(spec, 3).value();
  const std::string path = ::testing::TempDir() + "aqp_ola_fact.aqpx";
  extent::ExtentWriter::Options o;
  o.extent_rows = 4096;
  ASSERT_TRUE(extent::WriteTableToExtents(
                  path, *ReadTable(memory, "fact").value(), o)
                  .ok());
  Catalog extents = memory;
  extents.RegisterExtentBacked("fact",
                               extent::ExtentReader::Open(path).value());
  const char* sql =
      "SELECT fk_0, SUM(measure_0) AS s, COUNT(*) AS n FROM fact "
      "GROUP BY fk_0 ORDER BY fk_0";
  const double kRates[] = {0.1, 0.2, 0.4};
  AqpOptions opt;
  opt.block_size = 64;
  opt.seed = 5;
  opt.exec.num_threads = 1;
  OnlineAggregator mem = OnlineAggregator::Create(memory, sql, opt).value();
  std::vector<OlaRound> base;
  for (double rate : kRates) base.push_back(mem.Round(rate, 0.95).value());

  for (size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(threads);
    opt.exec.num_threads = threads;
    OnlineAggregator ext = OnlineAggregator::Create(extents, sql, opt).value();
    std::set<int64_t> previous;
    uint64_t previous_blocks = 0;
    for (size_t k = 0; k < std::size(kRates); ++k) {
      OlaRound r = ext.Round(kRates[k], 0.95).value();
      EXPECT_FALSE(r.complete);
      EXPECT_GT(r.table.num_rows(), 1u);
      EXPECT_TRUE(testutil::TablesBitIdentical(r.table, base[k].table));
      ASSERT_EQ(r.cis.size(), base[k].cis.size());
      for (size_t i = 0; i < r.cis.size(); ++i) {
        for (size_t j = 0; j < r.cis[i].size(); ++j) {
          EXPECT_EQ(r.cis[i][j].low, base[k].cis[i][j].low);
          EXPECT_EQ(r.cis[i][j].high, base[k].cis[i][j].high);
        }
      }
      EXPECT_GE(r.stats.blocks_read, previous_blocks);
      previous_blocks = r.stats.blocks_read;
      // Each round's units contain the previous round's.
      std::set<int64_t> units = DrawnUnits(extents, opt, kRates[k]);
      EXPECT_EQ(units.size(), r.stats.sampled_units.units);
      EXPECT_TRUE(std::includes(units.begin(), units.end(), previous.begin(),
                                previous.end()));
      previous = std::move(units);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace core
}  // namespace aqp
