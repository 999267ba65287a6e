// Thread-count determinism for the AQP entry points. The engine-level
// contract (tests/engine/parallel_executor_test.cc) lifts to the three
// executors: for a fixed seed and morsel size, estimates and confidence
// intervals are identical for every thread count, because sampling draws
// use per-morsel RNG streams and the morsel fold is gated on input size
// only.

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "core/approx_executor.h"
#include "core/offline_catalog.h"
#include "core/offline_executor.h"
#include "core/online_aggregation.h"
#include "test_util.h"
#include "workload/datagen.h"

namespace aqp {
namespace core {
namespace {

const size_t kThreadGrid[] = {1, 2, 4, 8};

ExecOptions Threads(size_t n) {
  ExecOptions opt;
  opt.num_threads = n;
  return opt;
}

Catalog StarCatalog(uint64_t seed = 3) {
  workload::StarSchemaSpec spec;
  spec.fact_rows = 60000;
  spec.dim_sizes = {12};
  spec.fk_skew = 0.25;
  return workload::GenerateStarSchema(spec, seed).value();
}

AqpOptions BaseOptions() {
  AqpOptions opt;
  opt.pilot_rate = 0.2;  // Pilot sample of 12k rows: clears the morsel gate.
  opt.block_size = 64;
  opt.min_table_rows = 1000;
  opt.max_rate = 0.8;
  return opt;
}

void ExpectSameNumericCells(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (size_t i = 0; i < a.num_rows(); ++i) {
      ASSERT_EQ(a.column(c).IsNull(i), b.column(c).IsNull(i));
      if (a.column(c).IsNull(i)) continue;
      if (IsNumeric(a.column(c).type())) {
        EXPECT_EQ(a.column(c).NumericAt(i), b.column(c).NumericAt(i))
            << "col " << c << " row " << i;
      } else if (a.column(c).type() == DataType::kString) {
        EXPECT_EQ(a.column(c).StringAt(i), b.column(c).StringAt(i));
      }
    }
  }
}

TEST(ParallelApproxTest, ApproxExecutorIdenticalAcrossThreadCounts) {
  Catalog cat = StarCatalog();
  const char* kSql =
      "SELECT SUM(measure_0) AS s, COUNT(*) AS n FROM fact "
      "WHERE measure_1 > 90 WITH ERROR 5% CONFIDENCE 95%";
  AqpOptions opt = BaseOptions();
  opt.exec = Threads(1);
  ApproxExecutor baseline_exec(&cat, opt);
  ApproxResult baseline = baseline_exec.Execute(kSql).value();
  ASSERT_TRUE(baseline.approximated) << baseline.profile.fallback_reason;
  for (size_t threads : kThreadGrid) {
    AqpOptions topt = BaseOptions();
    topt.exec = Threads(threads);
    ApproxExecutor exec(&cat, topt);
    ApproxResult r = exec.Execute(kSql).value();
    ASSERT_TRUE(r.approximated) << r.profile.fallback_reason;
    ExpectSameNumericCells(baseline.table, r.table);
    ASSERT_EQ(baseline.cis.size(), r.cis.size());
    for (size_t i = 0; i < baseline.cis.size(); ++i) {
      ASSERT_EQ(baseline.cis[i].size(), r.cis[i].size());
      for (size_t j = 0; j < baseline.cis[i].size(); ++j) {
        EXPECT_EQ(baseline.cis[i][j].low, r.cis[i][j].low);
        EXPECT_EQ(baseline.cis[i][j].high, r.cis[i][j].high);
      }
    }
    EXPECT_EQ(baseline.profile.sampled_fraction, r.profile.sampled_fraction);
  }
}

TEST(ParallelApproxTest, ApproxExecutorGroupedIdenticalAcrossThreadCounts) {
  Catalog cat = StarCatalog(11);
  const char* kSql =
      "SELECT fk_0, AVG(measure_1) AS m FROM fact GROUP BY fk_0 "
      "ORDER BY fk_0 WITH ERROR 10% CONFIDENCE 90%";
  AqpOptions opt = BaseOptions();
  opt.exec = Threads(1);
  ApproxResult baseline = ApproxExecutor(&cat, opt).Execute(kSql).value();
  ASSERT_TRUE(baseline.approximated) << baseline.profile.fallback_reason;
  for (size_t threads : kThreadGrid) {
    AqpOptions topt = BaseOptions();
    topt.exec = Threads(threads);
    ApproxResult r = ApproxExecutor(&cat, topt).Execute(kSql).value();
    ASSERT_TRUE(r.approximated) << r.profile.fallback_reason;
    ExpectSameNumericCells(baseline.table, r.table);
  }
}

TEST(ParallelApproxTest, GroupedCisBitIdenticalAcrossRunsAndThreadCounts) {
  // Estimates and intervals, not just the rounded cells: the estimator's
  // cell sums run in first-appearance order, so repeated runs at any
  // thread count give the same bits.
  Catalog cat = StarCatalog(11);
  const char* kSql =
      "SELECT fk_0, SUM(measure_0) AS s, AVG(measure_1) AS m FROM fact "
      "GROUP BY fk_0 WITH ERROR 10% CONFIDENCE 90%";
  AqpOptions opt = BaseOptions();
  opt.exec = Threads(1);
  ApproxResult baseline = ApproxExecutor(&cat, opt).Execute(kSql).value();
  ASSERT_TRUE(baseline.approximated) << baseline.profile.fallback_reason;
  for (size_t threads : kThreadGrid) {
    for (int run = 0; run < 2; ++run) {
      AqpOptions topt = BaseOptions();
      topt.exec = Threads(threads);
      ApproxResult r = ApproxExecutor(&cat, topt).Execute(kSql).value();
      ASSERT_TRUE(r.approximated) << r.profile.fallback_reason;
      ASSERT_TRUE(testutil::TablesBitIdentical(baseline.table, r.table));
      ASSERT_EQ(baseline.cis.size(), r.cis.size());
      for (size_t i = 0; i < r.cis.size(); ++i) {
        ASSERT_EQ(baseline.cis[i].size(), r.cis[i].size());
        for (size_t j = 0; j < r.cis[i].size(); ++j) {
          EXPECT_EQ(std::bit_cast<uint64_t>(baseline.cis[i][j].estimate),
                    std::bit_cast<uint64_t>(r.cis[i][j].estimate));
          EXPECT_EQ(std::bit_cast<uint64_t>(baseline.cis[i][j].low),
                    std::bit_cast<uint64_t>(r.cis[i][j].low));
          EXPECT_EQ(std::bit_cast<uint64_t>(baseline.cis[i][j].high),
                    std::bit_cast<uint64_t>(r.cis[i][j].high));
        }
      }
    }
  }
}

TEST(ParallelApproxTest, ApproxExecutorProfileReportsParallelism) {
  Catalog cat = StarCatalog();
  AqpOptions opt = BaseOptions();
  opt.exec = Threads(4);
  ApproxExecutor exec(&cat, opt);
  ApproxResult r = exec.Execute(
                           "SELECT SUM(measure_0) AS s FROM fact "
                           "WITH ERROR 5% CONFIDENCE 95%")
                       .value();
  ASSERT_TRUE(r.approximated) << r.profile.fallback_reason;
  ASSERT_TRUE(r.profile.parallel.has_value());
  EXPECT_GT(r.profile.parallel->morsels, 0u);
  EXPECT_EQ(r.profile.parallel->num_threads, 4u);
  // The morsels are attributed: every steal is a morsel, and the workers'
  // rows add up to work actually done.
  EXPECT_LE(r.profile.parallel->steals, r.profile.parallel->morsels);
  uint64_t worker_rows = 0;
  for (uint64_t rows : r.profile.parallel->worker_rows) worker_rows += rows;
  EXPECT_GT(worker_rows, 0u);
}

TEST(ParallelApproxTest, OfflineExecutorIdenticalAcrossThreadCounts) {
  Catalog cat = workload::GenerateLineitemLike(100000, 7).value();
  SampleCatalog samples;
  // 20k-row stored sample: big enough that filtering it is morselized.
  ASSERT_TRUE(samples.BuildUniform(cat, "lineitem", 20000, 3).ok());
  const char* kSql =
      "SELECT SUM(extendedprice) AS s, COUNT(*) AS n FROM lineitem "
      "WHERE quantity <= 25";
  OfflineExecutor baseline_exec(&cat, &samples, Threads(1));
  ApproxResult baseline = baseline_exec.Execute(kSql).value();
  ASSERT_TRUE(baseline.approximated);
  for (size_t threads : kThreadGrid) {
    OfflineExecutor exec(&cat, &samples, Threads(threads));
    ApproxResult r = exec.Execute(kSql).value();
    ASSERT_TRUE(r.approximated);
    ExpectSameNumericCells(baseline.table, r.table);
    for (size_t i = 0; i < baseline.cis.size(); ++i) {
      for (size_t j = 0; j < baseline.cis[i].size(); ++j) {
        EXPECT_EQ(baseline.cis[i][j].low, r.cis[i][j].low);
        EXPECT_EQ(baseline.cis[i][j].high, r.cis[i][j].high);
      }
    }
  }
  OfflineExecutor par_exec(&cat, &samples, Threads(4));
  ApproxResult par = par_exec.Execute(kSql).value();
  ASSERT_TRUE(par.profile.parallel.has_value());
  EXPECT_GT(par.profile.parallel->morsels, 0u);
  EXPECT_EQ(par.profile.parallel->num_threads, 4u);
}

TEST(ParallelApproxTest, OnlineAggregatorIdenticalAcrossThreadCounts) {
  Catalog cat = StarCatalog();
  const char* sql =
      "SELECT fk_0, SUM(measure_0) AS s, COUNT(*) AS n, AVG(measure_1) AS a "
      "FROM fact WHERE measure_1 > 90 GROUP BY fk_0 ORDER BY fk_0";
  for (SampleSpec::Method method :
       {SampleSpec::Method::kSystemBlock, SampleSpec::Method::kBernoulliRow}) {
    auto run = [&](size_t threads) {
      AqpOptions opt;
      opt.method = method;
      opt.block_size = 64;
      opt.seed = 7;
      opt.exec = Threads(threads);
      OnlineAggregator ola = OnlineAggregator::Create(cat, sql, opt).value();
      // Two rounds, both above the morsel gate; each must be thread-count
      // independent.
      return std::make_pair(ola.Round(0.2, 0.95).value(),
                            ola.Round(0.4, 0.95).value());
    };
    auto [base_first, base_second] = run(1);
    for (size_t threads : kThreadGrid) {
      auto [first, second] = run(threads);
      for (auto [want, got] : {std::make_pair(&base_first, &first),
                               std::make_pair(&base_second, &second)}) {
        EXPECT_TRUE(testutil::TablesBitIdentical(want->table, got->table));
        EXPECT_EQ(want->stats.rows_scanned, got->stats.rows_scanned);
        ASSERT_EQ(want->cis.size(), got->cis.size());
        for (size_t i = 0; i < want->cis.size(); ++i) {
          for (size_t j = 0; j < want->cis[i].size(); ++j) {
            EXPECT_EQ(want->cis[i][j].low, got->cis[i][j].low);
            EXPECT_EQ(want->cis[i][j].high, got->cis[i][j].high);
          }
        }
      }
    }
  }
}

TEST(ParallelApproxTest, OnlineAggregatorSerialPathMatchesMorselPath) {
  // A SYSTEM round draws its blocks from one stream and estimates
  // bit-identically with or without morsels, so the path below the morsel
  // gate gives the same answer.
  Catalog cat = StarCatalog();
  const char* sql = "SELECT SUM(measure_0) AS s FROM fact";
  AqpOptions serial;
  serial.block_size = 64;
  serial.exec = Threads(1);
  serial.exec.parallel_min_rows = SIZE_MAX;
  AqpOptions morsel = serial;
  morsel.exec = Threads(4);
  OlaRound sp =
      OnlineAggregator::Create(cat, sql, serial).value().Round(0.3, 0.95)
          .value();
  OlaRound mp =
      OnlineAggregator::Create(cat, sql, morsel).value().Round(0.3, 0.95)
          .value();
  EXPECT_EQ(sp.stats.rows_scanned, mp.stats.rows_scanned);
  EXPECT_TRUE(testutil::TablesBitIdentical(sp.table, mp.table));
  EXPECT_EQ(sp.cis[0][0].low, mp.cis[0][0].low);
  EXPECT_EQ(sp.cis[0][0].high, mp.cis[0][0].high);
}

}  // namespace
}  // namespace core
}  // namespace aqp
