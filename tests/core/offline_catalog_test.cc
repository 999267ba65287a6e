#include "core/offline_catalog.h"

#include <cmath>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "test_util.h"

namespace aqp {
namespace core {
namespace {

Catalog BaseCatalog(size_t rows, uint64_t seed) {
  Catalog cat;
  Table t = testutil::ZipfGroupedTable(rows, 12, 0.8, seed);
  EXPECT_TRUE(cat.Register("t", std::make_shared<Table>(std::move(t))).ok());
  return cat;
}

TEST(SampleCatalogTest, BuildAndFindUniform) {
  Catalog cat = BaseCatalog(20000, 3);
  SampleCatalog samples;
  ASSERT_TRUE(samples.BuildUniform(cat, "t", 500, 7).ok());
  const StoredSample* stored = samples.Find("t").value();
  EXPECT_EQ(stored->sample.table.num_rows(), 500u);
  EXPECT_EQ(stored->base_rows_at_build, 20000u);
  EXPECT_EQ(samples.num_samples(), 1u);
  EXPECT_EQ(samples.storage_rows(), 500u);
  EXPECT_EQ(samples.maintenance_rows_scanned(), 20000u);  // One build scan.
}

TEST(SampleCatalogTest, BuildStratifiedAndFindBest) {
  Catalog cat = BaseCatalog(20000, 3);
  SampleCatalog samples;
  ASSERT_TRUE(samples.BuildUniform(cat, "t", 500, 7).ok());
  ASSERT_TRUE(samples.BuildStratified(cat, "t", "g", 600, 7).ok());
  // Preference honored.
  EXPECT_EQ(samples.FindBest("t", "g").value()->strata_column, "g");
  EXPECT_EQ(samples.FindBest("t", "other").value()->strata_column, "");
  EXPECT_FALSE(samples.Find("missing").ok());
}

TEST(SampleCatalogTest, StoredSampleAnswersQueries) {
  Catalog cat = BaseCatalog(30000, 5);
  SampleCatalog samples;
  ASSERT_TRUE(samples.BuildUniform(cat, "t", 2000, 7).ok());
  const StoredSample* stored = samples.Find("t").value();
  double truth = testutil::ExactSum(*ReadTable(cat, "t").value(), "x");
  PointEstimate est =
      EstimateGroupedAggregates(stored->sample, {},
                                {{AggKind::kSum, Col("x"), "s"}})
          .value()
          .estimates[0][0];
  EXPECT_NEAR(est.estimate, truth, std::fabs(truth) * 0.15);
}

TEST(SampleCatalogTest, RebuildPolicyChargesFullScan) {
  Catalog cat = BaseCatalog(10000, 3);
  SampleCatalog samples(SampleCatalog::MaintenancePolicy::kRebuild);
  ASSERT_TRUE(samples.BuildUniform(cat, "t", 300, 7).ok());
  uint64_t after_build = samples.maintenance_rows_scanned();

  // Append 1000 rows to the base table.
  Table extra = testutil::ZipfGroupedTable(1000, 12, 0.8, 99);
  auto base = ReadTable(cat, "t").value();
  Table updated = *base;
  ASSERT_TRUE(updated.Append(extra).ok());
  cat.RegisterOrReplace("t", std::make_shared<Table>(std::move(updated)));

  ASSERT_TRUE(samples.OnAppend(cat, "t", extra, 11).ok());
  // Rebuild scans the whole (now 11000-row) table again.
  EXPECT_EQ(samples.maintenance_rows_scanned() - after_build, 11000u);
  EXPECT_EQ(samples.Find("t").value()->base_rows_at_build, 11000u);
}

TEST(SampleCatalogTest, IncrementalPolicyChargesDeltaOnly) {
  Catalog cat = BaseCatalog(10000, 3);
  SampleCatalog samples(SampleCatalog::MaintenancePolicy::kIncremental);
  ASSERT_TRUE(samples.BuildUniform(cat, "t", 300, 7).ok());
  uint64_t after_build = samples.maintenance_rows_scanned();

  Table extra = testutil::ZipfGroupedTable(1000, 12, 0.8, 99);
  auto base = ReadTable(cat, "t").value();
  Table updated = *base;
  ASSERT_TRUE(updated.Append(extra).ok());
  cat.RegisterOrReplace("t", std::make_shared<Table>(std::move(updated)));

  ASSERT_TRUE(samples.OnAppend(cat, "t", extra, 11).ok());
  EXPECT_EQ(samples.maintenance_rows_scanned() - after_build, 1000u);
  const StoredSample* stored = samples.Find("t").value();
  EXPECT_EQ(stored->base_rows_at_build, 11000u);
  EXPECT_EQ(stored->sample.table.num_rows(), 300u);
  // Weights refreshed to N/k.
  EXPECT_NEAR(stored->sample.weights[0], 11000.0 / 300.0, 1e-9);
}

TEST(SampleCatalogTest, IncrementalSampleStaysUnbiased) {
  // Build on half the data, append the other half incrementally; the
  // maintained sample must still estimate the FULL table sum correctly.
  Catalog cat = BaseCatalog(20000, 3);
  auto full = ReadTable(cat, "t").value();
  Table first_half = full->Slice(0, 10000);
  Table second_half = full->Slice(10000, 10000);
  Catalog working;
  ASSERT_TRUE(
      working.Register("t", std::make_shared<Table>(first_half)).ok());

  double truth = testutil::ExactSum(*full, "x");
  double mean_est = 0.0;
  const int kTrials = 30;
  for (int trial = 0; trial < kTrials; ++trial) {
    SampleCatalog samples(SampleCatalog::MaintenancePolicy::kIncremental);
    ASSERT_TRUE(samples.BuildUniform(working, "t", 800, 100 + trial).ok());
    Catalog updated = working;
    Table whole = first_half;
    ASSERT_TRUE(whole.Append(second_half).ok());
    updated.RegisterOrReplace("t", std::make_shared<Table>(std::move(whole)));
    ASSERT_TRUE(samples.OnAppend(updated, "t", second_half, 200 + trial).ok());
    PointEstimate est =
        EstimateGroupedAggregates(samples.Find("t").value()->sample, {},
                                  {{AggKind::kSum, Col("x"), "s"}})
            .value()
            .estimates[0][0];
    mean_est += est.estimate / kTrials;
  }
  EXPECT_NEAR(mean_est, truth, std::fabs(truth) * 0.06);
}

TEST(SampleCatalogTest, ChooseStratificationColumn) {
  std::vector<workload::QuerySpec> workload(5);
  workload[0].group_by_column = "region";
  workload[1].group_by_column = "region";
  workload[2].group_by_column = "city";
  EXPECT_EQ(SampleCatalog::ChooseStratificationColumn(workload), "region");
  EXPECT_EQ(SampleCatalog::ChooseStratificationColumn({}), "");
}

}  // namespace
}  // namespace core
}  // namespace aqp
