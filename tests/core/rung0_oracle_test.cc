// Rung 0 runs each stage as one sampled plan: the engine's scan draws the
// target table's sample and outputs each row's "__unit", and the estimator
// reads those rows plus the scan's draw. This suite pins that design to the
// one it replaced. Each stage is recomputed the old way — BlockSample or
// BernoulliRowSample of the whole table at the stage's rate and seed, the
// WHERE clause over the drawn rows, then EstimateGroupedAggregates on the
// Sample — and ApproxExecutor's plan, answers and CIs must match bit for
// bit, for both designs, grouped and ungrouped, at 1 and 4 threads. A
// contract query over an extent-backed twin must answer at rung 0 with the
// in-memory twin's table and CIs.

#include <bit>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/approx_executor.h"
#include "core/contract.h"
#include "core/estimate.h"
#include "core/result_assembly.h"
#include "core/sample_planner.h"
#include "engine/executor.h"
#include "expr/eval.h"
#include "sampling/bernoulli.h"
#include "sampling/block.h"
#include "storage/extent/extent_writer.h"
#include "test_util.h"
#include "workload/datagen.h"

namespace aqp {
namespace core {
namespace {

const char* kUngrouped =
    "SELECT SUM(measure_0) AS s, COUNT(*) AS n, AVG(measure_1) AS a "
    "FROM fact WHERE measure_1 > 90 WITH ERROR 5% CONFIDENCE 95%";
const char* kGrouped =
    "SELECT fk_0, SUM(measure_0) AS s, AVG(measure_1) AS a FROM fact "
    "WHERE measure_1 > 90 GROUP BY fk_0 ORDER BY fk_0 "
    "WITH ERROR 10% CONFIDENCE 90%";
const char* kJoin =
    "SELECT d.band, SUM(f.measure_0) AS s, COUNT(*) AS n FROM fact AS f "
    "JOIN dim_0 AS d ON f.fk_0 = d.pk WHERE f.measure_1 > 90 "
    "GROUP BY d.band ORDER BY d.band WITH ERROR 10% CONFIDENCE 90%";

Catalog StarCatalog() {
  workload::StarSchemaSpec spec;
  spec.fact_rows = 60000;
  spec.dim_sizes = {12};
  spec.fk_skew = 0.25;
  return workload::GenerateStarSchema(spec, 3).value();
}

AqpOptions Options(SampleSpec::Method method, size_t threads) {
  AqpOptions opt;
  opt.pilot_rate = 0.2;  // 12k pilot rows: the morsel paths run.
  opt.block_size = 64;
  opt.min_table_rows = 1000;
  opt.max_rate = 0.8;
  opt.method = method;
  opt.exec.num_threads = threads;
  return opt;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// One stage the old way: draw every column of the table, filter the drawn
// rows (weights and unit ids along), estimate from the Sample.
GroupedEstimates OldStage(const Table& table, const sql::PreparedQuery& q,
                          const AqpOptions& opt, double rate, uint64_t seed) {
  Sample s = opt.method == SampleSpec::Method::kSystemBlock
                 ? BlockSample(table, rate, opt.block_size, seed, opt.exec)
                       .value()
                 : BernoulliRowSample(table, rate, seed, opt.exec).value();
  if (q.stmt.where != nullptr) {
    ExprPtr pred = sql::LowerSqlExpr(q.stmt.where).value();
    std::vector<uint32_t> keep = EvalPredicate(*pred, s.table).value();
    Sample filtered = s;
    filtered.table = s.table.Take(keep);
    filtered.weights.clear();
    filtered.unit_ids.clear();
    for (uint32_t r : keep) {
      filtered.weights.push_back(s.weights[r]);
      filtered.unit_ids.push_back(s.unit_ids[r]);
    }
    s = std::move(filtered);
  }
  std::vector<ExprPtr> groups;
  for (const sql::SqlExprPtr& g : q.stmt.group_by) {
    groups.push_back(sql::LowerSqlExpr(g).value());
  }
  std::vector<AggSpec> aggs;
  for (const sql::BoundAggregate& agg : q.bound.aggregates) {
    aggs.push_back({agg.kind, agg.arg, agg.internal_alias});
  }
  return EstimateGroupedAggregates(s, groups, aggs).value();
}

void ExpectSameCis(const ApproxResult& a,
                   const std::vector<std::vector<stats::ConfidenceInterval>>&
                       cis) {
  ASSERT_EQ(a.cis.size(), cis.size());
  for (size_t r = 0; r < cis.size(); ++r) {
    ASSERT_EQ(a.cis[r].size(), cis[r].size());
    for (size_t i = 0; i < cis[r].size(); ++i) {
      EXPECT_TRUE(SameBits(a.cis[r][i].estimate, cis[r][i].estimate) &&
                  SameBits(a.cis[r][i].low, cis[r][i].low) &&
                  SameBits(a.cis[r][i].high, cis[r][i].high) &&
                  SameBits(a.cis[r][i].confidence, cis[r][i].confidence))
          << "ci row " << r << " item " << i;
    }
  }
}

TEST(Rung0OracleTest, StagesMatchTheSampleCopyDesign) {
  Catalog catalog = StarCatalog();
  const Table& fact = *ReadTable(catalog, "fact").value();
  for (SampleSpec::Method method :
       {SampleSpec::Method::kSystemBlock, SampleSpec::Method::kBernoulliRow}) {
    for (const char* query : {kUngrouped, kGrouped}) {
      for (size_t threads : {1u, 4u}) {
        const AqpOptions opt = Options(method, threads);
        SCOPED_TRACE(std::string(query) + " threads=" +
                     std::to_string(threads) +
                     (method == SampleSpec::Method::kSystemBlock
                          ? " system"
                          : " bernoulli"));
        sql::PreparedQuery q = sql::Prepare(query, catalog).value();
        ApproxExecutor exec(&catalog, opt);
        ApproxResult got = exec.Execute(q).value();
        ASSERT_TRUE(got.approximated) << got.profile.fallback_reason;
        // A fresh executor's first call seeds its stages seed+2, seed+3.
        const uint64_t pilot_seed = opt.seed + 2;
        const uint64_t final_seed = opt.seed + 3;

        // Pilot: the old draw's estimates plan exactly the executor's rate.
        const double pilot_rate = got.profile.pilot_rate;
        GroupedEstimates pilot =
            OldStage(fact, q, opt, pilot_rate, pilot_seed);
        const size_t estimates =
            std::max<size_t>(pilot.num_groups, 1) * q.bound.aggregates.size();
        PerEstimateTarget target =
            AllocateContract(*q.stmt.error_spec, estimates);
        target.relative_error = AllocateCompositeError(target.relative_error, 1);
        const uint64_t unit_rows =
            method == SampleSpec::Method::kSystemBlock ? opt.block_size : 1;
        PlanningInputs inputs;
        inputs.pilot = &pilot;
        inputs.pilot_rate = pilot_rate;
        inputs.target = target;
        inputs.max_rate = opt.max_rate;
        inputs.safety_factor = opt.safety_factor;
        inputs.min_units = opt.min_units;
        inputs.population_units =
            (fact.num_rows() + unit_rows - 1) / unit_rows;
        SamplingPlan plan = PlanSamplingRate(inputs);
        ASSERT_TRUE(plan.feasible);
        EXPECT_TRUE(SameBits(plan.rate, got.profile.sampled_fraction))
            << plan.rate << " vs " << got.profile.sampled_fraction;

        // Final: the old draw's estimates assemble exactly the answer.
        GroupedEstimates final_stage =
            OldStage(fact, q, opt, got.profile.sampled_fraction, final_seed);
        AssembledResult want =
            AssembleOutput(q.stmt, q.bound, final_stage, target.confidence)
                .value();
        EXPECT_TRUE(testutil::TablesBitIdentical(got.table, want.table));
        ExpectSameCis(got, want.cis);
      }
    }
  }
}

// A stage at rate 1 would read every row, so the executor answers exactly
// instead, whether the pilot rate or the planned rate reaches 1.
TEST(Rung0OracleTest, RateOneStagesFallBackToExact) {
  Catalog catalog = StarCatalog();
  AqpOptions pilot_one = Options(SampleSpec::Method::kSystemBlock, 4);
  pilot_one.pilot_rate = 1.0;
  AqpOptions planned_one = Options(SampleSpec::Method::kBernoulliRow, 4);
  planned_one.max_rate = 1.0;
  const std::string tight =
      "SELECT fk_0, SUM(measure_0) AS s FROM fact GROUP BY fk_0 "
      "ORDER BY fk_0 WITH ERROR 0.01% CONFIDENCE 99%";
  struct Case {
    AqpOptions opt;
    std::string query;
    std::string reason;
  };
  for (const Case& c : {Case{pilot_one, kUngrouped, "pilot rate 1"},
                        Case{planned_one, tight, "planned rate 1"}}) {
    SCOPED_TRACE(c.reason);
    ApproxResult got = ApproxExecutor(&catalog, c.opt).Execute(c.query).value();
    EXPECT_FALSE(got.approximated);
    EXPECT_NE(got.profile.fallback_reason.find(c.reason), std::string::npos)
        << got.profile.fallback_reason;
    EXPECT_TRUE(testutil::TablesBitIdentical(
        got.table, sql::ExecuteSql(c.query, catalog).value()));
  }
}

TEST(Rung0OracleTest, ExtentBackedTwinAnswersAtRungZero) {
  Catalog memory = StarCatalog();
  const std::string path = ::testing::TempDir() + "aqp_rung0_fact.aqpx";
  extent::ExtentWriter::Options o;
  o.extent_rows = 4096;
  ASSERT_TRUE(extent::WriteTableToExtents(
                  path, *ReadTable(memory, "fact").value(), o)
                  .ok());
  Catalog extents = memory;
  extents.RegisterExtentBacked("fact",
                               extent::ExtentReader::Open(path).value());
  for (SampleSpec::Method method :
       {SampleSpec::Method::kSystemBlock, SampleSpec::Method::kBernoulliRow}) {
    for (const char* query : {kUngrouped, kGrouped, kJoin}) {
      SCOPED_TRACE(query);
      const AqpOptions opt = Options(method, 4);
      ApproxResult mem = ApproxExecutor(&memory, opt).Execute(query).value();
      Result<ApproxResult> ext = ApproxExecutor(&extents, opt).Execute(query);
      ASSERT_TRUE(ext.ok()) << ext.status().message();
      ASSERT_TRUE(mem.approximated) << mem.profile.fallback_reason;
      ASSERT_TRUE(ext->approximated) << ext->profile.fallback_reason;
      EXPECT_EQ(ext->profile.degradation_rung, 0);
      EXPECT_TRUE(SameBits(ext->profile.sampled_fraction,
                           mem.profile.sampled_fraction));
      EXPECT_TRUE(testutil::TablesBitIdentical(ext->table, mem.table));
      ExpectSameCis(ext.value(), mem.cis);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace core
}  // namespace aqp
