// Integration: the ExecutionProfile attached to executor results reports
// what actually happened — fallback reasons, sampling decisions, stage
// spans, and the achieved half of an error contract.

#include "obs/profile.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/approx_executor.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sql/binder.h"
#include "workload/datagen.h"

namespace aqp {
namespace obs {
namespace {

Catalog TestCatalog() {
  workload::StarSchemaSpec spec;
  spec.fact_rows = 60000;
  spec.dim_sizes = {12};
  spec.fk_skew = 0.25;
  return workload::GenerateStarSchema(spec, 3).value();
}

core::AqpOptions FastOptions() {
  core::AqpOptions opt;
  opt.pilot_rate = 0.02;
  opt.block_size = 64;
  opt.min_table_rows = 1000;
  opt.max_rate = 0.8;
  return opt;
}

TEST(ProfileTest, FallbackQueryReportsReasonAndExactExecutor) {
  Catalog cat = TestCatalog();
  core::ApproxExecutor exec(&cat, FastOptions());
  core::ApproxResult r =
      exec.Execute("SELECT SUM(measure_0) AS s FROM fact").value();
  const ExecutionProfile& prof = r.profile;
  EXPECT_EQ(prof.executor, "exact");
  EXPECT_FALSE(prof.approximated);
  EXPECT_NE(prof.fallback_reason.find("no error contract"),
            std::string::npos);
  std::string text = prof.ToText();
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(text.find("fallback:"), std::string::npos);
  EXPECT_NE(text.find("(exact)"), std::string::npos);
}

TEST(ProfileTest, ContractQueryReportsAchievedError) {
  Catalog cat = TestCatalog();
  core::ApproxExecutor exec(&cat, FastOptions());
  core::ApproxResult r = exec.Execute(
                                 "SELECT SUM(measure_0) AS s FROM fact "
                                 "WITH ERROR 10% CONFIDENCE 95%")
                             .value();
  const ExecutionProfile& prof = r.profile;
  ASSERT_TRUE(prof.contract.has_value());
  EXPECT_DOUBLE_EQ(prof.contract->requested_error, 0.10);
  EXPECT_DOUBLE_EQ(prof.contract->requested_confidence, 0.95);
  if (r.approximated) {
    EXPECT_EQ(prof.executor, "online-two-stage");
    EXPECT_TRUE(prof.approximated);
    // A sampled answer has a nonzero a-posteriori error and a real design.
    EXPECT_GT(prof.contract->achieved_error, 0.0);
    EXPECT_GT(prof.sampled_fraction, 0.0);
    EXPECT_LE(prof.sampled_fraction, 1.0);
    EXPECT_NE(prof.sampling_design.find("block"), std::string::npos);
    EXPECT_EQ(prof.sampled_table, "fact");
    EXPECT_GT(prof.rows_scanned, 0u);
    EXPECT_GT(prof.pilot_rows_scanned, 0u);
  }
  EXPECT_GT(prof.total_seconds, 0.0);
}

TEST(ProfileTest, TraceCarriesStageSpansWhenEnabled) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  Catalog cat = TestCatalog();
  core::ApproxExecutor exec(&cat, FastOptions());
  core::ApproxResult r = exec.Execute(
                                 "SELECT SUM(measure_0) AS s FROM fact "
                                 "WITH ERROR 10% CONFIDENCE 95%")
                             .value();
  reg.set_enabled(was_enabled);
  ASSERT_TRUE(r.approximated);
  std::string text = r.profile.ToText();
  EXPECT_NE(text.find("pilot"), std::string::npos);
  EXPECT_NE(text.find("final"), std::string::npos);
  EXPECT_NE(text.find("plan"), std::string::npos);
  // The span tree reached the engine: operator spans carry row counts.
  EXPECT_NE(text.find("rows_out="), std::string::npos);
  // JSON form splices the trace under "trace".
  std::string json = r.profile.ToJson();
  EXPECT_NE(json.find("\"trace\":{\"name\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"contract\":{"), std::string::npos);
}

// Every span named `name` under `node`, depth first.
void FindSpans(const SpanRecord& node, const std::string& name,
               std::vector<const SpanRecord*>* out) {
  if (node.name == name) out->push_back(&node);
  for (const auto& child : node.children) FindSpans(*child, name, out);
}

uint64_t AttrValue(const SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return std::stoull(v);
  }
  ADD_FAILURE() << span.name << " has no attribute " << key;
  return 0;
}

TEST(ProfileTest, EstimateAndSampledScanSpansShowTheirInputs) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  Catalog cat = TestCatalog();
  core::ApproxExecutor exec(&cat, FastOptions());
  core::ApproxResult r = exec.Execute(
                                 "SELECT fk_0, SUM(measure_0) AS s FROM fact "
                                 "GROUP BY fk_0 WITH ERROR 10% CONFIDENCE 90%")
                             .value();
  reg.set_enabled(was_enabled);
  ASSERT_TRUE(r.approximated);
  // The pilot and the final stage each estimate once, from a sampled scan.
  std::vector<const SpanRecord*> estimates;
  std::vector<const SpanRecord*> scans;
  FindSpans(r.profile.trace.root(), "estimate", &estimates);
  FindSpans(r.profile.trace.root(), "scan", &scans);
  ASSERT_EQ(estimates.size(), 2u);
  ASSERT_EQ(scans.size(), 2u);
  for (size_t stage = 0; stage < 2; ++stage) {
    const uint64_t rows = AttrValue(*estimates[stage], "rows");
    const uint64_t cells = AttrValue(*estimates[stage], "cells");
    const uint64_t groups = AttrValue(*estimates[stage], "groups");
    EXPECT_GT(rows, 0u);
    EXPECT_GE(cells, groups);
    EXPECT_LE(cells, rows);
    // Every row comes from a drawn block, and each block holds 64 rows.
    const uint64_t units = AttrValue(*scans[stage], "units");
    EXPECT_EQ(AttrValue(*scans[stage], "rows_out"), rows);
    EXPECT_GE(units * 64, rows);
    EXPECT_GE(cells, units);
  }
}

std::string AttrText(const SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return v;
  }
  ADD_FAILURE() << span.name << " has no attribute " << key;
  return "";
}

// 128k rows keyed by `keys` uniform values, over 1000 blocks of 128 rows.
Catalog KeyedCatalog(uint32_t keys) {
  Pcg32 rng(5);
  std::vector<int64_t> k(128000);
  std::vector<double> m(k.size());
  for (size_t i = 0; i < k.size(); ++i) {
    k[i] = rng.UniformUint32(keys);
    m[i] = 1.0 + rng.NextDouble();
  }
  Catalog cat;
  EXPECT_TRUE(
      cat.Register("t", std::make_shared<Table>(
                            Table::Make(Schema({{"k", DataType::kInt64},
                                                {"m", DataType::kDouble}}),
                                        {Column::FromInt64(std::move(k)),
                                         Column::FromDouble(std::move(m))})
                                .value()))
          .ok());
  return cat;
}

core::AqpOptions KeyedOptions() {
  core::AqpOptions opt;
  opt.block_size = 128;
  opt.min_table_rows = 1000;
  return opt;
}

// A SYSTEM scan's kept blocks coalesce into row ranges, and the filter
// above it evaluates exactly the kept rows, not the whole morsels they sit
// in.
TEST(ProfileTest, SampledFilterEvaluatesOnlyTheScansRows) {
  Catalog cat = KeyedCatalog(10);
  SampleSpec spec;
  spec.method = SampleSpec::Method::kSystemBlock;
  spec.rate = 0.03;
  spec.block_size = 128;
  for (size_t threads : {1u, 4u}) {
    ExecOptions options;
    options.num_threads = threads;
    QueryTrace trace;
    ASSERT_TRUE(aqp::Execute(PlanNode::Filter(PlanNode::Scan("t", spec),
                                              Lt(Col("m"), Lit(1.5))),
                             cat, nullptr, &trace, options)
                    .ok());
    trace.Finish();
    std::vector<const SpanRecord*> scans;
    std::vector<const SpanRecord*> filters;
    FindSpans(trace.root(), "scan", &scans);
    FindSpans(trace.root(), "filter", &filters);
    ASSERT_EQ(scans.size(), 1u);
    ASSERT_EQ(filters.size(), 1u);
    const uint64_t kept = AttrValue(*scans[0], "rows_out");
    EXPECT_GT(kept, 0u);
    EXPECT_EQ(AttrValue(*filters[0], "rows_evaluated"), kept);
    const uint64_t ranges = AttrValue(*scans[0], "ranges");
    EXPECT_GT(ranges, 0u);
    EXPECT_LE(ranges, AttrValue(*scans[0], "units"));
  }
}

TEST(ProfileTest, PriceSpanShowsHowThePilotWasSized) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  Catalog cat = KeyedCatalog(10);
  core::ApproxExecutor exec(&cat, KeyedOptions());
  const std::string sql =
      "SELECT k, SUM(m) AS s FROM t GROUP BY k WITH ERROR 20% CONFIDENCE 90%";
  core::ApproxResult first = exec.Execute(sql).value();
  core::ApproxResult second = exec.Execute(sql).value();
  reg.set_enabled(was_enabled);
  ASSERT_TRUE(first.approximated);
  std::vector<const SpanRecord*> prices;
  FindSpans(first.profile.trace.root(), "price", &prices);
  ASSERT_EQ(prices.size(), 1u);
  EXPECT_EQ(AttrText(*prices[0], "pilot_basis"), "floor");
  EXPECT_DOUBLE_EQ(std::stod(AttrText(*prices[0], "pilot_rate")),
                   first.profile.pilot_rate);
  EXPECT_LT(std::stod(AttrText(*prices[0], "predicted_rate")), 0.2);
  // The first query built the key's statistics under its price span; the
  // second read them from the catalog.
  std::vector<const SpanRecord*> builds;
  FindSpans(*prices[0], "stats.build", &builds);
  ASSERT_EQ(builds.size(), 1u);
  EXPECT_EQ(AttrText(*builds[0], "column"), "k");
  builds.clear();
  FindSpans(second.profile.trace.root(), "stats.build", &builds);
  EXPECT_TRUE(builds.empty());
  EXPECT_NE(first.profile.ToText().find("pilot_basis=floor"),
            std::string::npos);
}

TEST(ProfileTest, StatisticsBuildIsChargedToTheQuery) {
  Catalog cat = KeyedCatalog(10);
  MemoryTracker tracker;
  core::AqpOptions opt = KeyedOptions();
  opt.exec.memory = &tracker;
  sql::PreparedQuery q =
      sql::Prepare("SELECT k, SUM(m) AS s FROM t GROUP BY k "
                   "WITH ERROR 10% CONFIDENCE 95%",
                   cat)
          .value();
  core::StageTarget target = core::PickStageTarget(cat, q.bound, opt).value();
  ASSERT_TRUE(core::PriceContract(cat, q, target, opt, nullptr).ok());
  EXPECT_GT(tracker.peak(), 0u);
  EXPECT_EQ(tracker.used(), 0u);
}

TEST(ProfileTest, PricedOutQueryRunsNoPilot) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  Catalog cat = KeyedCatalog(1000);
  core::ApproxExecutor exec(&cat, KeyedOptions());
  core::ApproxResult r =
      exec.Execute(
              "SELECT k, SUM(m) AS s, COUNT(*) AS n FROM t GROUP BY k "
              "WITH ERROR 10% CONFIDENCE 95%")
          .value();
  reg.set_enabled(was_enabled);
  const ExecutionProfile& prof = r.profile;
  EXPECT_FALSE(prof.approximated);
  EXPECT_EQ(prof.executor, "exact");
  EXPECT_EQ(
      prof.fallback_reason.rfind("priced out before pilot: predicted rate ", 0),
      0u)
      << prof.fallback_reason;
  std::vector<const SpanRecord*> spans;
  FindSpans(prof.trace.root(), "pilot", &spans);
  EXPECT_TRUE(spans.empty());
  FindSpans(prof.trace.root(), "price", &spans);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GT(std::stod(AttrText(*spans[0], "predicted_rate")), 0.2);
  EXPECT_EQ(prof.pilot_rate, 0.0);
}

TEST(ProfileTest, DisabledObservabilityStillFillsResultFields) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(false);
  Catalog cat = TestCatalog();
  core::ApproxExecutor exec(&cat, FastOptions());
  core::ApproxResult r = exec.Execute(
                                 "SELECT SUM(measure_0) AS s FROM fact "
                                 "WITH ERROR 10% CONFIDENCE 95%")
                             .value();
  reg.set_enabled(was_enabled);
  ASSERT_TRUE(r.approximated);
  const ExecutionProfile& prof = r.profile;
  // The cheap summary fields survive with tracing off...
  EXPECT_EQ(prof.executor, "online-two-stage");
  ASSERT_TRUE(prof.contract.has_value());
  EXPECT_GT(prof.contract->achieved_error, 0.0);
  EXPECT_GT(prof.sampled_fraction, 0.0);
  // ...the stages are still timed, by spans that record nothing...
  EXPECT_GT(prof.pilot_seconds, 0.0);
  EXPECT_GT(prof.planning_seconds, 0.0);
  EXPECT_GT(prof.final_seconds, 0.0);
  EXPECT_GT(prof.total_seconds, 0.0);
  // ...but no stage spans were recorded.
  EXPECT_TRUE(prof.trace.root().children.empty());
}

// The stage spans are the only timer: each stage's seconds are its span's
// recorded duration, bit for bit, and planning is the price span plus the
// plan span.
TEST(ProfileTest, StageSecondsAreTheirSpansDurations) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);
  Catalog cat = TestCatalog();
  core::ApproxExecutor exec(&cat, FastOptions());
  core::ApproxResult r = exec.Execute(
                                 "SELECT fk_0, SUM(measure_0) AS s FROM fact "
                                 "GROUP BY fk_0 WITH ERROR 10% CONFIDENCE 90%")
                             .value();
  reg.set_enabled(was_enabled);
  ASSERT_TRUE(r.approximated) << r.profile.fallback_reason;
  const ExecutionProfile& prof = r.profile;
  auto only = [&](const std::string& name) -> const SpanRecord& {
    std::vector<const SpanRecord*> spans;
    FindSpans(prof.trace.root(), name, &spans);
    EXPECT_EQ(spans.size(), 1u) << name;
    return spans.empty() ? prof.trace.root() : *spans[0];
  };
  const SpanRecord& price = only("price");
  const SpanRecord& pilot = only("pilot");
  const SpanRecord& plan = only("plan");
  const SpanRecord& final_stage = only("final");
  EXPECT_EQ(prof.pilot_seconds, pilot.duration_seconds);
  EXPECT_EQ(prof.final_seconds, final_stage.duration_seconds);
  EXPECT_EQ(prof.planning_seconds,
            price.duration_seconds + plan.duration_seconds);
  EXPECT_GT(prof.pilot_seconds, 0.0);
  EXPECT_GT(prof.final_seconds, 0.0);
  // Every stage ran inside the query's own span.
  EXPECT_GE(prof.total_seconds,
            prof.planning_seconds + prof.pilot_seconds + prof.final_seconds);
}

}  // namespace
}  // namespace obs
}  // namespace aqp
