// Typed gather/slice kernels against row-at-a-time AppendFrom loops,
// accumulator overflow parity with the row oracle, and the
// resource-governance story of the batch engine: batch buffers and
// dictionary pages are charged to the query's MemoryTracker, a refused
// charge surfaces as ResourceExhausted without leaking, and the governed
// ladder degrades a memory-starved query.
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory_tracker.h"
#include "common/random.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "gov/fault_injector.h"
#include "gov/governed_executor.h"
#include "storage/table.h"
#include "support/row_reference.h"
#include "test_util.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

Table MixedTable(size_t rows, uint64_t seed) {
  Pcg32 rng(seed);
  const char* vocab[] = {"aa", "bb", "cc", "dd", ""};
  Table t(Schema({{"i", DataType::kInt64},
                  {"d", DataType::kDouble},
                  {"s", DataType::kString},
                  {"b", DataType::kBool}}));
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.push_back(rng.UniformUint32(9) == 0
                      ? Value::Null()
                      : Value(static_cast<int64_t>(rng.UniformUint32(1000))));
    row.push_back(rng.UniformUint32(9) == 0 ? Value::Null()
                                            : Value(rng.Gaussian()));
    row.push_back(rng.UniformUint32(9) == 0
                      ? Value::Null()
                      : Value(std::string(vocab[rng.UniformUint32(5)])));
    row.push_back(rng.UniformUint32(9) == 0 ? Value::Null()
                                            : Value(rng.UniformUint32(2) == 1));
    Status s = t.AppendRow(row);
    AQP_CHECK(s.ok());
  }
  return t;
}

// The row-at-a-time gather the typed kernels must reproduce: one
// AppendFrom per cell.
Table AppendFromLoop(const Table& t, const std::vector<uint32_t>& rows) {
  Table out(t.schema());
  for (uint32_t r : rows) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      out.mutable_column(c).AppendFrom(t.column(c), r);
    }
  }
  std::vector<Column> cols;
  for (size_t c = 0; c < out.num_columns(); ++c) cols.push_back(out.column(c));
  return Table::Make(out.schema(), std::move(cols)).value();
}

TEST(BatchKernelTest, TakeMatchesAppendFromLoop) {
  Table t = MixedTable(5000, 42);
  Pcg32 rng(7);
  std::vector<uint32_t> indices;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (rng.UniformUint32(3) == 0) indices.push_back(static_cast<uint32_t>(i));
  }
  const Table expected = AppendFromLoop(t, indices);
  EXPECT_TRUE(testutil::TablesBitIdentical(expected, t.Take(indices)));
  // Column-parallel gather at several thread counts.
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    EXPECT_TRUE(testutil::TablesBitIdentical(
        expected, t.Take(indices, threads, nullptr)))
        << "threads=" << threads;
  }
  // Empty and single-row gathers.
  const std::vector<uint32_t> none;
  const std::vector<uint32_t> last = {4999};
  EXPECT_TRUE(
      testutil::TablesBitIdentical(AppendFromLoop(t, none), t.Take(none)));
  EXPECT_TRUE(
      testutil::TablesBitIdentical(AppendFromLoop(t, last), t.Take(last)));
}

TEST(BatchKernelTest, SliceMatchesAppendFromLoop) {
  Table t = MixedTable(3000, 43);
  struct Range {
    size_t offset, length;
  };
  for (Range r : {Range{0, 3000}, Range{0, 0}, Range{1, 1}, Range{1234, 567},
                  Range{2999, 1}, Range{2000, 5000 /* clamped */}}) {
    std::vector<uint32_t> rows;
    for (size_t i = r.offset; i < t.num_rows() && i < r.offset + r.length;
         ++i) {
      rows.push_back(static_cast<uint32_t>(i));
    }
    EXPECT_TRUE(testutil::TablesBitIdentical(AppendFromLoop(t, rows),
                                             t.Slice(r.offset, r.length)))
        << r.offset << "+" << r.length;
  }
}

// SUM accumulation order is identical in the engine and the row oracle, so
// overflow to infinity (and partial cancellation around it) happens at the
// same row and the results are bit-identical — including the non-finite
// cases.
TEST(BatchKernelTest, SumOverflowParity) {
  constexpr double kBig = std::numeric_limits<double>::max();
  Table t(Schema({{"g", DataType::kInt64}, {"x", DataType::kDouble}}));
  Pcg32 rng(5);
  for (size_t r = 0; r < 600; ++r) {
    double v;
    switch (rng.UniformUint32(5)) {
      case 0: v = kBig; break;
      case 1: v = -kBig; break;
      case 2: v = kBig * 0.5; break;
      default: v = rng.Gaussian();
    }
    Status s = t.AppendRow(
        {Value(static_cast<int64_t>(rng.UniformUint32(3))), Value(v)});
    AQP_CHECK(s.ok());
  }
  Catalog catalog;
  catalog.RegisterOrReplace("t", std::make_shared<const Table>(std::move(t)));
  std::vector<AggSpec> aggs;
  aggs.push_back({AggKind::kSum, Col("x"), "s"});
  aggs.push_back({AggKind::kAvg, Col("x"), "a"});
  aggs.push_back({AggKind::kVar, Col("x"), "v"});
  for (bool grouped : {false, true}) {
    std::vector<ExprPtr> group;
    std::vector<std::string> names;
    if (grouped) {
      group.push_back(Col("g"));
      names.push_back("g");
    }
    PlanPtr plan = PlanNode::Aggregate(PlanNode::Scan("t"), std::move(group),
                                       std::move(names), aggs);
    // Same morsel geometry for the oracle and the engine: the determinism
    // contract is per-configuration (morsel merge order is part of the FP
    // result when sums overflow), thread-count-independent within it.
    ExecOptions serial;
    serial.num_threads = 1;
    serial.morsel_rows = 128;
    serial.parallel_min_rows = 256;
    Table ref = testutil::ExecuteRowReference(plan, catalog, serial).value();
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ExecOptions vec;
      vec.num_threads = threads;
      vec.morsel_rows = 128;
      vec.parallel_min_rows = 256;
      Table got = Execute(plan, catalog, nullptr, nullptr, vec).value();
      EXPECT_TRUE(testutil::TablesBitIdentical(ref, got))
          << "grouped=" << grouped << " threads=" << threads;
    }
  }
}

// Exact integer-valued COUNT parity at scale: the bulk count adds must stay
// exact (they are < 2^53), matching the oracle's per-row adds bit for bit.
TEST(BatchKernelTest, CountBulkAddExactness) {
  Table t = MixedTable(20000, 44);
  Catalog catalog;
  catalog.RegisterOrReplace("t", std::make_shared<const Table>(std::move(t)));
  std::vector<AggSpec> aggs;
  aggs.push_back({AggKind::kCountStar, nullptr, "n"});
  aggs.push_back({AggKind::kCount, Col("i"), "ni"});
  PlanPtr plan = PlanNode::Aggregate(PlanNode::Scan("t"), {}, {}, aggs);
  Table ref = testutil::ExecuteRowReference(plan, catalog).value();
  ExecOptions vec;
  vec.num_threads = 4;
  Table got = Execute(plan, catalog, nullptr, nullptr, vec).value();
  EXPECT_TRUE(testutil::TablesBitIdentical(ref, got));
}

// Batch buffers (dictionary pages, mask scratch, selection vectors, gather
// output) are charged against ExecOptions::memory: a tiny budget refuses the
// query with ResourceExhausted and releases everything it charged.
TEST(BatchKernelTest, VectorizedPathChargesMemoryTracker) {
  Table t = MixedTable(30000, 45);
  Catalog catalog;
  catalog.RegisterOrReplace("t", std::make_shared<const Table>(std::move(t)));
  PlanPtr plan =
      PlanNode::Filter(PlanNode::Scan("t"), Eq(Col("s"), Lit("bb")));
  // Generous budget: query runs and the peak charge is visible.
  {
    MemoryTracker roomy(uint64_t{1} << 30);
    ExecOptions vec;
    vec.num_threads = 2;
    vec.memory = &roomy;
    Result<Table> r = Execute(plan, catalog, nullptr, nullptr, vec);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(roomy.peak(), 0u) << "batch buffers must be accounted";
    EXPECT_EQ(roomy.used(), 0u) << "charges must be returned";
  }
  // Tiny budget: refused, surfaced as ResourceExhausted, nothing leaked.
  {
    MemoryTracker tiny(256);
    ExecOptions vec;
    vec.num_threads = 2;
    vec.memory = &tiny;
    Result<Table> r = Execute(plan, catalog, nullptr, nullptr, vec);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(tiny.used(), 0u) << "refused query must not leak";
  }
}

// The governed ladder handles a memory-starved query: rung 1 (stored
// sample) answers, nothing leaks, and the CI is well-formed.
TEST(BatchKernelTest, GovLadderDegradesVectorizedMemoryRefusal) {
  gov::ScopedFaultInjection quiet;
  Catalog catalog = workload::GenerateLineitemLike(60000, 11).value();
  core::SampleCatalog samples;
  ASSERT_TRUE(samples.BuildUniform(catalog, "lineitem", 5000, 3).ok());
  gov::GovernedOptions opts;
  opts.aqp.pilot_rate = 0.02;
  opts.aqp.block_size = 64;
  opts.aqp.min_table_rows = 1000;
  opts.aqp.max_rate = 0.8;
  opts.aqp.exec.num_threads = 2;
  opts.memory_budget_bytes = 2048;  // Far below any sampled stage.
  gov::GovernedExecutor exec(&catalog, &samples, opts);
  core::ApproxResult r =
      exec.Execute(
              "SELECT SUM(extendedprice) AS s FROM lineitem WITH ERROR 5% "
              "CONFIDENCE 95%")
          .value();
  EXPECT_EQ(r.profile.degradation_rung, 1);
  EXPECT_EQ(r.profile.memory_leaked_bytes, 0u);
  ASSERT_FALSE(r.cis.empty());
  EXPECT_LE(r.cis[0][0].low, r.cis[0][0].estimate);
  EXPECT_GE(r.cis[0][0].high, r.cis[0][0].estimate);
}

}  // namespace
}  // namespace aqp
