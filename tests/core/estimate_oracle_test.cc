// The grouped estimator builds its (group, unit) cells unit by unit, in
// chunks of whole units that run morsel-parallel. This suite checks it bit
// for bit against the serial row walk it replaced
// (tests/support/estimate_reference.h): every estimate, variance and df,
// the group keys and the cell count. Engine stages (SYSTEM at several block
// sizes, BERNOULLI, units the filter empties, an empty stage, the sampled
// table on a join's build side) run through the rows entry without
// ExecOptions and at threads {1, 2, 4, 8}; stored samples from every
// sampler run through the Sample entry, which is serial. A last test checks
// that the estimator's state is charged to the query's budget.

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory_tracker.h"
#include "core/estimate.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "sampling/block.h"
#include "sampling/congressional.h"
#include "sampling/reservoir.h"
#include "sampling/stratified.h"
#include "sampling/weighted.h"
#include "support/estimate_reference.h"
#include "test_util.h"

namespace aqp {
namespace core {
namespace {

constexpr size_t kRows = 60000;
constexpr int64_t kDimRows = 50;

// id; g: 40 Zipf groups; h: 1000 groups; x: a measure, NULL on every 37th
// row; m: a positive measure; k: a key into dim.
Table MakeFact() {
  Pcg32 rng(11);
  ZipfGenerator zipf(40, 0.8);
  Table t(Schema({{"id", DataType::kInt64},
                  {"g", DataType::kInt64},
                  {"h", DataType::kInt64},
                  {"x", DataType::kDouble},
                  {"m", DataType::kDouble},
                  {"k", DataType::kInt64}}));
  for (size_t i = 0; i < kRows; ++i) {
    const int64_t g = static_cast<int64_t>(zipf.Next(rng));
    const Value x = i % 37 == 0 ? Value::Null()
                                : Value(static_cast<double>(g) +
                                        rng.Gaussian());
    const int64_t h = rng.NextUint32() % 1000;
    const int64_t k = rng.NextUint32() % kDimRows;
    EXPECT_TRUE(t.AppendRow({Value(static_cast<int64_t>(i)), Value(g),
                             Value(h), x,
                             Value(1.0 + static_cast<double>(i % 13)),
                             Value(k)})
                    .ok());
  }
  return t;
}

Table MakeDim() {
  Table t(Schema({{"pk", DataType::kInt64}, {"band", DataType::kInt64}}));
  for (int64_t i = 0; i < kDimRows; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(i), Value(i % 7)}).ok());
  }
  return t;
}

std::vector<AggSpec> Aggs() {
  return {{AggKind::kSum, Col("x"), "s"},
          {AggKind::kAvg, Col("x"), "a"},
          {AggKind::kCountStar, nullptr, "n"},
          {AggKind::kCount, Col("x"), "c"}};
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectSame(const GroupedEstimates& got, const GroupedEstimates& want) {
  ASSERT_EQ(got.num_groups, want.num_groups);
  EXPECT_EQ(got.num_cells, want.num_cells);
  EXPECT_TRUE(testutil::TablesBitIdentical(got.group_keys, want.group_keys));
  ASSERT_EQ(got.estimates.size(), want.estimates.size());
  for (size_t a = 0; a < want.estimates.size(); ++a) {
    for (size_t g = 0; g < want.num_groups; ++g) {
      const PointEstimate& x = got.estimates[a][g];
      const PointEstimate& y = want.estimates[a][g];
      ASSERT_TRUE(SameBits(x.estimate, y.estimate) &&
                  SameBits(x.variance, y.variance) && x.df == y.df)
          << "aggregate " << a << " group " << g << ": " << x.estimate
          << " vs " << y.estimate << ", " << x.variance << " vs "
          << y.variance;
    }
  }
}

const std::vector<std::vector<ExprPtr>>& GroupSets() {
  static const std::vector<std::vector<ExprPtr>> sets = {
      {}, {Col("g")}, {Col("h")}, {Col("g"), Col("h")}};
  return sets;
}

// The rows entry, `estimate(exec)`, against the oracle's answer: without
// ExecOptions and at every thread count, with morsels small enough that the
// input splits into many chunks.
template <typename EstimateFn>
void ExpectMatchesOracle(const GroupedEstimates& want, EstimateFn estimate) {
  {
    SCOPED_TRACE("no exec");
    Result<GroupedEstimates> got = estimate(nullptr);
    ASSERT_TRUE(got.ok()) << got.status().message();
    ExpectSame(got.value(), want);
  }
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecOptions exec;
    exec.num_threads = threads;
    exec.morsel_rows = 1000;
    exec.parallel_min_rows = 2000;
    Result<GroupedEstimates> got = estimate(&exec);
    ASSERT_TRUE(got.ok()) << got.status().message();
    ExpectSame(got.value(), want);
  }
}

void CheckRows(const Table& rows, const SampleDesign& design) {
  for (const std::vector<ExprPtr>& groups : GroupSets()) {
    SCOPED_TRACE("groups=" + std::to_string(groups.size()));
    Result<GroupedEstimates> want =
        testutil::EstimateReference(rows, design, groups, Aggs());
    ASSERT_TRUE(want.ok()) << want.status().message();
    ExpectMatchesOracle(want.value(), [&](const ExecOptions* exec) {
      return EstimateGroupedAggregates(rows, design, groups, Aggs(), exec);
    });
  }
}

void CheckSample(const Sample& sample) {
  for (const std::vector<ExprPtr>& groups : GroupSets()) {
    SCOPED_TRACE("groups=" + std::to_string(groups.size()));
    Result<GroupedEstimates> want =
        testutil::EstimateReference(sample, groups, Aggs());
    ASSERT_TRUE(want.ok()) << want.status().message();
    Result<GroupedEstimates> got =
        EstimateGroupedAggregates(sample, groups, Aggs());
    ASSERT_TRUE(got.ok()) << got.status().message();
    ExpectSame(got.value(), want.value());
  }
}

bool UnitsAscend(const Table& rows) {
  const Column& u = rows.column(rows.ColumnIndex("__unit").value());
  for (size_t i = 1; i < u.size(); ++i) {
    if (u.Int64At(i) < u.Int64At(i - 1)) return false;
  }
  return true;
}

class EstimateOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fact_ = std::make_shared<Table>(MakeFact());
    ASSERT_TRUE(catalog_.Register("fact", fact_).ok());
    ASSERT_TRUE(
        catalog_.Register("dim", std::make_shared<Table>(MakeDim())).ok());
  }

  // One rung-0 stage: the sampled fact scan under `pred`, projected to the
  // estimator's columns and "__unit"; `design` gets the scan's draw.
  Table Stage(const SampleSpec& spec, ExprPtr pred, SampleDesign* design) {
    ExecStats stats;
    Result<Table> rows = Execute(
        PlanNode::Project(
            PlanNode::Filter(PlanNode::Scan("fact", spec), std::move(pred)),
            {Col("g"), Col("h"), Col("x"), Col("__unit")},
            {"g", "h", "x", "__unit"}),
        catalog_, &stats);
    EXPECT_TRUE(rows.ok()) << rows.status().message();
    const bool blocks = spec.method == SampleSpec::Method::kSystemBlock;
    *design = SampleDesign{spec.rate, blocks ? spec.block_size : 1u, kRows,
                           stats.sampled_units};
    return std::move(rows).value();
  }

  std::shared_ptr<Table> fact_;
  Catalog catalog_;
};

SampleSpec System(uint32_t block_size, double rate = 0.3) {
  return {SampleSpec::Method::kSystemBlock, rate, 5, block_size};
}

TEST_F(EstimateOracleTest, SystemAtEveryBlockSize) {
  for (uint32_t block_size : {1024u, 1000u, 1536u, 3000u}) {
    SCOPED_TRACE("block_size=" + std::to_string(block_size));
    SampleDesign design;
    Table rows =
        Stage(System(block_size), Lt(Col("id"), Lit(int64_t{50000})), &design);
    ASSERT_GT(design.drawn.units, 2u);
    CheckRows(rows, design);
  }
}

TEST_F(EstimateOracleTest, Bernoulli) {
  SampleDesign design;
  Table rows = Stage({SampleSpec::Method::kBernoulliRow, 0.2, 9, 1024},
                     Gt(Col("m"), Lit(3.0)), &design);
  ASSERT_GT(rows.num_rows(), 5000u);
  CheckRows(rows, design);
}

TEST_F(EstimateOracleTest, UnitsTheFilterEmptiesAndAnEmptyStage) {
  SampleDesign design;
  // Only ids below 9000 or at least 51000 survive: most drawn blocks are
  // emptied, yet each still counts as a drawn unit.
  Table rows = Stage(System(1024),
                     Or(Lt(Col("id"), Lit(int64_t{9000})),
                        Ge(Col("id"), Lit(int64_t{51000}))),
                     &design);
  ASSERT_GT(rows.num_rows(), 0u);
  ASSERT_GT(design.drawn.rows, 2 * rows.num_rows());
  CheckRows(rows, design);

  Table empty = Stage(System(1024), Lt(Col("id"), Lit(int64_t{0})), &design);
  ASSERT_EQ(empty.num_rows(), 0u);
  ASSERT_GT(design.drawn.units, 0u);
  CheckRows(empty, design);
}

TEST_F(EstimateOracleTest, SampledTableOnTheJoinBuildSide) {
  // FROM dim JOIN fact: rows come in dim order, each dim row's matches in
  // fact order, so a block's rows are scattered across the output.
  for (SampleSpec spec : {System(1024), System(1000, 0.5),
                          SampleSpec{SampleSpec::Method::kBernoulliRow, 0.2,
                                     9, 1024}}) {
    ExecStats stats;
    Result<Table> rows = Execute(
        PlanNode::Join(PlanNode::Scan("dim"),
                       PlanNode::Project(PlanNode::Scan("fact", spec),
                                         {Col("k"), Col("g"), Col("h"),
                                          Col("x"), Col("__unit")},
                                         {"k", "g", "h", "x", "__unit"}),
                       JoinType::kInner, {"pk"}, {"k"}),
        catalog_, &stats);
    ASSERT_TRUE(rows.ok()) << rows.status().message();
    ASSERT_FALSE(UnitsAscend(rows.value()));
    const bool blocks = spec.method == SampleSpec::Method::kSystemBlock;
    const SampleDesign design{spec.rate, blocks ? spec.block_size : 1u, kRows,
                              stats.sampled_units};
    CheckRows(rows.value(), design);
    Result<GroupedEstimates> want = testutil::EstimateReference(
        rows.value(), design, {Col("band")}, Aggs());
    ASSERT_TRUE(want.ok());
    ExpectMatchesOracle(want.value(), [&](const ExecOptions* exec) {
      return EstimateGroupedAggregates(rows.value(), design, {Col("band")},
                                       Aggs(), exec);
    });
  }
}

TEST_F(EstimateOracleTest, StoredSamplesFromEverySampler) {
  {
    SCOPED_TRACE("block");
    CheckSample(BlockSample(*fact_, 0.3, 1000, 3).value());
  }
  {
    SCOPED_TRACE("block, rows reversed");
    Sample s = BlockSample(*fact_, 0.3, 1000, 3).value();
    std::vector<uint32_t> reversed(s.num_rows());
    for (size_t i = 0; i < reversed.size(); ++i) {
      reversed[i] = static_cast<uint32_t>(reversed.size() - 1 - i);
    }
    s.table = s.table.Take(reversed);
    std::reverse(s.weights.begin(), s.weights.end());
    std::reverse(s.unit_ids.begin(), s.unit_ids.end());
    CheckSample(s);
  }
  {
    // A cell takes the weight of its last row.
    SCOPED_TRACE("block, weights varying within a block");
    Sample s = BlockSample(*fact_, 0.3, 1000, 3).value();
    for (size_t i = 0; i < s.weights.size(); ++i) {
      s.weights[i] *= 1.0 + 0.5 * static_cast<double>(i % 3);
    }
    CheckSample(s);
  }
  {
    SCOPED_TRACE("reservoir");
    CheckSample(ReservoirSample(*fact_, 12000, 4).value());
  }
  {
    SCOPED_TRACE("stratified");
    CheckSample(
        StratifiedSample(*fact_, "g", 12000, Allocation::kEqual, 5)
            .value()
            .sample);
  }
  {
    SCOPED_TRACE("congressional");
    CheckSample(CongressionalSample(*fact_, "g", 12000, 6).value().sample);
  }
  {
    SCOPED_TRACE("weighted");
    CheckSample(MeasureBiasedSample(*fact_, "m", 12000, 7).value());
  }
}

// Charges `rows` as the stage's rows, estimates them with `exec` under
// `memory`, and releases the rows' charge.
Result<GroupedEstimates> EstimateUnder(MemoryTracker* memory,
                                       const Table& rows,
                                       const SampleDesign& design,
                                       const std::vector<ExprPtr>& groups,
                                       const std::vector<AggSpec>& aggs,
                                       ExecOptions exec) {
  exec.memory = memory;
  ScopedMemoryCharge rows_charge =
      ScopedMemoryCharge::Make(memory, rows.ApproxBytes(), "stage rows")
          .value();
  return EstimateGroupedAggregates(rows, design, groups, aggs, &exec);
}

// The tracker's peak over `rows` includes at least `min_state` bytes of
// estimator state, a budget between the rows and rows + state is refused,
// and nothing stays charged either way.
void ExpectStateCharged(const Table& rows, const SampleDesign& design,
                        const std::vector<ExprPtr>& groups,
                        const std::vector<AggSpec>& aggs,
                        const ExecOptions& exec,
                        uint64_t (*min_state)(const Table&,
                                              const GroupedEstimates&)) {
  const uint64_t rows_bytes = rows.ApproxBytes();
  MemoryTracker unbounded;
  Result<GroupedEstimates> ok =
      EstimateUnder(&unbounded, rows, design, groups, aggs, exec);
  ASSERT_TRUE(ok.ok()) << ok.status().message();
  const uint64_t state = unbounded.peak() - rows_bytes;
  EXPECT_GE(state, min_state(rows, ok.value()));
  EXPECT_EQ(unbounded.used(), 0u);

  MemoryTracker tight(rows_bytes + state / 2);
  Result<GroupedEstimates> refused =
      EstimateUnder(&tight, rows, design, groups, aggs, exec);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tight.used(), 0u);
}

TEST_F(EstimateOracleTest, StateIsChargedToTheQueryBudget) {
  ExecOptions four_threads;
  four_threads.num_threads = 4;
  {
    SCOPED_TRACE("units ascending");
    SampleDesign design;
    const Table rows =
        Stage(System(1024), Lt(Col("id"), Lit(int64_t{50000})), &design);
    // The group ids and one cell per (group, unit).
    ExpectStateCharged(
        rows, design, {Col("h")}, Aggs(), four_threads,
        [](const Table& rows, const GroupedEstimates& est) -> uint64_t {
          return rows.num_rows() * sizeof(uint32_t) +
                 est.num_cells * 4 * 2 * sizeof(double);
        });
  }
  {
    // Nearly a group per row and one COUNT(*): the slot arrays, one per
    // worker, outweigh the cells. At least the group ids, the keys and
    // eight workers' slots.
    SCOPED_TRACE("more slots than cells");
    SampleDesign design;
    const Table rows =
        Stage(System(1024), Lt(Col("id"), Lit(int64_t{50000})), &design);
    ExecOptions eight_threads;
    eight_threads.num_threads = 8;
    eight_threads.morsel_rows = 1000;
    ExpectStateCharged(
        rows, design, {Col("x")}, {{AggKind::kCountStar, nullptr, "n"}},
        eight_threads,
        [](const Table& rows, const GroupedEstimates& est) -> uint64_t {
          return rows.num_rows() * sizeof(uint32_t) +
                 est.num_groups * (sizeof(double) + 8 * sizeof(uint64_t));
        });
  }
  {
    // FROM dim JOIN fact: the cells are reordered by first row, a copy
    // made while the unit-ordered cells are still held. At least the group
    // ids, the unit order, every cell's sums twice, and the copy's group,
    // unit, first row, weight and (block, cell) entry.
    SCOPED_TRACE("units out of order");
    const SampleSpec spec = System(1024);
    ExecStats stats;
    Result<Table> rows = Execute(
        PlanNode::Join(PlanNode::Scan("dim"),
                       PlanNode::Project(PlanNode::Scan("fact", spec),
                                         {Col("k"), Col("h"), Col("x"),
                                          Col("__unit")},
                                         {"k", "h", "x", "__unit"}),
                       JoinType::kInner, {"pk"}, {"k"}),
        catalog_, &stats);
    ASSERT_TRUE(rows.ok()) << rows.status().message();
    ASSERT_FALSE(UnitsAscend(rows.value()));
    const SampleDesign design{spec.rate, spec.block_size, kRows,
                              stats.sampled_units};
    ExpectStateCharged(
        rows.value(), design, {Col("h")}, Aggs(), four_threads,
        [](const Table& rows, const GroupedEstimates& est) -> uint64_t {
          return rows.num_rows() * 2 * sizeof(uint32_t) +
                 est.num_cells * (2 * 4 * 2 * sizeof(double) +
                                  5 * sizeof(uint32_t) + sizeof(double));
        });
  }
}

}  // namespace
}  // namespace core
}  // namespace aqp
