// A SYSTEM-sampled scan returns its kept blocks as row ranges; the filter
// evaluates only the rows in them, and every gather copies them range by
// range. Each answer
// must be bit-identical to the gather-first oracle (tests/support/
// gather_first.h), which copies the kept rows out before any operator runs,
// at every thread count; ranges straddle 4096-row morsels (block sizes 1000
// and 1024), tables sit at block-size edges, and rates run from nothing
// kept to the exact scan.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "support/gather_first.h"
#include "test_util.h"

namespace aqp {
namespace {

constexpr size_t kLargeRows = (size_t{1} << 20) + 17;
constexpr uint64_t kSeed = 2026;

// `n` rows: id = row, m DOUBLE (NULL every 97th row), g INT64 in [0, 10),
// x INT64 in [0, 1000), s STRING over 13 values.
std::shared_ptr<const Table> MakeTable(size_t n) {
  Column id(DataType::kInt64);
  Column m(DataType::kDouble);
  Column g(DataType::kInt64);
  Column x(DataType::kInt64);
  Column s(DataType::kString);
  for (size_t i = 0; i < n; ++i) {
    id.AppendInt64(static_cast<int64_t>(i));
    if (i % 97 == 5) {
      m.AppendNull();
    } else {
      m.AppendDouble(static_cast<double>((i * 7919) % 1000) * 0.37 + 0.1);
    }
    g.AppendInt64(static_cast<int64_t>((i * 31) % 10));
    x.AppendInt64(static_cast<int64_t>((i * 613) % 1000));
    s.AppendString("k" + std::to_string(i % 13));
  }
  return std::make_shared<const Table>(
      Table::Make(Schema({{"id", DataType::kInt64},
                          {"m", DataType::kDouble},
                          {"g", DataType::kInt64},
                          {"x", DataType::kInt64},
                          {"s", DataType::kString}}),
                  {std::move(id), std::move(m), std::move(g), std::move(x),
                   std::move(s)})
          .value());
}

SampleSpec System(double rate, uint32_t block, uint64_t seed = kSeed) {
  SampleSpec spec;
  spec.method = SampleSpec::Method::kSystemBlock;
  spec.rate = rate;
  spec.seed = seed;
  spec.block_size = block;
  return spec;
}

std::vector<AggSpec> SumCount() {
  return {{AggKind::kSum, Col("m"), "sum_m"},
          {AggKind::kCountStar, nullptr, "n"}};
}

// The plan shapes over a sampled scan of `table`, by name.
std::vector<std::pair<std::string, PlanPtr>> Shapes(const std::string& table,
                                                    const SampleSpec& spec) {
  auto scan = [&] { return PlanNode::Scan(table, spec); };
  std::vector<std::pair<std::string, PlanPtr>> shapes;
  shapes.emplace_back(
      "global aggregate",
      PlanNode::Aggregate(scan(), {}, {},
                          {{AggKind::kSum, Col("m"), "sum_m"},
                           {AggKind::kCountStar, nullptr, "n"},
                           {AggKind::kCount, Col("m"), "count_m"},
                           {AggKind::kAvg, Col("m"), "avg_m"},
                           {AggKind::kMin, Col("m"), "min_m"},
                           {AggKind::kMax, Col("id"), "max_id"},
                           {AggKind::kVar, Col("m"), "var_m"}}));
  shapes.emplace_back("group by g",
                      PlanNode::Aggregate(scan(), {Col("g")}, {"g"},
                                          SumCount()));
  shapes.emplace_back(
      "group by string",
      PlanNode::Aggregate(scan(), {Col("s")}, {"s"},
                          {{AggKind::kCountDistinct, Col("g"), "dg"},
                           {AggKind::kMax, Col("m"), "max_m"}}));
  shapes.emplace_back("group by id",
                      PlanNode::Aggregate(scan(), {Col("id")}, {"id"},
                                          {{AggKind::kSum, Col("m"), "s"}}));
  shapes.emplace_back(
      "filter, group by g",
      PlanNode::Aggregate(
          PlanNode::Filter(scan(), Lt(Col("x"), Lit(int64_t{300}))),
          {Col("g")}, {"g"}, SumCount()));
  shapes.emplace_back(
      "filter, filter, aggregate",
      PlanNode::Aggregate(
          PlanNode::Filter(
              PlanNode::Filter(scan(), Lt(Col("x"), Lit(int64_t{700}))),
              Gt(Col("m"), Lit(100.0))),
          {}, {}, SumCount()));
  shapes.emplace_back("project with unit",
                      PlanNode::Project(scan(),
                                        {Col("id"), Col("m"), Col("__unit")},
                                        {"id", "m", "u"}));
  shapes.emplace_back(
      "renamed columns",
      PlanNode::Aggregate(
          PlanNode::Project(scan(), {Col("g"), Col("m")}, {"k", "v"}),
          {Col("k")}, {"k"},
          {{AggKind::kSum, Col("v"), "sum_v"},
           {AggKind::kCountStar, nullptr, "n"}}));
  shapes.emplace_back(
      "computed key and argument",
      PlanNode::Aggregate(scan(), {Add(Col("g"), Lit(int64_t{1}))}, {"g1"},
                          {{AggKind::kSum, Mul(Col("m"), Lit(2.0)), "s2"}}));
  shapes.emplace_back(
      "group by unit",
      PlanNode::Aggregate(
          PlanNode::Project(scan(), {Col("__unit"), Col("m")}, {"u", "m"}),
          {Col("u")}, {"u"}, SumCount()));
  shapes.emplace_back(
      "join",
      PlanNode::Aggregate(
          PlanNode::Join(
              PlanNode::Filter(scan(), Lt(Col("x"), Lit(int64_t{500}))),
              PlanNode::Scan("dim"), JoinType::kInner, {"g"}, {"k"}),
          {Col("label")}, {"label"}, SumCount()));
  shapes.emplace_back("left join, sampled build side",
                      PlanNode::Join(PlanNode::Scan("dim"),
                                     PlanNode::Filter(scan(), Lt(Col("x"),
                                                                 Lit(int64_t{5}))),
                                     JoinType::kLeftOuter, {"k"}, {"g"}));
  shapes.emplace_back(
      "sort, limit",
      PlanNode::Limit(
          PlanNode::Sort(
              PlanNode::Filter(scan(), Lt(Col("x"), Lit(int64_t{200}))),
              {{"m", false}, {"id", true}}),
          100));
  shapes.emplace_back("limit", PlanNode::Limit(scan(), 10));
  SampleSpec other = spec;
  other.seed += 1;
  shapes.emplace_back(
      "union",
      PlanNode::Aggregate(
          PlanNode::UnionAll(
              {PlanNode::Project(scan(), {Col("g"), Col("m")}, {"g", "m"}),
               PlanNode::Project(PlanNode::Scan(table, other),
                                 {Col("g"), Col("m")}, {"g", "m"})}),
          {Col("g")}, {"g"}, SumCount()));
  return shapes;
}

class RangeSelectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    Column k(DataType::kInt64);
    Column label(DataType::kString);
    for (int64_t i = 0; i < 10; ++i) {
      k.AppendInt64(i);
      label.AppendString(i % 2 == 0 ? "even" : "odd");
    }
    ASSERT_TRUE(catalog_
                    ->Register("dim",
                               std::make_shared<const Table>(
                                   Table::Make(Schema({{"k", DataType::kInt64},
                                                       {"label",
                                                        DataType::kString}}),
                                               {std::move(k), std::move(label)})
                                       .value()))
                    .ok());
    ASSERT_TRUE(catalog_->Register("large", MakeTable(kLargeRows)).ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  // Registers an n-row table (once) and returns its name.
  static std::string NamedTable(size_t n) {
    if (n == kLargeRows) return "large";
    const std::string name = "t" + std::to_string(n);
    if (!catalog_->Contains(name)) {
      EXPECT_TRUE(catalog_->Register(name, MakeTable(n)).ok());
    }
    return name;
  }

  static Catalog* catalog_;
};

Catalog* RangeSelectionTest::catalog_ = nullptr;

TEST_F(RangeSelectionTest, EveryShapeMatchesGatherFirstAtEveryThreadCount) {
  for (uint32_t block : {1000u, 1024u}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{block - 1},
                     size_t{block + 1}, kLargeRows}) {
      const std::string table = NamedTable(n);
      for (double rate : {0.0, 0.001, 0.03, 0.3, 1.0}) {
        for (const auto& [shape, plan] :
             Shapes(table, System(rate, block))) {
          SCOPED_TRACE(shape + " block=" + std::to_string(block) +
                       " rows=" + std::to_string(n) +
                       " rate=" + std::to_string(rate));
          ExecOptions one;
          one.num_threads = 1;
          Result<Table> want =
              testutil::ExecuteGatherFirst(plan, *catalog_, one);
          for (size_t threads : {1u, 2u, 4u, 8u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            ExecOptions options;
            options.num_threads = threads;
            Result<Table> got =
                Execute(plan, *catalog_, nullptr, nullptr, options);
            // An exact scan has no "__unit": both fail alike.
            ASSERT_EQ(got.ok(), want.ok()) << want.status().message();
            if (!want.ok()) {
              ASSERT_EQ(got.status().message(), want.status().message());
              continue;
            }
            ASSERT_TRUE(testutil::TablesBitIdentical(got.value(),
                                                     want.value()));
          }
        }
      }
    }
  }
}

// Every span named `name` under `node`, depth first.
void FindSpans(const obs::SpanRecord& node, const std::string& name,
               std::vector<const obs::SpanRecord*>* out) {
  if (node.name == name) out->push_back(&node);
  for (const auto& child : node.children) FindSpans(*child, name, out);
}

uint64_t Attr(const obs::SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return std::stoull(v);
  }
  ADD_FAILURE() << span.name << " has no attribute " << key;
  return 0;
}

TEST_F(RangeSelectionTest, UnitIsRightAcrossCoalescedBlocks) {
  // At 90% most kept blocks touch a kept neighbour, so they coalesce into
  // fewer ranges than blocks; each row's unit is still its own block.
  const SampleSpec spec = System(0.9, 1000);
  const std::vector<uint32_t> keep =
      testutil::SystemSampleRows(kLargeRows, spec);
  uint64_t runs = 0;
  for (size_t i = 0; i < keep.size(); ++i) {
    if (i == 0 || keep[i] != keep[i - 1] + 1) ++runs;
  }
  for (size_t threads : {1u, 4u}) {
    ExecOptions options;
    options.num_threads = threads;
    obs::QueryTrace trace;
    ExecStats stats;
    Result<Table> got = Execute(
        PlanNode::Project(PlanNode::Scan("large", spec),
                          {Col("id"), Col("__unit")}, {"id", "u"}),
        *catalog_, &stats, &trace, options);
    ASSERT_TRUE(got.ok()) << got.status().message();
    const Table& t = got.value();
    ASSERT_EQ(t.num_rows(), keep.size());
    for (size_t i = 0; i < keep.size(); ++i) {
      ASSERT_EQ(t.column(0).Int64At(i), keep[i]);
      ASSERT_EQ(t.column(1).Int64At(i), keep[i] / 1000);
    }
    trace.Finish();
    std::vector<const obs::SpanRecord*> scans;
    FindSpans(trace.root(), "scan", &scans);
    ASSERT_EQ(scans.size(), 1u);
    EXPECT_EQ(Attr(*scans[0], "ranges"), runs);
    EXPECT_EQ(Attr(*scans[0], "units"), stats.sampled_units.units);
    EXPECT_LT(runs, stats.sampled_units.units);
  }
}

TEST_F(RangeSelectionTest, FallbackPredicateEvaluatesOnlyKeptRows) {
  // d is 1 on the rows the sample keeps and 0 everywhere else: x % d faults
  // on every row outside the sample and on none inside it.
  const SampleSpec spec = System(0.3, 1024);
  const size_t n = 100000;
  const std::vector<uint32_t> keep = testutil::SystemSampleRows(n, spec);
  std::vector<int64_t> x(n);
  std::vector<int64_t> d(n, 0);
  for (size_t i = 0; i < n; ++i) x[i] = static_cast<int64_t>(i);
  for (uint32_t r : keep) d[r] = 1;
  Catalog cat;
  ASSERT_TRUE(cat.Register("t", std::make_shared<const Table>(
                                    Table::Make(
                                        Schema({{"x", DataType::kInt64},
                                                {"d", DataType::kInt64}}),
                                        {Column::FromInt64(x),
                                         Column::FromInt64(d)})
                                        .value()))
                  .ok());
  const ExprPtr pred = Eq(Mod(Col("x"), Col("d")), Lit(int64_t{0}));
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ExecOptions options;
    options.num_threads = threads;
    Result<Table> got = Execute(
        PlanNode::Filter(PlanNode::Scan("t", spec), pred), cat, nullptr,
        nullptr, options);
    ASSERT_TRUE(got.ok()) << got.status().message();
    ASSERT_EQ(got.value().num_rows(), keep.size());
    for (size_t i = 0; i < keep.size(); ++i) {
      ASSERT_EQ(got.value().column(0).Int64At(i), keep[i]);
    }
  }
  // The unsampled scan evaluates the rows outside the sample too.
  EXPECT_FALSE(Execute(PlanNode::Filter(PlanNode::Scan("t"), pred), cat).ok());
}

TEST_F(RangeSelectionTest, BudgetFitsRangesButNotRowIds) {
  // A 30% sample keeps ~315k rows: 1.2 MB as row ids, a few KB as ranges.
  // The filter keeps 1% of them, so what the aggregate gathers fits too.
  const SampleSpec spec = System(0.3, 1024);
  const uint64_t budget = 256 << 10;
  ASSERT_GT(testutil::SystemSampleRows(kLargeRows, spec).size() *
                sizeof(uint32_t),
            budget);
  const PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Filter(PlanNode::Scan("large", spec),
                       Lt(Col("x"), Lit(int64_t{10}))),
      {Col("g")}, {"g"}, SumCount());
  Result<Table> want = testutil::ExecuteGatherFirst(plan, *catalog_);
  ASSERT_TRUE(want.ok()) << want.status().message();
  for (size_t threads : {1u, 4u}) {
    MemoryTracker memory(budget);
    ExecOptions options;
    options.num_threads = threads;
    options.memory = &memory;
    Result<Table> got =
        Execute(plan, *catalog_, nullptr, nullptr, options);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_TRUE(testutil::TablesBitIdentical(got.value(), want.value()));
    EXPECT_LE(memory.peak(), budget);
  }
}

TEST_F(RangeSelectionTest, FilterEvaluatesOnlyKeptRows) {
  for (uint32_t block : {1000u, 1024u}) {
    obs::QueryTrace trace;
    ASSERT_TRUE(Execute(PlanNode::Filter(PlanNode::Scan("large",
                                                        System(0.03, block)),
                                         Lt(Col("x"), Lit(int64_t{300}))),
                        *catalog_, nullptr, &trace)
                    .ok());
    trace.Finish();
    std::vector<const obs::SpanRecord*> scans;
    std::vector<const obs::SpanRecord*> filters;
    FindSpans(trace.root(), "scan", &scans);
    FindSpans(trace.root(), "filter", &filters);
    ASSERT_EQ(scans.size(), 1u);
    ASSERT_EQ(filters.size(), 1u);
    EXPECT_GT(Attr(*scans[0], "rows_out"), 0u);
    EXPECT_EQ(Attr(*filters[0], "rows_evaluated"),
              Attr(*scans[0], "rows_out"));
  }
}

}  // namespace
}  // namespace aqp
