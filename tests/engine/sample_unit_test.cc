// A sampled scan's "__unit" column: when the plan names it, every kept row
// carries its sampling unit — the block index row / block_size for SYSTEM,
// the row index for BERNOULLI — in memory and on extents, for every thread
// count, and ExecStats::sampled_units reports the whole draw. A sampled plan
// that does not name it keeps its output, ExecStats and memory charge.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "common/random.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "engine/row_ranges.h"
#include "gtest/gtest.h"
#include "storage/extent/extent_writer.h"

namespace aqp {
namespace {

constexpr size_t kRows = 20000;  // Not a multiple of the block size.
constexpr uint32_t kBlock = 768;
constexpr double kRate = 0.3;
constexpr uint64_t kSeed = 77;

Table MakeBase() {
  Column id(DataType::kInt64);
  Column v(DataType::kDouble);
  for (size_t i = 0; i < kRows; ++i) {
    id.AppendInt64(static_cast<int64_t>(i));
    v.AppendDouble(static_cast<double>(i % 97) * 0.25);
  }
  return Table::Make(Schema({{"id", DataType::kInt64}, {"v", DataType::kDouble}}),
                     {std::move(id), std::move(v)})
      .value();
}

SampleSpec Spec(SampleSpec::Method method) {
  SampleSpec spec;
  spec.method = method;
  spec.rate = kRate;
  spec.seed = kSeed;
  spec.block_size = kBlock;
  return spec;
}

// The kept base rows, drawn the documented way: one Bernoulli per block from
// Pcg32(seed) for SYSTEM; per-morsel MorselRng(seed, m) streams over
// morsel_rows-row morsels for BERNOULLI (the table clears
// parallel_min_rows).
std::vector<uint32_t> ExpectedKeep(SampleSpec::Method method) {
  std::vector<uint32_t> keep;
  if (method == SampleSpec::Method::kSystemBlock) {
    Pcg32 rng(kSeed);
    for (size_t first = 0; first < kRows; first += kBlock) {
      if (!rng.Bernoulli(kRate)) continue;
      for (size_t r = first; r < std::min(kRows, first + kBlock); ++r) {
        keep.push_back(static_cast<uint32_t>(r));
      }
    }
    return keep;
  }
  const size_t morsel_rows = ExecOptions{}.morsel_rows;
  for (size_t m = 0; m * morsel_rows < kRows; ++m) {
    Pcg32 rng = MorselRng(kSeed, m);
    for (size_t r = m * morsel_rows; r < std::min(kRows, (m + 1) * morsel_rows);
         ++r) {
      if (rng.Bernoulli(kRate)) keep.push_back(static_cast<uint32_t>(r));
    }
  }
  return keep;
}

class SampleUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "aqp_sample_unit.aqpx";
    Table base = MakeBase();
    extent::ExtentWriter::Options o;
    o.extent_rows = 4096;
    ASSERT_TRUE(extent::WriteTableToExtents(path_, base, o).ok());
    Result<std::shared_ptr<const extent::ExtentReader>> reader =
        extent::ExtentReader::Open(path_);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    ASSERT_TRUE(
        catalog_.Register("mem", std::make_shared<Table>(std::move(base)))
            .ok());
    catalog_.RegisterExtentBacked("ext", reader.value());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  Catalog catalog_;
};

TEST_F(SampleUnitTest, NamedUnitIsBlockOrRowIndex) {
  for (SampleSpec::Method method :
       {SampleSpec::Method::kSystemBlock, SampleSpec::Method::kBernoulliRow}) {
    const bool blocks = method == SampleSpec::Method::kSystemBlock;
    const uint64_t unit_rows = blocks ? kBlock : 1;
    const std::vector<uint32_t> keep = ExpectedKeep(method);
    // The units the draw kept, each with its base-row count.
    SampledUnits expected;
    for (size_t i = 0; i < keep.size();) {
      size_t j = i;
      while (j < keep.size() && keep[j] / unit_rows == keep[i] / unit_rows) ++j;
      ++expected.units;
      expected.rows += j - i;
      expected.rows_squared += (j - i) * (j - i);
      i = j;
    }
    for (const std::string table : {"mem", "ext"}) {
      for (size_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(table + (blocks ? " system" : " bernoulli") +
                     " threads=" + std::to_string(threads));
        ExecOptions options;
        options.num_threads = threads;
        ExecStats stats;
        Result<Table> got = Execute(
            PlanNode::Project(PlanNode::Scan(table, Spec(method)),
                              {Col("__unit"), Col("id")}, {"u", "id"}),
            catalog_, &stats, nullptr, options);
        ASSERT_TRUE(got.ok()) << got.status().message();
        const Table& t = got.value();
        ASSERT_EQ(t.num_rows(), keep.size());
        for (size_t i = 0; i < keep.size(); ++i) {
          ASSERT_EQ(t.column(1).Int64At(i), keep[i]);
          ASSERT_EQ(t.column(0).Int64At(i),
                    static_cast<int64_t>(keep[i] / unit_rows));
        }
        EXPECT_EQ(stats.sampled_units.units, expected.units);
        EXPECT_EQ(stats.sampled_units.rows, expected.rows);
        EXPECT_EQ(stats.sampled_units.rows_squared, expected.rows_squared);
        EXPECT_EQ(stats.rows_scanned, keep.size());
      }
    }
  }
}

TEST_F(SampleUnitTest, DrawCountsUnitsTheFilterEmpties) {
  // Only rows below 2000 survive the filter, but every drawn block counts.
  const std::vector<uint32_t> keep =
      ExpectedKeep(SampleSpec::Method::kSystemBlock);
  const std::vector<uint32_t> kept_blocks = [&] {
    std::vector<uint32_t> b;
    for (uint32_t r : keep) {
      if (b.empty() || b.back() != r / kBlock) b.push_back(r / kBlock);
    }
    return b;
  }();
  for (const std::string table : {"mem", "ext"}) {
    ExecStats stats;
    Result<Table> got = Execute(
        PlanNode::Project(
            PlanNode::Filter(
                PlanNode::Scan(table, Spec(SampleSpec::Method::kSystemBlock)),
                Lt(Col("id"), Lit(int64_t{2000}))),
            {Col("__unit")}, {"u"}),
        catalog_, &stats);
    ASSERT_TRUE(got.ok()) << got.status().message();
    size_t survivors = 0;
    for (uint32_t r : keep) survivors += r < 2000 ? 1 : 0;
    EXPECT_EQ(got.value().num_rows(), survivors) << table;
    EXPECT_EQ(stats.sampled_units.units, kept_blocks.size()) << table;
    EXPECT_EQ(stats.sampled_units.rows, keep.size()) << table;
  }
}

// The unit is derived from each kept row's base row wherever rows are
// gathered: through a filter that reads it, on either side of a join and as
// a join key, NULL on the null-extended side of a LEFT join.
TEST_F(SampleUnitTest, DerivedUnitSurvivesFiltersAndJoins) {
  const std::vector<uint32_t> keep =
      ExpectedKeep(SampleSpec::Method::kSystemBlock);
  Column keys(DataType::kInt64);
  for (int64_t k = 0; k < 4000; k += 2) keys.AppendInt64(k);
  ASSERT_TRUE(
      catalog_
          .Register("evens", std::make_shared<Table>(
                                 Table::Make(Schema({{"k", DataType::kInt64}}),
                                             {std::move(keys)})
                                     .value()))
          .ok());
  auto sampled = [&] {
    return PlanNode::Project(
        PlanNode::Scan("mem", Spec(SampleSpec::Method::kSystemBlock)),
        {Col("id"), Col("__unit")}, {"id", "u"});
  };
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecOptions options;
    options.num_threads = threads;
    // A filter on the unit itself.
    Result<Table> got = Execute(
        PlanNode::Filter(sampled(), Lt(Col("u"), Lit(int64_t{10}))), catalog_,
        nullptr, nullptr, options);
    ASSERT_TRUE(got.ok()) << got.status().message();
    std::vector<uint32_t> want;
    for (uint32_t r : keep) {
      if (r / kBlock < 10) want.push_back(r);
    }
    ASSERT_EQ(got.value().num_rows(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got.value().column(0).Int64At(i), want[i]);
      ASSERT_EQ(got.value().column(1).Int64At(i), want[i] / kBlock);
    }
    // The sampled table on the probe side, then on the build side of a
    // LEFT join: "evens" rows without a drawn match get a NULL unit.
    got = Execute(PlanNode::Join(sampled(), PlanNode::Scan("evens"),
                                 JoinType::kInner, {"id"}, {"k"}),
                  catalog_, nullptr, nullptr, options);
    ASSERT_TRUE(got.ok()) << got.status().message();
    want.clear();
    for (uint32_t r : keep) {
      if (r < 4000 && r % 2 == 0) want.push_back(r);
    }
    ASSERT_EQ(got.value().num_rows(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got.value().column(1).Int64At(i), want[i] / kBlock);
    }
    // The unit as a join key.
    got = Execute(PlanNode::Join(sampled(), PlanNode::Scan("evens"),
                                 JoinType::kInner, {"u"}, {"k"}),
                  catalog_, nullptr, nullptr, options);
    ASSERT_TRUE(got.ok()) << got.status().message();
    want.clear();
    for (uint32_t r : keep) {
      if ((r / kBlock) % 2 == 0) want.push_back(r);
    }
    ASSERT_EQ(got.value().num_rows(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got.value().column(0).Int64At(i), want[i]);
      ASSERT_EQ(got.value().column(2).Int64At(i), want[i] / kBlock);
    }
    got = Execute(PlanNode::Join(PlanNode::Scan("evens"), sampled(),
                                 JoinType::kLeftOuter, {"k"}, {"id"}),
                  catalog_, nullptr, nullptr, options);
    ASSERT_TRUE(got.ok()) << got.status().message();
    const Table& t = got.value();
    ASSERT_EQ(t.num_rows(), 2000u);
    for (size_t i = 0; i < t.num_rows(); ++i) {
      const int64_t k = t.column(0).Int64At(i);
      const bool drawn = std::binary_search(keep.begin(), keep.end(),
                                            static_cast<uint32_t>(k));
      ASSERT_EQ(t.column(2).IsNull(i), !drawn) << k;
      if (drawn) {
        ASSERT_EQ(t.column(2).Int64At(i), k / kBlock);
      }
    }
  }
}

TEST_F(SampleUnitTest, PlanWithoutUnitIsUnchanged) {
  for (SampleSpec::Method method :
       {SampleSpec::Method::kSystemBlock, SampleSpec::Method::kBernoulliRow}) {
    const bool blocks = method == SampleSpec::Method::kSystemBlock;
    SCOPED_TRACE(blocks ? "system" : "bernoulli");
    const std::vector<uint32_t> keep = ExpectedKeep(method);
    MemoryTracker memory(0);
    ExecOptions options;
    options.memory = &memory;
    ExecStats stats;
    Result<Table> got =
        Execute(PlanNode::Project(PlanNode::Scan("mem", Spec(method)),
                                  {Col("id")}, {"id"}),
                catalog_, &stats, nullptr, options);
    ASSERT_TRUE(got.ok()) << got.status().message();
    const Table& t = got.value();
    ASSERT_EQ(t.num_columns(), 1u);
    ASSERT_EQ(t.num_rows(), keep.size());
    for (size_t i = 0; i < keep.size(); ++i) {
      ASSERT_EQ(t.column(0).Int64At(i), keep[i]);
    }
    EXPECT_EQ(stats.rows_scanned, keep.size());
    const uint64_t all_blocks = (kRows + kBlock - 1) / kBlock;
    uint64_t drawn_blocks = 0;
    for (size_t i = 0; i < keep.size(); ++i) {
      if (i == 0 || keep[i] / kBlock != keep[i - 1] / kBlock) ++drawn_blocks;
    }
    EXPECT_EQ(stats.blocks_read, blocks ? drawn_blocks : all_blocks);
    EXPECT_EQ(stats.sampled_units.units, 0u);
    EXPECT_EQ(stats.sampled_units.rows, 0u);
    // The only charges: the scan's selection (no gather) and the result's
    // one gather. SYSTEM keeps its blocks as coalesced row ranges, one per
    // run of consecutive kept rows; BERNOULLI keeps one id per row.
    uint64_t selection_bytes = keep.size() * sizeof(uint32_t);
    if (blocks) {
      uint64_t runs = 0;
      for (size_t i = 0; i < keep.size(); ++i) {
        if (i == 0 || keep[i] != keep[i - 1] + 1) ++runs;
      }
      selection_bytes = runs * sizeof(RowRanges::Range);
    }
    EXPECT_EQ(memory.peak(), selection_bytes + t.ApproxBytes());
    EXPECT_EQ(memory.used(), 0u);
  }
}

}  // namespace
}  // namespace aqp
