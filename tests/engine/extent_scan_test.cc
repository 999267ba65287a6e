// Extent-backed scan path: conjunct extraction, zone-map pruning, and the
// executor-level contract that an extent-backed table answers every plan
// shape bit-identically to its in-memory twin and to the row-at-a-time
// oracle over that twin — across the {1, 2, 4, 8} thread grid and sampled
// scans (which must replay the exact same per-morsel RNG streams).

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_tracker.h"
#include "engine/catalog.h"
#include "engine/executor.h"
#include "engine/extent_scan.h"
#include "engine/plan.h"
#include "gtest/gtest.h"
#include "storage/extent/extent_writer.h"
#include "storage/extent/format.h"
#include "support/row_reference.h"

namespace aqp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "aqp_extent_scan_" + name;
}

// id ascending (prunable), grp cycling strings, v doubles with NULLs.
Table MakeBase(size_t rows) {
  Schema schema({{"id", DataType::kInt64},
                 {"grp", DataType::kString},
                 {"v", DataType::kDouble}});
  Column id(DataType::kInt64);
  Column grp(DataType::kString);
  Column v(DataType::kDouble);
  const char* groups[] = {"a", "b", "c"};
  for (size_t i = 0; i < rows; ++i) {
    id.AppendInt64(static_cast<int64_t>(i));
    grp.AppendString(groups[i % 3]);
    if (i % 31 == 7) {
      v.AppendNull();
    } else {
      v.AppendDouble(static_cast<double>(i % 1000) * 0.5);
    }
  }
  Result<Table> t = Table::Make(std::move(schema),
                                {std::move(id), std::move(grp), std::move(v)});
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (size_t i = 0; i < a.num_rows(); ++i) {
      ASSERT_EQ(a.column(c).IsNull(i), b.column(c).IsNull(i))
          << "col " << c << " row " << i;
      if (a.column(c).IsNull(i)) continue;
      ASSERT_EQ(a.column(c).GetValue(i).ToString(),
                b.column(c).GetValue(i).ToString())
          << "col " << c << " row " << i;
    }
  }
}

// A fixture registering the same data twice: "mem" in memory, "ext" from an
// extent file (8 extents of 1024 rows each).
class ExtentScanExecTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 8192;

  void SetUp() override {
    path_ = TempPath("exec.aqpx");
    Table base = MakeBase(kRows);
    extent::ExtentWriter::Options o;
    o.extent_rows = 1024;
    ASSERT_TRUE(extent::WriteTableToExtents(path_, base, o).ok());
    Result<std::shared_ptr<const extent::ExtentReader>> reader =
        extent::ExtentReader::Open(path_);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    reader_ = reader.value();
    ASSERT_TRUE(
        catalog_.Register("mem", std::make_shared<Table>(std::move(base)))
            .ok());
    catalog_.RegisterExtentBacked("ext", reader_);
  }
  void TearDown() override {
    std::remove(path_.c_str());
    for (const std::string& p : copies_) std::remove(p.c_str());
  }

  // Writes the base table again as `name`. `damage` flips bytes of the
  // written file (it gets the clean file's reader to find chunks) before
  // the copy is opened.
  void RegisterCopy(
      const std::string& name,
      const std::function<void(const extent::ExtentReader&, std::string*)>&
          damage) {
    const std::string path = TempPath(name + ".aqpx");
    copies_.push_back(path);
    extent::ExtentWriter::Options o;
    o.extent_rows = 1024;
    ASSERT_TRUE(extent::WriteTableToExtents(path, MakeBase(kRows), o).ok());
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    {
      Result<std::shared_ptr<const extent::ExtentReader>> clean =
          extent::ExtentReader::Open(path);
      ASSERT_TRUE(clean.ok()) << clean.status().message();
      damage(*clean.value(), &bytes);
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    Result<std::shared_ptr<const extent::ExtentReader>> reader =
        extent::ExtentReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().message();
    catalog_.RegisterExtentBacked(name, reader.value());
  }

  // Runs `make_plan(table)` against the in-memory table and the extent
  // registration `ext` over the thread grid; all results must be identical
  // to the oracle's over the in-memory table, including row order.
  void ExpectParity(
      const std::function<PlanPtr(const std::string&)>& make_plan,
      ExecStats* ext_stats = nullptr, const std::string& ext = "ext") {
    ExecOptions base_options;
    base_options.num_threads = 1;
    Result<Table> reference = testutil::ExecuteRowReference(
        make_plan("mem"), catalog_, base_options);
    ASSERT_TRUE(reference.ok()) << reference.status().message();
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      ExecOptions options;
      options.num_threads = threads;
      for (const std::string& table : {std::string("mem"), ext}) {
        ExecStats stats;
        Result<Table> got =
            Execute(make_plan(table), catalog_, &stats, nullptr, options);
        ASSERT_TRUE(got.ok()) << table << " threads=" << threads << ": "
                              << got.status().message();
        ExpectTablesIdentical(reference.value(), got.value());
        if (ext_stats != nullptr && table == ext && threads == 1) {
          *ext_stats = stats;
        }
      }
    }
  }

  std::string path_;
  std::vector<std::string> copies_;
  std::shared_ptr<const extent::ExtentReader> reader_;
  Catalog catalog_;
};

AggSpec Sum(const std::string& col, const std::string& alias) {
  AggSpec a;
  a.kind = AggKind::kSum;
  a.arg = Col(col);
  a.alias = alias;
  return a;
}

AggSpec CountStar() {
  AggSpec a;
  a.kind = AggKind::kCountStar;
  a.alias = "n";
  return a;
}

SampleSpec SystemSample(double rate, uint64_t seed, uint32_t block_size) {
  SampleSpec spec;
  spec.method = SampleSpec::Method::kSystemBlock;
  spec.rate = rate;
  spec.seed = seed;
  spec.block_size = block_size;
  return spec;
}

// --- Conjunct extraction / MayMatch units ----------------------------------

TEST(PruneConjunctTest, ExtractsAndedComparisons) {
  Schema schema({{"id", DataType::kInt64}, {"grp", DataType::kString}});
  ExprPtr pred = And(And(Gt(Col("id"), Lit(int64_t{100})),
                         Eq(Col("grp"), Lit("a"))),
                     Expr::MakeBetween(Col("id"), Lit(int64_t{0}),
                                       Lit(int64_t{500})));
  std::vector<PruneConjunct> cs = ExtractPruneConjuncts(*pred, schema);
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs[0].kind, PruneConjunct::Kind::kGt);
  EXPECT_EQ(cs[0].col, 0u);
  EXPECT_EQ(cs[1].kind, PruneConjunct::Kind::kEq);
  EXPECT_EQ(cs[1].col, 1u);
  EXPECT_EQ(cs[2].kind, PruneConjunct::Kind::kBetween);
}

TEST(PruneConjunctTest, FlipsReversedComparisons) {
  Schema schema({{"id", DataType::kInt64}});
  // 100 < id  ==  id > 100.
  ExprPtr pred = Lt(Lit(int64_t{100}), Col("id"));
  std::vector<PruneConjunct> cs = ExtractPruneConjuncts(*pred, schema);
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].kind, PruneConjunct::Kind::kGt);
  EXPECT_EQ(cs[0].a.int64(), 100);
}

TEST(PruneConjunctTest, IgnoresOrUnknownAndNonLiteral) {
  Schema schema({{"id", DataType::kInt64}});
  EXPECT_TRUE(ExtractPruneConjuncts(
                  *Or(Gt(Col("id"), Lit(int64_t{1})),
                      Lt(Col("id"), Lit(int64_t{0}))),
                  schema)
                  .empty());
  EXPECT_TRUE(ExtractPruneConjuncts(*Gt(Col("nope"), Lit(int64_t{1})), schema)
                  .empty());
  EXPECT_TRUE(ExtractPruneConjuncts(
                  *Gt(Col("id"), Add(Lit(int64_t{1}), Lit(int64_t{2}))),
                  schema)
                  .empty());
  // An OR above, AND below: the AND branch is unreachable for extraction.
  EXPECT_TRUE(ExtractPruneConjuncts(
                  *Or(And(Gt(Col("id"), Lit(int64_t{1})),
                          Lt(Col("id"), Lit(int64_t{9}))),
                      Eq(Col("id"), Lit(int64_t{0}))),
                  schema)
                  .empty());
}

extent::ExtentMeta MetaWithBounds(int64_t min, int64_t max, uint64_t nulls,
                                  uint32_t rows) {
  extent::ExtentMeta m;
  m.row_count = rows;
  extent::ChunkMeta c;
  c.zone.null_count = nulls;
  c.zone.has_bounds = true;
  c.zone.min = Value(min);
  c.zone.max = Value(max);
  m.chunks.push_back(c);
  return m;
}

TEST(ExtentMayMatchTest, RangeLogic) {
  extent::ExtentMeta m = MetaWithBounds(100, 200, 0, 1024);
  auto one = [](PruneConjunct::Kind k, int64_t v) {
    PruneConjunct c;
    c.col = 0;
    c.kind = k;
    c.a = Value(v);
    return std::vector<PruneConjunct>{c};
  };
  EXPECT_TRUE(ExtentMayMatch(m, one(PruneConjunct::Kind::kEq, 150)));
  EXPECT_FALSE(ExtentMayMatch(m, one(PruneConjunct::Kind::kEq, 99)));
  EXPECT_FALSE(ExtentMayMatch(m, one(PruneConjunct::Kind::kEq, 201)));
  EXPECT_TRUE(ExtentMayMatch(m, one(PruneConjunct::Kind::kLt, 101)));
  EXPECT_FALSE(ExtentMayMatch(m, one(PruneConjunct::Kind::kLt, 100)));
  EXPECT_TRUE(ExtentMayMatch(m, one(PruneConjunct::Kind::kLe, 100)));
  EXPECT_FALSE(ExtentMayMatch(m, one(PruneConjunct::Kind::kLe, 99)));
  EXPECT_TRUE(ExtentMayMatch(m, one(PruneConjunct::Kind::kGt, 199)));
  EXPECT_FALSE(ExtentMayMatch(m, one(PruneConjunct::Kind::kGt, 200)));
  EXPECT_TRUE(ExtentMayMatch(m, one(PruneConjunct::Kind::kGe, 200)));
  EXPECT_FALSE(ExtentMayMatch(m, one(PruneConjunct::Kind::kGe, 201)));
}

TEST(ExtentMayMatchTest, AllNullAndNoBounds) {
  PruneConjunct c;
  c.col = 0;
  c.kind = PruneConjunct::Kind::kEq;
  c.a = Value(int64_t{5});
  // All-NULL chunk: comparisons are never true -> prune.
  extent::ExtentMeta all_null = MetaWithBounds(0, 0, 1024, 1024);
  all_null.chunks[0].zone.has_bounds = false;
  EXPECT_FALSE(ExtentMayMatch(all_null, {c}));
  // Bounds absent but some rows non-NULL: cannot prune.
  extent::ExtentMeta no_bounds = MetaWithBounds(0, 0, 10, 1024);
  no_bounds.chunks[0].zone.has_bounds = false;
  EXPECT_TRUE(ExtentMayMatch(no_bounds, {c}));
  // Type mismatch (string literal vs int bounds): cannot prove -> may match.
  PruneConjunct s = c;
  s.a = Value(std::string("x"));
  EXPECT_TRUE(ExtentMayMatch(MetaWithBounds(100, 200, 0, 1024), {s}));
}

TEST(ExtentMayMatchTest, InList) {
  extent::ExtentMeta m = MetaWithBounds(100, 200, 0, 1024);
  PruneConjunct c;
  c.col = 0;
  c.kind = PruneConjunct::Kind::kIn;
  c.values = {Value(int64_t{5}), Value(int64_t{150})};
  EXPECT_TRUE(ExtentMayMatch(m, {c}));
  c.values = {Value(int64_t{5}), Value(int64_t{300})};
  EXPECT_FALSE(ExtentMayMatch(m, {c}));
  c.values.clear();
  EXPECT_FALSE(ExtentMayMatch(m, {c}));
}

// --- Catalog behavior ------------------------------------------------------

TEST_F(ExtentScanExecTest, CatalogContract) {
  EXPECT_TRUE(catalog_.IsExtentBacked("ext"));
  EXPECT_FALSE(catalog_.IsExtentBacked("mem"));
  EXPECT_TRUE(catalog_.Contains("ext"));
  EXPECT_EQ(catalog_.Cardinality("ext").value(), kRows);
  EXPECT_EQ(catalog_.Version("ext").value(), 1u);

  // ReadTable of an in-memory name is the catalog's own table: the same
  // pointer on every read, whatever the column list, and nothing charged.
  MemoryTracker memory(1u << 30);
  ExecOptions options;
  options.num_threads = 1;
  options.memory = &memory;
  const std::vector<std::string> v_only = {"v"};
  Result<std::shared_ptr<const Table>> mem =
      ReadTable(catalog_, "mem", &v_only, options);
  ASSERT_TRUE(mem.ok()) << mem.status().message();
  EXPECT_EQ(mem.value(), ReadTable(catalog_, "mem").value());
  EXPECT_EQ(mem.value()->num_columns(), 3u);
  EXPECT_EQ(memory.used(), 0u);

  // An extent-backed name decodes only the asked columns (a name the file
  // does not store is skipped), charged while the table lives.
  const std::vector<std::string> v_and_unit = {"v", "__unit"};
  {
    Result<std::shared_ptr<const Table>> ext =
        ReadTable(catalog_, "ext", &v_and_unit, options);
    ASSERT_TRUE(ext.ok()) << ext.status().message();
    ASSERT_EQ(ext.value()->num_columns(), 1u);
    EXPECT_EQ(ext.value()->schema().field(0).name, "v");
    EXPECT_EQ(ext.value()->num_rows(), kRows);
    EXPECT_EQ(memory.used(), ext.value()->ApproxBytes());
    Result<Table> v = Execute(
        PlanNode::Project(PlanNode::Scan("mem"), {Col("v")}, {"v"}), catalog_);
    ASSERT_TRUE(v.ok());
    ExpectTablesIdentical(v.value(), *ext.value());
    // Every column by default, in schema order.
    Result<std::shared_ptr<const Table>> all = ReadTable(catalog_, "ext");
    ASSERT_TRUE(all.ok());
    ExpectTablesIdentical(*mem.value(), *all.value());
  }
  EXPECT_EQ(memory.used(), 0u) << "the charge dies with the last reference";

  // A row limit decodes only the extents holding the leading rows: 1500
  // rows touch the first two of eight 1024-row extents. An in-memory name
  // still returns its whole table.
  {
    ExecStats stats;
    Result<std::shared_ptr<const Table>> head =
        ReadTable(catalog_, "ext", nullptr, options, &stats, 1500);
    ASSERT_TRUE(head.ok()) << head.status().message();
    EXPECT_EQ(head.value()->num_rows(), 1500u);
    EXPECT_EQ(stats.extents_total, 8u);
    EXPECT_EQ(stats.extents_pruned, 6u);
    std::vector<uint32_t> leading(1500);
    for (uint32_t i = 0; i < leading.size(); ++i) leading[i] = i;
    ExpectTablesIdentical(mem.value()->Take(leading), *head.value());
    EXPECT_EQ(ReadTable(catalog_, "mem", nullptr, options, nullptr, 1500)
                  .value(),
              mem.value());
  }
  EXPECT_EQ(memory.used(), 0u);

  // A budget below the decoded columns refuses the read before anything is
  // decoded: the refused charge is the read's projection, not its output.
  MemoryTracker tight(1024);
  options.memory = &tight;
  Result<std::shared_ptr<const Table>> refused =
      ReadTable(catalog_, "ext", nullptr, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status().message().find("extent read"), std::string::npos)
      << refused.status().message();
  EXPECT_EQ(tight.used(), 0u);
  EXPECT_EQ(ReadTable(catalog_, "ghost").status().code(),
            StatusCode::kNotFound);

  // Replacing an extent-backed name with an in-memory table bumps the
  // version and flips the kind.
  catalog_.RegisterOrReplace("ext", std::make_shared<Table>(MakeBase(10)));
  EXPECT_FALSE(catalog_.IsExtentBacked("ext"));
  EXPECT_EQ(catalog_.Version("ext").value(), 2u);
  catalog_.RegisterExtentBacked("ext", reader_);
  EXPECT_TRUE(catalog_.IsExtentBacked("ext"));
  EXPECT_EQ(catalog_.Version("ext").value(), 3u);
  EXPECT_TRUE(catalog_.Drop("ext").ok());
  EXPECT_FALSE(catalog_.Contains("ext"));
}

// --- Executor parity -------------------------------------------------------

TEST_F(ExtentScanExecTest, BareScanParity) {
  ExpectParity([](const std::string& t) { return PlanNode::Scan(t); });
}

TEST_F(ExtentScanExecTest, FilterParityAndPruning) {
  ExecStats stats;
  // id >= 6144 covers exactly the last 2 of 8 extents: 6 prune.
  ExpectParity(
      [](const std::string& t) {
        return PlanNode::Filter(PlanNode::Scan(t),
                                Ge(Col("id"), Lit(int64_t{6144})));
      },
      &stats);
  EXPECT_EQ(stats.extents_total, 8u);
  EXPECT_EQ(stats.extents_pruned, 6u);
}

TEST_F(ExtentScanExecTest, UnprunablePredicateStillCorrect) {
  ExecStats stats;
  ExpectParity(
      [](const std::string& t) {
        return PlanNode::Filter(PlanNode::Scan(t), Eq(Col("grp"), Lit("b")));
      },
      &stats);
  // grp cycles a/b/c in every extent: nothing can prune, all rows survive
  // the zone check, and the result still matches.
  EXPECT_EQ(stats.extents_pruned, 0u);
}

TEST_F(ExtentScanExecTest, FilterAggregateParity) {
  ExpectParity([](const std::string& t) {
    AggSpec sum;
    sum.kind = AggKind::kSum;
    sum.arg = Col("v");
    sum.alias = "s";
    AggSpec cnt;
    cnt.kind = AggKind::kCountStar;
    cnt.alias = "n";
    return PlanNode::Aggregate(
        PlanNode::Filter(PlanNode::Scan(t),
                         Lt(Col("id"), Lit(int64_t{3000}))),
        {Col("grp")}, {"grp"}, {sum, cnt});
  });
}

TEST_F(ExtentScanExecTest, SampledScanParity) {
  // Sampled extent scans must draw the exact same rows as the in-memory
  // table: same per-morsel RNG streams over the same global row indexing.
  for (SampleSpec::Method method :
       {SampleSpec::Method::kBernoulliRow, SampleSpec::Method::kSystemBlock}) {
    SampleSpec spec;
    spec.method = method;
    spec.rate = 0.1;
    spec.seed = 1234;
    ExpectParity(
        [&spec](const std::string& t) { return PlanNode::Scan(t, spec); });
  }
}

TEST_F(ExtentScanExecTest, ProjectOverFilterParity) {
  ExpectParity([](const std::string& t) {
    return PlanNode::Project(
        PlanNode::Filter(PlanNode::Scan(t),
                         Expr::MakeBetween(Col("id"), Lit(int64_t{1024}),
                                           Lit(int64_t{2047}))),
        {Col("id"), Col("grp")}, {"id", "grp"});
  });
}

// --- Projection: decode only what the plan reads ---------------------------

TEST_F(ExtentScanExecTest, CountStarOnlyParity) {
  ExpectParity([](const std::string& t) {
    return PlanNode::Aggregate(PlanNode::Scan(t), {}, {}, {CountStar()});
  });
}

TEST_F(ExtentScanExecTest, ProjectSubsetParity) {
  ExpectParity([](const std::string& t) {
    return PlanNode::Project(PlanNode::Scan(t), {Col("v"), Col("id")},
                             {"v", "id"});
  });
}

TEST_F(ExtentScanExecTest, SortLimitParity) {
  // Sort and Limit keep the rows' other columns; the project above cuts the
  // scan to the sort key plus what it outputs.
  ExpectParity([](const std::string& t) {
    return PlanNode::Project(
        PlanNode::Limit(PlanNode::Sort(PlanNode::Scan(t),
                                       {{"v", false}, {"id", true}}),
                        50),
        {Col("grp")}, {"grp"});
  });
  ExpectParity([](const std::string& t) {
    return PlanNode::Limit(
        PlanNode::Sort(PlanNode::Scan(t), {{"grp", true}, {"id", false}}), 20);
  });
}

TEST_F(ExtentScanExecTest, FilterRootReturnsEveryColumn) {
  ExpectParity([](const std::string& t) {
    return PlanNode::Filter(PlanNode::Scan(t), Lt(Col("v"), Lit(40.0)));
  });
  Result<Table> r = Execute(
      PlanNode::Filter(PlanNode::Scan("ext"), Lt(Col("v"), Lit(40.0))),
      catalog_);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().num_columns(), 3u);
}

TEST_F(ExtentScanExecTest, UnreferencedCorruptChunkIsNeverRead) {
  // Every extent's `grp` chunk has a flipped payload byte. Plans that do not
  // reference grp neither read nor decode it; plans that do still fail with
  // the CRC status.
  RegisterCopy("bad", [](const extent::ExtentReader& r, std::string* bytes) {
    for (const extent::ExtentMeta& e : r.extents()) {
      const extent::ChunkMeta& grp = e.chunks[1];
      (*bytes)[e.file_offset + grp.offset + extent::kChunkHeaderBytes + 1] ^=
          0x10;
    }
  });
  // Aggregate over Filter over Scan reads 2 of the 3 columns (id, v).
  ExpectParity(
      [](const std::string& t) {
        return PlanNode::Aggregate(
            PlanNode::Filter(PlanNode::Scan(t),
                             Lt(Col("id"), Lit(int64_t{3000}))),
            {}, {}, {Sum("v", "s"), CountStar()});
      },
      nullptr, "bad");
  ExpectParity(
      [](const std::string& t) {
        return PlanNode::Aggregate(PlanNode::Scan(t), {}, {}, {CountStar()});
      },
      nullptr, "bad");
  ExpectParity(
      [](const std::string& t) {
        return PlanNode::Aggregate(
            PlanNode::Scan(t, SystemSample(0.3, 99, 1024)), {}, {},
            {Sum("v", "s"), CountStar()});
      },
      nullptr, "bad");
  ExecOptions options;
  options.num_threads = 4;
  for (const PlanPtr& plan :
       {PlanNode::Aggregate(PlanNode::Scan("bad"), {Col("grp")}, {"grp"},
                            {CountStar()}),
        PlanNode::Filter(PlanNode::Scan("bad"),
                         Lt(Col("id"), Lit(int64_t{100})))}) {
    Result<Table> r = Execute(plan, catalog_, nullptr, nullptr, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("CRC32"), std::string::npos)
        << r.status().message();
  }
}

// --- SYSTEM block samples read only the extents their blocks fall in -------

TEST_F(ExtentScanExecTest, SystemSampleReadsFewerExtents) {
  // 128 blocks of 64 rows over 8 extents: a 1% sample keeps one or two
  // blocks, so most extents are never read.
  const SampleSpec spec = SystemSample(0.01, 7, 64);
  ExecStats stats;
  ExpectParity(
      [&spec](const std::string& t) {
        return PlanNode::Aggregate(PlanNode::Scan(t, spec), {}, {},
                                   {Sum("v", "s"), CountStar()});
      },
      &stats);
  EXPECT_EQ(stats.extents_total, 8u);
  EXPECT_GE(stats.extents_pruned, 6u);
  EXPECT_LT(stats.extents_pruned, 8u) << "the seed must keep some block";
  EXPECT_GT(stats.rows_scanned, 0u);
  EXPECT_EQ(stats.rows_scanned % 64, 0u);
  ExpectParity(
      [&spec](const std::string& t) { return PlanNode::Scan(t, spec); });
}

TEST_F(ExtentScanExecTest, SampledBlocksStraddlingExtents) {
  // 1024-row extents under blocks of 1000, 1536 and 3000 rows: extent size
  // is not a multiple of the block size, so blocks straddle extent
  // boundaries (the largest spans three extents) and read every extent
  // they touch.
  for (uint32_t block_size : {1000u, 1536u, 3000u}) {
    for (double rate : {0.2, 0.5}) {
      const SampleSpec spec = SystemSample(rate, 4321 + block_size, block_size);
      ExpectParity(
          [&spec](const std::string& t) { return PlanNode::Scan(t, spec); });
      ExpectParity([&spec](const std::string& t) {
        return PlanNode::Aggregate(
            PlanNode::Filter(PlanNode::Scan(t, spec),
                             Lt(Col("v"), Lit(200.0))),
            {Col("grp")}, {"grp"}, {Sum("v", "s"), CountStar()});
      });
    }
  }
}

// --- Governance ------------------------------------------------------------

TEST_F(ExtentScanExecTest, FullMaterializationIsCharged) {
  // Budget far below the table's footprint: a bare extent scan must refuse
  // rather than materialize past the budget.
  MemoryTracker memory(64 * 1024);
  ExecOptions options;
  options.num_threads = 1;
  options.memory = &memory;
  Result<Table> r =
      Execute(PlanNode::Scan("ext"), catalog_, nullptr, nullptr, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(memory.used(), 0u) << "charges must drain on failure";
}

TEST_F(ExtentScanExecTest, FusedFilterRunsUnderTightBudget) {
  // The same budget admits the fused filter+scan: per-extent decodes are
  // transient and the selective output is small. This is E19's core claim
  // in miniature.
  MemoryTracker memory(64 * 1024);
  ExecOptions options;
  options.num_threads = 1;
  options.memory = &memory;
  ExecStats stats;
  Result<Table> r = Execute(
      PlanNode::Filter(PlanNode::Scan("ext"),
                       Ge(Col("id"), Lit(int64_t{8000}))),
      catalog_, &stats, nullptr, options);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().num_rows(), kRows - 8000);
  EXPECT_GE(stats.extents_pruned, 7u);
  EXPECT_EQ(memory.used(), 0u);
}

TEST_F(ExtentScanExecTest, SampledScanRunsUnderTightBudget) {
  // The budget that refuses a full materialization admits a SYSTEM sample:
  // only the sampled extents' projected columns decode, transiently.
  MemoryTracker memory(64 * 1024);
  ExecOptions options;
  options.num_threads = 1;
  options.memory = &memory;
  Result<Table> r = Execute(
      PlanNode::Aggregate(PlanNode::Scan("ext", SystemSample(0.1, 5, 1024)),
                          {}, {}, {Sum("v", "s"), CountStar()}),
      catalog_, nullptr, nullptr, options);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(memory.used(), 0u);
}

TEST_F(ExtentScanExecTest, CancellationStopsExtentScan) {
  CancellationSource source;
  source.RequestCancel(StopCause::kUserCancel, "stop");
  CancellationToken token = source.token();
  ExecOptions options;
  options.cancel = &token;
  Result<Table> r =
      Execute(PlanNode::Scan("ext"), catalog_, nullptr, nullptr, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace aqp
