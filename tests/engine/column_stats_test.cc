// Column statistics in the catalog: the one-pass build matches a brute-force
// loop, the cache follows the catalog's versions, an extent-backed twin
// gives the same statistics, and concurrent first requests build once.

#include "engine/column_stats.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/catalog.h"
#include "storage/extent/extent_writer.h"

namespace aqp {
namespace {

constexpr uint32_t kBlock = 64;

// k: INT64 key over 0..keys-1 with ~10% NULLs; s: STRING key over 7 values;
// d: DOUBLE over 5 values; id: row number (distinct per row); b: BOOL in
// runs of 50 rows.
std::shared_ptr<const Table> MakeTable(size_t rows, int64_t keys,
                                       uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<int64_t> k(rows), id(rows);
  std::vector<uint8_t> valid(rows, 1);
  std::vector<std::string> s(rows);
  std::vector<double> d(rows);
  std::vector<bool> b(rows);
  for (size_t i = 0; i < rows; ++i) {
    k[i] = static_cast<int64_t>(rng.UniformUint32(static_cast<uint32_t>(keys)));
    // Runs of one key, so blocks hold uneven shares.
    if (i % 300 < 40) k[i] = 3;
    valid[i] = rng.UniformUint32(10) != 0;
    s[i] = "s" + std::to_string(rng.UniformUint32(7));
    d[i] = 0.5 * rng.UniformUint32(5) - 1.0;
    id[i] = static_cast<int64_t>(i);
    b[i] = (i / 50) % 3 == 0;
  }
  return std::make_shared<Table>(
      Table::Make(Schema({{"k", DataType::kInt64},
                          {"s", DataType::kString},
                          {"d", DataType::kDouble},
                          {"id", DataType::kInt64},
                          {"b", DataType::kBool}}),
                  {Column::FromValues(std::move(k), std::move(valid)),
                   Column::FromString(std::move(s)),
                   Column::FromDouble(std::move(d)),
                   Column::FromInt64(std::move(id)),
                   Column::FromBool(std::move(b))})
          .value());
}

struct Brute {
  ValueSpread spread;
  std::map<uint64_t, uint64_t> per_block;
};

// Per-value spreads by a plain loop, keyed by the value's text.
std::map<std::string, ValueSpread> BruteSpreads(const Column& c,
                                                uint32_t block,
                                                ValueSpread* nulls) {
  std::map<std::string, Brute> acc;
  Brute null_acc;
  for (size_t i = 0; i < c.size(); ++i) {
    Brute& b = c.IsNull(i) ? null_acc : acc[c.GetValue(i).ToString()];
    ++b.spread.rows;
    ++b.per_block[i / block];
  }
  auto finish = [](Brute& b) {
    b.spread.blocks = b.per_block.size();
    for (const auto& [blk, n] : b.per_block) b.spread.sum_sq += n * n;
    return b.spread;
  };
  std::map<std::string, ValueSpread> out;
  for (auto& [v, b] : acc) out[v] = finish(b);
  *nulls = finish(null_acc);
  return out;
}

void ExpectSpread(const ValueSpread& got, const ValueSpread& want,
                  const std::string& what) {
  EXPECT_EQ(got.rows, want.rows) << what;
  EXPECT_EQ(got.blocks, want.blocks) << what;
  EXPECT_EQ(got.sum_sq, want.sum_sq) << what;
}

TEST(ColumnStatsTest, MatchesBruteForceWithNulls) {
  auto table = MakeTable(10000, 40, 7);
  for (size_t col : {0, 1, 2, 4}) {
    const Column& c = table->column(col);
    ColumnStats stats = BuildColumnStats(c, kBlock, nullptr).value();
    ValueSpread nulls;
    std::map<std::string, ValueSpread> want = BruteSpreads(c, kBlock, &nulls);
    ASSERT_TRUE(stats.exact);
    EXPECT_EQ(stats.rows, c.size());
    ExpectSpread(stats.nulls, nulls, "NULL");
    ASSERT_EQ(stats.values.size(), want.size());
    for (size_t i = 0; i < stats.values.size(); ++i) {
      const std::string v = stats.values[i].ToString();
      ASSERT_TRUE(want.count(v)) << v;
      ExpectSpread(stats.spreads[i], want[v], v);
      if (i > 0) {
        EXPECT_LT(*TryCompareValues(stats.values[i - 1], stats.values[i]), 0);
      }
    }
  }
}

TEST(ColumnStatsTest, RowsMatchingCountsLikeALoop) {
  auto table = MakeTable(5000, 25, 11);
  const Column& c = table->column(0);
  ColumnStats stats = BuildColumnStats(c, kBlock, nullptr).value();
  const std::vector<OpKind> ops = {OpKind::kEq, OpKind::kNe, OpKind::kLt,
                                   OpKind::kLe, OpKind::kGt, OpKind::kGe};
  for (OpKind op : ops) {
    for (const Value& lit : {Value(int64_t{-1}), Value(int64_t{3}),
                             Value(int64_t{12}), Value(12.5),
                             Value(int64_t{99})}) {
      uint64_t want = 0;
      for (size_t i = 0; i < c.size(); ++i) {
        if (c.IsNull(i)) continue;
        const int cmp = *TryCompareValues(c.GetValue(i), lit);
        const bool keep = op == OpKind::kEq   ? cmp == 0
                          : op == OpKind::kNe ? cmp != 0
                          : op == OpKind::kLt ? cmp < 0
                          : op == OpKind::kLe ? cmp <= 0
                          : op == OpKind::kGt ? cmp > 0
                                              : cmp >= 0;
        want += keep;
      }
      EXPECT_EQ(stats.RowsMatching(op, lit), want)
          << OpName(op) << " " << lit.ToString();
    }
  }
  // A literal of another type, a NULL, or a non-comparison say nothing.
  EXPECT_FALSE(stats.RowsMatching(OpKind::kEq, Value(std::string("x"))));
  EXPECT_FALSE(stats.RowsMatching(OpKind::kEq, Value()));
  EXPECT_FALSE(stats.RowsMatching(OpKind::kAdd, Value(int64_t{1})));
}

TEST(ColumnStatsTest, MoreThanMaxValuesIsNotExact) {
  auto table = MakeTable(ColumnStats::kMaxValues + 500, 40, 3);
  ColumnStats stats =
      BuildColumnStats(table->column(3), kBlock, nullptr).value();
  EXPECT_FALSE(stats.exact);
  EXPECT_TRUE(stats.values.empty());
  EXPECT_EQ(stats.rows, ColumnStats::kMaxValues + 500);
  EXPECT_EQ(stats.nulls.rows, 0u);
  EXPECT_FALSE(stats.RowsMatching(OpKind::kLt, Value(int64_t{10})));
}

// Moments by a plain loop over the non-NULL rows.
Moments BruteMoments(const Column& c) {
  Moments m;
  double sum = 0.0;
  for (size_t i = 0; i < c.size(); ++i) {
    if (c.IsNull(i)) continue;
    ++m.count;
    sum += c.NumericAt(i);
  }
  m.mean = m.count > 0 ? sum / static_cast<double>(m.count) : 0.0;
  for (size_t i = 0; i < c.size(); ++i) {
    if (c.IsNull(i)) continue;
    m.m2 += (c.NumericAt(i) - m.mean) * (c.NumericAt(i) - m.mean);
  }
  return m;
}

void ExpectMoments(const Moments& got, const Moments& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_NEAR(got.mean, want.mean, 1e-9 * (1.0 + std::fabs(want.mean)));
  EXPECT_NEAR(got.m2, want.m2, 1e-9 * (1.0 + want.m2));
}

TEST(ColumnStatsTest, NumericColumnsCarryTheirMoments) {
  auto table = MakeTable(ColumnStats::kMaxValues + 500, 40, 3);
  for (size_t col : {0, 2, 3}) {  // k (exact, NULLs), d (exact), id.
    const Column& c = table->column(col);
    ColumnStats stats = BuildColumnStats(c, kBlock, nullptr).value();
    EXPECT_EQ(stats.exact, col != 3);
    ExpectMoments(stats.moments, BruteMoments(c));
  }
  for (size_t col : {1, 4}) {  // s, b: no moments.
    EXPECT_EQ(
        BuildColumnStats(table->column(col), kBlock, nullptr)->moments.count,
        0u);
  }
}

TEST(ColumnStatsTest, SampledColumnKeepsASampleAndASketch) {
  constexpr size_t kRows = 3 * ColumnStats::kMaxValues;
  auto table = MakeTable(kRows, 40, 3);
  const Column& id = table->column(3);
  ColumnStats stats = BuildColumnStats(id, kBlock, nullptr).value();
  ASSERT_FALSE(stats.exact);
  ASSERT_EQ(stats.sample.size(), ColumnStats::kMaxValues);
  for (size_t i = 1; i < stats.sample.size(); ++i) {
    EXPECT_LT(stats.sample[i - 1].int64(), stats.sample[i].int64());
  }
  // Uniform over the rows: about a third of the draws in each third.
  const auto below = std::lower_bound(
      stats.sample.begin(), stats.sample.end(),
      Value(static_cast<int64_t>(kRows / 3)),
      [](const Value& a, const Value& b) { return a.int64() < b.int64(); });
  EXPECT_NEAR(static_cast<double>(below - stats.sample.begin()),
              ColumnStats::kMaxValues / 3.0, 150.0);
  EXPECT_NEAR(stats.distinct.Estimate(), static_cast<double>(kRows),
              0.25 * kRows);
  // The sample is seeded: a second build draws the same one.
  EXPECT_EQ(BuildColumnStats(id, kBlock, nullptr)->sample, stats.sample);

  // An exact column's sketch holds its values' hashes.
  ColumnStats keys =
      BuildColumnStats(table->column(0), kBlock, nullptr).value();
  ASSERT_TRUE(keys.exact);
  EXPECT_EQ(keys.distinct.Estimate(), static_cast<double>(keys.values.size()));
}

TEST(ColumnStatsTest, CancelledBuildLeavesTheSlotEmpty) {
  auto table = MakeTable(ColumnStats::kMaxValues + 500, 10, 1);
  CancellationSource source;
  source.RequestCancel(StopCause::kUserCancel, "test");
  const CancellationToken token = source.token();
  for (size_t col : {0, 3}) {  // An exact and a sampled column.
    EXPECT_EQ(BuildColumnStats(table->column(col), kBlock, nullptr, &token)
                  .status()
                  .code(),
              StatusCode::kCancelled);
  }
  // The catalog passes the query's token, and the next request builds.
  Catalog cat;
  ASSERT_TRUE(cat.Register("t", table).ok());
  ExecOptions exec;
  exec.cancel = &token;
  EXPECT_EQ(cat.ColumnStatistics("t", "k", kBlock, exec).status().code(),
            StatusCode::kCancelled);
  auto stats = cat.ColumnStatistics("t", "k", kBlock);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value()->rows, ColumnStats::kMaxValues + 500);
}

void ExpectSameStats(const ColumnStats& a, const ColumnStats& b) {
  EXPECT_EQ(a.rows, b.rows);
  ExpectSpread(a.nulls, b.nulls, "NULL");
  EXPECT_EQ(a.moments.count, b.moments.count);
  EXPECT_EQ(a.moments.mean, b.moments.mean);
  EXPECT_EQ(a.moments.m2, b.moments.m2);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.values, b.values);
  ASSERT_EQ(a.spreads.size(), b.spreads.size());
  for (size_t i = 0; i < a.spreads.size(); ++i) {
    ExpectSpread(a.spreads[i], b.spreads[i], a.values[i].ToString());
  }
  EXPECT_EQ(a.rows_before, b.rows_before);
  EXPECT_EQ(a.sample, b.sample);
  EXPECT_EQ(a.distinct.MinHashes(), b.distinct.MinHashes());
}

TEST(ColumnStatsTest, SerializeRoundTrip) {
  auto table = MakeTable(ColumnStats::kMaxValues + 500, 40, 3);
  for (size_t col = 0; col < table->num_columns(); ++col) {
    ColumnStats stats =
        BuildColumnStats(table->column(col), kBlock, nullptr).value();
    ByteWriter w;
    WriteColumnStats(stats, &w);
    const std::string bytes = w.Take();
    ByteReader r(bytes);
    Result<ColumnStats> back = ReadColumnStats(&r);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(r.exhausted());
    ExpectSameStats(back.value(), stats);
    ByteWriter again;
    WriteColumnStats(back.value(), &again);
    EXPECT_EQ(again.Take(), bytes) << "column " << col;
  }
}

TEST(ColumnStatsTest, ReadRejectsCorruptBuffers) {
  auto table = MakeTable(ColumnStats::kMaxValues + 500, 40, 3);
  for (size_t col : {0, 3}) {  // Exact, then sampled.
    ByteWriter w;
    WriteColumnStats(
        BuildColumnStats(table->column(col), kBlock, nullptr).value(), &w);
    const std::string bytes = w.Take();
    auto read = [](const std::string& b) {
      ByteReader r(b);
      return ReadColumnStats(&r).ok();
    };
    EXPECT_FALSE(read(""));
    EXPECT_FALSE(read("bad"));
    EXPECT_FALSE(read(bytes.substr(0, bytes.size() / 2)));
    EXPECT_FALSE(read(bytes.substr(0, bytes.size() - 1)));
    // Header: rows (8), NULL spread (24), moments (24), then the exact flag.
    std::string flag = bytes;
    flag[56] = 2;
    EXPECT_FALSE(read(flag));
    std::string nulls = bytes;  // More NULLs than rows.
    nulls[15] = 0x7f;
    EXPECT_FALSE(read(nulls));
    // The first two values swapped: out of order. Each is a tag and a
    // little-endian INT64 after the value count; an exact value is followed
    // by its spread.
    const size_t first = 65;
    const size_t stride = col == 0 ? 9 + 24 : 9;
    std::string swapped = bytes;
    for (size_t i = 0; i < 9; ++i) {
      std::swap(swapped[first + i], swapped[first + stride + i]);
    }
    EXPECT_FALSE(read(swapped));
  }
}

TEST(ColumnStatsTest, BuildIsChargedAndReleased) {
  auto table = MakeTable(5000, 40, 5);
  MemoryTracker tracker;
  ASSERT_TRUE(BuildColumnStats(table->column(0), kBlock, &tracker).ok());
  EXPECT_GT(tracker.peak(), 0u);
  EXPECT_EQ(tracker.used(), 0u);
  MemoryTracker tiny(/*budget_bytes=*/16);
  EXPECT_EQ(BuildColumnStats(table->column(0), kBlock, &tiny).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ColumnStatsTest, CatalogCachesUntilTheVersionChanges) {
  Catalog cat;
  ASSERT_TRUE(cat.Register("t", MakeTable(3000, 10, 1)).ok());
  auto first = cat.ColumnStatistics("t", "k", kBlock).value();
  EXPECT_EQ(cat.ColumnStatistics("t", "k", kBlock).value(), first);
  // Another unit size is another slot.
  auto rows = cat.ColumnStatistics("t", "k", 1).value();
  EXPECT_NE(rows, first);
  EXPECT_EQ(rows->spreads[0].blocks, rows->spreads[0].rows);

  cat.RegisterOrReplace("t", MakeTable(2000, 20, 2));
  auto replaced = cat.ColumnStatistics("t", "k", kBlock).value();
  EXPECT_NE(replaced, first);
  EXPECT_EQ(replaced->rows, 2000u);
  EXPECT_EQ(replaced->values.size(), 20u);

  ASSERT_TRUE(cat.Drop("t").ok());
  EXPECT_EQ(cat.ColumnStatistics("t", "k", kBlock).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(cat.Register("t", MakeTable(1000, 5, 3)).ok());
  EXPECT_EQ(cat.ColumnStatistics("t", "k", kBlock).value()->rows, 1000u);
  EXPECT_EQ(cat.ColumnStatistics("t", "nope", kBlock).status().code(),
            StatusCode::kNotFound);
}

// A build that does not fit the query's budget is not paid for again by the
// next request; a cancelled one is.
TEST(ColumnStatsTest, FailedBuildIsRememberedUntilTheVersionChanges) {
  auto table = MakeTable(9000, 30, 9);
  const std::string path = ::testing::TempDir() + "aqp_column_stats_fail.aqpx";
  extent::ExtentWriter::Options o;
  o.extent_rows = 2048;
  ASSERT_TRUE(extent::WriteTableToExtents(path, *table, o).ok());
  Catalog cat;
  cat.RegisterExtentBacked("ext", extent::ExtentReader::Open(path).value());
  auto request = [&](MemoryTracker* memory, const CancellationToken* cancel,
                     size_t* builds) {
    ExecOptions exec;
    exec.memory = memory;
    exec.cancel = cancel;
    obs::QueryTrace trace;
    auto stats = cat.ColumnStatistics("ext", "k", kBlock, exec, &trace);
    *builds = trace.root().children.size();
    return stats.status().code();
  };
  size_t builds = 0;
  MemoryTracker tiny(/*budget_bytes=*/1024);
  EXPECT_EQ(request(&tiny, nullptr, &builds), StatusCode::kResourceExhausted);
  EXPECT_EQ(builds, 1u);
  MemoryTracker tiny_again(/*budget_bytes=*/1024);
  EXPECT_EQ(request(&tiny_again, nullptr, &builds),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(builds, 0u) << "no second scan";
  EXPECT_EQ(tiny_again.peak(), 0u);
  EXPECT_EQ(request(nullptr, nullptr, &builds), StatusCode::kResourceExhausted);
  EXPECT_EQ(builds, 0u);

  // A new version builds afresh; a cancelled build is not remembered.
  cat.RegisterExtentBacked("ext", extent::ExtentReader::Open(path).value());
  CancellationSource source;
  source.RequestCancel(StopCause::kUserCancel, "test");
  const CancellationToken token = source.token();
  EXPECT_EQ(request(nullptr, &token, &builds), StatusCode::kCancelled);
  EXPECT_EQ(builds, 1u);
  EXPECT_EQ(request(nullptr, nullptr, &builds), StatusCode::kOk);
  EXPECT_EQ(builds, 1u);
  std::remove(path.c_str());
}

TEST(ColumnStatsTest, ExtentBackedTwinGivesTheSameStatistics) {
  auto table = MakeTable(9000, 30, 9);
  const std::string path = ::testing::TempDir() + "aqp_column_stats.aqpx";
  extent::ExtentWriter::Options o;
  o.extent_rows = 2048;  // Five extents, the last one partial.
  auto written = extent::WriteTableToExtents(path, *table, o);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  Catalog cat;
  ASSERT_TRUE(cat.Register("mem", table).ok());
  cat.RegisterExtentBacked("ext", extent::ExtentReader::Open(path).value());
  for (const char* column : {"k", "s", "d", "id", "b"}) {
    MemoryTracker tracker;
    ExecOptions exec;
    exec.memory = &tracker;
    obs::QueryTrace trace;
    auto mem = cat.ColumnStatistics("mem", column, kBlock).value();
    auto ext =
        cat.ColumnStatistics("ext", column, kBlock, exec, &trace).value();
    EXPECT_EQ(tracker.used(), 0u);
    EXPECT_GT(tracker.peak(), 0u) << "the scan and the build are charged";
    ASSERT_EQ(trace.root().children.size(), 1u);
    EXPECT_EQ(trace.root().children[0]->name, "stats.build");
    EXPECT_EQ(ext->rows, mem->rows) << column;
    EXPECT_EQ(ext->exact, mem->exact) << column;
    ExpectSpread(ext->nulls, mem->nulls, column);
    ASSERT_EQ(ext->values.size(), mem->values.size()) << column;
    for (size_t i = 0; i < mem->values.size(); ++i) {
      EXPECT_EQ(ext->values[i], mem->values[i]);
      ExpectSpread(ext->spreads[i], mem->spreads[i], column);
    }
  }
  std::remove(path.c_str());
}

TEST(ColumnStatsTest, ConcurrentFirstRequestsBuildEachColumnOnce) {
  Catalog cat;
  ASSERT_TRUE(cat.Register("t", MakeTable(20000, 50, 4)).ok());
  constexpr int kThreads = 8;
  std::vector<obs::QueryTrace> traces(kThreads);
  std::vector<std::shared_ptr<const ColumnStats>> k(kThreads), s(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ExecOptions exec;
      // Half the threads ask for the columns in the other order.
      if (t % 2 == 0) {
        k[t] = cat.ColumnStatistics("t", "k", kBlock, exec, &traces[t]).value();
        s[t] = cat.ColumnStatistics("t", "s", kBlock, exec, &traces[t]).value();
      } else {
        s[t] = cat.ColumnStatistics("t", "s", kBlock, exec, &traces[t]).value();
        k[t] = cat.ColumnStatistics("t", "k", kBlock, exec, &traces[t]).value();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  size_t builds = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(k[t], k[0]);
    EXPECT_EQ(s[t], s[0]);
    for (const auto& span : traces[t].root().children) {
      builds += span->name == "stats.build";
    }
  }
  EXPECT_EQ(builds, 2u);
}

}  // namespace
}  // namespace aqp
