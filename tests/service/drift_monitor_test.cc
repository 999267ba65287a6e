#include "service/drift_monitor.h"

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "storage/extent/extent_writer.h"
#include "test_util.h"

namespace aqp {
namespace service {
namespace {

/// The silent-staleness rig: a table registered normally but with a retained
/// MUTABLE handle, so appends bypass the catalog version — exactly the hole
/// the DriftMonitor exists to close.
struct Rig {
  Catalog catalog;
  std::shared_ptr<Table> handle;  // Mutation side-channel.
  SynopsisCache cache;

  explicit Rig(size_t rows, uint64_t seed)
      : cache(/*byte_budget=*/0, /*tracker=*/nullptr, SynopsisCache::Options()) {
    Table t = testutil::ZipfGroupedTable(rows, 12, 0.8, seed);
    handle = std::make_shared<Table>(std::move(t));
    EXPECT_TRUE(catalog.Register("t", handle).ok());
  }

  void BuildSynopsis() {
    SynopsisSpec spec;
    spec.budget = 500;
    auto r = cache.GetOrBuild(catalog, "t", spec);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_NE(r.value().baseline, nullptr)
        << "baseline capture must be on by default";
  }

  /// In-place append of `n` rows with the measure shifted by `shift`.
  void AppendShifted(int n, double shift) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(handle
                      ->AppendRow({Value(static_cast<int64_t>(i % 12)),
                                   Value(shift + i * 0.001)})
                      .ok());
    }
  }
};

DriftMonitorOptions TestOptions() {
  DriftMonitorOptions o;
  o.enabled = true;
  o.period_ms = 0;  // No thread: sweeps only via CheckNow() (determinism).
  return o;
}

TEST(DriftMonitorTest, DisabledMonitorIsInert) {
  Rig rig(20000, 3);
  rig.BuildSynopsis();
  DriftMonitorOptions off;  // enabled = false.
  DriftMonitor monitor(&rig.catalog, &rig.cache, off);
  EXPECT_FALSE(monitor.enabled());
  monitor.CheckNow();
  monitor.NotifyVersionActivity();
  DriftMonitorStats s = monitor.stats();
  EXPECT_EQ(s.sweeps, 0u);
  EXPECT_EQ(s.checks, 0u);
}

TEST(DriftMonitorTest, UnchangedTableStaysQuiet) {
  Rig rig(20000, 3);
  rig.BuildSynopsis();
  DriftMonitor monitor(&rig.catalog, &rig.cache, TestOptions());
  monitor.CheckNow();
  DriftMonitorStats s = monitor.stats();
  EXPECT_EQ(s.sweeps, 1u);
  EXPECT_EQ(s.checks, 1u);
  EXPECT_EQ(s.flagged, 0u);
  EXPECT_EQ(s.invalidated, 0u);
  // Same data, same build: the rescan reproduces the baseline exactly, so
  // the steady state is EXACTLY zero, not merely small.
  EXPECT_EQ(s.last_max_score, 0.0);
  EXPECT_EQ(monitor.TableScore("t"), 0.0);
  EXPECT_EQ(rig.cache.stats().entries, 1u);  // Nothing was dropped.
}

TEST(DriftMonitorTest, HardDriftInvalidatesCachedSynopses) {
  Rig rig(20000, 3);
  rig.BuildSynopsis();
  // Massive in-place shift: mean jumps far outside the baseline's range and
  // the row count triples — no version bump anywhere.
  rig.AppendShifted(40000, 500.0);

  DriftMonitor monitor(&rig.catalog, &rig.cache, TestOptions());
  monitor.CheckNow();

  DriftMonitorStats s = monitor.stats();
  EXPECT_EQ(s.checks, 1u);
  EXPECT_EQ(s.invalidated, 1u);
  EXPECT_GE(monitor.TableScore("t"),
            TestOptions().invalidate_threshold);
  // The stale entries are gone; the next query rebuilds from current data.
  EXPECT_EQ(rig.cache.stats().entries, 0u);
  EXPECT_GE(rig.cache.stats().invalidations, 1u);

  SynopsisSpec spec;
  spec.budget = 500;
  auto rebuilt = rig.cache.GetOrBuild(rig.catalog, "t", spec);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.value().sample->base_rows_at_build, 60000u);
  EXPECT_EQ(rebuilt.value().drift_score, 0.0);  // Fresh entry, fresh score.
}

TEST(DriftMonitorTest, SoftDriftFlagsWithoutDropping) {
  Rig rig(20000, 3);
  rig.BuildSynopsis();
  // Mild drift: 5% extra rows, same distribution shape, shifted slightly.
  rig.AppendShifted(1000, 20.0);

  DriftMonitorOptions opts = TestOptions();
  opts.flag_threshold = 0.01;       // Anything registers...
  opts.invalidate_threshold = 0.99; // ...but nothing is dropped.
  DriftMonitor monitor(&rig.catalog, &rig.cache, opts);
  monitor.CheckNow();

  DriftMonitorStats s = monitor.stats();
  EXPECT_EQ(s.flagged, 1u);
  EXPECT_EQ(s.invalidated, 0u);
  const double score = monitor.TableScore("t");
  EXPECT_GT(score, 0.01);
  EXPECT_LT(score, 0.99);

  // The entry kept serving but now carries the score: the service tier reads
  // it off the hit and widens rung-1 CIs accordingly.
  EXPECT_EQ(rig.cache.stats().entries, 1u);
  SynopsisSpec spec;
  spec.budget = 500;
  auto hit = rig.cache.GetOrBuild(rig.catalog, "t", spec);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().drift_score, score);
  EXPECT_EQ(rig.cache.stats().hits, 1u);  // Served, not rebuilt.
}

TEST(DriftMonitorTest, ScoresAreDeterministicUnderFixedSeed) {
  double scores[2];
  for (int run = 0; run < 2; ++run) {
    Rig rig(20000, 3);
    rig.BuildSynopsis();
    rig.AppendShifted(5000, 50.0);
    DriftMonitorOptions opts = TestOptions();
    opts.flag_threshold = 0.01;
    opts.invalidate_threshold = 0.99;
    DriftMonitor monitor(&rig.catalog, &rig.cache, opts);
    monitor.CheckNow();
    scores[run] = monitor.TableScore("t");
    EXPECT_GT(scores[run], 0.0);
  }
  // Same seeds end to end (table gen, synopsis sampling, the statistics'
  // samples): the two runs must agree bit for bit, not approximately.
  EXPECT_EQ(scores[0], scores[1]);
}

TEST(DriftMonitorTest, ZeroDeadlineAbandonsRescanNotTheMonitor) {
  Rig rig(20000, 3);
  rig.BuildSynopsis();
  DriftMonitorOptions opts = TestOptions();
  opts.deadline_ms = 0;  // Every governed rescan is already expired.
  DriftMonitor monitor(&rig.catalog, &rig.cache, opts);
  monitor.CheckNow();
  DriftMonitorStats s = monitor.stats();
  EXPECT_EQ(s.sweeps, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.checks, 0u);
  // The abandoned rescan took nothing down with it.
  EXPECT_EQ(rig.cache.stats().entries, 1u);
  EXPECT_EQ(monitor.TableScore("t"), 0.0);
}

TEST(DriftMonitorTest, DroppedTableCountsAsFailedCheck) {
  Rig rig(20000, 3);
  rig.BuildSynopsis();
  ASSERT_TRUE(rig.catalog.Drop("t").ok());
  DriftMonitor monitor(&rig.catalog, &rig.cache, TestOptions());
  monitor.CheckNow();
  DriftMonitorStats s = monitor.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.checks, 0u);
}

TEST(DriftMonitorTest, ExtentBackedTableIsChecked) {
  // The synopsis, its baseline and the rescan all read the extent file
  // through the engine; unchanged data rescans to a zero score.
  Rig rig(20000, 3);
  const std::string path = ::testing::TempDir() + "aqp_drift_t.aqpx";
  ASSERT_TRUE(extent::WriteTableToExtents(path, *rig.handle).ok());
  Result<std::shared_ptr<const extent::ExtentReader>> reader =
      extent::ExtentReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  rig.catalog.RegisterExtentBacked("t", reader.value());
  rig.BuildSynopsis();
  DriftMonitor monitor(&rig.catalog, &rig.cache, TestOptions());
  monitor.CheckNow();
  DriftMonitorStats s = monitor.stats();
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.checks, 1u);
  EXPECT_EQ(monitor.TableScore("t"), 0.0);
  std::remove(path.c_str());
}

TEST(DriftMonitorTest, ExtentRescanReadsOnlyTheLeadingRows) {
  // A budget the whole file's decode does not fit fails every rescan; with
  // max_rows the rescan decodes only the extents holding the leading rows,
  // and the same budget covers it.
  Rig rig(20000, 3);
  const std::string path = ::testing::TempDir() + "aqp_drift_head.aqpx";
  extent::ExtentWriter::Options extents;
  extents.extent_rows = 1024;
  ASSERT_TRUE(extent::WriteTableToExtents(path, *rig.handle, extents).ok());
  Result<std::shared_ptr<const extent::ExtentReader>> reader =
      extent::ExtentReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  rig.catalog.RegisterExtentBacked("t", reader.value());
  rig.BuildSynopsis();

  DriftMonitorOptions whole = TestOptions();
  whole.memory_budget_bytes = 200 * 1024;  // The 20000-row decode is 360 KB.
  DriftMonitor full(&rig.catalog, &rig.cache, whole);
  full.CheckNow();
  EXPECT_EQ(full.stats().failed, 1u);
  EXPECT_EQ(full.stats().checks, 0u);

  DriftMonitorOptions head = whole;
  head.max_rows = 1500;
  DriftMonitor leading(&rig.catalog, &rig.cache, head);
  leading.CheckNow();
  EXPECT_EQ(leading.stats().failed, 0u);
  EXPECT_EQ(leading.stats().checks, 1u);
  std::remove(path.c_str());
}

TEST(DriftMonitorTest, MaxRowsBoundsTheRescan) {
  // An in-memory table reads whole; the rescan keeps only its max_rows
  // leading rows, so rows appended past them go unseen.
  Rig rig(20000, 3);
  rig.BuildSynopsis();
  rig.AppendShifted(40000, 500.0);

  DriftMonitorOptions head = TestOptions();
  head.max_rows = 20000;
  DriftMonitor leading(&rig.catalog, &rig.cache, head);
  leading.CheckNow();
  EXPECT_EQ(leading.stats().checks, 1u);
  EXPECT_EQ(leading.TableScore("t"), 0.0);
  EXPECT_EQ(rig.cache.stats().entries, 1u);

  DriftMonitor whole(&rig.catalog, &rig.cache, TestOptions());
  whole.CheckNow();
  EXPECT_EQ(whole.stats().invalidated, 1u);
}

TEST(DriftMonitorTest, VerdictsReachTheQueryLog) {
  Rig rig(20000, 3);
  rig.BuildSynopsis();
  rig.AppendShifted(40000, 500.0);

  obs::QueryLog log;
  DriftMonitor monitor(&rig.catalog, &rig.cache, TestOptions(), &log);
  monitor.CheckNow();

  std::vector<obs::QueryLogEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  const obs::QueryLogEvent& e = events[0];
  EXPECT_EQ(e.kind, "drift");
  EXPECT_EQ(e.drift_table, "t");
  EXPECT_EQ(e.drift_action, "invalidate");
  EXPECT_GE(e.drift_score, TestOptions().invalidate_threshold);
  EXPECT_FALSE(e.drift_worst_column.empty());
  EXPECT_GE(e.staleness_seconds, 0.0);
  // The flat JSON twin carries the same verdict.
  std::string json = e.ToJson();
  EXPECT_NE(json.find("\"kind\":\"drift\""), std::string::npos);
  EXPECT_NE(json.find("\"drift_action\":\"invalidate\""), std::string::npos);
}

TEST(DriftMonitorTest, BackgroundWorkerSweepsOnVersionActivity) {
  Rig rig(20000, 3);
  rig.BuildSynopsis();
  DriftMonitorOptions opts = TestOptions();
  opts.period_ms = 100000;  // Effectively never ticks on its own.
  DriftMonitor monitor(&rig.catalog, &rig.cache, opts);
  monitor.NotifyVersionActivity();
  monitor.Drain();
  EXPECT_GE(monitor.stats().sweeps, 1u);
}

}  // namespace
}  // namespace service
}  // namespace aqp
