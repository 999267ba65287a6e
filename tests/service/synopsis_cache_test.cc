#include "service/synopsis_cache.h"

#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace aqp {
namespace service {
namespace {

Catalog BaseCatalog(size_t rows, uint64_t seed) {
  Catalog cat;
  Table t = testutil::ZipfGroupedTable(rows, 12, 0.8, seed);
  EXPECT_TRUE(cat.Register("t", std::make_shared<Table>(std::move(t))).ok());
  return cat;
}

TEST(SynopsisCacheTest, BuildsOnceThenHits) {
  Catalog cat = BaseCatalog(20000, 3);
  SynopsisCache cache(/*byte_budget=*/0);
  SynopsisSpec spec;
  spec.budget = 500;

  auto first = cache.GetOrBuild(cat, "t", spec);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().sample->sample.table.num_rows(), 500u);

  auto second = cache.GetOrBuild(cat, "t", spec);
  ASSERT_TRUE(second.ok());
  // A hit is the SAME artifact, not an equal rebuild.
  EXPECT_EQ(first.value().sample.get(), second.value().sample.get());

  SynopsisCacheStats stats = cache.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes_used, 0u);
}

TEST(SynopsisCacheTest, DistinctSpecsAreDistinctEntries) {
  Catalog cat = BaseCatalog(20000, 3);
  SynopsisCache cache(0);
  SynopsisSpec uniform;
  uniform.budget = 500;
  SynopsisSpec stratified = uniform;
  stratified.strata_column = "g";

  ASSERT_TRUE(cache.GetOrBuild(cat, "t", uniform).ok());
  ASSERT_TRUE(cache.GetOrBuild(cat, "t", stratified).ok());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().builds, 2u);
}

TEST(SynopsisCacheTest, TableVersionBumpInvalidates) {
  Catalog cat = BaseCatalog(20000, 3);
  SynopsisCache cache(0);
  SynopsisSpec spec;
  spec.budget = 300;

  auto before = cache.GetOrBuild(cat, "t", spec);
  ASSERT_TRUE(before.ok());

  // Replacing the table bumps its version: the old synopsis must become
  // unreachable and a fresh one must be built.
  Table t2 = testutil::ZipfGroupedTable(25000, 12, 0.8, 99);
  cat.RegisterOrReplace("t", std::make_shared<Table>(std::move(t2)));

  auto after = cache.GetOrBuild(cat, "t", spec);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before.value().sample.get(), after.value().sample.get());
  EXPECT_EQ(after.value().sample->base_rows_at_build, 25000u);
  EXPECT_EQ(cache.stats().builds, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(SynopsisCacheTest, MissingTableFailsAndNothingIsCached) {
  Catalog cat;
  SynopsisCache cache(0);
  SynopsisSpec spec;
  EXPECT_EQ(cache.GetOrBuild(cat, "ghost", spec).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(SynopsisCacheTest, EvictsLeastRecentlyUsedPastBudget) {
  Catalog cat = BaseCatalog(20000, 3);
  SynopsisCache probe(0);
  SynopsisSpec spec;
  spec.budget = 400;
  // Measure the cache's own accounting (sample + drift baseline), not just
  // the sample: the budget below must fit whole entries.
  ASSERT_TRUE(probe.GetOrBuild(cat, "t", spec).ok());
  uint64_t one_entry_bytes = probe.stats().bytes_used;

  // Budget for two entries; a third insert must evict the LRU one.
  MemoryTracker tracker;
  const uint64_t budget = 2 * one_entry_bytes + one_entry_bytes / 2;
  SynopsisCache cache(budget, &tracker);
  SynopsisSpec a = spec, b = spec, c = spec;
  a.seed = 1;
  b.seed = 2;
  c.seed = 3;
  ASSERT_TRUE(cache.GetOrBuild(cat, "t", a).ok());
  ASSERT_TRUE(cache.GetOrBuild(cat, "t", b).ok());
  ASSERT_TRUE(cache.GetOrBuild(cat, "t", a).ok());  // Touch a: b is now LRU.
  ASSERT_TRUE(cache.GetOrBuild(cat, "t", c).ok());

  SynopsisCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes_used, budget);
  // Tracker accounting mirrors the cache's own.
  EXPECT_EQ(tracker.used(), stats.bytes_used);

  // The touched entry survived; the untouched one rebuilt on demand.
  uint64_t builds_before = cache.stats().builds;
  ASSERT_TRUE(cache.GetOrBuild(cat, "t", a).ok());
  EXPECT_EQ(cache.stats().builds, builds_before);  // a was still cached.
  ASSERT_TRUE(cache.GetOrBuild(cat, "t", b).ok());
  EXPECT_EQ(cache.stats().builds, builds_before + 1);  // b was evicted.
}

TEST(SynopsisCacheTest, ClearReleasesTrackerCharges) {
  Catalog cat = BaseCatalog(20000, 3);
  MemoryTracker tracker;
  SynopsisCache cache(0, &tracker);
  SynopsisSpec spec;
  spec.budget = 300;
  ASSERT_TRUE(cache.GetOrBuild(cat, "t", spec).ok());
  EXPECT_GT(tracker.used(), 0u);
  cache.Clear();
  EXPECT_EQ(tracker.used(), 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// The single-flight contract under race: N threads ask for one cold key and
// exactly ONE build happens; everyone gets the same artifact. Run under TSan
// in CI (the thread-sanitizer job builds this test).
TEST(SynopsisCacheTest, SingleFlightStress) {
  Catalog cat = BaseCatalog(60000, 7);
  SynopsisCache cache(0);
  SynopsisSpec spec;
  spec.budget = 2000;

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const core::StoredSample>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      auto r = cache.GetOrBuild(cat, "t", spec);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      seen[i] = r.value().sample;
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(seen[0].get(), seen[i].get());
  }
  SynopsisCacheStats stats = cache.stats();
  EXPECT_EQ(stats.builds, 1u) << "single-flight must collapse to one build";
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.single_flight_waits,
            static_cast<uint64_t>(kThreads - 1));
}

TEST(SynopsisCacheTest, MarkDriftedSurfacesScoreOnHits) {
  Catalog cat = BaseCatalog(20000, 3);
  SynopsisCache cache(0);
  SynopsisSpec spec;
  spec.budget = 300;
  ASSERT_TRUE(cache.GetOrBuild(cat, "t", spec).ok());

  EXPECT_EQ(cache.MarkDrifted("t", 0.25), 1u);
  EXPECT_EQ(cache.MarkDrifted("ghost", 0.9), 0u);  // No entries for it.

  auto hit = cache.GetOrBuild(cat, "t", spec);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().drift_score, 0.25);
  EXPECT_EQ(cache.stats().drift_flags, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);  // Flagging never drops.
}

TEST(SynopsisCacheTest, InvalidateTableDropsOnlyThatTable) {
  Catalog cat = BaseCatalog(20000, 3);
  Table other = testutil::ZipfGroupedTable(20000, 12, 0.8, 11);
  ASSERT_TRUE(cat.Register("u", std::make_shared<Table>(std::move(other))).ok());
  SynopsisCache cache(0);
  SynopsisSpec spec;
  spec.budget = 300;
  ASSERT_TRUE(cache.GetOrBuild(cat, "t", spec).ok());
  ASSERT_TRUE(cache.GetOrBuild(cat, "u", spec).ok());

  EXPECT_EQ(cache.InvalidateTable("t"), 1u);
  SynopsisCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);  // "u" untouched.
  EXPECT_EQ(stats.invalidations, 1u);

  // "t" rebuilds; "u" still hits.
  uint64_t builds = stats.builds;
  ASSERT_TRUE(cache.GetOrBuild(cat, "t", spec).ok());
  EXPECT_EQ(cache.stats().builds, builds + 1);
  ASSERT_TRUE(cache.GetOrBuild(cat, "u", spec).ok());
  EXPECT_EQ(cache.stats().builds, builds + 1);
}

TEST(SynopsisCacheTest, BaselinesEnumeratesReadyEntries) {
  Catalog cat = BaseCatalog(20000, 3);
  SynopsisCache cache(0);
  SynopsisSpec a;
  a.budget = 300;
  SynopsisSpec b = a;
  b.seed = 7;
  ASSERT_TRUE(cache.GetOrBuild(cat, "t", a).ok());
  ASSERT_TRUE(cache.GetOrBuild(cat, "t", b).ok());
  std::vector<PersistedSynopsis> infos = cache.Baselines();
  ASSERT_EQ(infos.size(), 2u);
  for (const PersistedSynopsis& info : infos) {
    EXPECT_EQ(info.table, "t");
    ASSERT_NE(info.baseline, nullptr);
    EXPECT_EQ(info.baseline->rows, 20000u);
    EXPECT_GT(info.built_unix_seconds, 0.0);
  }
}

TEST(SynopsisCacheTest, SpecsOfOneVersionShareOneBaseline) {
  Catalog cat = BaseCatalog(20000, 3);
  SynopsisCache cache(0);
  SynopsisSpec uniform;
  uniform.budget = 300;
  SynopsisSpec stratified = uniform;
  stratified.strata_column = "g";
  auto a = cache.GetOrBuild(cat, "t", uniform);
  auto b = cache.GetOrBuild(cat, "t", stratified);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_NE(a.value().baseline, nullptr);
  EXPECT_EQ(a.value().baseline, b.value().baseline);

  // A new version captures its own.
  cat.RegisterOrReplace("t", std::make_shared<Table>(
                                 testutil::ZipfGroupedTable(20000, 12, 0.8, 4)));
  auto c = cache.GetOrBuild(cat, "t", uniform);
  ASSERT_TRUE(c.ok());
  ASSERT_NE(c.value().baseline, nullptr);
  EXPECT_NE(c.value().baseline, a.value().baseline);
}

TEST(SynopsisCacheTest, BaselineCaptureCanBeDisabled) {
  Catalog cat = BaseCatalog(20000, 3);
  SynopsisCache::Options opts;
  opts.capture_baselines = false;
  SynopsisCache cache(0, nullptr, opts);
  SynopsisSpec spec;
  spec.budget = 300;
  auto r = cache.GetOrBuild(cat, "t", spec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().baseline, nullptr);
  EXPECT_TRUE(cache.Baselines().empty());
}

// The interleaving the DriftMonitor forces: InvalidateTable lands while a
// cold build for the same table is mid-flight. The doomed build must publish
// NOTHING (its snapshot predates the invalidation verdict) while its own
// caller still gets a usable artifact; every waiter retries fresh. Whatever
// side of the publish the invalidation lands on, the invariants are the
// same — run under TSan in CI.
TEST(SynopsisCacheTest, InvalidateDuringInFlightBuildPublishesNothing) {
  Catalog cat = BaseCatalog(120000, 7);
  SynopsisCache cache(0);
  SynopsisSpec spec;
  spec.budget = 4000;

  std::thread builder([&] {
    auto r = cache.GetOrBuild(cat, "t", spec);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_NE(r.value().sample, nullptr);  // Doomed or not, the caller eats.
  });
  // Wait for the builder's claim (miss recorded, nothing published yet),
  // then invalidate while the build is most likely still scanning.
  while (cache.stats().misses == 0) std::this_thread::yield();
  cache.InvalidateTable("t");
  builder.join();

  // Either the doom landed mid-build (entry discarded at publish) or the
  // invalidation dropped the published entry; in both cases nothing of the
  // pre-invalidation snapshot survives and the drop was counted.
  SynopsisCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_GE(stats.invalidations, 1u);

  // The next call is a clean rebuild that caches normally.
  uint64_t builds = stats.builds;
  ASSERT_TRUE(cache.GetOrBuild(cat, "t", spec).ok());
  EXPECT_EQ(cache.stats().builds, builds + 1);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// Deterministic version of the doomed-build publish: the invalidation is
// guaranteed to land inside the build window by issuing it from a second
// thread that observes the in-flight claim, while the build is artificially
// long (large table, large budget). Additionally checks single-flight
// waiters survive the doom: they retry and share the SECOND build.
TEST(SynopsisCacheTest, WaitersRetryAfterDoomedBuild) {
  Catalog cat = BaseCatalog(120000, 7);
  SynopsisCache cache(0);
  SynopsisSpec spec;
  spec.budget = 4000;

  constexpr int kWaiters = 4;
  std::vector<std::shared_ptr<const core::StoredSample>> seen(kWaiters);
  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&, i] {
      auto r = cache.GetOrBuild(cat, "t", spec);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      seen[i] = r.value().sample;
    });
  }
  while (cache.stats().misses == 0) std::this_thread::yield();
  cache.InvalidateTable("t");
  for (std::thread& t : threads) t.join();

  // Every caller got a sample, and no stale artifact is left behind: at most
  // the post-invalidation rebuild may be cached.
  for (int i = 0; i < kWaiters; ++i) ASSERT_NE(seen[i], nullptr);
  EXPECT_LE(cache.stats().entries, 1u);
}

}  // namespace
}  // namespace service
}  // namespace aqp
