// Synopsis sidecar persistence: save/load round-trips, the docs/STORAGE.md
// §10 corruption matrix (per-record CRC skips, header/version refusals),
// the Preload version gate, and the end-to-end warm restart — a new
// QueryService over the same data_dir answers from adopted synopses with
// zero rebuilds.

#include "service/synopsis_store.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/drift_baseline.h"
#include "core/offline_catalog.h"
#include "engine/executor.h"
#include "gov/fault_injector.h"
#include "service/query_service.h"
#include "service/synopsis_cache.h"
#include "workload/datagen.h"

namespace aqp {
namespace service {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "aqp_synopsis_" + name;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no file: " + path);
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

class SynopsisStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = workload::GenerateLineitemLike(30000, 17).value();
  }

  PersistedSynopsis MakeEntry(uint64_t seed, bool with_baseline) {
    SynopsisSpec spec;
    spec.budget = 2000;
    spec.seed = seed;
    PersistedSynopsis p;
    p.table = "lineitem";
    p.catalog_version = catalog_.Version("lineitem").value();
    p.spec = spec;
    p.built_unix_seconds = 1700000000.0 + static_cast<double>(seed);
    p.drift_score = 0.25;
    p.sample = std::make_shared<const core::StoredSample>(
        core::BuildStoredSample(*ReadTable(catalog_, "lineitem").value(),
                                "lineitem", "", spec.budget, spec.seed)
            .value());
    if (with_baseline) {
      p.baseline = std::make_shared<const core::TableDriftBaseline>(
          core::BuildDriftBaseline(*ReadTable(catalog_, "lineitem").value(),
                                   "lineitem", p.catalog_version)
              .value());
    }
    return p;
  }

  Catalog catalog_;
};

TEST_F(SynopsisStoreTest, SaveLoadRoundTrip) {
  gov::ScopedFaultInjection quiet;  // Env-armed matrix off: determinism.
  const std::string path = TempPath("roundtrip.aqps");
  PersistedSynopsis original = MakeEntry(7, /*with_baseline=*/true);
  ASSERT_TRUE(SaveSynopses(path, {original}).ok());

  SynopsisLoadStats stats;
  Result<std::vector<PersistedSynopsis>> loaded = LoadSynopses(path, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(stats.entries_in_file, 1u);
  EXPECT_EQ(stats.loaded, 1u);
  EXPECT_EQ(stats.skipped_corrupt, 0u);
  ASSERT_EQ(loaded.value().size(), 1u);

  const PersistedSynopsis& back = loaded.value()[0];
  EXPECT_EQ(back.table, original.table);
  EXPECT_EQ(back.catalog_version, original.catalog_version);
  EXPECT_EQ(back.spec.strata_column, original.spec.strata_column);
  EXPECT_EQ(back.spec.budget, original.spec.budget);
  EXPECT_EQ(back.spec.seed, original.spec.seed);
  EXPECT_DOUBLE_EQ(back.built_unix_seconds, original.built_unix_seconds);
  EXPECT_DOUBLE_EQ(back.drift_score, original.drift_score);

  const core::StoredSample& sb = *back.sample;
  const core::StoredSample& so = *original.sample;
  EXPECT_EQ(sb.base_table, so.base_table);
  EXPECT_EQ(sb.budget, so.budget);
  EXPECT_EQ(sb.base_rows_at_build, so.base_rows_at_build);
  EXPECT_EQ(sb.sample.weights, so.sample.weights);
  EXPECT_EQ(sb.sample.unit_ids, so.sample.unit_ids);
  EXPECT_EQ(sb.sample.unit_sizes, so.sample.unit_sizes);
  EXPECT_EQ(sb.sample.num_units_sampled, so.sample.num_units_sampled);
  EXPECT_EQ(sb.sample.num_units_population, so.sample.num_units_population);
  EXPECT_DOUBLE_EQ(sb.sample.nominal_rate, so.sample.nominal_rate);
  EXPECT_EQ(sb.sample.population_rows, so.sample.population_rows);
  ASSERT_EQ(sb.sample.table.num_rows(), so.sample.table.num_rows());
  ASSERT_EQ(sb.sample.table.num_columns(), so.sample.table.num_columns());
  for (size_t c = 0; c < so.sample.table.num_columns(); ++c) {
    for (size_t i = 0; i < so.sample.table.num_rows(); ++i) {
      ASSERT_EQ(sb.sample.table.column(c).IsNull(i),
                so.sample.table.column(c).IsNull(i));
      if (so.sample.table.column(c).IsNull(i)) continue;
      ASSERT_EQ(sb.sample.table.column(c).GetValue(i).ToString(),
                so.sample.table.column(c).GetValue(i).ToString())
          << "col " << c << " row " << i;
    }
  }

  // The restored baseline is drift-equivalent to the original: scoring one
  // against the other reads as zero drift.
  ASSERT_NE(back.baseline, nullptr);
  EXPECT_EQ(back.baseline->columns.size(), original.baseline->columns.size());
  core::TableDriftReport report =
      core::ScoreDrift(*original.baseline, *back.baseline);
  EXPECT_DOUBLE_EQ(report.score, 0.0);

  std::remove(path.c_str());
}

TEST_F(SynopsisStoreTest, NullBaselineRoundTrips) {
  gov::ScopedFaultInjection quiet;  // Env-armed matrix off: determinism.
  const std::string path = TempPath("nobaseline.aqps");
  ASSERT_TRUE(SaveSynopses(path, {MakeEntry(9, false)}).ok());
  auto loaded = LoadSynopses(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].baseline, nullptr);
  std::remove(path.c_str());
}

TEST_F(SynopsisStoreTest, CorruptEntrySkipsOnlyItself) {
  gov::ScopedFaultInjection quiet;  // Env-armed matrix off: determinism.
  const std::string path = TempPath("corrupt.aqps");
  ASSERT_TRUE(
      SaveSynopses(path, {MakeEntry(1, false), MakeEntry(2, true)}).ok());
  Result<std::string> bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  // Flip one byte inside the FIRST record's payload (records start after
  // the 16-byte header; payload follows the 12-byte record frame).
  std::string mutated = bytes.value();
  mutated[16 + 12 + 40] ^= 0x01;
  WriteFileBytes(path, mutated);

  SynopsisLoadStats stats;
  auto loaded = LoadSynopses(path, &stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(stats.entries_in_file, 2u);
  EXPECT_EQ(stats.loaded, 1u);
  EXPECT_EQ(stats.skipped_corrupt, 1u);
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].spec.seed, 2u);  // The intact second entry.
  std::remove(path.c_str());
}

TEST_F(SynopsisStoreTest, HeaderFailuresRejectWholeFile) {
  gov::ScopedFaultInjection quiet;  // Env-armed matrix off: determinism.
  const std::string path = TempPath("header.aqps");
  ASSERT_TRUE(SaveSynopses(path, {MakeEntry(3, false)}).ok());
  Result<std::string> bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());

  // Missing file: NotFound (the first-boot path).
  EXPECT_EQ(LoadSynopses(TempPath("nonexistent.aqps")).status().code(),
            StatusCode::kNotFound);

  // Bad magic.
  std::string bad_magic = bytes.value();
  bad_magic[0] = 'X';
  WriteFileBytes(path, bad_magic);
  EXPECT_EQ(LoadSynopses(path).status().code(), StatusCode::kInvalidArgument);

  // Version skew: refusal, not best-effort parse (docs/STORAGE.md §9).
  std::string skewed = bytes.value();
  skewed[4] = 0x63;
  WriteFileBytes(path, skewed);
  EXPECT_EQ(LoadSynopses(path).status().code(),
            StatusCode::kFailedPrecondition);

  // Torn write: record frame runs past EOF.
  std::string torn = bytes.value().substr(0, bytes.value().size() - 25);
  WriteFileBytes(path, torn);
  EXPECT_FALSE(LoadSynopses(path).ok());

  std::remove(path.c_str());
}

TEST_F(SynopsisStoreTest, VersionOneFileIsRefusedByName) {
  // Version 1 held drift baselines in a layout this reader no longer
  // parses: the whole file is refused, naming its version (docs/STORAGE.md
  // §8.1, §9), and the service boots cold.
  gov::ScopedFaultInjection quiet;  // Env-armed matrix off: determinism.
  const std::string path = TempPath("v1.aqps");
  ASSERT_TRUE(SaveSynopses(path, {MakeEntry(3, true)}).ok());
  Result<std::string> bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string v1 = bytes.value();
  const uint32_t one = 1;
  std::memcpy(&v1[4], &one, sizeof(one));
  WriteFileBytes(path, v1);
  Result<std::vector<PersistedSynopsis>> loaded = LoadSynopses(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("version 1 unsupported"),
            std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST_F(SynopsisStoreTest, SaveFaultSiteLeavesNoFile) {
  const std::string path = TempPath("fault.aqps");
  std::remove(path.c_str());
  gov::ScopedFaultInjection chaos(11, 1.0, {"synopsis.save"});
  EXPECT_FALSE(SaveSynopses(path, {MakeEntry(4, false)}).ok());
  EXPECT_EQ(ReadFileBytes(path).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(ReadFileBytes(path + ".tmp").status().code(),
            StatusCode::kNotFound);
}

TEST_F(SynopsisStoreTest, PreloadAdoptsOnlyExactVersionMatches) {
  gov::ScopedFaultInjection quiet;  // Env-armed matrix off: determinism.
  PersistedSynopsis fresh = MakeEntry(5, false);
  PersistedSynopsis stale = MakeEntry(6, false);
  stale.catalog_version = fresh.catalog_version + 99;
  PersistedSynopsis orphan = MakeEntry(8, false);
  orphan.table = "no_such_table";

  SynopsisCache cache(/*byte_budget=*/0);
  EXPECT_EQ(cache.Preload(catalog_, {fresh, stale, orphan}), 1u);
  SynopsisCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.builds, 0u);  // Adoption is not a build.
  EXPECT_EQ(stats.hits, 0u);

  // The adopted entry serves the matching (spec, version) request as a hit
  // with no build.
  auto got = cache.GetOrBuild(catalog_, "lineitem", fresh.spec);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().builds, 0u);
  EXPECT_DOUBLE_EQ(got.value().built_unix_seconds,
                   fresh.built_unix_seconds);
  EXPECT_EQ(got.value().sample->sample.weights,
            fresh.sample->sample.weights);
}

// The end-to-end restart: service #1 builds synopses and persists them at
// shutdown; service #2 over the same data_dir starts warm and answers the
// same query with zero synopsis builds.
TEST_F(SynopsisStoreTest, ServiceRestartServesWarmWithZeroRebuilds) {
  gov::ScopedFaultInjection quiet;
  const std::string data_dir = ::testing::TempDir() + "aqp_store_restart";
  std::remove((data_dir + "/synopses.aqps").c_str());
  ::mkdir(data_dir.c_str(), 0755);

  ServiceOptions options;
  options.gov.aqp.pilot_rate = 0.02;
  options.gov.aqp.block_size = 64;
  options.gov.aqp.min_table_rows = 1000;
  options.gov.aqp.max_rate = 0.8;
  options.gov.aqp.exec.num_threads = 2;
  options.synopsis_rows = 2000;
  options.synopsis_min_table_rows = 10000;
  options.use_result_cache = false;  // Isolate the synopsis path.
  options.data_dir = data_dir;

  const Submission query{
      "SELECT SUM(extendedprice) AS s FROM lineitem WITH ERROR 5% "
      "CONFIDENCE 95%"};

  uint64_t first_builds = 0;
  {
    QueryService service(&catalog_, options);
    EXPECT_TRUE(service.persistence_stats().enabled);
    EXPECT_EQ(service.persistence_stats().adopted, 0u);  // Cold first boot.
    auto session = service.OpenSession();
    auto r = service.Execute(session, query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    first_builds = service.synopsis_cache_stats().builds;
    ASSERT_GE(first_builds, 1u);
  }  // Destructor persists the sidecar.

  {
    QueryService service(&catalog_, options);
    const SynopsisPersistenceStats p = service.persistence_stats();
    EXPECT_FALSE(p.load_failed);
    EXPECT_GE(p.adopted, 1u);
    EXPECT_EQ(p.adopted, p.loaded);
    auto session = service.OpenSession();
    auto r = service.Execute(session, query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Warm: the adopted synopsis served; nothing was rebuilt.
    SynopsisCacheStats stats = service.synopsis_cache_stats();
    EXPECT_EQ(stats.builds, 0u);
    EXPECT_GE(stats.hits, 1u);
  }
  std::remove((data_dir + "/synopses.aqps").c_str());
}

}  // namespace
}  // namespace service
}  // namespace aqp
