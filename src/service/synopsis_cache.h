#ifndef AQP_SERVICE_SYNOPSIS_CACHE_H_
#define AQP_SERVICE_SYNOPSIS_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/memory_tracker.h"
#include "common/result.h"
#include "core/drift_baseline.h"
#include "core/offline_catalog.h"
#include "engine/catalog.h"

namespace aqp {
namespace service {

/// What synopsis to build/fetch for a table. An empty strata_column means a
/// uniform reservoir sample; a named one means an equal-allocation
/// stratified sample on that column.
struct SynopsisSpec {
  std::string strata_column;
  uint64_t budget = 10000;
  uint64_t seed = 42;

  bool stratified() const { return !strata_column.empty(); }
};

/// Point-in-time cache counters.
struct SynopsisCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t builds = 0;           // Misses that actually built (once per key).
  uint64_t build_failures = 0;
  uint64_t single_flight_waits = 0;  // Callers that waited on another build.
  uint64_t evictions = 0;
  uint64_t invalidations = 0;    // Entries dropped by InvalidateTable.
  uint64_t drift_flags = 0;      // MarkDrifted calls that flagged entries.
  uint64_t bytes_used = 0;
  size_t entries = 0;
};

/// What GetOrBuild hands back: the synopsis plus its drift/staleness
/// context so the caller (QueryService / governed ladder) can widen CIs or
/// decline to approximate from a flagged synopsis.
struct CachedSynopsis {
  std::shared_ptr<const core::StoredSample> sample;
  /// Drift baseline captured at build time; null when capture is disabled
  /// or the baseline build failed (the synopsis still serves).
  std::shared_ptr<const core::TableDriftBaseline> baseline;
  /// Latest DriftMonitor score for this entry (0 until a check ran).
  double drift_score = 0.0;
  /// Wall-clock time the synopsis was built (for staleness age).
  double built_unix_seconds = 0.0;
};

/// One cache entry in durable form: everything SaveSynopses writes to the
/// synopsis sidecar (docs/STORAGE.md §8) and Preload adopts back after a
/// restart, and what the DriftMonitor checks. The sample/baseline pointers
/// share the live artifacts — taking a snapshot copies no tables.
struct PersistedSynopsis {
  std::string table;
  uint64_t catalog_version = 0;
  SynopsisSpec spec;
  double built_unix_seconds = 0.0;
  double drift_score = 0.0;
  std::shared_ptr<const core::StoredSample> sample;
  std::shared_ptr<const core::TableDriftBaseline> baseline;  // May be null.
};

/// Cross-query cache of pre-computed synopses (stored samples), keyed by
/// (table, table version, synopsis spec). The paper's economics for offline
/// AQP only work when many queries amortize one build; this cache is where
/// that amortization happens in the serving tier:
///
///   * version-keyed: a table replace/append bumps Catalog::Version, so
///     stale synopses become unreachable (and age out via LRU) without any
///     invalidation protocol;
///   * single-flight: concurrent misses for one key build ONCE — the first
///     caller builds, the rest block until the artifact is published (or the
///     build's failure status is), never duplicating a table scan;
///   * bounded: entries are LRU-evicted past `byte_budget` (0 = unbounded),
///     with every insert/evict charged/released on the optional
///     MemoryTracker so cache footprint shows up in the service's accounts.
///
/// Version keying cannot see IN-PLACE mutation: a caller that kept a
/// non-const handle to a registered table can append without a version
/// bump, and the cache would keep serving a confidently-wrong synopsis
/// forever. That hole is what the drift machinery closes: every build
/// captures a TableDriftBaseline (the snapshot's column statistics) next to
/// the sample, or reuses the one a ready entry of the same (table, version)
/// holds; the background DriftMonitor rebuilds the statistics of tables and
/// calls MarkDrifted (soft: flag, the serving path widens CIs or declines)
/// or InvalidateTable (hard: drop, the next query rebuilds from current
/// data).
///
/// Entries are shared_ptr-shared: eviction only drops the cache's
/// reference — queries already holding the synopsis keep it alive.
/// Thread-safe; builds run outside the lock.
class SynopsisCache {
 public:
  struct Options {
    /// Capture a drift baseline with every build: the column statistics of
    /// the snapshot the sample was drawn from (one more pass over it, and
    /// up to ColumnStats::kMaxValues values per column in the entry's byte
    /// accounting). Builds of one (table, version) share one baseline.
    bool capture_baselines = true;
  };

  explicit SynopsisCache(uint64_t byte_budget, MemoryTracker* tracker,
                         Options options)
      : byte_budget_(byte_budget),
        tracker_(tracker),
        options_(std::move(options)) {}
  explicit SynopsisCache(uint64_t byte_budget,
                         MemoryTracker* tracker = nullptr)
      : SynopsisCache(byte_budget, tracker, Options()) {}
  SynopsisCache(const SynopsisCache&) = delete;
  SynopsisCache& operator=(const SynopsisCache&) = delete;

  /// Returns the synopsis for (table@current-version, spec), building it on
  /// first use. Concurrent calls for the same cold key perform one build.
  /// Build failures are returned to every waiter and NOT cached — the next
  /// call retries. A build reads the table once for the sample and the
  /// baseline; an extent-backed table's decode is charged to a tracker
  /// capped at `byte_budget` (0 = unbounded) under `tracker`, so a file
  /// whose columns do not fit fails the build with ResourceExhausted,
  /// unread.
  Result<CachedSynopsis> GetOrBuild(const Catalog& catalog,
                                    const std::string& table,
                                    const SynopsisSpec& spec);

  /// Flags every ready entry for `table` with the given drift score (soft
  /// drift: entries keep serving, callers see the score and compensate).
  /// Returns the number of entries flagged.
  size_t MarkDrifted(const std::string& table, double score);

  /// Drops every ready entry for `table` (hard drift). In-flight builds for
  /// the table are doomed: they publish nothing and their waiters retry
  /// against current data. Returns the number of ready entries dropped.
  size_t InvalidateTable(const std::string& table);

  /// Every ready entry that holds a baseline, for the DriftMonitor. Does
  /// not touch LRU order.
  std::vector<PersistedSynopsis> Baselines() const;

  /// Every ready entry in durable form, for SaveSynopses at shutdown.
  /// Drifted entries are included (their score rides along, so a restarted
  /// monitor keeps treating them as flagged); in-flight builds are not.
  std::vector<PersistedSynopsis> SnapshotForPersist() const;

  /// Adopts restored entries as ready cache entries — the warm-restart
  /// path. An entry is adopted only when its recorded catalog version
  /// exactly matches the live catalog's (anything else means the table
  /// changed, or never reappeared, while the service was down; serving from
  /// it would be silently wrong). Adoption counts as neither hit, miss, nor
  /// build. Returns the number adopted.
  size_t Preload(const Catalog& catalog,
                 std::vector<PersistedSynopsis> entries);

  SynopsisCacheStats stats() const;

  /// Drops every ready entry (in-flight builds publish into an empty cache).
  void Clear();

 private:
  struct Entry {
    bool building = true;
    bool doomed = false;         // InvalidateTable hit a mid-flight build.
    PersistedSynopsis synopsis;  // Set once !building.
    uint64_t bytes = 0;
    std::list<std::string>::iterator lru_it;  // Valid when ready & cached.
  };

  /// The baseline of a ready entry of (`table`, `version`), or null.
  /// Caller holds mu_.
  std::shared_ptr<const core::TableDriftBaseline> ReadyBaseline(
      const std::string& table, uint64_t version) const;

  /// Makes the entry claimed under `key` ready with `synopsis`: charges its
  /// bytes, puts it at the LRU front and evicts to budget. Caller holds mu_.
  void Publish(const std::string& key, Entry& entry,
               PersistedSynopsis synopsis);

  /// Evicts LRU-tail entries until bytes_used_ fits the budget, sparing
  /// `keep`. Caller holds mu_.
  void EvictToBudget(const std::string& keep);

  /// Drops one ready entry (releases bytes, LRU node, map slot). Caller
  /// holds mu_; returns the next iterator.
  std::unordered_map<std::string, Entry>::iterator DropReadyEntry(
      std::unordered_map<std::string, Entry>::iterator it);

  const uint64_t byte_budget_;
  MemoryTracker* tracker_;
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // Front = most recently used.
  uint64_t bytes_used_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t builds_ = 0;
  uint64_t build_failures_ = 0;
  uint64_t single_flight_waits_ = 0;
  uint64_t evictions_ = 0;
  uint64_t invalidations_ = 0;
  uint64_t drift_flags_ = 0;
};

}  // namespace service
}  // namespace aqp

#endif  // AQP_SERVICE_SYNOPSIS_CACHE_H_
