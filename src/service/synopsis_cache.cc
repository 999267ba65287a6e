#include "service/synopsis_cache.h"

#include <utility>

#include "engine/executor.h"
#include "gov/fault_injector.h"
#include "obs/trace.h"

namespace aqp {
namespace service {
namespace {

std::string CacheKey(const std::string& table, uint64_t version,
                     const SynopsisSpec& spec) {
  return table + "\x1f" + std::to_string(version) + "\x1f" +
         spec.strata_column + "\x1f" + std::to_string(spec.budget) + "\x1f" +
         std::to_string(spec.seed);
}

CachedSynopsis Cached(const PersistedSynopsis& s) {
  return CachedSynopsis{s.sample, s.baseline, s.drift_score,
                        s.built_unix_seconds};
}

}  // namespace

Result<CachedSynopsis> SynopsisCache::GetOrBuild(const Catalog& catalog,
                                                 const std::string& table,
                                                 const SynopsisSpec& spec) {
  AQP_ASSIGN_OR_RETURN(uint64_t version, catalog.Version(table));
  const std::string key = CacheKey(table, version, spec);

  std::unique_lock<std::mutex> lock(mu_);
  // Each call is classified as exactly one of hit / miss / single-flight
  // wait; a caller that parked behind a build is a "wait" even though it
  // also finds the published entry afterwards.
  bool waited = false;
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) break;  // Cold: this caller becomes the builder.
    if (it->second.building) {
      // Single flight: somebody is already building this key; wait for the
      // publish (or for the failed build's erase, after which we retry).
      waited = true;
      cv_.wait(lock, [this, &key] {
        auto it2 = entries_.find(key);
        return it2 == entries_.end() || !it2->second.building;
      });
      continue;
    }
    if (waited) {
      ++single_flight_waits_;
    } else {
      ++hits_;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return Cached(it->second.synopsis);
  }

  ++misses_;
  entries_.emplace(key, Entry{});  // building = true: the claim other
                                   // threads wait on.
  // One baseline per (table, version): another spec's ready entry built
  // from the same version already holds it.
  std::shared_ptr<const core::TableDriftBaseline> baseline =
      options_.capture_baselines ? ReadyBaseline(table, version) : nullptr;
  lock.unlock();

  // The build runs outside the lock — this is the whole point: one table
  // scan, with every concurrent requester parked on the cv, not rescanning.
  // The one read feeds both the sample and, unless one was found above, the
  // drift baseline. An in-memory name is a lookup; an extent-backed name is
  // decoded under a tracker capped at the cache's byte budget and chained to
  // the cache's, so a file that does not fit is refused before it is decoded
  // (the query answers at rung 0). Also the `synopsis.build` chaos site: an
  // injected failure takes the same path as a real one — not cached,
  // waiters retry.
  Result<core::StoredSample> built = [&]() -> Result<core::StoredSample> {
    AQP_RETURN_IF_ERROR(
        gov::FaultInjector::Global().MaybeFail("synopsis.build"));
    MemoryTracker read_memory(byte_budget_, tracker_);
    ExecOptions exec;
    exec.memory = &read_memory;
    AQP_ASSIGN_OR_RETURN(std::shared_ptr<const Table> base,
                         ReadTable(catalog, table, nullptr, exec));
    Result<core::StoredSample> sample = core::BuildStoredSample(
        *base, table, spec.strata_column, spec.budget, spec.seed);
    // Drift baseline from the same snapshot; failures are non-fatal (the
    // synopsis serves, just unmonitored).
    if (sample.ok() && options_.capture_baselines && baseline == nullptr) {
      auto b = core::BuildDriftBaseline(*base, table, version, tracker_);
      if (b.ok()) {
        baseline = std::make_shared<const core::TableDriftBaseline>(
            std::move(b).value());
      }
    }
    return sample;
  }();

  lock.lock();
  // Waiters wake once the lock drops, to whatever state the code below
  // leaves.
  cv_.notify_all();
  if (!built.ok()) {
    // Failures are not cached: waiters observe the erase, loop, and retry
    // (the next attempt may succeed, e.g. after the table reappears).
    ++build_failures_;
    entries_.erase(key);
    return built.status();
  }
  ++builds_;
  PersistedSynopsis synopsis{
      table,
      version,
      spec,
      baseline != nullptr ? baseline->built_unix_seconds
                          : obs::NowUnixSeconds(),
      /*drift_score=*/0.0,
      std::make_shared<const core::StoredSample>(std::move(built).value()),
      baseline};
  const CachedSynopsis out = Cached(synopsis);
  auto it = entries_.find(key);
  // Clear() raced the build; hand the artifact back uncached.
  if (it == entries_.end()) return out;
  if (it->second.doomed) {
    // InvalidateTable raced the build: the table is known-drifted, so the
    // artifact (built from the pre-invalidation snapshot) must not be
    // published. Hand it back uncached; waiters retry and rebuild fresh.
    ++invalidations_;
    entries_.erase(it);
    return out;
  }
  Publish(key, it->second, std::move(synopsis));
  return out;
}

std::shared_ptr<const core::TableDriftBaseline> SynopsisCache::ReadyBaseline(
    const std::string& table, uint64_t version) const {
  for (const auto& [key, entry] : entries_) {
    const PersistedSynopsis& s = entry.synopsis;
    if (!entry.building && s.baseline != nullptr && s.table == table &&
        s.catalog_version == version) {
      return s.baseline;
    }
  }
  return nullptr;
}

void SynopsisCache::Publish(const std::string& key, Entry& entry,
                            PersistedSynopsis synopsis) {
  entry.building = false;
  entry.synopsis = std::move(synopsis);
  entry.bytes = entry.synopsis.sample->ApproxBytes() +
                (entry.synopsis.baseline != nullptr
                     ? entry.synopsis.baseline->ApproxBytes()
                     : 0);
  bytes_used_ += entry.bytes;
  // The tracker is accounting (the cache enforces its own byte budget); a
  // refusal from a budgeted tracker simply leaves this entry uncounted.
  if (tracker_ != nullptr &&
      !tracker_->TryCharge(entry.bytes, "synopsis-cache entry").ok()) {
    bytes_used_ -= entry.bytes;
    entry.bytes = 0;
  }
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
  EvictToBudget(key);
}

size_t SynopsisCache::MarkDrifted(const std::string& table, double score) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t flagged = 0;
  for (auto& [key, entry] : entries_) {
    if (entry.building || entry.synopsis.table != table) continue;
    entry.synopsis.drift_score = score;
    ++flagged;
  }
  if (flagged > 0) ++drift_flags_;
  return flagged;
}

size_t SynopsisCache::InvalidateTable(const std::string& table) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry& entry = it->second;
    if (entry.building) {
      // An entry's synopsis is only set at publish; match in-flight
      // claims by key prefix ("table\x1f...") instead.
      if (it->first.compare(0, table.size() + 1, table + "\x1f") == 0) {
        entry.doomed = true;
      }
      ++it;
      continue;
    }
    if (entry.synopsis.table != table) {
      ++it;
      continue;
    }
    it = DropReadyEntry(it);
    ++dropped;
    ++invalidations_;
  }
  return dropped;
}

std::vector<PersistedSynopsis> SynopsisCache::Baselines() const {
  std::vector<PersistedSynopsis> out = SnapshotForPersist();
  std::erase_if(out, [](const PersistedSynopsis& s) {
    return s.baseline == nullptr;
  });
  return out;
}

std::vector<PersistedSynopsis> SynopsisCache::SnapshotForPersist() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PersistedSynopsis> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    if (entry.building || entry.synopsis.sample == nullptr) continue;
    out.push_back(entry.synopsis);
  }
  return out;
}

size_t SynopsisCache::Preload(const Catalog& catalog,
                              std::vector<PersistedSynopsis> entries) {
  size_t adopted = 0;
  for (auto& p : entries) {
    if (p.sample == nullptr) continue;
    // Exact-version gate: a restored synopsis may only serve for the very
    // catalog state it was built from. Version skew (table re-registered,
    // replaced, or missing while the service was down) silently drops the
    // entry — the first query rebuilds from current data instead.
    Result<uint64_t> version = catalog.Version(p.table);
    if (!version.ok() || version.value() != p.catalog_version) continue;
    const std::string key = CacheKey(p.table, p.catalog_version, p.spec);

    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.count(key) > 0) continue;  // Live build/entry wins.
    Publish(key, entries_[key], std::move(p));
    ++adopted;
  }
  return adopted;
}

std::unordered_map<std::string, SynopsisCache::Entry>::iterator
SynopsisCache::DropReadyEntry(
    std::unordered_map<std::string, Entry>::iterator it) {
  bytes_used_ -= it->second.bytes;
  if (tracker_ != nullptr && it->second.bytes > 0) {
    tracker_->Release(it->second.bytes);
  }
  lru_.erase(it->second.lru_it);
  return entries_.erase(it);
}

void SynopsisCache::EvictToBudget(const std::string& keep) {
  if (byte_budget_ == 0) return;
  while (bytes_used_ > byte_budget_ && !lru_.empty()) {
    // Victim: least recently used that is not the entry being protected.
    auto victim = std::prev(lru_.end());
    if (*victim == keep) {
      if (lru_.size() == 1) return;  // Only the protected entry remains.
      victim = std::prev(victim);
    }
    // Every LRU node names a ready entry.
    DropReadyEntry(entries_.find(*victim));
    ++evictions_;
  }
}

SynopsisCacheStats SynopsisCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SynopsisCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.builds = builds_;
  s.build_failures = build_failures_;
  s.single_flight_waits = single_flight_waits_;
  s.evictions = evictions_;
  s.invalidations = invalidations_;
  s.drift_flags = drift_flags_;
  s.bytes_used = bytes_used_;
  s.entries = entries_.size();
  return s;
}

void SynopsisCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // Ready entries drop; in-flight builds keep their claim and publish into
  // (what is now) an emptier cache.
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.building) {
      ++it;
      continue;
    }
    it = DropReadyEntry(it);
  }
}

}  // namespace service
}  // namespace aqp
