#include "core/offline_catalog.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/random.h"
#include "engine/executor.h"
#include "sampling/reservoir.h"
#include "sampling/stratified.h"

namespace aqp {
namespace core {

uint64_t StoredSample::ApproxBytes() const {
  uint64_t bytes = sample.table.ApproxBytes();
  bytes += sample.weights.capacity() * sizeof(double);
  bytes += sample.unit_ids.capacity() * sizeof(uint32_t);
  bytes += sample.unit_sizes.capacity() * sizeof(double);
  bytes += base_table.size() + strata_column.size() + sizeof(StoredSample);
  return bytes;
}

Result<StoredSample> BuildStoredSample(const Table& base,
                                       const std::string& table,
                                       const std::string& strata_column,
                                       uint64_t budget, uint64_t seed) {
  StoredSample stored;
  if (strata_column.empty()) {
    AQP_ASSIGN_OR_RETURN(stored.sample, ReservoirSample(base, budget, seed));
  } else {
    AQP_ASSIGN_OR_RETURN(StratifiedSampleResult result,
                         StratifiedSample(base, strata_column, budget,
                                          Allocation::kEqual, seed));
    stored.sample = std::move(result.sample);
  }
  stored.base_table = table;
  stored.strata_column = strata_column;
  stored.budget = budget;
  stored.base_rows_at_build = base.num_rows();
  return stored;
}

Status SampleCatalog::BuildUniform(const Catalog& catalog,
                                   const std::string& table, uint64_t budget,
                                   uint64_t seed) {
  return Build(catalog, table, "", budget, seed);
}

Status SampleCatalog::BuildStratified(const Catalog& catalog,
                                      const std::string& table,
                                      const std::string& strata_column,
                                      uint64_t budget, uint64_t seed) {
  if (strata_column.empty()) {
    return Status::InvalidArgument("strata column must be named");
  }
  return Build(catalog, table, strata_column, budget, seed);
}

Status SampleCatalog::Build(const Catalog& catalog, const std::string& table,
                            const std::string& strata_column, uint64_t budget,
                            uint64_t seed) {
  AQP_ASSIGN_OR_RETURN(std::shared_ptr<const Table> base,
                       ReadTable(catalog, table));
  AQP_ASSIGN_OR_RETURN(
      StoredSample stored,
      BuildStoredSample(*base, table, strata_column, budget, seed));
  maintenance_rows_ += stored.base_rows_at_build;  // Building scans the table.
  samples_[Key(table, strata_column)] =
      std::make_shared<const StoredSample>(std::move(stored));
  return Status::OK();
}

Status SampleCatalog::Adopt(std::shared_ptr<const StoredSample> sample) {
  if (sample == nullptr) {
    return Status::InvalidArgument("cannot adopt a null sample");
  }
  std::string key = Key(sample->base_table, sample->strata_column);
  samples_[key] = std::move(sample);
  return Status::OK();
}

Result<const StoredSample*> SampleCatalog::Find(
    const std::string& table, const std::string& strata_column) const {
  auto it = samples_.find(Key(table, strata_column));
  if (it == samples_.end()) {
    return Status::NotFound("no sample for " + table +
                            (strata_column.empty()
                                 ? " (uniform)"
                                 : " stratified on " + strata_column));
  }
  return it->second.get();
}

Result<const StoredSample*> SampleCatalog::FindBest(
    const std::string& table, const std::string& preferred_column) const {
  if (!preferred_column.empty()) {
    Result<const StoredSample*> stratified = Find(table, preferred_column);
    if (stratified.ok()) return stratified;
  }
  return Find(table, "");
}

Status SampleCatalog::OnAppend(const Catalog& catalog,
                               const std::string& table, const Table& appended,
                               uint64_t seed) {
  for (auto& [key, stored_ptr] : samples_) {
    if (stored_ptr->base_table != table) continue;
    bool can_increment =
        policy_ == MaintenancePolicy::kIncremental &&
        stored_ptr->strata_column.empty();
    if (!can_increment) {
      // Full rebuild against the (already updated) base table.
      const std::string strata_column = stored_ptr->strata_column;
      AQP_RETURN_IF_ERROR(Build(catalog, table, strata_column,
                                stored_ptr->budget, seed + (next_stream_++)));
      continue;
    }
    // Incremental reservoir continuation: each appended row (global ordinal
    // N_old + j) replaces a uniform slot with probability k / ordinal. The
    // update runs on a private copy and swaps in at the end, so any
    // cache-shared reader of the old sample stays consistent.
    StoredSample updated = *stored_ptr;
    Pcg32 rng(seed + (next_stream_++));
    Sample& sample = updated.sample;
    uint64_t seen = updated.base_rows_at_build;
    const uint64_t k = sample.table.num_rows();
    for (size_t j = 0; j < appended.num_rows(); ++j) {
      ++seen;
      if (k == 0) break;
      if (rng.NextDouble() <
          static_cast<double>(k) / static_cast<double>(seen)) {
        uint64_t slot = rng.UniformUint64(k);
        // Replace row `slot` by building a patched table (columnar storage
        // has no in-place row write; k is small so this is acceptable).
        std::vector<uint32_t> keep;
        keep.reserve(k);
        for (uint32_t i = 0; i < k; ++i) {
          if (i != slot) keep.push_back(i);
        }
        Table patched = sample.table.Take(keep);
        patched.AppendRowFrom(appended, j);
        sample.table = std::move(patched);
      }
    }
    updated.base_rows_at_build = seen;
    // Refresh design metadata: weights are N/k for all rows.
    double weight = k == 0 ? 1.0
                           : static_cast<double>(seen) /
                                 static_cast<double>(k);
    sample.weights.assign(sample.table.num_rows(), weight);
    sample.unit_ids.resize(sample.table.num_rows());
    for (size_t i = 0; i < sample.unit_ids.size(); ++i) {
      sample.unit_ids[i] = static_cast<uint32_t>(i);
    }
    sample.num_units_sampled = sample.table.num_rows();
    sample.num_units_population = seen;
    sample.population_rows = seen;
    sample.nominal_rate =
        seen == 0 ? 1.0
                  : static_cast<double>(k) / static_cast<double>(seen);
    maintenance_rows_ += appended.num_rows();  // Only the delta is scanned.
    stored_ptr = std::make_shared<const StoredSample>(std::move(updated));
  }
  return Status::OK();
}

uint64_t SampleCatalog::storage_rows() const {
  uint64_t total = 0;
  for (const auto& [key, stored] : samples_) {
    total += stored->sample.table.num_rows();
  }
  return total;
}

std::string SampleCatalog::ChooseStratificationColumn(
    const std::vector<workload::QuerySpec>& workload) {
  std::unordered_map<std::string, int> frequency;
  for (const workload::QuerySpec& q : workload) {
    if (!q.group_by_column.empty()) frequency[q.group_by_column]++;
  }
  std::string best;
  int best_count = 0;
  for (const auto& [column, count] : frequency) {
    if (count > best_count || (count == best_count && column < best)) {
      best = column;
      best_count = count;
    }
  }
  return best;
}

}  // namespace core
}  // namespace aqp
