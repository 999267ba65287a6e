#ifndef AQP_CORE_OFFLINE_CATALOG_H_
#define AQP_CORE_OFFLINE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/catalog.h"
#include "sampling/sample.h"
#include "workload/querygen.h"

namespace aqp {
namespace core {

/// One pre-computed sample and the bookkeeping needed to answer "is it still
/// valid?" — the offline-AQP artifact whose maintenance cost is the P2
/// problem the paper dwells on.
struct StoredSample {
  std::string base_table;
  std::string strata_column;  // Empty = uniform sample.
  uint64_t budget = 0;
  uint64_t base_rows_at_build = 0;  // Table cardinality when (re)built.
  Sample sample;

  /// Approximate heap footprint (sample table plus design vectors) — what a
  /// synopsis cache charges per entry.
  uint64_t ApproxBytes() const;
};

/// Builds a StoredSample of `budget` rows of `base`, the rows of catalog
/// table `table`: a uniform reservoir sample when `strata_column` is empty,
/// else an equal-allocation stratified sample on it. The build step shared
/// by SampleCatalog, the cross-query SynopsisCache (which deduplicates
/// builds and shares the artifact across sessions) and the grace rung; each
/// reads `base` once, through ReadTable (engine/executor.h), under its own
/// budget.
Result<StoredSample> BuildStoredSample(const Table& base,
                                       const std::string& table,
                                       const std::string& strata_column,
                                       uint64_t budget, uint64_t seed);

/// Catalog of pre-computed (offline) samples with explicit maintenance
/// accounting. Every build or refresh records how many base rows had to be
/// scanned; experiments read the counters to price maintenance against the
/// query-time savings.
class SampleCatalog {
 public:
  enum class MaintenancePolicy {
    kRebuild,      // Re-scan the full table on every append batch.
    kIncremental,  // Stream appended rows through the reservoir (uniform
                   // samples only; stratified samples still rebuild).
  };

  explicit SampleCatalog(MaintenancePolicy policy = MaintenancePolicy::kRebuild)
      : policy_(policy) {}

  /// Builds a uniform reservoir sample of `budget` rows of `table`.
  Status BuildUniform(const Catalog& catalog, const std::string& table,
                      uint64_t budget, uint64_t seed);

  /// Builds a stratified sample on `strata_column` (equal allocation, the
  /// BlinkDB-style rare-group hedge).
  Status BuildStratified(const Catalog& catalog, const std::string& table,
                         const std::string& strata_column, uint64_t budget,
                         uint64_t seed);

  /// Adopts an externally built (typically cache-shared) sample under its
  /// own (base_table, strata_column) key, replacing any existing entry. No
  /// maintenance cost is charged: the build was paid for (once) wherever the
  /// sample came from — this is how a per-query view of the SynopsisCache is
  /// assembled without copying sample data.
  Status Adopt(std::shared_ptr<const StoredSample> sample);

  /// The stored sample for (table, strata_column); with an empty
  /// strata_column returns the uniform sample; NotFound when absent.
  Result<const StoredSample*> Find(const std::string& table,
                                   const std::string& strata_column = "") const;

  /// Any sample for `table`, preferring one stratified on `preferred_column`
  /// then uniform — the (simplified) BlinkDB sample-selection step.
  Result<const StoredSample*> FindBest(
      const std::string& table, const std::string& preferred_column) const;

  /// Maintenance hook: `appended` rows were appended to `table` (the engine
  /// catalog must already reflect the append). Refreshes all samples of the
  /// table per the policy and charges the cost counters.
  Status OnAppend(const Catalog& catalog, const std::string& table,
                  const Table& appended, uint64_t seed);

  /// Rows scanned for building + maintaining samples so far.
  uint64_t maintenance_rows_scanned() const { return maintenance_rows_; }
  /// Rows held across all stored samples (storage cost).
  uint64_t storage_rows() const;
  size_t num_samples() const { return samples_.size(); }

  /// Workload-aware stratification choice: the most frequent GROUP BY column
  /// in the workload (empty if the workload never groups) — the "aggressive
  /// use of workload knowledge" axis of the paper's taxonomy.
  static std::string ChooseStratificationColumn(
      const std::vector<workload::QuerySpec>& workload);

 private:
  std::string Key(const std::string& table,
                  const std::string& strata_column) const {
    return table + "\x1f" + strata_column;
  }

  /// Reads `table` and (re)builds its sample on `strata_column`.
  Status Build(const Catalog& catalog, const std::string& table,
               const std::string& strata_column, uint64_t budget,
               uint64_t seed);

  MaintenancePolicy policy_;
  /// Samples are held by shared_ptr so a catalog view can alias artifacts
  /// owned by a cross-query cache; in-place maintenance copies-then-swaps so
  /// aliased readers never observe a mutation.
  std::map<std::string, std::shared_ptr<const StoredSample>> samples_;
  uint64_t maintenance_rows_ = 0;
  uint64_t next_stream_ = 0;  // Distinct RNG streams per refresh.
};

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_OFFLINE_CATALOG_H_
