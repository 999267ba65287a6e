#ifndef AQP_CORE_OFFLINE_EXECUTOR_H_
#define AQP_CORE_OFFLINE_EXECUTOR_H_

#include <string>

#include "common/result.h"
#include "core/approx_executor.h"
#include "core/offline_catalog.h"
#include "engine/catalog.h"
#include "sql/binder.h"

namespace aqp {
namespace core {

/// BlinkDB-style offline AQP: answer aggregation SQL from pre-computed
/// samples in the SampleCatalog, never touching the base table at query
/// time. The other corner of the paper's design space from ApproxExecutor:
///   + query latency independent of data size (only the sample is read)
///   - a-priori guarantees only hold for workloads the samples were built
///     for; the error is REPORTED (a posteriori CI), not promised
///   - maintenance cost on every update (see SampleCatalog)
///
/// Supported queries: single-table SELECT with linear aggregates, optional
/// WHERE / GROUP BY / ORDER BY / LIMIT. Joins, HAVING, and non-linear
/// aggregates report Unimplemented, signalling the caller to fall back.
///
/// The stored sample is only one source: the governed ladder's rung 2 hands
/// this executor a fresh reservoir sample of the current table instead, so
/// both rungs share one filter → estimate → assemble path.
class OfflineExecutor {
 public:
  /// Both registries must outlive the executor. `exec` controls
  /// morsel-parallel sample filtering/gathering at query time (results are
  /// identical for every thread count).
  OfflineExecutor(const Catalog* catalog, const SampleCatalog* samples,
                  ExecOptions exec = {});

  /// Executes `sql` against the best stored sample (preferring one
  /// stratified on the query's GROUP BY column). The result has the same
  /// shape as the exact query; `cis` carries a posteriori intervals at
  /// `confidence`. A non-null `parent_trace` receives this executor's spans
  /// in place of the profile's own trace (same ownership contract as
  /// ApproxExecutor::Execute — the parent is never Finish()ed here).
  Result<ApproxResult> Execute(std::string_view sql, double confidence = 0.95,
                               obs::QueryTrace* parent_trace = nullptr);

  /// Executes an already prepared query (same contract as above).
  Result<ApproxResult> Execute(const sql::PreparedQuery& query,
                               double confidence = 0.95,
                               obs::QueryTrace* parent_trace = nullptr);

 private:
  const Catalog* catalog_;
  const SampleCatalog* samples_;
  ExecOptions exec_;
};

/// OK iff a sample of the FROM table can answer a query of this shape:
/// aggregates, all linear, no join, no HAVING. Otherwise Unimplemented.
Status CheckSampleAnswerable(const sql::QueryShape& shape);

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_OFFLINE_EXECUTOR_H_
