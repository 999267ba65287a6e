#ifndef AQP_ENGINE_CATALOG_H_
#define AQP_ENGINE_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "engine/column_stats.h"
#include "engine/exec_options.h"
#include "obs/trace.h"
#include "storage/extent/extent_reader.h"
#include "storage/table.h"

namespace aqp {

struct ExecStats;

/// Name -> table registry, the executor's source of scan inputs. Tables are
/// held by shared_ptr so samples and synopses can alias base data cheaply.
///
/// A table can alternatively be registered EXTENT-BACKED: instead of an
/// in-memory Table, the name binds to an open extent file
/// (docs/STORAGE.md), and scans stream morsels from disk with zone-map
/// pruning (engine/extent_scan.h). Extent-backed names share the namespace,
/// version counter, Schema and Cardinality with in-memory tables, so the
/// binder, synopsis and result caches treat them identically. A reader that
/// needs a name's rows goes through ReadTable (engine/executor.h), which
/// alone decides whether they come from memory or from a governed decode.
class Catalog {
 public:
  /// Registers a table under `name`; fails if the name is taken.
  Status Register(const std::string& name, std::shared_ptr<const Table> table);

  /// Registers or replaces.
  void RegisterOrReplace(const std::string& name,
                         std::shared_ptr<const Table> table);

  /// Registers `name` as extent-backed (replacing any previous binding,
  /// in-memory or extent-backed; bumps the version either way).
  void RegisterExtentBacked(
      const std::string& name,
      std::shared_ptr<const extent::ExtentReader> reader);

  /// True iff `name` is currently bound to an extent file.
  bool IsExtentBacked(const std::string& name) const {
    return extent_tables_.count(name) > 0;
  }

  /// The extent reader behind an extent-backed name; NotFound otherwise.
  Result<std::shared_ptr<const extent::ExtentReader>> GetExtentReader(
      const std::string& name) const;

  /// The schema of `name`, in-memory or extent-backed (the open extent
  /// reader's; nothing is decoded); NotFound if missing.
  Result<aqp::Schema> Schema(const std::string& name) const;

  /// Removes a table (either kind); NotFound if missing.
  Status Drop(const std::string& name);

  bool Contains(const std::string& name) const {
    return tables_.count(name) > 0 || extent_tables_.count(name) > 0;
  }

  /// Estimated (here: exact) cardinality of a table — the statistic a cost
  /// model would read from the DBMS catalog.
  Result<uint64_t> Cardinality(const std::string& name) const;

  /// Monotone data version of `name`: 1 on first Register, bumped by every
  /// RegisterOrReplace and Drop. Versions survive Drop, so a re-registered
  /// name never repeats an old version — which is what lets cross-query
  /// caches key synopses and results on (table, version) and have every
  /// staleness question answered by an equality check. NotFound when the
  /// table is not currently registered.
  Result<uint64_t> Version(const std::string& name) const;

  /// Registered table names, sorted.
  std::vector<std::string> TableNames() const;

  /// Statistics of `column` of `name` over blocks of `unit_rows` rows
  /// (engine/column_stats.h). The first request builds them in one pass over
  /// that column alone, read through ReadTable, under a "stats.build" span
  /// of `trace` (may be null), charging the pass's working set (an
  /// extent-backed column's decode included) to `exec.memory` and polling
  /// `exec.cancel`. They
  /// stay cached until `name`'s version changes; concurrent first requests
  /// build once. A build that fails other than by cancellation or deadline
  /// (say, the pass does not fit `exec.memory`) is not retried until the
  /// version changes: later requests get its error at once. NotFound for an
  /// unknown table or column.
  Result<std::shared_ptr<const ColumnStats>> ColumnStatistics(
      const std::string& name, const std::string& column, uint32_t unit_rows,
      const ExecOptions& exec = {}, obs::QueryTrace* trace = nullptr) const;

 private:
  friend Result<std::shared_ptr<const Table>> ReadTable(
      const Catalog& catalog, const std::string& name,
      const std::vector<std::string>* columns, const ExecOptions& exec,
      ExecStats* stats, uint64_t max_rows);

  std::unordered_map<std::string, std::shared_ptr<const Table>> tables_;
  /// Extent-backed bindings; disjoint from tables_ by construction.
  std::unordered_map<std::string, std::shared_ptr<const extent::ExtentReader>>
      extent_tables_;
  /// Version per name ever registered (persists across Drop).
  std::unordered_map<std::string, uint64_t> versions_;
  /// Column statistics built so far; dropped per name on a version bump.
  mutable ColumnStatsCache stats_;
};

}  // namespace aqp

#endif  // AQP_ENGINE_CATALOG_H_
