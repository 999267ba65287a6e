#include "engine/catalog.h"

#include <algorithm>

#include "engine/executor.h"

namespace aqp {

Status Catalog::Register(const std::string& name,
                         std::shared_ptr<const Table> table) {
  if (Contains(name)) {
    return Status::AlreadyExists("table already registered: " + name);
  }
  tables_[name] = std::move(table);
  ++versions_[name];
  return Status::OK();
}

void Catalog::RegisterOrReplace(const std::string& name,
                                std::shared_ptr<const Table> table) {
  extent_tables_.erase(name);
  tables_[name] = std::move(table);
  ++versions_[name];
  stats_.Drop(name);
}

void Catalog::RegisterExtentBacked(
    const std::string& name,
    std::shared_ptr<const extent::ExtentReader> reader) {
  tables_.erase(name);
  extent_tables_[name] = std::move(reader);
  ++versions_[name];
  stats_.Drop(name);
}

Result<std::shared_ptr<const extent::ExtentReader>> Catalog::GetExtentReader(
    const std::string& name) const {
  auto it = extent_tables_.find(name);
  if (it == extent_tables_.end()) {
    return Status::NotFound("no extent-backed table named " + name);
  }
  return it->second;
}

Result<aqp::Schema> Catalog::Schema(const std::string& name) const {
  auto it = extent_tables_.find(name);
  if (it != extent_tables_.end()) return it->second->schema();
  auto t = tables_.find(name);
  if (t == tables_.end()) return Status::NotFound("no table named " + name);
  return t->second->schema();
}

Status Catalog::Drop(const std::string& name) {
  if (tables_.erase(name) == 0 && extent_tables_.erase(name) == 0) {
    return Status::NotFound("no table named " + name);
  }
  ++versions_[name];
  stats_.Drop(name);
  return Status::OK();
}

Result<uint64_t> Catalog::Version(const std::string& name) const {
  if (!Contains(name)) {
    return Status::NotFound("no table named " + name);
  }
  auto it = versions_.find(name);
  return it == versions_.end() ? uint64_t{0} : it->second;
}

Result<uint64_t> Catalog::Cardinality(const std::string& name) const {
  auto it = extent_tables_.find(name);
  if (it != extent_tables_.end()) return it->second->num_rows();
  auto t = tables_.find(name);
  if (t == tables_.end()) return Status::NotFound("no table named " + name);
  return static_cast<uint64_t>(t->second->num_rows());
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size() + extent_tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  for (const auto& [name, _] : extent_tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::shared_ptr<const ColumnStats>> Catalog::ColumnStatistics(
    const std::string& name, const std::string& column, uint32_t unit_rows,
    const ExecOptions& exec, obs::QueryTrace* trace) const {
  AQP_ASSIGN_OR_RETURN(uint64_t version, Version(name));
  AQP_ASSIGN_OR_RETURN(aqp::Schema schema, Schema(name));
  AQP_RETURN_IF_ERROR(schema.FieldIndex(column).status());
  return stats_.GetOrBuild(
      {name, version, column, unit_rows}, [&]() -> Result<ColumnStats> {
        obs::TraceSpan span = obs::MaybeSpan(trace, "stats.build");
        span.AddAttr("table", name);
        span.AddAttr("column", column);
        const std::vector<std::string> columns = {column};
        AQP_ASSIGN_OR_RETURN(std::shared_ptr<const Table> read,
                             ReadTable(*this, name, &columns, exec));
        AQP_ASSIGN_OR_RETURN(size_t index, read->schema().FieldIndex(column));
        AQP_ASSIGN_OR_RETURN(ColumnStats stats,
                             BuildColumnStats(read->column(index), unit_rows,
                                              exec.memory, exec.cancel));
        span.AddAttr("rows", stats.rows);
        span.AddAttr("values", static_cast<uint64_t>(stats.values.size()));
        span.AddAttr("exact", stats.exact ? "true" : "false");
        return stats;
      });
}

}  // namespace aqp
