#include "core/drift_baseline.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "obs/trace.h"
#include "storage/column.h"
#include "storage/value.h"

namespace aqp {
namespace core {

namespace {

constexpr size_t kCancelCheckRows = 16384;

/// Upper bound on one column sketch's footprint, charged before the scan so
/// a budget refusal aborts the build instead of overshooting mid-scan.
uint64_t PerColumnBound(const sketch::DriftSketchOptions& s) {
  const uint64_t kll = static_cast<uint64_t>(s.kll_k) * 24 * sizeof(double);
  const uint64_t kmv = static_cast<uint64_t>(s.kmv_k) * 6 * sizeof(uint64_t);
  const uint64_t mg = static_cast<uint64_t>(s.heavy_hitters) * 6 *
                      sizeof(uint64_t);
  return kll + kmv + mg + 512;
}

void ScanColumn(const Column& col, size_t rows,
                sketch::ColumnDriftSketch* sketch_out,
                const CancellationToken* cancel, Status* status) {
  const uint8_t* valid = col.validity();
  const bool nulls = col.has_nulls();
  for (size_t i = 0; i < rows; ++i) {
    if ((i % kCancelCheckRows) == 0) {
      *status = CheckCancelled(cancel);
      if (!status->ok()) return;
    }
    if (nulls && valid[i] == 0) {
      sketch_out->AddNull();
      continue;
    }
    switch (col.type()) {
      case DataType::kInt64: {
        const int64_t v = col.int64_data()[i];
        sketch_out->AddNumeric(static_cast<double>(v), HashInt64(v));
        break;
      }
      case DataType::kDouble: {
        const double v = col.double_data()[i];
        sketch_out->AddNumeric(v, HashDouble(v));
        break;
      }
      case DataType::kString:
      case DataType::kBool:
        sketch_out->AddHashed(col.HashAt(i));
        break;
    }
  }
}

}  // namespace

uint64_t TableDriftBaseline::ApproxBytes() const {
  uint64_t bytes = sizeof(*this) + table.size();
  for (const auto& [name, sketch] : columns) {
    bytes += name.size() + sketch.ApproxBytes();
  }
  return bytes;
}

Result<TableDriftBaseline> BuildDriftBaseline(
    const Table& table, const std::string& name, uint64_t catalog_version,
    const DriftBaselineOptions& opts, MemoryTracker* tracker,
    const CancellationToken* cancel) {
  TableDriftBaseline out;
  out.table = name;
  out.catalog_version = catalog_version;
  out.built_unix_seconds = obs::NowUnixSeconds();

  size_t rows = table.num_rows();
  if (opts.max_rows > 0) {
    rows = std::min(rows, static_cast<size_t>(opts.max_rows));
  }
  out.rows = rows;

  const uint64_t bound =
      PerColumnBound(opts.sketch) * std::max<size_t>(table.num_columns(), 1);
  auto charge = ScopedMemoryCharge::Make(tracker, bound, "drift_baseline");
  if (!charge.ok()) return charge.status();

  out.columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    sketch::ColumnDriftSketch sketch(opts.sketch);
    Status status = Status::OK();
    ScanColumn(table.column(c), rows, &sketch, cancel, &status);
    if (!status.ok()) return status;
    out.columns.emplace_back(table.schema().field(c).name,
                             std::move(sketch));
  }
  return out;
}

TableDriftReport ScoreDrift(const TableDriftBaseline& baseline,
                            const TableDriftBaseline& current) {
  TableDriftReport report;
  report.table = baseline.table;
  for (const auto& [name, base_sketch] : baseline.columns) {
    ColumnDriftEntry entry;
    entry.column = name;
    const sketch::ColumnDriftSketch* cur = nullptr;
    for (const auto& [cname, csketch] : current.columns) {
      if (cname == name) {
        cur = &csketch;
        break;
      }
    }
    if (cur == nullptr) {
      // Column vanished: total drift for this column.
      entry.score.ks = entry.score.domain_churn = entry.score.hh_turnover =
          entry.score.moment_shift = entry.score.score = 1.0;
    } else {
      entry.score = sketch::ScoreColumnDrift(base_sketch, *cur);
    }
    report.ks = std::max(report.ks, entry.score.ks);
    report.domain_churn =
        std::max(report.domain_churn, entry.score.domain_churn);
    report.hh_turnover = std::max(report.hh_turnover, entry.score.hh_turnover);
    report.moment_shift =
        std::max(report.moment_shift, entry.score.moment_shift);
    if (entry.score.score >= report.score &&
        (entry.score.score > report.score || report.worst_column.empty())) {
      report.score = entry.score.score;
      report.worst_column = entry.column;
    }
    report.columns.push_back(std::move(entry));
  }
  // Columns added since the baseline also count as schema drift.
  for (const auto& [cname, csketch] : current.columns) {
    bool known = false;
    for (const auto& [bname, bsketch] : baseline.columns) {
      if (bname == cname) {
        known = true;
        break;
      }
    }
    if (!known) {
      ColumnDriftEntry entry;
      entry.column = cname;
      entry.score.ks = entry.score.domain_churn = entry.score.hh_turnover =
          entry.score.moment_shift = entry.score.score = 1.0;
      report.score = 1.0;
      report.worst_column = entry.column;
      report.ks = report.domain_churn = report.hh_turnover =
          report.moment_shift = 1.0;
      report.columns.push_back(std::move(entry));
    }
  }
  return report;
}

}  // namespace core
}  // namespace aqp
