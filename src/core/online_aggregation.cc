#include "core/online_aggregation.h"

#include <string>
#include <unordered_map>

#include "common/cancellation.h"
#include "core/result_assembly.h"

namespace aqp {
namespace core {
namespace {

// True when a sampled round answers within `target`: it drew at least
// `min_units` units, and every aggregate item's interval is within `target`
// of a non-zero estimate, relatively. A round whose sample kept no
// qualifying row reads 0 with a zero-width interval, or no group at all,
// which says nothing.
bool MeetsTarget(const sql::SelectStmt& stmt, const OlaRound& round,
                 uint64_t min_units, double target) {
  if (round.stats.sampled_units.units < min_units || round.cis.empty()) {
    return false;
  }
  for (size_t it = 0; it < stmt.items.size(); ++it) {
    std::unordered_map<std::string, int> aggs;
    CountAggOccurrences(stmt.items[it].expr, &aggs);
    if (aggs.empty()) continue;  // A group key: exact.
    for (const auto& row : round.cis) {
      if (!(row[it].relative_half_width() <= target)) return false;
    }
  }
  return true;
}

}  // namespace

Result<OnlineAggregator> OnlineAggregator::Create(const Catalog& catalog,
                                                  std::string_view sql,
                                                  AqpOptions options) {
  AQP_ASSIGN_OR_RETURN(sql::PreparedQuery query, sql::Prepare(sql, catalog));
  if (!query.shape.has_aggregates || !query.shape.all_linear ||
      query.shape.has_having) {
    return Status::InvalidArgument(
        "online aggregation answers SUM/COUNT/AVG queries without HAVING");
  }
  AQP_ASSIGN_OR_RETURN(StageTarget target,
                       PickStageTarget(catalog, query.bound, options));
  return OnlineAggregator(&catalog, std::move(query), std::move(options),
                          std::move(target));
}

Result<OlaRound> OnlineAggregator::Round(double rate,
                                         double confidence) const {
  if (!(rate > 0.0)) {
    return Status::InvalidArgument("round rate must be positive");
  }
  OlaRound round;
  round.complete = rate >= 1.0 || target_.table.empty();
  round.rate = round.complete ? 1.0 : rate;
  if (round.complete) {
    AQP_RETURN_IF_ERROR(CheckCancelled(options_.exec.cancel));
    AQP_ASSIGN_OR_RETURN(round.table,
                         aqp::Execute(query_.bound.plan, *catalog_,
                                      &round.stats, nullptr, options_.exec));
    round.cis.resize(round.table.num_rows());
    for (size_t row = 0; row < round.table.num_rows(); ++row) {
      for (size_t c = 0; c < round.table.num_columns(); ++c) {
        const Column& col = round.table.column(c);
        double cell = IsNumeric(col.type()) && !col.IsNull(row)
                          ? col.NumericAt(row)
                          : 0.0;
        round.cis[row].push_back({cell, cell, cell, confidence});
      }
    }
    return round;
  }
  AQP_ASSIGN_OR_RETURN(StageResult stage,
                       RunSampledStage(*catalog_, query_, target_, options_,
                                       "round", rate, options_.seed, nullptr));
  AQP_ASSIGN_OR_RETURN(AssembledResult assembled,
                       AssembleOutput(query_.stmt, query_.bound,
                                      stage.estimates, confidence));
  round.table = std::move(assembled.table);
  round.cis = std::move(assembled.cis);
  round.stats = stage.stats;
  return round;
}

Result<OlaRound> OnlineAggregator::RunToTarget(double target_relative_error,
                                               double confidence,
                                               double first_rate) const {
  if (!(first_rate > 0.0)) {
    return Status::InvalidArgument("first rate must be positive");
  }
  double rate = 1.0;
  while (rate / 2.0 >= first_rate) rate /= 2.0;
  while (true) {
    AQP_ASSIGN_OR_RETURN(OlaRound round, Round(rate, confidence));
    if (round.complete || MeetsTarget(query_.stmt, round, options_.min_units,
                                      target_relative_error)) {
      return round;
    }
    rate *= 2.0;
  }
}

}  // namespace core
}  // namespace aqp
