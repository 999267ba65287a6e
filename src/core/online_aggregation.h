#ifndef AQP_CORE_ONLINE_AGGREGATION_H_
#define AQP_CORE_ONLINE_AGGREGATION_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/approx_executor.h"
#include "engine/catalog.h"
#include "sql/binder.h"
#include "stats/confidence.h"

namespace aqp {
namespace core {

/// One round of online aggregation: the query's answer from the sample a
/// round of `rate` drew, in the exact query's output shape.
struct OlaRound {
  double rate = 0.0;
  Table table;
  /// cis[row][item] at the round's confidence; zero-width for group keys
  /// and for every cell of a complete round.
  std::vector<std::vector<stats::ConfidenceInterval>> cis;
  ExecStats stats;        // What this round's engine run did.
  bool complete = false;  // The round read every row: the exact answer.
};

/// Online aggregation (Hellerstein, Haas, Wang 1997) as repeated estimation
/// over a growing random sample: round k runs the query's sampled stage
/// (RunSampledStage) at rate r_k with the aggregator's one seed and
/// assembles its output, so GROUP BY, several aggregates, joins and
/// extent-backed tables all work. With one seed, rounds are nested: the
/// units kept at rate r are among those kept at any higher rate. Each round
/// estimates from its own sample, charging its memory to
/// `options.exec.memory`; nothing is kept between rounds.
///
/// The paper's caveat applies: intervals are valid *pointwise*; stopping
/// the first time a monitored interval looks good ("peeking") consumes more
/// than the nominal error budget.
class OnlineAggregator {
 public:
  /// Prepares `sql` against `catalog`, which must outlive the aggregator.
  /// The query must have aggregates, all SUM/COUNT/COUNT(*)/AVG, and no
  /// HAVING (InvalidArgument otherwise); a WITH ERROR clause is ignored.
  /// Rounds sample the table the executor's stages would (PickStageTarget)
  /// with the options' method, block size, seed and exec; when no table
  /// reaches `options.min_table_rows`, every round is exact.
  static Result<OnlineAggregator> Create(const Catalog& catalog,
                                         std::string_view sql,
                                         AqpOptions options);

  /// Runs one round at `rate` and returns its answer with intervals at
  /// `confidence`. A rate of at least 1 (or no table to sample) runs the
  /// exact plan: zero-width intervals, marked complete. A round that fails
  /// — a tripped cancellation token returns the engine's Cancelled status —
  /// leaves the caller's previous round as the answer.
  Result<OlaRound> Round(double rate, double confidence) const;

  /// Runs rounds at doubling rates — the smallest power of two not below
  /// `first_rate`, then twice that, up to 1 — and returns the first sampled
  /// round that drew at least `options.min_units` units and whose aggregate
  /// intervals all have a relative half-width of at most
  /// `target_relative_error` around a non-zero estimate, or else the exact
  /// round. A round that kept no qualifying row (0 with a zero-width
  /// interval) never meets the target. The earlier rates sum to less than
  /// the last, so all rounds keep under twice the last round's rows in
  /// expectation. Under SYSTEM those are the rows read; a BERNOULLI round
  /// draws per row and reads the whole table every round.
  Result<OlaRound> RunToTarget(double target_relative_error,
                               double confidence, double first_rate) const;

 private:
  OnlineAggregator(const Catalog* catalog, sql::PreparedQuery query,
                   AqpOptions options, StageTarget target)
      : catalog_(catalog),
        query_(std::move(query)),
        options_(std::move(options)),
        target_(std::move(target)) {}

  const Catalog* catalog_;
  sql::PreparedQuery query_;
  AqpOptions options_;
  StageTarget target_;
};

}  // namespace core
}  // namespace aqp

#endif  // AQP_CORE_ONLINE_AGGREGATION_H_
