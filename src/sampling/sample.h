#ifndef AQP_SAMPLING_SAMPLE_H_
#define AQP_SAMPLING_SAMPLE_H_

#include <cstdint>
#include <vector>

#include "storage/table.h"

namespace aqp {

/// A sample of a table together with the design information estimators need:
/// per-row Horvitz–Thompson weights (1 / inclusion probability) and the
/// sampling-unit structure. For row-level designs every row is its own unit;
/// for block designs all rows of a block share a unit id — estimators must
/// aggregate to unit level first because rows within a unit are not
/// independent (the statistical heart of block-sampling error analysis).
struct Sample {
  Table table;

  /// HT weight per sampled row: w_i = 1 / P(row i included).
  std::vector<double> weights;

  /// Dense sampling-unit id per sampled row (row index within sample for
  /// row-level designs; sampled-block ordinal for block designs).
  std::vector<uint32_t> unit_ids;

  /// Base-table rows per sampled unit, indexed by unit id (1.0 for row-level
  /// designs; the block's row count for block designs, including ragged last
  /// blocks). Enables ratio-to-size cluster estimation, which is exact for
  /// COUNT(*) and robust to uneven unit sizes. May be empty when unknown.
  std::vector<double> unit_sizes;

  /// Number of distinct units in this sample / in the population.
  uint64_t num_units_sampled = 0;
  uint64_t num_units_population = 0;

  /// Nominal inclusion probability (Bernoulli rate or k/N). The estimator
  /// takes a design as equal-probability iff every row weighs 1 / this.
  double nominal_rate = 1.0;

  /// Rows in the sampled population.
  uint64_t population_rows = 0;

  size_t num_rows() const { return table.num_rows(); }
};

}  // namespace aqp

#endif  // AQP_SAMPLING_SAMPLE_H_
