#ifndef AQP_TESTS_TEST_UTIL_H_
#define AQP_TESTS_TEST_UTIL_H_

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/estimate.h"
#include "engine/exec_options.h"
#include "sampling/bernoulli.h"
#include "storage/table.h"

namespace aqp {
namespace testutil {

/// Bit-identical cell comparison for the differential harness: NULL flags
/// must match, and non-null values must be equal — doubles by BIT PATTERN
/// (so +0.0 vs -0.0 and differently-produced NaNs fail), which is the
/// determinism contract between the scalar and vectorized paths.
inline ::testing::AssertionResult CellsBitIdentical(const Column& a,
                                                    const Column& b,
                                                    size_t row) {
  const bool an = a.IsNull(row);
  const bool bn = b.IsNull(row);
  if (an != bn) {
    return ::testing::AssertionFailure()
           << "row " << row << ": null flag " << an << " vs " << bn;
  }
  if (an) return ::testing::AssertionSuccess();
  switch (a.type()) {
    case DataType::kInt64:
      if (a.Int64At(row) != b.Int64At(row)) {
        return ::testing::AssertionFailure()
               << "row " << row << ": " << a.Int64At(row) << " vs "
               << b.Int64At(row);
      }
      break;
    case DataType::kDouble: {
      const uint64_t ab = std::bit_cast<uint64_t>(a.DoubleAt(row));
      const uint64_t bb = std::bit_cast<uint64_t>(b.DoubleAt(row));
      if (ab != bb) {
        return ::testing::AssertionFailure()
               << "row " << row << ": " << a.DoubleAt(row) << " (0x"
               << std::hex << ab << ") vs " << b.DoubleAt(row) << " (0x"
               << bb << ")";
      }
      break;
    }
    case DataType::kString:
      if (a.StringAt(row) != b.StringAt(row)) {
        return ::testing::AssertionFailure()
               << "row " << row << ": '" << a.StringAt(row) << "' vs '"
               << b.StringAt(row) << "'";
      }
      break;
    case DataType::kBool:
      if (a.BoolAt(row) != b.BoolAt(row)) {
        return ::testing::AssertionFailure()
               << "row " << row << ": " << a.BoolAt(row) << " vs "
               << b.BoolAt(row);
      }
      break;
  }
  return ::testing::AssertionSuccess();
}

/// Schema + every cell of `a` and `b` bit-identical (see CellsBitIdentical).
inline ::testing::AssertionResult TablesBitIdentical(const Table& a,
                                                     const Table& b) {
  if (a.num_columns() != b.num_columns()) {
    return ::testing::AssertionFailure()
           << "column count " << a.num_columns() << " vs " << b.num_columns();
  }
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "row count " << a.num_rows() << " vs " << b.num_rows();
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Field& fa = a.schema().field(c);
    const Field& fb = b.schema().field(c);
    if (fa.name != fb.name || fa.type != fb.type) {
      return ::testing::AssertionFailure()
             << "column " << c << ": field " << fa.name << " vs " << fb.name;
    }
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ::testing::AssertionResult cell =
          CellsBitIdentical(a.column(c), b.column(c), r);
      if (!cell) {
        return ::testing::AssertionFailure()
               << "column '" << fa.name << "' " << cell.message();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Table with a single DOUBLE column "x" holding `values`.
inline Table DoubleTable(const std::vector<double>& values) {
  Table t(Schema({{"x", DataType::kDouble}}));
  for (double v : values) {
    Status s = t.AppendRow({Value(v)});
    AQP_CHECK(s.ok());
  }
  return t;
}

/// Table with columns g (INT64 group) and x (DOUBLE measure).
inline Table GroupedTable(const std::vector<std::pair<int64_t, double>>& rows) {
  Table t(Schema({{"g", DataType::kInt64}, {"x", DataType::kDouble}}));
  for (const auto& [g, x] : rows) {
    Status s = t.AppendRow({Value(g), Value(x)});
    AQP_CHECK(s.ok());
  }
  return t;
}

/// n rows: g ~ Zipf(skew) over num_groups ranks, x ~ N(mu(g), 1) where
/// mu(g) = g + 1. Deterministic for a seed.
inline Table ZipfGroupedTable(size_t n, uint64_t num_groups, double skew,
                              uint64_t seed) {
  Pcg32 rng(seed);
  ZipfGenerator zipf(num_groups, skew);
  Table t(Schema({{"g", DataType::kInt64}, {"x", DataType::kDouble}}));
  for (size_t i = 0; i < n; ++i) {
    int64_t g = static_cast<int64_t>(zipf.Next(rng));
    double x = static_cast<double>(g + 1) + rng.Gaussian();
    Status s = t.AppendRow({Value(g), Value(x)});
    AQP_CHECK(s.ok());
  }
  return t;
}

/// Exact SUM of column `col` (non-null numeric slots).
inline double ExactSum(const Table& t, const std::string& col) {
  size_t idx = t.ColumnIndex(col).value();
  double sum = 0.0;
  const Column& c = t.column(idx);
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (!c.IsNull(i)) sum += c.NumericAt(i);
  }
  return sum;
}

/// Exact answers that one coverage trial's confidence intervals are checked
/// against. Assumes `col` has no NULLs (so AVG truth is sum / num_rows).
/// COUNT is taken over rows with col > cutoff: an unconditional COUNT(*) is
/// answered *exactly* by the ratio-to-size estimator (zero-width CI), which
/// would make its coverage trivially 100% and the trial meaningless.
struct CoverageTruth {
  double sum = 0.0;
  double count = 0.0;  // #{rows with col > count_cutoff}.
  double avg = 0.0;
  double count_cutoff = 0.0;
};

inline CoverageTruth ComputeCoverageTruth(const Table& t,
                                          const std::string& col,
                                          double count_cutoff) {
  CoverageTruth truth;
  truth.count_cutoff = count_cutoff;
  truth.sum = ExactSum(t, col);
  double n = static_cast<double>(t.num_rows());
  truth.avg = n == 0.0 ? 0.0 : truth.sum / n;
  size_t idx = t.ColumnIndex(col).value();
  const Column& c = t.column(idx);
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (!c.IsNull(i) && c.NumericAt(i) > count_cutoff) truth.count += 1.0;
  }
  return truth;
}

/// Whether each aggregate's CI covered the exact answer in one trial.
struct CoverageTrial {
  bool sum_covered = false;
  bool count_covered = false;
  bool avg_covered = false;
};

/// One seeded coverage trial: draw a Bernoulli row sample of `table` at
/// `rate` (serial single-stream when `exec` is null, morsel-parallel with
/// per-morsel RNG streams otherwise), estimate SUM/COUNT/AVG of `col` with
/// CIs at `confidence`, and record whether each interval
/// covers the exact answer. Used by the statistical coverage harness to
/// assert that parallel execution preserves CI validity.
inline Result<CoverageTrial> RunCoverageTrial(const Table& table,
                                              const std::string& col,
                                              const CoverageTruth& truth,
                                              double rate, uint64_t seed,
                                              double confidence,
                                              const ExecOptions* exec) {
  AQP_ASSIGN_OR_RETURN(Sample sample,
                       exec == nullptr
                           ? BernoulliRowSample(table, rate, seed)
                           : BernoulliRowSample(table, rate, seed, *exec));
  AQP_ASSIGN_OR_RETURN(
      core::GroupedEstimates whole,
      core::EstimateGroupedAggregates(sample, {},
                                      {{AggKind::kSum, Col(col), "s"},
                                       {AggKind::kAvg, Col(col), "a"}}));
  AQP_ASSIGN_OR_RETURN(
      Sample above,
      core::FilterSample(sample, Gt(Col(col), Lit(truth.count_cutoff))));
  AQP_ASSIGN_OR_RETURN(core::GroupedEstimates count,
                       core::EstimateGroupedAggregates(
                           above, {}, {{AggKind::kCountStar, nullptr, "n"}}));
  CoverageTrial out;
  out.sum_covered = whole.estimates[0][0].Ci(confidence).Covers(truth.sum);
  out.count_covered = count.estimates[0][0].Ci(confidence).Covers(truth.count);
  out.avg_covered = whole.estimates[1][0].Ci(confidence).Covers(truth.avg);
  return out;
}

}  // namespace testutil
}  // namespace aqp

#endif  // AQP_TESTS_TEST_UTIL_H_
