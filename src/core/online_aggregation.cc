#include "core/online_aggregation.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "expr/eval.h"
#include "expr/vector_eval.h"
#include "obs/metrics.h"

namespace aqp {
namespace core {

Result<OnlineAggregator> OnlineAggregator::Create(const Table& table,
                                                  ExprPtr measure,
                                                  ExprPtr predicate,
                                                  uint64_t seed,
                                                  ExecOptions exec) {
  if (measure == nullptr) {
    return Status::InvalidArgument("OLA requires a measure expression");
  }
  AQP_RETURN_IF_ERROR(CheckCancelled(exec.cancel));
  OnlineAggregator ola;
  ola.exec_ = exec;
  ola.profile_.executor = "online-aggregation";
  ola.profile_.approximated = true;
  obs::QueryTrace* tr = obs::Enabled() ? &ola.profile_.trace : nullptr;
  obs::TraceSpan init_span = obs::MaybeSpan(tr, "init(eval+shuffle)");
  ola.population_ = table.num_rows();
  AQP_ASSIGN_OR_RETURN(Column values, Eval(*measure, table));
  if (!IsNumeric(values.type())) {
    return Status::InvalidArgument("OLA measure must be numeric");
  }
  ola.values_.resize(table.num_rows());
  std::vector<uint8_t> nulls(table.num_rows(), 0);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (values.IsNull(i)) {
      nulls[i] = 1;
      ola.values_[i] = 0.0;
    } else {
      ola.values_[i] = values.NumericAt(i);
    }
  }
  ola.qualifies_.assign(table.num_rows(), 1);
  if (predicate != nullptr) {
    AQP_ASSIGN_OR_RETURN(
        std::vector<uint32_t> sel,
        EvalPredicateBatch(*predicate, table, exec.morsel_rows,
                           exec.UseMorsels(table.num_rows())
                               ? exec.ResolvedThreads()
                               : 1,
                           /*run_stats=*/nullptr, exec.cancel, exec.memory));
    std::fill(ola.qualifies_.begin(), ola.qualifies_.end(), 0);
    for (uint32_t i : sel) ola.qualifies_[i] = 1;
  }
  // NULL measures never contribute to SUM/AVG; fold into the mask for the
  // qualifying accumulator but keep COUNT semantics via a separate flag (a
  // row can qualify with a NULL measure; it counts but adds 0).
  for (size_t i = 0; i < nulls.size(); ++i) {
    if (nulls[i]) ola.values_[i] = 0.0;
  }
  Pcg32 rng(seed);
  ola.order_ = rng.Permutation(static_cast<uint32_t>(table.num_rows()));
  // The aggregator's working set (permutation + measures + mask) lives for
  // the whole OLA session; charge it against the query budget up front.
  const uint64_t working_set =
      ola.order_.capacity() * sizeof(uint32_t) +
      ola.values_.capacity() * sizeof(double) + ola.qualifies_.capacity();
  AQP_ASSIGN_OR_RETURN(
      ola.memory_charge_,
      ScopedMemoryCharge::Make(exec.memory, working_set, "ola working set"));
  init_span.AddAttr("rows", static_cast<uint64_t>(table.num_rows()));
  init_span.End();
  return ola;
}

OlaProgress OnlineAggregator::Step(size_t chunk_rows, double confidence) {
  // Batch-boundary cancellation point: a tripped token freezes the
  // aggregator — this Step consumes nothing and the returned progress simply
  // restates the current (still statistically valid) estimates. OLA's
  // partial answer IS its answer, so cancellation needs no unwinding.
  if (exec_.cancel != nullptr && exec_.cancel->IsCancelled()) {
    chunk_rows = 0;
  }
  ++steps_;
  if (obs::Enabled()) {
    static obs::Counter* steps = obs::MetricsRegistry::Global().GetCounter(
        "aqp_ola_steps_total");
    steps->Increment();
  }
  const size_t end = std::min(consumed_ + chunk_rows, order_.size());
  const size_t chunk = end - consumed_;
  if (exec_.UseMorsels(chunk)) {
    // Epoch fold: per-morsel partial accumulators over the chunk, merged in
    // morsel order into the shared state once per Step. Algorithm choice is
    // gated on chunk size only, so the estimates are identical for every
    // thread count.
    const size_t morsel_rows = exec_.morsel_rows;
    const size_t num_morsels = (chunk + morsel_rows - 1) / morsel_rows;
    struct Partial {
      stats::Accumulator acc;
      uint64_t qualifying = 0;
    };
    std::vector<Partial> partials(num_morsels);
    const size_t base = consumed_;
    // No in-flight cancellation inside an epoch: partials merged after a
    // skipped morsel would undercount, so the epoch runs to completion (it
    // is already bounded by chunk_rows) and the NEXT Step observes the token.
    ThreadPool::Shared().ParallelFor(
        chunk, morsel_rows, exec_.ResolvedThreads(),
        [&](size_t, size_t m, size_t begin, size_t mend) {
          Partial& p = partials[m];
          for (size_t k = begin; k < mend; ++k) {
            uint32_t row = order_[base + k];
            p.acc.Add(qualifies_[row] ? values_[row] : 0.0);
            if (qualifies_[row]) ++p.qualifying;
          }
        });
    for (const Partial& p : partials) {
      acc_.Merge(p.acc);
      qualifying_seen_ += p.qualifying;
    }
    consumed_ = end;
  } else {
    for (; consumed_ < end; ++consumed_) {
      uint32_t row = order_[consumed_];
      double contribution = qualifies_[row] ? values_[row] : 0.0;
      acc_.Add(contribution);
      if (qualifies_[row]) ++qualifying_seen_;
    }
  }

  OlaProgress progress;
  progress.rows_seen = consumed_;
  progress.fraction =
      population_ == 0
          ? 1.0
          : static_cast<double>(consumed_) / static_cast<double>(population_);
  progress.complete = consumed_ >= order_.size();

  const uint64_t n = acc_.count();
  const double big_n = static_cast<double>(population_);
  // SUM: N * mean(contribution), CLT CI with finite-population correction.
  stats::ConfidenceInterval mean_ci =
      stats::MeanCi(acc_.mean(), acc_.sample_variance(), n, confidence,
                    population_);
  progress.sum_ci.estimate = mean_ci.estimate * big_n;
  progress.sum_ci.low = mean_ci.low * big_n;
  progress.sum_ci.high = mean_ci.high * big_n;
  progress.sum_ci.confidence = confidence;

  // COUNT of qualifying rows: N * proportion, normal-approx CI with FPC.
  double q_hat =
      n == 0 ? 0.0
             : static_cast<double>(qualifying_seen_) / static_cast<double>(n);
  double prop_var = q_hat * (1.0 - q_hat);
  progress.count_ci =
      stats::MeanCi(q_hat, prop_var, n, confidence, population_);
  progress.count_ci.estimate *= big_n;
  progress.count_ci.low = std::max(0.0, progress.count_ci.low * big_n);
  progress.count_ci.high = progress.count_ci.high * big_n;

  // AVG over qualifying rows: ratio of the two estimates; delta-method-free
  // conservative interval from the SUM and COUNT bounds.
  if (progress.count_ci.estimate > 0.0) {
    progress.avg_ci.estimate =
        progress.sum_ci.estimate / progress.count_ci.estimate;
    double count_low = std::max(progress.count_ci.low, 1.0);
    progress.avg_ci.low = progress.sum_ci.low / progress.count_ci.high;
    progress.avg_ci.high = progress.sum_ci.high / count_low;
    if (progress.avg_ci.low > progress.avg_ci.high) {
      std::swap(progress.avg_ci.low, progress.avg_ci.high);
    }
    progress.avg_ci.confidence = confidence;
  }
  if (progress.complete) {
    // Fully consumed: estimates are exact.
    progress.sum_ci.low = progress.sum_ci.high = progress.sum_ci.estimate;
    progress.count_ci.low = progress.count_ci.high =
        progress.count_ci.estimate;
    progress.avg_ci.low = progress.avg_ci.high = progress.avg_ci.estimate;
  }
  return progress;
}

obs::ExecutionProfile OnlineAggregator::Profile() const {
  obs::ExecutionProfile profile = profile_;
  profile.rows_scanned = consumed_;
  profile.sampled_fraction =
      population_ == 0
          ? 1.0
          : static_cast<double>(consumed_) / static_cast<double>(population_);
  profile.approximated = consumed_ < order_.size();
  profile.total_seconds = profile.trace.ElapsedSeconds();
  obs::SpanRecord& root = profile.trace.mutable_root();
  root.attrs.emplace_back("steps", std::to_string(steps_));
  root.attrs.emplace_back("rows_seen", std::to_string(consumed_));
  profile.trace.Finish();
  return profile;
}

OlaProgress OnlineAggregator::RunToTarget(double target_relative_error,
                                          double confidence,
                                          size_t chunk_rows) {
  OlaProgress progress;
  do {
    progress = Step(chunk_rows, confidence);
    if (progress.sum_ci.estimate != 0.0 &&
        progress.sum_ci.relative_half_width() <= target_relative_error) {
      return progress;
    }
    // A tripped token makes Step a no-op; looping further would spin.
    if (exec_.cancel != nullptr && exec_.cancel->IsCancelled()) break;
  } while (!progress.complete);
  return progress;
}

}  // namespace core
}  // namespace aqp
