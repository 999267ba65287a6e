#include "core/sample_planner.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/metrics.h"
#include "stats/distributions.h"

namespace aqp {
namespace core {
namespace {

// Counts every planning decision so operators can watch the
// feasible/infeasible ratio (the contract-decline rate) drift with the
// workload.
void RecordPlanOutcome(const SamplingPlan& plan) {
  if (!obs::Enabled()) return;
  static obs::Counter* feasible = obs::MetricsRegistry::Global().GetCounter(
      "aqp_plans_feasible_total");
  static obs::Counter* infeasible = obs::MetricsRegistry::Global().GetCounter(
      "aqp_plans_infeasible_total");
  (plan.feasible ? feasible : infeasible)->Increment();
}

}  // namespace

SamplingPlan PlanSamplingRate(const PlanningInputs& inputs) {
  AQP_CHECK(inputs.pilot != nullptr);
  AQP_CHECK(inputs.pilot_rate > 0.0 && inputs.pilot_rate < 1.0);
  SamplingPlan plan;

  const double p = inputs.pilot_rate;
  const double eps = inputs.target.relative_error;
  const double z = stats::NormalQuantile(
      1.0 - (1.0 - inputs.target.confidence) / 2.0);
  // Variance at rate r relates to the pilot's variance estimate by the
  // Bernoulli design factor (1-r)/r; pilot factor is (1-p)/p.
  const double pilot_factor = (1.0 - p) / p;
  if (pilot_factor <= 0.0) {
    plan.reason = "degenerate pilot rate";
    RecordPlanOutcome(plan);
    return plan;
  }

  double worst = 0.0;
  size_t usable = 0;
  for (const auto& per_group : inputs.pilot->estimates) {
    for (const PointEstimate& pe : per_group) {
      if (pe.estimate == 0.0) continue;  // Empty group: coverage logic owns it.
      ++usable;
      // S2 (design-free dispersion) implied by the pilot variance.
      double s2 = pe.variance / pilot_factor;
      if (s2 <= 0.0) continue;  // Pilot saw no dispersion: any rate works.
      double tol = eps * std::fabs(pe.estimate);
      // Solve ((1-r)/r) * s2 * z^2 <= tol^2   =>   r >= 1/(1 + tol^2/(z^2 s2)).
      double required = 1.0 / (1.0 + tol * tol / (z * z * s2));
      worst = std::max(worst, required);
    }
  }
  if (usable == 0) {
    plan.reason = "pilot produced no usable estimates (all-zero aggregates)";
    RecordPlanOutcome(plan);
    return plan;
  }

  plan.worst_required_rate = worst;
  double rate = std::min(1.0, worst * inputs.safety_factor);
  rate = std::max(rate, 1e-6);
  // CLT floor: guarantee an expected minimum number of sampling units — a
  // variance formula is only as good as the units that feed it.
  if (inputs.population_units > 0) {
    double floor_rate = static_cast<double>(inputs.min_units) /
                        static_cast<double>(inputs.population_units);
    rate = std::max(rate, std::min(1.0, floor_rate));
  }
  if (rate > inputs.max_rate) {
    plan.reason = "required rate " + std::to_string(rate) +
                  " exceeds max feasible rate " +
                  std::to_string(inputs.max_rate) +
                  "; exact execution is cheaper";
    plan.rate = rate;
    RecordPlanOutcome(plan);
    return plan;
  }
  plan.feasible = true;
  plan.rate = rate;
  RecordPlanOutcome(plan);
  return plan;
}

}  // namespace core
}  // namespace aqp
