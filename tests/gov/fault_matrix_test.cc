// The fault matrix: every combination of (injection seed, governed query)
// must end in a well-formed outcome — a full answer, a degraded answer with a
// reason and a valid CI, or a clean error Status. Never a crash, never a
// hang, never a leaked byte of tracked memory. CI runs this suite under
// ASan/TSan across seeds (AQP_FAULT_SEED) to turn "should be robust" into a
// grid of checked facts.
#include <gtest/gtest.h>

#include "engine/executor.h"
#include "gov/fault_injector.h"
#include "gov/governed_executor.h"
#include "workload/datagen.h"
#include "workload/querygen.h"

namespace aqp {
namespace gov {
namespace {

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = workload::GenerateLineitemLike(40000, 17).value();
    ASSERT_TRUE(samples_.BuildUniform(catalog_, "lineitem", 4000, 5).ok());
  }

  GovernedOptions Options() const {
    GovernedOptions o;
    o.aqp.pilot_rate = 0.02;
    o.aqp.block_size = 64;
    o.aqp.min_table_rows = 1000;
    o.aqp.max_rate = 0.8;
    o.aqp.exec.num_threads = 4;
    return o;
  }

  std::vector<workload::QuerySpec> BenchQueries(size_t n) const {
    workload::QueryGenOptions qopt;
    qopt.table = "lineitem";
    qopt.numeric_columns = {"quantity", "extendedprice", "discount"};
    qopt.predicate_columns = {"quantity", "extendedprice"};
    qopt.group_by_columns = {"shipmode"};
    qopt.error_clause = "WITH ERROR 10% CONFIDENCE 90%";
    workload::QueryGenerator gen(*ReadTable(catalog_, "lineitem").value(), qopt);
    return gen.Generate(n, 29).value();
  }

  // One governed execution must either answer (valid CIs, no leak) or fail
  // with a clean governance/validation Status.
  static void ExpectWellFormed(const GovernedExecutor&,
                               const Result<core::ApproxResult>& r,
                               const std::string& sql) {
    if (r.ok()) {
      for (const auto& row : r->cis) {
        for (const stats::ConfidenceInterval& ci : row) {
          EXPECT_LE(ci.low, ci.estimate) << sql;
          EXPECT_GE(ci.high, ci.estimate) << sql;
        }
      }
      if (r->profile.degradation_rung > 0) {
        EXPECT_FALSE(r->profile.degraded_reason.empty()) << sql;
      }
      EXPECT_EQ(r->profile.memory_leaked_bytes, 0u) << sql;
    } else {
      const StatusCode code = r.status().code();
      EXPECT_TRUE(code == StatusCode::kResourceExhausted ||
                  code == StatusCode::kDeadlineExceeded ||
                  code == StatusCode::kCancelled ||
                  code == StatusCode::kInternal ||
                  code == StatusCode::kUnimplemented ||
                  code == StatusCode::kNotFound ||
                  code == StatusCode::kInvalidArgument)
          << sql << " -> " << r.status().ToString();
    }
  }

  Catalog catalog_;
  core::SampleCatalog samples_;
};

TEST_F(FaultMatrixTest, TenSeedsNeverCrashNorLeak) {
  std::vector<workload::QuerySpec> queries = BenchQueries(6);
  GovernedExecutor exec(&catalog_, &samples_, Options());
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ScopedFaultInjection arm(seed, 0.05);
    for (const workload::QuerySpec& q : queries) {
      ExpectWellFormed(exec, exec.Execute(q.sql), q.sql);
    }
  }
}

TEST_F(FaultMatrixTest, ZeroDeadlineOnBenchQueriesAlwaysWellFormed) {
  // The acceptance gate: deadline 0 on every bench query yields either a
  // degraded answer (reason + valid widened CI) or ResourceExhausted.
  ScopedFaultInjection quiet;
  GovernedOptions opts = Options();
  opts.deadline_ms = 0;
  GovernedExecutor exec(&catalog_, &samples_, opts);
  for (const workload::QuerySpec& q : BenchQueries(12)) {
    Result<core::ApproxResult> r = exec.Execute(q.sql);
    if (r.ok()) {
      EXPECT_GT(r->profile.degradation_rung, 0) << q.sql;
      EXPECT_FALSE(r->profile.degraded_reason.empty()) << q.sql;
    }
    ExpectWellFormed(exec, r, q.sql);
  }
}

TEST_F(FaultMatrixTest, ZeroDeadlineWithFaultsAndNoSamples) {
  // Hardest corner: expired deadline, faults armed, no rung-1 samples. OLA
  // (or exhaustion) must still produce a well-formed outcome for every query
  // and every seed.
  GovernedOptions opts = Options();
  opts.deadline_ms = 0;
  GovernedExecutor exec(&catalog_, /*samples=*/nullptr, opts);
  std::vector<workload::QuerySpec> queries = BenchQueries(4);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ScopedFaultInjection arm(seed, 0.2);
    for (const workload::QuerySpec& q : queries) {
      ExpectWellFormed(exec, exec.Execute(q.sql), q.sql);
    }
  }
}

TEST_F(FaultMatrixTest, HighFaultRateUnderParallelismCompletes) {
  // p = 0.5 across all sites with 4 threads: ladder outcomes vary by seed,
  // but nothing may deadlock the pool or corrupt partial state. Three
  // back-to-back rounds also prove the pool survives repeated injected
  // dispatch failures.
  std::vector<workload::QuerySpec> queries = BenchQueries(3);
  GovernedExecutor exec(&catalog_, &samples_, Options());
  for (int round = 0; round < 3; ++round) {
    ScopedFaultInjection arm(1000 + round, 0.5);
    for (const workload::QuerySpec& q : queries) {
      ExpectWellFormed(exec, exec.Execute(q.sql), q.sql);
    }
  }
}

TEST_F(FaultMatrixTest, InjectionScheduleIsReproducible) {
  // The whole point of the deterministic schedule: replaying a seed against
  // identical work yields the same injected-fault count. A fresh executor
  // per run keeps the work identical (the two-stage executor salts its
  // stage seeds with an invocation counter). Four threads: the pool consults
  // the pool.dispatch schedule once per requested helper, before capping
  // helpers at the free workers, so the hit count depends on the work only.
  GovernedOptions opts = Options();
  const std::string sql = BenchQueries(1)[0].sql;
  uint64_t first_injected = 0;
  {
    GovernedExecutor exec(&catalog_, &samples_, opts);
    ScopedFaultInjection arm(77, 0.3);
    (void)exec.Execute(sql);
    first_injected = FaultInjector::Global().injected();
  }
  {
    GovernedExecutor exec(&catalog_, &samples_, opts);
    ScopedFaultInjection arm(77, 0.3);
    (void)exec.Execute(sql);
    EXPECT_EQ(FaultInjector::Global().injected(), first_injected);
  }
}

}  // namespace
}  // namespace gov
}  // namespace aqp
