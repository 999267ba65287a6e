// E16 — vectorized batch execution vs row-at-a-time execution.
//
// Claim (survey §interactivity: constant factors decide whether sampling
// alone reaches interactive latency): the batch operators — mask-kernel
// filters over contiguous column spans, dictionary-coded string predicates,
// and one aggregation skeleton whose column-at-a-time kernels serve an
// ungrouped aggregate as its one-group case — must beat the row-at-a-time
// interpreter by a wide margin on every operator class, with the explicit
// AVX2 backend adding on top of the portable autovectorized loops where the
// host supports it.
//
// Measured per operator: rows/sec for (a) the scalar reference — the row
// evaluator EvalPredicate for the filters, and for the aggregates the
// single-threaded row-at-a-time oracle the differential suites use
// (tests/support/row_reference.h) — (b) the engine on the portable backend,
// (c) the engine on AVX2 (row repeated only when AVX2 is actually
// available). Each figure is the median of 5 windows of 0.2 s, the scalar
// and batch windows alternating, so one slow window on a shared host cannot
// decide the check. Asserted: median batch >= median scalar on every
// operator (the smoke contract CI runs); the table is written to
// BENCH_e16_vectorized.json with provenance.
//
// Env: AQP_E16_ROWS overrides the table size (CI smoke uses a small table).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "expr/eval.h"
#include "expr/vector_eval.h"
#include "storage/table.h"
#include "support/row_reference.h"

namespace aqp {
namespace {

size_t TableRows() {
  return bench::EnvSize("AQP_E16_ROWS", 2000000);
}

Table MakeTable(size_t rows) {
  Pcg32 rng(16);
  const char* vocab[] = {"air", "rail", "ship", "mail", "truck", "fob", "reg"};
  Table t(Schema({{"k", DataType::kInt64},
                  {"x", DataType::kDouble},
                  {"s", DataType::kString}}));
  for (size_t r = 0; r < rows; ++r) {
    Status s = t.AppendRow({Value(static_cast<int64_t>(rng.UniformUint32(100))),
                            Value(rng.Gaussian() * 10.0),
                            Value(std::string(vocab[rng.UniformUint32(7)]))});
    AQP_CHECK(s.ok());
  }
  return t;
}

// Runs `fn` until it has consumed >= 0.2s of wall clock (at least twice),
// returns rows/sec.
template <typename Fn>
double MeasureRps(size_t rows_per_iter, Fn&& fn) {
  bench::WallTimer timer;
  int iters = 0;
  do {
    fn();
    ++iters;
  } while (timer.Seconds() < 0.2 || iters < 2);
  return static_cast<double>(rows_per_iter) * iters / timer.Seconds();
}

struct OperatorCase {
  std::string name;
  // Scalar reference and batch bodies; batch runs once per backend.
  std::function<void()> scalar;
  std::function<void()> batch;
  size_t rows;
};

void Run() {
  const size_t rows = TableRows();
  bench::Banner(
      "E16: vectorized batch execution vs row-at-a-time",
      "Every batch operator must beat its scalar reference; AVX2 rides on "
      "top of the portable loops where the host supports it.");
  std::printf("table rows: %zu, avx2 available: %s\n\n", rows,
              simd::Avx2Available() ? "yes" : "no");

  Table table = MakeTable(rows);
  Catalog catalog;
  AQP_CHECK(
      catalog.Register("t", std::make_shared<Table>(std::move(table))).ok());
  const Table& t = *ReadTable(catalog, "t").value();

  // Predicates per filter class.
  ExprPtr f64_pred = Lt(Col("x"), Lit(2.5));
  ExprPtr str_pred = Eq(Col("s"), Lit("mail"));
  ExprPtr compound_pred =
      And(Lt(Col("x"), Lit(8.0)),
          Between(Col("k"), Lit(int64_t{10}), Lit(int64_t{70})));
  ExprPtr in_pred = In(Col("s"), {Value(std::string("air")),
                                  Value(std::string("rail")),
                                  Value(std::string("fob"))});

  // Aggregate plans (filter feeds aggregate so the whole pipeline runs).
  std::vector<AggSpec> global_aggs;
  global_aggs.push_back({AggKind::kSum, Col("x"), "s"});
  global_aggs.push_back({AggKind::kCountStar, nullptr, "n"});
  global_aggs.push_back({AggKind::kAvg, Col("x"), "a"});
  global_aggs.push_back({AggKind::kMin, Col("x"), "lo"});
  global_aggs.push_back({AggKind::kMax, Col("x"), "hi"});
  PlanPtr global_plan =
      PlanNode::Aggregate(PlanNode::Scan("t"), {}, {}, global_aggs);
  std::vector<AggSpec> grouped_aggs;
  grouped_aggs.push_back({AggKind::kSum, Col("x"), "s"});
  grouped_aggs.push_back({AggKind::kCountStar, nullptr, "n"});
  PlanPtr grouped_plan = PlanNode::Aggregate(
      PlanNode::Scan("t"), {Col("k")}, {"k"}, grouped_aggs);
  PlanPtr pipeline_plan = PlanNode::Aggregate(
      PlanNode::Filter(PlanNode::Scan("t"), compound_pred), {}, {},
      global_aggs);

  auto eval_scalar = [&](const ExprPtr& p) {
    return [&t, p] { AQP_CHECK(EvalPredicate(*p, t).ok()); };
  };
  auto eval_batch = [&](const ExprPtr& p) {
    return [&t, p] { AQP_CHECK(EvalPredicateBatch(*p, t, 4096, 1).ok()); };
  };
  auto exec_oracle = [&](const PlanPtr& plan) {
    return [&catalog, plan] {
      AQP_CHECK(testutil::ExecuteRowReference(plan, catalog).ok());
    };
  };
  auto exec_engine = [&](const PlanPtr& plan) {
    return [&catalog, plan] {
      AQP_CHECK(Execute(plan, catalog).ok());
    };
  };

  std::vector<OperatorCase> cases;
  cases.push_back({"filter f64 <", eval_scalar(f64_pred),
                   eval_batch(f64_pred), rows});
  cases.push_back({"filter dict str =", eval_scalar(str_pred),
                   eval_batch(str_pred), rows});
  cases.push_back({"filter AND+BETWEEN", eval_scalar(compound_pred),
                   eval_batch(compound_pred), rows});
  cases.push_back({"filter str IN", eval_scalar(in_pred), eval_batch(in_pred),
                   rows});
  cases.push_back({"agg global (5 aggs)", exec_oracle(global_plan),
                   exec_engine(global_plan), rows});
  cases.push_back({"agg group-by k", exec_oracle(grouped_plan),
                   exec_engine(grouped_plan), rows});
  cases.push_back({"filter+agg pipeline", exec_oracle(pipeline_plan),
                   exec_engine(pipeline_plan), rows});

  // Backends measured per operator: the scalar reference, then the batch
  // path on the portable loops and, where the host has it, on AVX2.
  std::vector<std::pair<std::string, simd::Backend>> batch_backends = {
      {"batch-portable", simd::Backend::kScalar}};
  if (simd::Avx2Available()) {
    batch_backends.push_back({"batch-avx2", simd::Backend::kAvx2});
  }
  constexpr int kWindows = 5;
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };

  bench::TablePrinter out({"operator", "backend", "rows/sec", "speedup"});
  bool all_batch_wins = true;
  for (const OperatorCase& c : cases) {
    // Warmup (dictionaries, caches), then kWindows rounds, each one window
    // of the scalar reference followed by one of every batch backend.
    c.scalar();
    c.batch();
    std::vector<double> scalar_windows;
    std::vector<std::vector<double>> batch_windows(batch_backends.size());
    for (int w = 0; w < kWindows; ++w) {
      scalar_windows.push_back(MeasureRps(c.rows, c.scalar));
      for (size_t b = 0; b < batch_backends.size(); ++b) {
        simd::SetBackendForTest(batch_backends[b].second);
        batch_windows[b].push_back(MeasureRps(c.rows, c.batch));
      }
    }
    const double scalar_rps = median(scalar_windows);
    out.AddRow({c.name, "scalar", bench::FmtSci(scalar_rps), "1.00"});
    double best_batch = 0.0;
    for (size_t b = 0; b < batch_backends.size(); ++b) {
      const double rps = median(batch_windows[b]);
      out.AddRow({c.name, batch_backends[b].first, bench::FmtSci(rps),
                  bench::Fmt(rps / scalar_rps, 2)});
      best_batch = std::max(best_batch, rps);
    }
    if (best_batch < scalar_rps) {
      all_batch_wins = false;
      std::fprintf(stderr, "FAIL: %s batch %.3g rows/s < scalar %.3g rows/s\n",
                   c.name.c_str(), best_batch, scalar_rps);
    }
  }
  // Restore the default dispatch decision for anything running after us.
  simd::SetBackendForTest(simd::Avx2Available() ? simd::Backend::kAvx2
                                                : simd::Backend::kScalar);
  out.Print();

  bench::WriteBenchJson("e16_vectorized", out, rows);

  // The smoke contract: the batch path never loses to the scalar reference.
  AQP_CHECK(all_batch_wins) << "batch path lost to scalar on some operator";
  std::printf("\nShape check: batch >= scalar on all %zu operators.\n",
              cases.size());
}

}  // namespace
}  // namespace aqp

int main() {
  aqp::Run();
  return 0;
}
