// Microbenchmarks (google-benchmark): per-element throughput of sketches,
// samplers, expression evaluation, core operators, and extent chunk decode.

#include <benchmark/benchmark.h>

#include "common/check.h"
#include "common/crc32.h"
#include "common/random.h"
#include "core/drift_baseline.h"
#include "engine/executor.h"
#include "expr/eval.h"
#include "sampling/bernoulli.h"
#include "sampling/block.h"
#include "sampling/reservoir.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/hyperloglog.h"
#include "sketch/kll.h"
#include "sketch/misra_gries.h"
#include "storage/extent/codec.h"
#include "workload/datagen.h"

namespace aqp {
namespace {

// --- Sketch updates --------------------------------------------------------

void BM_HllAdd(benchmark::State& state) {
  sketch::HyperLogLog hll = sketch::HyperLogLog::Create(14).value();
  uint64_t k = 0;
  for (auto _ : state) {
    hll.Add(k++ * 0x9e3779b97f4a7c15ULL);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HllAdd);

void BM_CountMinAdd(benchmark::State& state) {
  sketch::CountMinSketch cms(4, 4096);
  uint64_t k = 0;
  for (auto _ : state) {
    cms.Add(k++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinAdd);

void BM_BloomAdd(benchmark::State& state) {
  sketch::BloomFilter bloom(1 << 20, 7);
  uint64_t k = 0;
  for (auto _ : state) {
    bloom.Add(k++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomAdd);

void BM_KllAdd(benchmark::State& state) {
  sketch::KllSketch kll(200, 1);
  Pcg32 rng(3);
  for (auto _ : state) {
    kll.Add(rng.NextDouble());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KllAdd);

void BM_MisraGriesAdd(benchmark::State& state) {
  sketch::MisraGries mg(64);
  Pcg32 rng(3);
  ZipfGenerator zipf(100000, 1.1);
  for (auto _ : state) {
    mg.Add(zipf.Next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MisraGriesAdd);

// --- Samplers ---------------------------------------------------------------

Table BenchTable(size_t rows) {
  workload::ColumnSpec spec;
  spec.name = "x";
  spec.dist = workload::ColumnSpec::Dist::kExponential;
  return workload::GenerateTable({spec}, rows, 3).value();
}

void BM_BernoulliSample(benchmark::State& state) {
  Table t = BenchTable(1 << 20);
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BernoulliRowSample(t, 0.01, seed++));
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_BernoulliSample);

void BM_BlockSample(benchmark::State& state) {
  Table t = BenchTable(1 << 20);
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BlockSample(t, 0.01, 1024, seed++));
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_BlockSample);

void BM_ReservoirSample(benchmark::State& state) {
  Table t = BenchTable(1 << 20);
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReservoirSample(t, 10000, seed++));
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_ReservoirSample);

// --- Expression evaluation and operators -----------------------------------

void BM_EvalPredicate(benchmark::State& state) {
  Table t = BenchTable(1 << 20);
  ExprPtr pred = And(Gt(Col("x"), Lit(0.5)), Lt(Col("x"), Lit(2.0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvalPredicate(*pred, t));
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_EvalPredicate);

// 2^19 rows: a Zipf(0.8) INT64 key "g" over 1000 values and an exponential
// double "x".
Table GroupByTable() {
  workload::ColumnSpec group;
  group.name = "g";
  group.dist = workload::ColumnSpec::Dist::kZipfInt;
  group.cardinality = 1000;
  group.zipf_s = 0.8;
  workload::ColumnSpec measure;
  measure.name = "x";
  measure.dist = workload::ColumnSpec::Dist::kExponential;
  return workload::GenerateTable({group, measure}, 1 << 19, 5).value();
}

void BM_HashGroupBy(benchmark::State& state) {
  Table t = GroupByTable();
  for (auto _ : state) {
    benchmark::DoNotOptimize(GroupByAggregate(
        t, {Col("g")}, {"g"}, {{AggKind::kSum, Col("x"), "s"}}));
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_HashGroupBy);

// SUM + COUNT(*) + MIN without group keys over the same table. Arg 0 runs
// serially as one morsel; arg n > 0 runs default-sized morsels on n threads.
void BM_GlobalAggregate(benchmark::State& state) {
  Table t = GroupByTable();
  ExecOptions exec;
  exec.num_threads = static_cast<size_t>(state.range(0));
  AggregateOptions options;
  if (state.range(0) > 0) options.exec = &exec;
  const std::vector<AggSpec> aggs = {{AggKind::kSum, Col("x"), "s"},
                                     {AggKind::kCountStar, nullptr, "n"},
                                     {AggKind::kMin, Col("x"), "mn"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(GroupByAggregate(t, {}, {}, aggs, options));
  }
  state.SetItemsProcessed(state.iterations() * t.num_rows());
}
BENCHMARK(BM_GlobalAggregate)->Arg(0)->Arg(4);

void BM_HashJoin(benchmark::State& state) {
  Catalog cat;
  {
    workload::StarSchemaSpec spec;
    spec.fact_rows = 1 << 18;
    spec.dim_sizes = {1000};
    cat = workload::GenerateStarSchema(spec, 3).value();
  }
  PlanPtr plan = PlanNode::Join(PlanNode::Scan("fact"), PlanNode::Scan("dim_0"),
                                JoinType::kInner, {"fk_0"}, {"pk"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(Execute(plan, cat));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 18));
}
BENCHMARK(BM_HashJoin);

// A 1M-row table "t": a double measure "m", "sel" uniform over [0, 1000)
// and "g10" uniform over [0, 10).
Catalog SampledAggregateCatalog() {
  constexpr size_t kRows = 1 << 20;
  Pcg32 rng(11);
  std::vector<double> m(kRows);
  std::vector<int64_t> sel(kRows);
  std::vector<int64_t> g10(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    m[i] = rng.NextDouble() * 100.0;
    sel[i] = rng.UniformUint32(1000);
    g10[i] = rng.UniformUint32(10);
  }
  Catalog cat;
  auto t = std::make_shared<Table>(
      Table::Make(Schema({{"m", DataType::kDouble},
                          {"sel", DataType::kInt64},
                          {"g10", DataType::kInt64}}),
                  {Column::FromDouble(std::move(m)),
                   Column::FromInt64(std::move(sel)),
                   Column::FromInt64(std::move(g10))})
          .value());
  AQP_CHECK(cat.Register("t", std::move(t)).ok());
  return cat;
}

// SUM(m) + COUNT(*) over "t" sampled with TABLESAMPLE SYSTEM (1024-row
// blocks) at range(1) per mille — 1000 is the exact scan — in three shapes:
// range(0) = 0 unfiltered, 1 WHERE sel < 300, 2 GROUP BY g10. Times
// aqp::Execute at 4 threads on plans built up front, one per draw seed, so
// parse and bind are excluded and each run takes a fresh draw.
void BM_SampledAggregate(benchmark::State& state) {
  static const Catalog cat = SampledAggregateCatalog();
  std::vector<PlanPtr> plans;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    SampleSpec spec;
    spec.rate = static_cast<double>(state.range(1)) / 1000.0;
    if (spec.rate < 1.0) spec.method = SampleSpec::Method::kSystemBlock;
    spec.seed = seed;
    spec.block_size = 1024;
    PlanPtr input = PlanNode::Scan("t", spec);
    if (state.range(0) == 1) {
      input = PlanNode::Filter(input, Lt(Col("sel"), Lit(int64_t{300})));
    }
    std::vector<ExprPtr> keys;
    std::vector<std::string> names;
    if (state.range(0) == 2) {
      keys.push_back(Col("g10"));
      names.push_back("g10");
    }
    plans.push_back(PlanNode::Aggregate(
        input, keys, names,
        {{AggKind::kSum, Col("m"), "s"}, {AggKind::kCountStar, nullptr, "n"}}));
  }
  ExecOptions options;
  options.num_threads = 4;
  size_t next = 0;
  for (auto _ : state) {
    Result<Table> out =
        Execute(plans[next++ % plans.size()], cat, nullptr, nullptr, options);
    AQP_CHECK(out.ok());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SampledAggregate)
    ->ArgsProduct({{0, 1, 2}, {1000, 30, 100, 300, 600}})
    ->Unit(benchmark::kMillisecond);

// --- Drift baseline ---------------------------------------------------------

// A drift baseline over a 1M-row, 6-column table shaped like perfbench's
// fact: g10, g1k, sel and fk (1000 values) are below ColumnStats::kMaxValues
// distinct values, g100k (uniform over [0, 100000)) and m (exponential,
// mean 100) are above it.
void BM_DriftBaseline(benchmark::State& state) {
  constexpr size_t kRows = 1 << 20;
  Pcg32 rng(5);
  std::vector<int64_t> g10(kRows), g1k(kRows), g100k(kRows), sel(kRows),
      fk(kRows);
  std::vector<double> m(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    g10[i] = rng.UniformUint32(10);
    g1k[i] = rng.UniformUint32(1000);
    g100k[i] = rng.UniformUint32(100000);
    sel[i] = rng.UniformUint32(1000);
    fk[i] = rng.UniformUint32(1000);
    m[i] = rng.Exponential(0.01);
  }
  const Table table =
      Table::Make(Schema({{"g10", DataType::kInt64},
                          {"g1k", DataType::kInt64},
                          {"g100k", DataType::kInt64},
                          {"sel", DataType::kInt64},
                          {"fk", DataType::kInt64},
                          {"m", DataType::kDouble}}),
                  {Column::FromInt64(std::move(g10)),
                   Column::FromInt64(std::move(g1k)),
                   Column::FromInt64(std::move(g100k)),
                   Column::FromInt64(std::move(sel)),
                   Column::FromInt64(std::move(fk)),
                   Column::FromDouble(std::move(m))})
          .value();
  for (auto _ : state) {
    auto baseline = core::BuildDriftBaseline(table, "fact", 1);
    AQP_CHECK(baseline.ok());
    benchmark::DoNotOptimize(baseline);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_DriftBaseline)->Unit(benchmark::kMillisecond);

// --- Extent chunk decode (docs/STORAGE.md §4) ------------------------------
// Per-value cost of DecodeChunk, CRC included, on one extent-sized chunk:
// items/s is values decoded, bytes/s is encoded chunk bytes read.

enum class ChunkCase { kPlainInt64, kPlainDouble, kDelta1B, kDelta2B, kDict };

void BM_DecodeChunk(benchmark::State& state, ChunkCase which) {
  const size_t rows = extent::kDefaultExtentRows;
  Pcg32 rng(17);
  DataType type = DataType::kInt64;
  extent::CodecChoice codec = extent::CodecChoice::kDelta;
  Column col(type);
  switch (which) {
    case ChunkCase::kPlainInt64:
      codec = extent::CodecChoice::kPlain;
      for (size_t i = 0; i < rows; ++i) {
        col.AppendInt64(static_cast<int64_t>(rng.NextUint64()));
      }
      break;
    case ChunkCase::kPlainDouble:
      type = DataType::kDouble;
      codec = extent::CodecChoice::kPlain;
      col = Column(type);
      for (size_t i = 0; i < rows; ++i) col.AppendDouble(rng.NextDouble());
      break;
    case ChunkCase::kDelta1B:  // Zigzag deltas below 128: 1-byte varints.
      for (size_t i = 0; i < rows; ++i) {
        col.AppendInt64(static_cast<int64_t>(i) * 3);
      }
      break;
    case ChunkCase::kDelta2B: {  // Zigzag deltas in [128, 16384): 2 bytes.
      int64_t v = 0;
      for (size_t i = 0; i < rows; ++i) {
        v += 64 + static_cast<int64_t>(rng.UniformUint32(4000));
        col.AppendInt64(v);
      }
      break;
    }
    case ChunkCase::kDict:
      type = DataType::kString;
      codec = extent::CodecChoice::kDict;
      col = Column(type);
      for (size_t i = 0; i < rows; ++i) {
        col.AppendString("category_" +
                         std::to_string(rng.UniformUint32(100)));
      }
      break;
  }
  const extent::EncodedChunk chunk = extent::EncodeChunk(col, 0, rows, codec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extent::DecodeChunk(
        chunk.bytes, type, static_cast<uint32_t>(rows)));
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetBytesProcessed(state.iterations() * chunk.bytes.size());
}
BENCHMARK_CAPTURE(BM_DecodeChunk, plain_int64, ChunkCase::kPlainInt64);
BENCHMARK_CAPTURE(BM_DecodeChunk, plain_double, ChunkCase::kPlainDouble);
BENCHMARK_CAPTURE(BM_DecodeChunk, delta_int64_1B, ChunkCase::kDelta1B);
BENCHMARK_CAPTURE(BM_DecodeChunk, delta_int64_2B, ChunkCase::kDelta2B);
BENCHMARK_CAPTURE(BM_DecodeChunk, dict_string, ChunkCase::kDict);

void BM_Crc32(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), '\0');
  Pcg32 rng(5);
  for (char& c : data) c = static_cast<char>(rng.NextUint32());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data.data(), data.size()));
  }
  state.SetItemsProcessed(state.iterations() * data.size());
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(1 << 20);

}  // namespace
}  // namespace aqp

BENCHMARK_MAIN();
