// Pricing a contract from column statistics: pilots sized from the
// least-spread group-key value, and contracts declined before the pilot
// when the statistics predict a final rate far beyond max_rate.

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/approx_executor.h"
#include "core/missing_groups.h"
#include "sql/binder.h"

namespace aqp {
namespace core {
namespace {

constexpr size_t kRows = 128000;
constexpr uint32_t kBlock = 128;  // 1000 blocks; the floor rate is 0.03.

AqpOptions Options() {
  AqpOptions opt;
  opt.block_size = kBlock;
  opt.min_table_rows = 1000;
  opt.exec.num_threads = 2;
  return opt;
}

// fact(k, u, m): k from `key(i, rng)`, u uniform over 0..999, m a positive
// measure. dim(pk, band): band = pk % 10.
Catalog MakeCatalog(const std::function<int64_t(size_t, Pcg32&)>& key) {
  Pcg32 rng(17);
  std::vector<int64_t> k(kRows), u(kRows);
  std::vector<double> m(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    k[i] = key(i, rng);
    u[i] = static_cast<int64_t>(rng.UniformUint32(1000));
    m[i] = 1.0 + rng.NextDouble();
  }
  Catalog cat;
  Table fact = Table::Make(Schema({{"k", DataType::kInt64},
                                   {"u", DataType::kInt64},
                                   {"m", DataType::kDouble}}),
                           {Column::FromInt64(std::move(k)),
                            Column::FromInt64(std::move(u)),
                            Column::FromDouble(std::move(m))})
                   .value();
  EXPECT_TRUE(
      cat.Register("fact", std::make_shared<Table>(std::move(fact))).ok());
  std::vector<int64_t> pk(1000), band(1000);
  for (int64_t i = 0; i < 1000; ++i) {
    pk[i] = i;
    band[i] = i % 10;
  }
  Table dim = Table::Make(Schema({{"pk", DataType::kInt64},
                                  {"band", DataType::kInt64}}),
                          {Column::FromInt64(std::move(pk)),
                           Column::FromInt64(std::move(band))})
                  .value();
  EXPECT_TRUE(
      cat.Register("dim", std::make_shared<Table>(std::move(dim))).ok());
  return cat;
}

int64_t Uniform10(size_t, Pcg32& rng) { return rng.UniformUint32(10); }
int64_t Uniform1k(size_t, Pcg32& rng) { return rng.UniformUint32(1000); }

// `sql` with a 10% / 95% contract.
std::string Contract(const std::string& sql) {
  return sql + " WITH ERROR 10% CONFIDENCE 95%";
}

ContractPrice Price(const Catalog& cat, const std::string& sql,
                    const AqpOptions& opt = Options()) {
  sql::PreparedQuery q = sql::Prepare(Contract(sql), cat).value();
  StageTarget target = PickStageTarget(cat, q.bound, opt).value();
  return PriceContract(cat, q, target, opt, nullptr).value();
}
const double kFloor = 30.0 / 1000.0;
const double kWorstCase = 0.5;

TEST(ContractPricingTest, UniformKeysGetTheFloorPilot) {
  Catalog cat = MakeCatalog(Uniform10);
  ContractPrice p =
      Price(cat, "SELECT k, SUM(m) AS s FROM fact WHERE u < 600 GROUP BY k");
  EXPECT_DOUBLE_EQ(p.pilot_rate, kFloor);
  EXPECT_EQ(p.pilot_basis, "floor");
  // 10 groups of ~7680 qualifying rows: about 0.09 for 10% at 99.5%.
  EXPECT_TRUE(p.priced);
  EXPECT_GT(p.predicted_rate, 0.05);
  EXPECT_LT(p.predicted_rate, 0.2);
}

TEST(ContractPricingTest, SmallGroupInOneBlockKeepsTheWorstCasePilot) {
  // Ten uniform groups plus a 100-row group packed into block 100.
  Catalog cat = MakeCatalog([](size_t i, Pcg32& rng) -> int64_t {
    const int64_t g = rng.UniformUint32(10);
    return i >= 100 * kBlock && i < 100 * kBlock + 100 ? 10 : g;
  });
  ContractPrice p =
      Price(cat, "SELECT k, COUNT(*) AS n FROM fact GROUP BY k");
  EXPECT_DOUBLE_EQ(p.pilot_rate, kWorstCase);
  EXPECT_EQ(p.pilot_basis,
            "least-spread value 10 of fact.k (rows 100, blocks 1)");
  // The same rate the worst-case rule gives without statistics.
  EXPECT_DOUBLE_EQ(std::min(0.5, BlockRateForGroupCoverage(100, kBlock, 0.05)),
                   kWorstCase);
}

TEST(ContractPricingTest, PredicateOnTheKeyKeepsTheWorstCasePilot) {
  // As above: all 100 rows of group 10 pass `k IN (3, 10)`, though the
  // predicate keeps about a tenth of the table.
  Catalog cat = MakeCatalog([](size_t i, Pcg32& rng) -> int64_t {
    const int64_t g = rng.UniformUint32(10);
    return i >= 100 * kBlock && i < 100 * kBlock + 100 ? 10 : g;
  });
  ContractPrice p = Price(
      cat, "SELECT k, COUNT(*) AS n FROM fact WHERE k IN (3, 10) GROUP BY k");
  EXPECT_DOUBLE_EQ(p.pilot_rate, kWorstCase);
  EXPECT_EQ(p.pilot_basis, "no statistics: predicate on fact.k");
  EXPECT_FALSE(p.priced);
  // Likewise a predicate on the near-side join column a far-side key is
  // sized by.
  ContractPrice far = Price(
      cat,
      "SELECT d.band, COUNT(*) AS n FROM fact AS f JOIN dim AS d "
      "ON f.k = d.pk WHERE f.k < 5 GROUP BY d.band");
  EXPECT_DOUBLE_EQ(far.pilot_rate, kWorstCase);
  EXPECT_EQ(far.pilot_basis, "no statistics: predicate on f.k");
}

TEST(ContractPricingTest, PredicateOffTheSampledTableIsNotPriced) {
  // fk 0..9 fill 90% of fact; band = pk % 10, so `d.band = 3` keeps 10% of
  // dim's rows but under 1% of fact's.
  Catalog cat = MakeCatalog([](size_t, Pcg32& rng) -> int64_t {
    return rng.UniformUint32(10) != 0 ? rng.UniformUint32(10)
                                      : rng.UniformUint32(1000);
  });
  const std::string from =
      " FROM fact AS f JOIN dim AS d ON f.k = d.pk WHERE d.band = 3";
  ContractPrice count = Price(cat, "SELECT COUNT(*) AS n" + from);
  EXPECT_EQ(count.pilot_basis, "no statistics: predicate");
  EXPECT_DOUBLE_EQ(count.pilot_rate, kFloor);
  EXPECT_FALSE(count.priced);
  ContractPrice grouped =
      Price(cat, "SELECT d.band, SUM(f.m) AS s" + from + " GROUP BY d.band");
  EXPECT_DOUBLE_EQ(grouped.pilot_rate, kWorstCase);
  EXPECT_FALSE(grouped.priced);
}

TEST(ContractPricingTest, FarSideKeyIsSizedByTheNearSideJoinColumn) {
  // fk value 7 fills blocks 10..19 and nothing else: 1280 rows in 10 blocks.
  Catalog cat = MakeCatalog([](size_t i, Pcg32& rng) -> int64_t {
    if (i >= 10 * kBlock && i < 20 * kBlock) return 7;
    const int64_t fk = rng.UniformUint32(999);
    return fk >= 7 ? fk + 1 : fk;
  });
  const std::string join =
      "SELECT d.band, SUM(f.m) AS s FROM fact AS f JOIN dim AS d "
      "ON f.k = d.pk WHERE f.u < 700 GROUP BY d.band";
  ContractPrice far = Price(cat, join);
  // Ten full blocks, each holding a kept row w.p. 1 - 0.3^128.
  const double ten_blocks = 1.0 - std::pow(0.05, 1.0 / 10.0);
  EXPECT_NEAR(far.pilot_rate, ten_blocks / (1.0 - std::pow(0.3, kBlock)),
              1e-12);
  EXPECT_EQ(far.pilot_basis,
            "least-spread value 7 of f.k (rows 1280, blocks 10)");
  EXPECT_FALSE(far.priced) << "a far-side group is a union of near values";
  // The near-side key itself is sized the same way.
  ContractPrice near =
      Price(cat, "SELECT k, SUM(m) AS s FROM fact WHERE u < 700 GROUP BY k");
  EXPECT_DOUBLE_EQ(near.pilot_rate, far.pilot_rate);
}

TEST(ContractPricingTest, KeysWithoutStatisticsKeepTheWorstCasePilot) {
  Catalog cat = MakeCatalog(Uniform10);
  for (const char* sql :
       {"SELECT k % 3 AS g, SUM(m) AS s FROM fact GROUP BY k % 3",
        "SELECT k, u, SUM(m) AS s FROM fact GROUP BY k, u",
        "SELECT k, SUM(m) AS s FROM fact WHERE m > 1.5 GROUP BY k"}) {
    ContractPrice p = Price(cat, sql);
    EXPECT_DOUBLE_EQ(p.pilot_rate, kWorstCase) << sql;
    EXPECT_EQ(p.pilot_basis.rfind("no statistics", 0), 0u) << p.pilot_basis;
    EXPECT_FALSE(p.priced) << sql;
  }
  // m has over 4096 distinct values.
  ContractPrice p = Price(cat, "SELECT m, COUNT(*) AS n FROM fact GROUP BY m");
  EXPECT_DOUBLE_EQ(p.pilot_rate, kWorstCase);
  EXPECT_NE(p.pilot_basis.find("over 4096 values"), std::string::npos);
}

TEST(ContractPricingTest, ThousandKeyContractIsDeclinedBeforeThePilot) {
  Catalog cat = MakeCatalog(Uniform1k);
  const std::string sql =
      "SELECT k, SUM(m) AS s, COUNT(*) AS n FROM fact WHERE u < 900 GROUP BY k";
  ContractPrice p = Price(cat, sql);
  ASSERT_TRUE(p.priced);
  EXPECT_GT(p.predicted_rate, 0.5);
  ApproxExecutor exec(&cat, Options());
  ApproxResult r = exec.Execute(Contract(sql)).value();
  EXPECT_FALSE(r.approximated);
  EXPECT_EQ(r.profile.fallback_reason.rfind("priced out before pilot", 0), 0u)
      << r.profile.fallback_reason;
  EXPECT_EQ(r.profile.pilot_rate, 0.0);
  EXPECT_EQ(r.profile.pilot_seconds, 0.0);
  // Declined, yet exact.
  Table exact = sql::ExecuteSql(sql, cat).value();
  EXPECT_EQ(r.table.num_rows(), exact.num_rows());
}

TEST(ContractPricingTest, RoundRobinCountIsNotPricedOut) {
  Catalog cat = MakeCatalog([](size_t i, Pcg32&) -> int64_t { return i % 10; });
  const std::string sql = "SELECT k, COUNT(*) AS n FROM fact GROUP BY k";
  ContractPrice p = Price(cat, sql);
  ASSERT_TRUE(p.priced);
  EXPECT_LT(p.predicted_rate, 1e-3);
  EXPECT_DOUBLE_EQ(p.pilot_rate, kFloor);
  ApproxExecutor exec(&cat, Options());
  EXPECT_TRUE(exec.Execute(Contract(sql)).value().approximated);
}

TEST(ContractPricingTest, AvgOnlyIsNeverPricedOut) {
  Catalog cat = MakeCatalog(Uniform1k);
  const std::string sql = "SELECT k, AVG(m) AS a FROM fact GROUP BY k";
  ContractPrice p = Price(cat, sql);
  EXPECT_FALSE(p.priced);
  ApproxExecutor exec(&cat, Options());
  ApproxResult r = exec.Execute(Contract(sql)).value();
  EXPECT_GT(r.profile.pilot_rate, 0.0) << "the pilot decides";
  EXPECT_EQ(r.profile.fallback_reason.find("priced out"), std::string::npos);
}

TEST(ContractPricingTest, SelectivePredicatePricesTheUngroupedCount) {
  Catalog cat = MakeCatalog(Uniform10);
  // u < 1 keeps ~128 rows: far too few for 10% from a 20% sample.
  ContractPrice rare = Price(cat, "SELECT COUNT(*) AS n FROM fact WHERE u < 1");
  ASSERT_TRUE(rare.priced);
  EXPECT_GT(rare.predicted_rate, 0.2);
  EXPECT_EQ(rare.pilot_basis, "floor");
  ContractPrice wide = Price(
      cat, "SELECT COUNT(*) AS n FROM fact WHERE u BETWEEN 100 AND 899");
  ASSERT_TRUE(wide.priced);
  EXPECT_LT(wide.predicted_rate, 0.01);
  // A predicate on the key's own column is not independent of it.
  ContractPrice own = Price(
      cat, "SELECT k, COUNT(*) AS n FROM fact WHERE k IN (1, 2) GROUP BY k");
  EXPECT_FALSE(own.priced);
  EXPECT_DOUBLE_EQ(own.pilot_rate, kWorstCase);
}

}  // namespace
}  // namespace core
}  // namespace aqp
