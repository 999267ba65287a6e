// Parser/binder fuzz smoke: a thousand seeded random mutations of valid
// queries must flow through Parse (and, when parsing succeeds, Bind and the
// full engine) as Status values — never a crash, hang, or UB. This is the
// cheap always-on cousin of a real fuzzer: deterministic, a few milliseconds,
// and it runs in every CI configuration including the sanitizers.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/executor.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "support/row_reference.h"
#include "test_util.h"
#include "workload/datagen.h"

namespace aqp {
namespace sql {
namespace {

const char* const kSeedQueries[] = {
    "SELECT SUM(quantity) AS s FROM lineitem",
    "SELECT shipmode, AVG(extendedprice) AS p FROM lineitem "
    "GROUP BY shipmode HAVING AVG(extendedprice) > 10 ORDER BY shipmode",
    "SELECT COUNT(*) AS n FROM lineitem WHERE quantity < 25 AND discount "
    ">= 0.01",
    "SELECT l.quantity FROM lineitem AS l JOIN orders AS o ON l.orderkey = "
    "o.orderkey LIMIT 7",
    "SELECT SUM(extendedprice * (1 - discount)) AS rev FROM lineitem "
    "TABLESAMPLE BERNOULLI (10 PERCENT) WITH ERROR 5% CONFIDENCE 95%",
    "SELECT MIN(quantity) AS lo, MAX(quantity) AS hi FROM lineitem "
    "WHERE shipmode = 'AIR' OR shipmode = 'RAIL'",
};

// Applies one random byte-level mutation. Byte-level on purpose: token
// boundaries, quotes, and multi-byte garbage are exactly where hand-written
// lexers break.
std::string Mutate(std::string q, Pcg32& rng) {
  if (q.empty()) return q;
  switch (rng.UniformUint32(6)) {
    case 0:  // Delete a byte.
      q.erase(rng.UniformUint32(static_cast<uint32_t>(q.size())), 1);
      break;
    case 1:  // Insert a random byte (full range, including non-UTF8).
      q.insert(q.begin() + rng.UniformUint32(
                               static_cast<uint32_t>(q.size()) + 1),
               static_cast<char>(rng.UniformUint32(256)));
      break;
    case 2: {  // Overwrite a byte with random punctuation.
      const char punct[] = "(),.;'\"%*<>=+-";
      q[rng.UniformUint32(static_cast<uint32_t>(q.size()))] =
          punct[rng.UniformUint32(sizeof(punct) - 1)];
      break;
    }
    case 3:  // Truncate.
      q.resize(rng.UniformUint32(static_cast<uint32_t>(q.size())));
      break;
    case 4: {  // Swap two bytes.
      size_t a = rng.UniformUint32(static_cast<uint32_t>(q.size()));
      size_t b = rng.UniformUint32(static_cast<uint32_t>(q.size()));
      std::swap(q[a], q[b]);
      break;
    }
    case 5: {  // Duplicate a random slice (nested / repeated clauses).
      size_t at = rng.UniformUint32(static_cast<uint32_t>(q.size()));
      size_t len = rng.UniformUint32(16) + 1;
      q.insert(at, q.substr(at, len));
      break;
    }
  }
  return q;
}

TEST(FuzzSmokeTest, ThousandMutatedQueriesNeverCrash) {
  Catalog catalog = workload::GenerateLineitemLike(2000, 23).value();
  Pcg32 rng(20260807);
  size_t parsed = 0;
  size_t bound = 0;
  size_t differential = 0;
  for (int i = 0; i < 1000; ++i) {
    std::string q = kSeedQueries[i % std::size(kSeedQueries)];
    const uint32_t rounds = 1 + rng.UniformUint32(4);
    for (uint32_t r = 0; r < rounds; ++r) q = Mutate(std::move(q), rng);

    Result<SelectStmt> stmt = Parse(q);
    if (!stmt.ok()) continue;
    ++parsed;
    Result<BoundQuery> b = Bind(stmt.value(), catalog);
    if (!b.ok()) continue;
    ++bound;
    // Queries that survive binding must also execute without crashing.
    (void)ExecuteSql(q, catalog);
    // Differential leg: the bound plan must behave identically in the
    // engine and the row-at-a-time oracle — same success/failure (same error
    // code), and on success a cell-for-cell bit-identical table at every
    // thread count.
    ExecOptions serial;
    serial.num_threads = 1;
    Result<Table> ref = testutil::ExecuteRowReference(b->plan, catalog, serial);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      ExecOptions vec;
      vec.num_threads = threads;
      Result<Table> got = Execute(b->plan, catalog, nullptr, nullptr, vec);
      ASSERT_EQ(ref.ok(), got.ok()) << q;
      if (ref.ok()) {
        ++differential;
        EXPECT_TRUE(testutil::TablesBitIdentical(ref.value(), got.value()))
            << q;
      } else {
        EXPECT_EQ(ref.status().code(), got.status().code()) << q;
      }
    }
  }
  // The mutator must not be so destructive that the test stops exercising
  // the deeper layers: some mutants still parse and bind.
  EXPECT_GT(parsed, 50u);
  EXPECT_GT(bound, 10u);
  EXPECT_GT(differential, 0u);
}

TEST(FuzzSmokeTest, PathologicalInputsReturnStatus) {
  Catalog catalog = workload::GenerateLineitemLike(100, 23).value();
  const std::string cases[] = {
      "",
      "   ",
      std::string(1, '\0'),
      "\xff\xfe\xfd",
      "SELECT",
      "SELECT FROM",
      "((((((((((",
      "SELECT * FROM t WHERE " + std::string(10000, '('),
      // Unbounded-recursion probes: each production with self-recursion.
      "SELECT (" + std::string(5000, '(') + "1" + std::string(5000, ')') +
          ") AS x FROM lineitem",
      [] {
        std::string nots = "SELECT ";
        for (int i = 0; i < 5000; ++i) nots += "NOT ";
        return nots + "quantity FROM lineitem";
      }(),
      "SELECT " + std::string(8000, '-') + "1 AS x FROM lineitem",
      "SELECT '" + std::string(100000, 'a'),
      std::string(65536, '9'),
      "SELECT " + std::string(5000, ','),
  };
  for (const std::string& q : cases) {
    (void)Parse(q);  // Must return, not crash; most are parse errors.
    (void)ExecuteSql(q, catalog);
  }
}

}  // namespace
}  // namespace sql
}  // namespace aqp
