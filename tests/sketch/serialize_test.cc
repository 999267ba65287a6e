// Round-trip and corruption tests for sketch serialization.

#include <cstring>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "sketch/bloom_filter.h"
#include "sketch/count_min.h"
#include "sketch/distinct_sampler.h"
#include "sketch/hyperloglog.h"

namespace aqp {
namespace sketch {
namespace {

TEST(SerializeTest, HllRoundTrip) {
  HyperLogLog hll = HyperLogLog::Create(12).value();
  for (uint64_t k = 0; k < 50000; ++k) hll.Add(k);
  std::string bytes = hll.Serialize();
  HyperLogLog back = HyperLogLog::Deserialize(bytes).value();
  EXPECT_DOUBLE_EQ(back.Estimate(), hll.Estimate());
  EXPECT_EQ(back.precision(), 12u);
  // Continues to accept updates consistently.
  back.Add(999999999ULL);
  hll.Add(999999999ULL);
  EXPECT_DOUBLE_EQ(back.Estimate(), hll.Estimate());
}

TEST(SerializeTest, HllRejectsCorruption) {
  HyperLogLog hll = HyperLogLog::Create(10).value();
  hll.Add(1);
  std::string bytes = hll.Serialize();
  EXPECT_FALSE(HyperLogLog::Deserialize("garbage").ok());
  EXPECT_FALSE(HyperLogLog::Deserialize("").ok());
  std::string truncated = bytes.substr(0, bytes.size() - 10);
  EXPECT_FALSE(HyperLogLog::Deserialize(truncated).ok());
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(HyperLogLog::Deserialize(bad_magic).ok());
  std::string extended = bytes + "xx";
  EXPECT_FALSE(HyperLogLog::Deserialize(extended).ok());
}

TEST(SerializeTest, CountMinRoundTrip) {
  CountMinSketch cms(5, 512);
  Pcg32 rng(3);
  for (int i = 0; i < 10000; ++i) cms.Add(rng.UniformUint32(100));
  std::string bytes = cms.Serialize();
  CountMinSketch back = CountMinSketch::Deserialize(bytes).value();
  EXPECT_EQ(back.total_count(), cms.total_count());
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(back.Estimate(k), cms.Estimate(k)) << "key " << k;
  }
}

TEST(SerializeTest, CountMinRejectsCorruption) {
  CountMinSketch cms(3, 64);
  cms.Add(7);
  std::string bytes = cms.Serialize();
  EXPECT_FALSE(CountMinSketch::Deserialize("nope").ok());
  EXPECT_FALSE(
      CountMinSketch::Deserialize(bytes.substr(0, bytes.size() / 2)).ok());
}

TEST(SerializeTest, CountMinRejectsImplausibleGeometry) {
  // Hand-craft a buffer claiming a gigantic width.
  CountMinSketch cms(3, 64);
  std::string bytes = cms.Serialize();
  // width field is at offset 8 (after magic + depth).
  uint32_t huge = 1u << 30;
  std::memcpy(&bytes[8], &huge, sizeof(huge));
  EXPECT_FALSE(CountMinSketch::Deserialize(bytes).ok());
}

TEST(SerializeTest, BloomRoundTrip) {
  BloomFilter bloom = BloomFilter::Create(10000, 0.01).value();
  for (uint64_t k = 0; k < 10000; k += 2) bloom.Add(k);
  std::string bytes = bloom.Serialize();
  BloomFilter back = BloomFilter::Deserialize(bytes).value();
  EXPECT_EQ(back.num_bits(), bloom.num_bits());
  EXPECT_EQ(back.num_hashes(), bloom.num_hashes());
  for (uint64_t k = 0; k < 200; ++k) {
    EXPECT_EQ(back.MayContain(k), bloom.MayContain(k)) << "key " << k;
  }
  EXPECT_DOUBLE_EQ(back.FillRatio(), bloom.FillRatio());
}

TEST(SerializeTest, BloomRejectsCorruption) {
  BloomFilter bloom(1024, 3);
  bloom.Add(5);
  std::string bytes = bloom.Serialize();
  EXPECT_FALSE(BloomFilter::Deserialize("x").ok());
  EXPECT_FALSE(
      BloomFilter::Deserialize(bytes.substr(0, bytes.size() - 1)).ok());
  // Wrong magic from a different sketch type.
  CountMinSketch cms(3, 64);
  EXPECT_FALSE(BloomFilter::Deserialize(cms.Serialize()).ok());
}

TEST(SerializeTest, CrossTypeMagicMismatch) {
  HyperLogLog hll = HyperLogLog::Create(8).value();
  BloomFilter bloom(256, 2);
  CountMinSketch cms(2, 32);
  EXPECT_FALSE(CountMinSketch::Deserialize(hll.Serialize()).ok());
  EXPECT_FALSE(HyperLogLog::Deserialize(bloom.Serialize()).ok());
  EXPECT_FALSE(BloomFilter::Deserialize(cms.Serialize()).ok());
}

TEST(SerializeTest, KmvRoundTrip) {
  KmvSketch kmv(256);
  for (uint64_t k = 0; k < 20000; ++k) kmv.Add(k * 31);
  std::string bytes = kmv.Serialize();
  KmvSketch back = KmvSketch::Deserialize(bytes).value();
  EXPECT_EQ(back.k(), kmv.k());
  EXPECT_DOUBLE_EQ(back.Estimate(), kmv.Estimate());
  EXPECT_EQ(back.MinHashes(), kmv.MinHashes());
  EXPECT_EQ(KmvSketch::EstimateContainment(back, kmv), 1.0);
  // Updates continue identically after restore.
  back.Add(777777);
  kmv.Add(777777);
  EXPECT_EQ(back.MinHashes(), kmv.MinHashes());
}

TEST(SerializeTest, KmvRejectsCorruption) {
  KmvSketch kmv(16);
  for (uint64_t k = 0; k < 100; ++k) kmv.Add(k);
  std::string bytes = kmv.Serialize();
  EXPECT_FALSE(KmvSketch::Deserialize("x").ok());
  EXPECT_FALSE(KmvSketch::Deserialize(bytes.substr(0, 12)).ok());
  EXPECT_FALSE(KmvSketch::Deserialize(bytes + "pad").ok());
  // Minima count exceeding k.
  std::string too_many = bytes;
  uint64_t n = 99;
  std::memcpy(&too_many[8], &n, sizeof(n));
  EXPECT_FALSE(KmvSketch::Deserialize(too_many).ok());
}

}  // namespace
}  // namespace sketch
}  // namespace aqp
