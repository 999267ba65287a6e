#include "sketch/distinct_sampler.h"

#include <algorithm>
#include <cmath>

#include "common/bytes.h"
#include "common/check.h"
#include "common/hash.h"

namespace aqp {
namespace sketch {

KmvSketch::KmvSketch(uint32_t k) : k_(k) { AQP_CHECK(k >= 3); }

void KmvSketch::Add(uint64_t key) {
  uint64_t h = Mix64(key);
  if (minima_.size() < k_) {
    minima_.insert(h);
    return;
  }
  uint64_t largest = *minima_.rbegin();
  if (h >= largest || minima_.count(h) > 0) return;
  minima_.insert(h);
  minima_.erase(std::prev(minima_.end()));
}

double KmvSketch::Estimate() const {
  if (minima_.size() < k_) {
    // Saw fewer than k distinct hashes: the set size IS the answer.
    return static_cast<double>(minima_.size());
  }
  uint64_t kth = *minima_.rbegin();
  double fraction =
      static_cast<double>(kth) / static_cast<double>(UINT64_MAX);
  AQP_CHECK(fraction > 0.0);
  return (static_cast<double>(k_) - 1.0) / fraction;
}

double KmvSketch::StandardError() const {
  return 1.0 / std::sqrt(static_cast<double>(k_) - 2.0);
}

std::vector<uint64_t> KmvSketch::MinHashes() const {
  return std::vector<uint64_t>(minima_.begin(), minima_.end());
}

void KmvSketch::Merge(const KmvSketch& other) {
  for (uint64_t h : other.minima_) {
    if (minima_.size() < k_) {
      minima_.insert(h);
      continue;
    }
    uint64_t largest = *minima_.rbegin();
    if (h >= largest || minima_.count(h) > 0) continue;
    minima_.insert(h);
    minima_.erase(std::prev(minima_.end()));
  }
}

namespace {
constexpr uint32_t kKmvMagic = 0x4b4d5631;  // "KMV1".
}  // namespace

std::string KmvSketch::Serialize() const {
  ByteWriter w;
  w.PutU32(kKmvMagic);
  w.PutU32(k_);
  w.PutU64(minima_.size());
  for (uint64_t h : minima_) w.PutU64(h);  // std::set: ascending, canonical.
  return w.Take();
}

Result<KmvSketch> KmvSketch::Deserialize(std::string_view data) {
  ByteReader r(data);
  AQP_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kKmvMagic) {
    return Status::InvalidArgument("not a serialized KMV sketch");
  }
  AQP_ASSIGN_OR_RETURN(uint32_t k, r.GetU32());
  if (k < 3) return Status::InvalidArgument("KMV k must be >= 3");
  KmvSketch s(k);
  AQP_ASSIGN_OR_RETURN(uint64_t n, r.GetU64());
  if (n > k || n * sizeof(uint64_t) > r.remaining()) {
    return Status::InvalidArgument("KMV minima count out of range");
  }
  for (uint64_t i = 0; i < n; ++i) {
    AQP_ASSIGN_OR_RETURN(uint64_t h, r.GetU64());
    s.minima_.insert(h);
  }
  if (s.minima_.size() != n) {
    return Status::InvalidArgument("duplicate KMV minima");
  }
  if (!r.exhausted()) {
    return Status::InvalidArgument("trailing bytes after KMV sketch");
  }
  return s;
}

double KmvSketch::EstimateContainment(const KmvSketch& a,
                                      const KmvSketch& b) {
  // k minima of the union, then the fraction of a's also present in b.
  std::vector<uint64_t> au = a.MinHashes();
  std::vector<uint64_t> bu = b.MinHashes();
  std::vector<uint64_t> unioned;
  std::set_union(au.begin(), au.end(), bu.begin(), bu.end(),
                 std::back_inserter(unioned));
  size_t k = std::min<size_t>(std::min(a.k_, b.k_), unioned.size());
  size_t in_a = 0;
  size_t in_both = 0;
  for (size_t i = 0; i < k; ++i) {
    if (!std::binary_search(au.begin(), au.end(), unioned[i])) continue;
    ++in_a;
    if (std::binary_search(bu.begin(), bu.end(), unioned[i])) ++in_both;
  }
  if (in_a == 0) return 1.0;
  return static_cast<double>(in_both) / static_cast<double>(in_a);
}

}  // namespace sketch
}  // namespace aqp
