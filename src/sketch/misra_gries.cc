#include "sketch/misra_gries.h"

#include <algorithm>

#include "common/check.h"

namespace aqp {
namespace sketch {

MisraGries::MisraGries(uint32_t k) : k_(k) {
  AQP_CHECK(k > 0);
  counters_.reserve(k + 1);
}

void MisraGries::Add(uint64_t key, uint64_t count) {
  total_ += count;
  auto it = counters_.find(key);
  if (it != counters_.end()) {
    it->second += count;
    return;
  }
  counters_[key] = count;
  if (counters_.size() > k_) Shrink();
}

void MisraGries::Shrink() {
  // Decrement all counters by the minimum counter value and drop zeros —
  // the multi-decrement generalization of classic Misra–Gries.
  uint64_t min_count = UINT64_MAX;
  for (const auto& [key, c] : counters_) min_count = std::min(min_count, c);
  decrements_ += min_count;
  for (auto it = counters_.begin(); it != counters_.end();) {
    it->second -= min_count;
    if (it->second == 0) {
      it = counters_.erase(it);
    } else {
      ++it;
    }
  }
}

uint64_t MisraGries::Estimate(uint64_t key) const {
  auto it = counters_.find(key);
  return it == counters_.end() ? 0 : it->second;
}

std::vector<std::pair<uint64_t, uint64_t>> MisraGries::HeavyHitters(
    uint64_t threshold) const {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (const auto& [key, c] : counters_) {
    if (c >= threshold) out.emplace_back(key, c);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second || (a.second == b.second && a.first < b.first);
  });
  return out;
}

void MisraGries::Merge(const MisraGries& other) {
  total_ += other.total_;
  decrements_ += other.decrements_;
  for (const auto& [key, c] : other.counters_) {
    counters_[key] += c;
  }
  while (counters_.size() > k_) Shrink();
}

}  // namespace sketch
}  // namespace aqp
