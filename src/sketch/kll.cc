#include "sketch/kll.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace aqp {
namespace sketch {
namespace {

// Per-level capacity: geometric decay toward lower levels, floor of 8.
// Lower levels see more churn, so they may be smaller; the top level keeps
// full resolution k.
uint32_t LevelCapacity(uint32_t k, size_t level, size_t num_levels) {
  double c = 2.0 / 3.0;
  double cap = static_cast<double>(k) *
               std::pow(c, static_cast<double>(num_levels - 1 - level));
  return std::max<uint32_t>(8, static_cast<uint32_t>(std::ceil(cap)));
}

}  // namespace

KllSketch::KllSketch(uint32_t k, uint64_t seed) : k_(std::max(k, 8u)),
                                                  rng_(seed) {
  levels_.emplace_back();
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

void KllSketch::Add(double value) {
  levels_[0].push_back(value);
  ++count_;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  if (levels_[0].size() >= LevelCapacity(k_, 0, levels_.size())) {
    Compact();
  }
}

void KllSketch::Compact() {
  for (size_t h = 0; h < levels_.size(); ++h) {
    if (levels_[h].size() < LevelCapacity(k_, h, levels_.size())) continue;
    if (h + 1 == levels_.size()) levels_.emplace_back();
    std::vector<double>& buf = levels_[h];
    std::sort(buf.begin(), buf.end());
    size_t offset = rng_.NextUint32() & 1;
    for (size_t i = offset; i < buf.size(); i += 2) {
      levels_[h + 1].push_back(buf[i]);
    }
    buf.clear();
  }
}

size_t KllSketch::StoredItems() const {
  size_t total = 0;
  for (const auto& level : levels_) total += level.size();
  return total;
}

double KllSketch::Rank(double value) const {
  double rank = 0.0;
  double weight = 1.0;
  for (const auto& level : levels_) {
    for (double v : level) {
      if (v <= value) rank += weight;
    }
    weight *= 2.0;
  }
  return rank;
}

double KllSketch::Cdf(double value) const {
  if (count_ == 0) return 0.0;
  // Compaction of odd-sized buffers makes total stored weight drift by
  // O(levels) around count_; clamp so the CDF stays in [0, 1].
  return std::min(1.0, Rank(value) / static_cast<double>(count_));
}

Result<double> KllSketch::Quantile(double q) const {
  if (count_ == 0) {
    return Status::FailedPrecondition("quantile of empty sketch");
  }
  if (q < 0.0 || q > 1.0) {
    return Status::InvalidArgument("q must be in [0,1]");
  }
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  // Materialize (value, weight) pairs, sort, walk cumulative weight.
  std::vector<std::pair<double, double>> items;
  items.reserve(StoredItems());
  double weight = 1.0;
  for (const auto& level : levels_) {
    for (double v : level) items.emplace_back(v, weight);
    weight *= 2.0;
  }
  if (items.empty()) return min_;
  std::sort(items.begin(), items.end());
  double target = q * static_cast<double>(count_);
  double cumulative = 0.0;
  for (const auto& [v, w] : items) {
    cumulative += w;
    if (cumulative >= target) return v;
  }
  return items.back().first;
}

void KllSketch::Merge(const KllSketch& other) {
  if (other.count_ == 0) return;
  while (levels_.size() < other.levels_.size()) levels_.emplace_back();
  for (size_t h = 0; h < other.levels_.size(); ++h) {
    levels_[h].insert(levels_[h].end(), other.levels_[h].begin(),
                      other.levels_[h].end());
  }
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  Compact();
}

}  // namespace sketch
}  // namespace aqp
