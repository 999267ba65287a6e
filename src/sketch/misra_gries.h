#ifndef AQP_SKETCH_MISRA_GRIES_H_
#define AQP_SKETCH_MISRA_GRIES_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace aqp {
namespace sketch {

/// Misra–Gries heavy-hitters summary: with k counters, every key whose true
/// frequency exceeds N/(k+1) is guaranteed to be present, and each reported
/// count undershoots the truth by at most N/(k+1). Deterministic — no hash
/// collisions to reason about — which is why it pairs well with Count-Min
/// for count refinement.
class MisraGries {
 public:
  explicit MisraGries(uint32_t k);

  void Add(uint64_t key, uint64_t count = 1);

  /// Lower-bound count for the key (0 if not tracked).
  uint64_t Estimate(uint64_t key) const;

  /// Maximum undercount of any estimate: (N - sum of counters) / (k+1) is a
  /// bound; we return the exact decrement total accrued so far.
  uint64_t MaxUndercount() const { return decrements_; }

  /// Keys whose estimated count is at least `threshold`, sorted by count
  /// descending.
  std::vector<std::pair<uint64_t, uint64_t>> HeavyHitters(
      uint64_t threshold) const;

  /// Merges another summary (same k semantics preserved with 2k counters
  /// collapsed back to k).
  void Merge(const MisraGries& other);

  uint64_t total_count() const { return total_; }
  uint32_t capacity() const { return k_; }

 private:
  void Shrink();

  uint32_t k_;
  uint64_t total_ = 0;
  uint64_t decrements_ = 0;
  std::unordered_map<uint64_t, uint64_t> counters_;
};

}  // namespace sketch
}  // namespace aqp

#endif  // AQP_SKETCH_MISRA_GRIES_H_
