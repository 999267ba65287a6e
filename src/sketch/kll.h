#ifndef AQP_SKETCH_KLL_H_
#define AQP_SKETCH_KLL_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/result.h"

namespace aqp {
namespace sketch {

/// KLL-style quantile sketch (Karnin, Lang, Liberty 2016, simplified): a
/// hierarchy of compactor buffers; a full level is sorted and every other
/// element (random offset) promoted to the next level, so items at level h
/// carry weight 2^h. Space is O(k log(n/k)); rank error concentrates around
/// O(1/k) of the stream length. Answers quantile and rank queries over
/// streams far too large to sort.
class KllSketch {
 public:
  /// k controls accuracy (per-level buffer capacity). Deterministic given
  /// the seed.
  explicit KllSketch(uint32_t k = 200, uint64_t seed = 1);

  void Add(double value);

  /// Estimated q-quantile (q in [0, 1]); error if the sketch is empty.
  Result<double> Quantile(double q) const;

  /// Estimated number of stream items <= value.
  double Rank(double value) const;

  /// Estimated CDF value in [0,1] at `value`.
  double Cdf(double value) const;

  /// Merges another sketch built with any k.
  void Merge(const KllSketch& other);

  uint64_t count() const { return count_; }
  double min() const { return min_; }
  double max() const { return max_; }

  /// Total buffered items across levels (memory proxy).
  size_t StoredItems() const;

 private:
  void Compact();

  uint32_t k_;
  Pcg32 rng_;
  uint64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<std::vector<double>> levels_;  // levels_[h]: weight 2^h items.
};

}  // namespace sketch
}  // namespace aqp

#endif  // AQP_SKETCH_KLL_H_
