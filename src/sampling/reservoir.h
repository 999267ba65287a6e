#ifndef AQP_SAMPLING_RESERVOIR_H_
#define AQP_SAMPLING_RESERVOIR_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "sampling/sample.h"

namespace aqp {

/// Streaming fixed-size uniform sampler (Vitter's Algorithm L): maintains a
/// uniform random sample of k items from a stream of unknown length using
/// O(k) memory and O(k log(n/k)) random draws. This is the workhorse for
/// incremental maintenance of offline samples under appends.
class ReservoirSampler {
 public:
  ReservoirSampler(size_t k, uint64_t seed);

  /// Offers stream item with the given ordinal; returns the slot in [0, k)
  /// it replaced, or -1 if not taken. Items must be offered in order.
  int64_t Offer();

  /// Jumps straight to the next item Algorithm L takes, as if Offer() had
  /// been called on every item before it (same RNG draws, same reservoir),
  /// and returns that item's 0-based ordinal; `*slot` receives the slot it
  /// replaces. A pass over n items thus costs O(k log(n/k)), not O(n).
  uint64_t SkipToNextTake(size_t* slot);

  /// Number of items seen so far.
  uint64_t items_seen() const { return count_; }
  size_t capacity() const { return k_; }

 private:
  /// Geometric skip length given the current weight.
  uint64_t SkipLength();

  size_t k_;
  uint64_t count_ = 0;
  double w_;             // Algorithm L's running weight.
  uint64_t next_take_;   // Ordinal of the next item to take.
  Pcg32 rng_;
};

/// Draws a uniform fixed-size sample of `k` rows from `table` (all rows if
/// k >= rows). Weights are N/k so HT totals scale correctly.
Result<Sample> ReservoirSample(const Table& table, size_t k, uint64_t seed);

}  // namespace aqp

#endif  // AQP_SAMPLING_RESERVOIR_H_
