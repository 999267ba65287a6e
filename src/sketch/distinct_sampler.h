#ifndef AQP_SKETCH_DISTINCT_SAMPLER_H_
#define AQP_SKETCH_DISTINCT_SAMPLER_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace aqp {
namespace sketch {

/// KMV ("k minimum values") distinct sketch (Bar-Yossef et al. 2002): keep
/// the k smallest hash values seen; the k-th smallest, viewed as a fraction
/// of the hash space, estimates the density of distinct values, giving
///   D_hat = (k - 1) / t_k.
/// Besides cardinality it yields a uniform sample of the *distinct* values
/// (not of the rows), which is what "distinct sampling" needs.
class KmvSketch {
 public:
  explicit KmvSketch(uint32_t k);

  void Add(uint64_t key);

  /// Estimated number of distinct keys.
  double Estimate() const;

  /// Relative standard error ~ 1/sqrt(k - 2).
  double StandardError() const;

  /// The retained minimum hash values (a uniform sample of distinct keys'
  /// hashes).
  std::vector<uint64_t> MinHashes() const;

  /// Merges another KMV sketch (same k recommended; result uses this k).
  void Merge(const KmvSketch& other);

  /// Estimated share of `a`'s distinct set that is also in `b`'s: of the
  /// union's k minima that are `a`'s, the fraction that are `b`'s too (1
  /// when `a` is empty). If `b` summarizes a superset of `a`'s set, every
  /// such minimum is `b`'s, so the estimate is exactly 1.
  static double EstimateContainment(const KmvSketch& a, const KmvSketch& b);

  uint32_t k() const { return k_; }

  /// Serializes k and the retained minima (the full sketch state).
  std::string Serialize() const;
  /// Inverse of Serialize; rejects corrupt or foreign buffers.
  static Result<KmvSketch> Deserialize(std::string_view data);

 private:
  uint32_t k_;
  std::set<uint64_t> minima_;  // At most k smallest hashes, deduplicated.
};

}  // namespace sketch
}  // namespace aqp

#endif  // AQP_SKETCH_DISTINCT_SAMPLER_H_
