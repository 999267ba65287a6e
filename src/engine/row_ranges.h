#ifndef AQP_ENGINE_ROW_RANGES_H_
#define AQP_ENGINE_ROW_RANGES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace aqp {

/// A set of base-table rows named by sorted, disjoint [begin, end) ranges,
/// adjacent ranges coalesced: what a SYSTEM block sample keeps, without one
/// entry per row. The set's rows in ascending order are its positions
/// 0, 1, ...; each range records the position of its first row, so the rows
/// at positions [first, last) — a morsel of kept rows — are found by one
/// binary search and visited as contiguous base-row pieces.
class RowRanges {
 public:
  // Row ids are uint32_t throughout the engine, so positions are too.
  struct Range {
    uint32_t begin;
    uint32_t end;
    uint32_t pos;  // Position of row `begin` in the set.
  };

  RowRanges() = default;

  /// Every row of an n-row table: one range, or none when n is 0.
  static RowRanges All(size_t n) {
    RowRanges r;
    if (n > 0) r.ranges_.push_back({0, static_cast<uint32_t>(n), 0});
    r.rows_ = n;
    return r;
  }

  /// The number of ranges Coalesce(spans) holds: the runs of adjacent
  /// non-empty spans.
  static size_t CountRuns(
      const std::vector<std::pair<uint64_t, uint64_t>>& spans) {
    size_t count = 0;
    uint64_t prev_end = UINT64_MAX;
    for (const auto& [begin, end] : spans) {
      if (begin == end) continue;
      if (begin != prev_end) ++count;
      prev_end = end;
    }
    return count;
  }

  /// The union of ascending, disjoint `spans`, each [first, second), with
  /// adjacent spans merged and empty ones dropped. The ranges are counted
  /// before they are stored, so the set holds no spare capacity.
  static RowRanges Coalesce(
      const std::vector<std::pair<uint64_t, uint64_t>>& spans) {
    RowRanges r;
    r.ranges_.reserve(CountRuns(spans));
    for (const auto& [begin, end] : spans) {
      if (begin == end) continue;
      if (!r.ranges_.empty() && r.ranges_.back().end == begin) {
        r.ranges_.back().end = static_cast<uint32_t>(end);
      } else {
        r.ranges_.push_back({static_cast<uint32_t>(begin),
                             static_cast<uint32_t>(end),
                             static_cast<uint32_t>(r.rows_)});
      }
      r.rows_ += end - begin;
    }
    return r;
  }

  const std::vector<Range>& ranges() const { return ranges_; }
  size_t num_rows() const { return rows_; }

  /// Heap footprint: what a query charges for holding the set.
  uint64_t ApproxBytes() const { return ranges_.capacity() * sizeof(Range); }

  /// Calls fn(begin, end) for each base-row piece [begin, end) holding the
  /// rows at positions [first, last), in order.
  template <typename Fn>
  void ForEachPiece(size_t first, size_t last, Fn&& fn) const {
    if (first >= last) return;
    auto it = std::upper_bound(
        ranges_.begin(), ranges_.end(), first,
        [](size_t p, const Range& r) { return p < r.pos; });
    for (--it; it != ranges_.end() && it->pos < last; ++it) {
      const size_t lo = std::max<size_t>(first, it->pos);
      const size_t hi = std::min<size_t>(last, it->pos + (it->end - it->begin));
      fn(static_cast<uint32_t>(it->begin + (lo - it->pos)),
         static_cast<uint32_t>(it->begin + (hi - it->pos)));
    }
  }

  /// Every row of the set, ascending: the id form of the same selection.
  std::vector<uint32_t> ToIds() const {
    std::vector<uint32_t> ids;
    ids.reserve(rows_);
    for (const Range& r : ranges_) {
      for (uint32_t i = r.begin; i < r.end; ++i) ids.push_back(i);
    }
    return ids;
  }

 private:
  std::vector<Range> ranges_;
  size_t rows_ = 0;
};

}  // namespace aqp

#endif  // AQP_ENGINE_ROW_RANGES_H_
