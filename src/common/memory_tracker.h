#ifndef AQP_COMMON_MEMORY_TRACKER_H_
#define AQP_COMMON_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <string_view>
#include <utility>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/status.h"

namespace aqp {

/// Byte-accounted memory budget for one query. Operators charge it when they
/// materialize a table / sample / accumulator block and release the charge
/// when that allocation dies, so `used()` tracks the live set (not cumulative
/// churn) and must drain back to zero once a query's intermediates are gone —
/// the invariant the fault-injection tests assert on every ladder rung.
///
/// Accounting rule: charges cover operator OUTPUTS (materialized tables,
/// drawn samples) plus the hash join's build table
/// and match-pair buffers, grouped aggregation's partial states and group
/// tables, and the grouped estimator's group ids, per-worker group slots
/// and cells, which can outgrow the inputs they come from. Other transient
/// operator-internal scratch (sort index, per-worker morsel buffers) is not
/// charged; it is bounded by the charged inputs it is built from.
///
/// A budget of 0 means unbounded (accounting still runs, charges never
/// fail). When a charge would exceed the budget, TryCharge refuses with
/// ResourceExhausted and — when a CancellationSource is bound — cancels the
/// whole query with StopCause::kMemory so sibling parallel work stops at its
/// next boundary check. Thread-safe; all counters are relaxed atomics.
/// Trackers optionally nest: a tracker constructed with a parent forwards
/// every charge/release to it, so a per-query tracker under a per-session
/// tracker enforces BOTH budgets (a query may fail its own budget or its
/// session's). The parent must outlive the child's last charge.
class MemoryTracker {
 public:
  explicit MemoryTracker(uint64_t budget_bytes = 0,
                         MemoryTracker* parent = nullptr)
      : budget_(budget_bytes), parent_(parent) {}
  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  /// Binds the source cancelled on exhaustion (may be null to unbind). The
  /// source must outlive the tracker's last TryCharge.
  void BindCancellation(CancellationSource* source) { source_ = source; }

  /// Accounts `bytes` against the budget. On refusal nothing is charged.
  Status TryCharge(uint64_t bytes, std::string_view what);

  /// Returns a previously successful charge.
  void Release(uint64_t bytes);

  uint64_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t budget() const { return budget_; }
  /// How many TryCharge calls were refused.
  uint64_t exhausted_count() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

 private:
  const uint64_t budget_;
  MemoryTracker* parent_ = nullptr;
  CancellationSource* source_ = nullptr;
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> exhausted_{0};
};

/// RAII charge: acquires bytes from a tracker (null tracker = tracked as a
/// no-op) and releases them on destruction. Movable so samples/aggregators
/// can own their accounting.
class ScopedMemoryCharge {
 public:
  ScopedMemoryCharge() = default;

  /// Charges `bytes` to `tracker`; fails with ResourceExhausted when the
  /// budget cannot cover it. A null tracker yields an always-OK no-op charge.
  static Result<ScopedMemoryCharge> Make(MemoryTracker* tracker,
                                         uint64_t bytes,
                                         std::string_view what);

  ~ScopedMemoryCharge() { Reset(); }

  ScopedMemoryCharge(ScopedMemoryCharge&& other) noexcept
      : tracker_(other.tracker_), bytes_(other.bytes_) {
    other.tracker_ = nullptr;
    other.bytes_ = 0;
  }
  ScopedMemoryCharge& operator=(ScopedMemoryCharge&& other) noexcept {
    if (this != &other) {
      Reset();
      tracker_ = other.tracker_;
      bytes_ = other.bytes_;
      other.tracker_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  ScopedMemoryCharge(const ScopedMemoryCharge&) = delete;
  ScopedMemoryCharge& operator=(const ScopedMemoryCharge&) = delete;

  /// Releases the charge early.
  void Reset() {
    if (tracker_ != nullptr && bytes_ > 0) tracker_->Release(bytes_);
    tracker_ = nullptr;
    bytes_ = 0;
  }

  uint64_t bytes() const { return bytes_; }

 private:
  ScopedMemoryCharge(MemoryTracker* tracker, uint64_t bytes)
      : tracker_(tracker), bytes_(bytes) {}

  MemoryTracker* tracker_ = nullptr;
  uint64_t bytes_ = 0;
};

}  // namespace aqp

#endif  // AQP_COMMON_MEMORY_TRACKER_H_
