#ifndef AQP_GOV_FAULT_INJECTOR_H_
#define AQP_GOV_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace aqp {
namespace gov {

/// Per-site injection counters (see FaultInjector::SiteCountersSnapshot).
struct FaultSiteCounters {
  uint64_t evaluated = 0;  // Hits that consulted the schedule.
  uint64_t injected = 0;   // Hits the schedule failed.
  uint64_t hung = 0;       // Hits stalled by the hung-morsel mode.
};

/// Deterministic, seeded fault injection for robustness tests. Production
/// code paths with a meaningful failure mode call
/// `FaultInjector::Global().MaybeFail("site.name")`; when the injector is
/// armed, the call fails on a schedule that is a pure function of
/// (seed, site, hit index) — so a failing CI seed reproduces locally with
/// the same seed, bit for bit, regardless of thread interleaving (each
/// site's hits are counted under a lock).
///
/// Registered sites (grep for MaybeFail to confirm):
///   engine.scan         — table fetch at the head of every Scan operator
///   sampler.bernoulli   — the engine's TABLESAMPLE BERNOULLI scan draw
///                         (rung-0 stages draw here)
///   sampler.block       — the engine's TABLESAMPLE SYSTEM scan draw
///   grace.sample        — rung-2 grace-sample draw (reservoir of the table)
///   pool.dispatch       — helper-task dispatch in ThreadPool::ParallelFor
///                         (wired through SetDispatchFaultHook when armed)
///   synopsis.build      — SynopsisCache stored-sample build (single-flight)
///   result_cache.insert — ResultCache::Insert (a failed insert skips caching)
///   drift.sweep         — DriftMonitor per-table rescan
///   audit.reexec        — AccuracyAuditor ground-truth re-execution
///   service.admit       — AdmissionController::Acquire (fails as overload)
///   extent.write        — extent flush, before the first byte is written
///                         (a fault must leave no partial .aqpx file)
///   extent.read         — extent pread (Open footer fetch and per-extent
///                         reads both route through it)
///   synopsis.save       — synopsis sidecar save (tmp file is removed; the
///                         previous sidecar survives untouched)
///   synopsis.load       — synopsis sidecar load at service startup (the
///                         service boots cold and rebuilds on demand)
///
/// Disarmed cost: one relaxed atomic load per call. Arming is process-global
/// and intended for tests / the CI fault matrix, not concurrent production
/// queries; it can also be armed from the environment (AQP_FAULT_SEED,
/// AQP_FAULT_P, and optionally AQP_FAULT_SITES=site1,site2 to restrict the
/// schedule to a subset of sites) at first use, which is how the CI matrix
/// drives seeds × site subsets through the same binaries.
///
/// Counter-continuation semantics: Disarm() stops injection but keeps the
/// per-site hit counters, so a later Arm() with the same seed CONTINUES the
/// schedule exactly where it left off — hit N+1 of a site fires iff it would
/// have fired had the injector stayed armed (disarmed hits do not advance
/// the counters). This is what makes pause/resume chaos tests reproducible.
/// Call ResetCounters() for a fresh schedule instead.
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Arms injection: each MaybeFail hit fails independently with
  /// `probability` under the deterministic schedule of `seed`. Also installs
  /// the ThreadPool dispatch-fault hook for the pool.dispatch site.
  void Arm(uint64_t seed, double probability);
  /// Arm restricted to `sites`: only the named sites are evaluated (others
  /// return OK without advancing their hit counters). An empty list means
  /// every site, i.e. plain Arm.
  void ArmSites(uint64_t seed, double probability,
                const std::vector<std::string>& sites);
  /// Disarms injection and removes the dispatch hook. Hit counters survive
  /// so a later Arm with the same seed continues the schedule; call
  /// ResetCounters for a fresh schedule. Also clears any pending hangs.
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Hung-morsel mode: the next `count` hits at `site` BLOCK the calling
  /// thread for `hang_ms` (then return OK), simulating a morsel that stopped
  /// checking CheckCancelled. Independent of the probability schedule —
  /// deterministic by hit count — and usable with or without Arm; the
  /// watchdog suite uses it to manufacture queries that hold their admission
  /// slot past deadline + grace. Cleared by Disarm()/ClearHangs().
  void ArmHang(std::string_view site, int64_t hang_ms, uint64_t count = 1);
  void ClearHangs();

  /// OK when disarmed or when this hit survives; an Internal status naming
  /// the site when the schedule fires. In hung-morsel mode the call may
  /// first stall for the configured hang before returning OK.
  Status MaybeFail(std::string_view site);

  /// Faults injected / hits evaluated since the last ResetCounters.
  uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }
  uint64_t evaluated() const {
    return evaluated_.load(std::memory_order_relaxed);
  }
  uint64_t hung() const { return hung_.load(std::memory_order_relaxed); }
  /// Per-site evaluated/injected/hung counters — the chaos bench asserts
  /// from this that its schedule actually fired at every armed site, and the
  /// service mirrors it into `fault.site.*` metrics.
  std::map<std::string, FaultSiteCounters> SiteCountersSnapshot() const;
  /// Zeroes the per-site hit counters and the totals (fresh schedule).
  void ResetCounters();

 private:
  FaultInjector() = default;

  void InstallDispatchHook();
  void MaybeRemoveDispatchHook();

  struct SiteState {
    uint64_t hits = 0;  // Schedule position (evaluated hits).
    uint64_t injected = 0;
    uint64_t hung = 0;
    uint64_t hangs_remaining = 0;  // Hung-morsel budget.
    int64_t hang_ms = 0;
  };

  std::atomic<bool> armed_{false};
  std::atomic<bool> hang_armed_{false};
  std::atomic<uint64_t> injected_{0};
  std::atomic<uint64_t> evaluated_{0};
  std::atomic<uint64_t> hung_{0};
  mutable std::mutex mu_;
  uint64_t seed_ = 0;
  double probability_ = 0.0;
  std::set<std::string, std::less<>> site_filter_;  // Empty = all sites.
  std::map<std::string, SiteState, std::less<>> sites_;
};

/// RAII (dis)arming for tests: arms (or disarms) the global injector on
/// construction; destruction always disarms and resets counters, so fault
/// tests cannot leak an armed injector into later tests and deterministic
/// tests can opt out of an environment-armed fault matrix for their scope.
class ScopedFaultInjection {
 public:
  /// Arms with (seed, probability) on a fresh schedule (counters reset).
  ScopedFaultInjection(uint64_t seed, double probability);
  /// Arms a fresh schedule restricted to `sites` (empty = all).
  ScopedFaultInjection(uint64_t seed, double probability,
                       const std::vector<std::string>& sites);
  /// Disarms for this scope (deterministic-test mode).
  ScopedFaultInjection();
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace gov
}  // namespace aqp

#endif  // AQP_GOV_FAULT_INJECTOR_H_
