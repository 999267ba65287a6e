#ifndef AQP_COMMON_THREAD_POOL_H_
#define AQP_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"

namespace aqp {

/// Number of hardware threads (>= 1).
size_t HardwareThreads();

/// Strictly validates a thread-count string (as found in AQP_NUM_THREADS):
/// optional surrounding whitespace, digits only, value in [1, 4096].
/// Non-numeric text, signs, trailing garbage, zero, negatives, and overflow
/// all return InvalidArgument/OutOfRange instead of being silently
/// misparsed.
Result<size_t> ParseThreadCount(std::string_view s);

/// Resolves the named environment variable through ParseThreadCount. An
/// unset variable returns `fallback`; a set-but-invalid value warns once per
/// process on stderr (naming the variable and the reason) and also returns
/// `fallback` — a bad knob must never become UB or a surprise thread count.
size_t ThreadCountFromEnv(const char* env_var, size_t fallback);

/// What one ParallelFor run did, for observability: how many morsels ran,
/// how many were executed by a thread that did not own them (steals), and
/// how many items each worker slot processed. Slot 0 is always the calling
/// thread; helper slots are 1..P-1.
struct ParallelRunStats {
  uint64_t morsels = 0;
  uint64_t steals = 0;
  std::vector<uint64_t> worker_items;  // Items processed per worker slot.

  /// Accumulates another run's counters into this one (worker slots add
  /// element-wise; the slot vector grows to the larger run). Lets one query
  /// aggregate the stats of its several parallel regions.
  void MergeFrom(const ParallelRunStats& other);
};

/// Work-stealing thread pool running morsel-driven parallel loops
/// (Leis et al., "Morsel-Driven Parallelism", SIGMOD 2014 — adapted to this
/// engine's materialized operators). The pool owns long-lived worker
/// threads; each ParallelFor call partitions [0, n) into fixed-size morsels,
/// assigns each participant a contiguous run of morsel ids, and lets idle
/// participants steal morsels from the most-loaded peer. The caller always
/// participates as worker slot 0, so a pool is useful even with zero
/// workers (everything runs inline).
///
/// Determinism contract: which thread runs a morsel is scheduling-dependent,
/// but the morsel decomposition itself depends only on (n, morsel_items).
/// Callers that write per-morsel outputs into morsel-indexed slots and merge
/// them in morsel order therefore produce results that are bit-identical
/// for every thread count — the property the parallel executor builds on.
class ThreadPool {
 public:
  /// Spawns `num_workers` helper threads (0 is valid: all loops run inline).
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return workers_.size();
  }

  /// Process-wide pool with HardwareThreads() - 1 helper threads, created on
  /// first use. All engine executors share it. ParallelFor grows it on
  /// demand when a caller explicitly requests more threads than the pool
  /// holds (capped at kMaxWorkers), so num_threads=4 means four real
  /// participants even on a machine reporting fewer cores — which is what
  /// makes the parallel code paths testable everywhere.
  static ThreadPool& Shared();

  /// Hard ceiling on helper threads a pool will ever spawn.
  static constexpr size_t kMaxWorkers = 64;

  /// Grows the pool to at least `workers` helper threads (bounded by
  /// kMaxWorkers); returns the resulting helper count. The query service
  /// calls this up front so inter-query concurrency does not depend on the
  /// first burst happening to request enough ParallelFor participants.
  size_t EnsureAtLeast(size_t workers) { return EnsureWorkers(workers); }

  /// Enqueues a standalone task to run on some pool worker. A ParallelFor
  /// issued from within the task fans out like one from any other thread,
  /// over whichever workers are free at that moment — the service uses Post
  /// for inter-query concurrency and sizes each query's num_threads to its
  /// share of the cores. Tasks must not outlive the pool; posting
  /// during/after destruction is undefined (the service drains its
  /// outstanding tasks before letting the pool die).
  void Post(std::function<void()> task);

  /// Morsel body: (worker slot, morsel id, item range [begin, end)).
  using MorselFn =
      std::function<void(size_t worker, size_t morsel, size_t begin,
                         size_t end)>;

  /// Per-run governance knobs for ParallelFor.
  struct ParallelForOptions {
    /// Checked before every morsel (owned or stolen) by every participant;
    /// once cancelled, remaining morsels are skipped and the call returns
    /// with only the already-executed morsels counted in the stats. Null =
    /// never cancelled.
    const CancellationToken* cancel = nullptr;
  };

  /// Runs `body` once per morsel over [0, n), using up to `num_threads`
  /// participants: the caller plus one helper per requested slot for which
  /// a worker is free (neither running a task nor claimed by a queued one).
  /// Any caller may fan out, pool workers included. The caller drains every
  /// morsel no helper has claimed, then waits only for helpers that already
  /// started; a helper dequeued later leaves without running, so no thread
  /// ever blocks on work that has not begun. The call therefore returns
  /// after every morsel has run and every started helper has left the loop,
  /// so per-morsel outputs are safe to read. With num_threads <= 1, or when
  /// called from inside a morsel body (nested loops would only oversubscribe
  /// the pool), the loop runs inline on the caller, still morsel by morsel
  /// in morsel order.
  ///
  /// Failure semantics: an exception thrown by `body` in ANY participant is
  /// captured (first one wins), remaining morsels are skipped in every
  /// participant, all helpers drain out of the run, and the exception is
  /// rethrown on the calling thread — never std::terminate, never a
  /// deadlocked worker. Under cancellation the call returns normally with
  /// partial stats; checking the token afterwards is the caller's job.
  ParallelRunStats ParallelFor(size_t n, size_t morsel_items,
                               size_t num_threads, const MorselFn& body);
  ParallelRunStats ParallelFor(size_t n, size_t morsel_items,
                               size_t num_threads,
                               const ParallelForOptions& options,
                               const MorselFn& body);

  /// Fault-injection seam: when set, the hook is consulted once per
  /// requested helper of every parallel run (before the free-worker cap and
  /// without holding the pool lock); returning true for a slot simulates a
  /// failed task dispatch — that helper never joins and its morsel range is
  /// drained by the surviving participants (work stealing guarantees
  /// completion, which is exactly what the fault tests assert). Installed by
  /// the gov-layer FaultInjector; pass nullptr to clear. Costs one relaxed
  /// atomic load per ParallelFor call when unset.
  static void SetDispatchFaultHook(std::function<bool(size_t slot)> hook);

 private:
  struct Job;

  void WorkerLoop();
  // Runs one participant's share of `job`; morsel bodies see the thread as
  // inside a morsel, so nested ParallelFor calls run inline.
  static void RunParticipant(Job* job, size_t slot);
  // Grows the pool to `target` helpers (bounded by kMaxWorkers); returns the
  // resulting helper count.
  size_t EnsureWorkers(size_t target);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t busy_ = 0;  // Workers running a task (under mu_).
  bool stop_ = false;
};

}  // namespace aqp

#endif  // AQP_COMMON_THREAD_POOL_H_
