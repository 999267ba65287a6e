#include "common/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/check.h"
#include "common/str_util.h"

namespace aqp {
namespace {

// True while this thread runs a morsel body. A ParallelFor issued from
// inside one runs inline: the enclosing loop already spreads over the
// participants, so fanning out again would only oversubscribe the pool.
thread_local bool t_in_morsel = false;

// Dispatch fault hook (see SetDispatchFaultHook). The flag is the cheap
// guard; the function itself is read under the mutex only when armed.
std::atomic<bool> g_dispatch_hook_set{false};
std::mutex g_dispatch_hook_mu;
std::function<bool(size_t)> g_dispatch_hook;

bool DispatchFaulted(size_t slot) {
  if (!g_dispatch_hook_set.load(std::memory_order_acquire)) return false;
  std::function<bool(size_t)> hook;
  {
    std::lock_guard<std::mutex> lock(g_dispatch_hook_mu);
    hook = g_dispatch_hook;
  }
  return hook != nullptr && hook(slot);
}

}  // namespace

Result<size_t> ParseThreadCount(std::string_view s) {
  std::string_view trimmed = StripWhitespace(s);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty thread count");
  }
  uint64_t value = 0;
  for (char c : trimmed) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("thread count is not a positive integer: '" +
                                     std::string(s) + "'");
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
    if (value > 4096) {
      return Status::OutOfRange("thread count out of range (1..4096): '" +
                                std::string(s) + "'");
    }
  }
  if (value == 0) {
    return Status::OutOfRange("thread count must be >= 1: '" + std::string(s) +
                              "'");
  }
  return static_cast<size_t>(value);
}

size_t ThreadCountFromEnv(const char* env_var, size_t fallback) {
  const char* raw = std::getenv(env_var);
  if (raw == nullptr) return fallback;
  Result<size_t> parsed = ParseThreadCount(raw);
  if (parsed.ok()) return parsed.value();
  // Warn once per process: a misconfigured knob should be loud but must not
  // spam stderr from every query.
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr, "[aqp] ignoring invalid %s=%s (%s); using %zu\n",
                 env_var, raw, parsed.status().ToString().c_str(), fallback);
  }
  return fallback;
}

void ThreadPool::SetDispatchFaultHook(std::function<bool(size_t)> hook) {
  std::lock_guard<std::mutex> lock(g_dispatch_hook_mu);
  g_dispatch_hook = std::move(hook);
  g_dispatch_hook_set.store(g_dispatch_hook != nullptr,
                            std::memory_order_release);
}

void ParallelRunStats::MergeFrom(const ParallelRunStats& other) {
  morsels += other.morsels;
  steals += other.steals;
  if (worker_items.size() < other.worker_items.size()) {
    worker_items.resize(other.worker_items.size(), 0);
  }
  for (size_t i = 0; i < other.worker_items.size(); ++i) {
    worker_items[i] += other.worker_items[i];
  }
}

size_t HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

/// Shared state of one ParallelFor run. Each participant owns a contiguous
/// run of morsel ids [lo, hi) and pops from it with a fetch_add cursor;
/// thieves use the same cursor, so owner/thief races resolve to distinct
/// morsels by construction. Queued helpers co-own the job, so one that is
/// dequeued after its caller returned still finds it alive — and closed.
struct ThreadPool::Job {
  size_t n = 0;
  size_t morsel_items = 0;
  size_t num_morsels = 0;
  const MorselFn* body = nullptr;
  const CancellationToken* cancel = nullptr;

  struct alignas(64) Cursor {
    std::atomic<size_t> next{0};
    size_t hi = 0;
  };
  std::vector<Cursor> cursors;              // One per participant.
  struct alignas(64) Slot {
    uint64_t items = 0;
    uint64_t steals = 0;
    uint64_t morsels = 0;
  };
  std::vector<Slot> slots;                  // One per participant.

  // Set on the first body exception; every participant checks it before
  // every morsel, so remaining work is skipped without any thread blocking.
  std::atomic<bool> aborted{false};

  std::mutex mu;
  std::condition_variable cv;
  // Set by the caller once it has drained every cursor; a helper that
  // dequeues afterwards leaves without running (the body may be gone).
  bool closed = false;
  size_t helpers_started = 0;               // Helpers that joined before close.
  size_t helpers_done = 0;                  // Helpers that finished RunParticipant.
  std::exception_ptr exception;             // First body exception (under mu).

  // True once this run should stop issuing new morsels.
  bool ShouldStop() const {
    return aborted.load(std::memory_order_acquire) ||
           (cancel != nullptr && cancel->IsCancelled());
  }
};

ThreadPool::ThreadPool(size_t num_workers) { EnsureWorkers(num_workers); }

size_t ThreadPool::EnsureWorkers(size_t target) {
  target = std::min(target, kMaxWorkers);
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() < target && !stop_) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return workers_.size();
}

void ThreadPool::Post(std::function<void()> task) {
  EnsureWorkers(1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.emplace_back(std::move(task));
  }
  cv_.notify_one();
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(HardwareThreads() - 1);
  return *pool;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_ && queue_.empty()) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++busy_;
    lock.unlock();
    task();
    task = nullptr;  // Drop the task's captures before retaking the lock.
    lock.lock();
    --busy_;
  }
}

void ThreadPool::RunParticipant(Job* job, size_t slot) {
  const bool outer_in_morsel = t_in_morsel;
  t_in_morsel = true;  // Nested ParallelFor calls in the body run inline.
  Job::Cursor& own = job->cursors[slot];
  Job::Slot& out = job->slots[slot];
  // Runs one morsel; on a body exception records it (first wins) and trips
  // the abort flag so every participant stops issuing morsels.
  auto run = [&](size_t m) {
    size_t begin = m * job->morsel_items;
    size_t end = std::min(job->n, begin + job->morsel_items);
    try {
      (*job->body)(slot, m, begin, end);
      out.items += end - begin;
      ++out.morsels;
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(job->mu);
        if (!job->exception) job->exception = std::current_exception();
      }
      job->aborted.store(true, std::memory_order_release);
    }
  };
  // Drain the owned run first.
  while (!job->ShouldStop()) {
    size_t m = own.next.fetch_add(1, std::memory_order_relaxed);
    if (m >= own.hi) break;
    run(m);
  }
  // Then steal from the most-loaded peer until nothing is left anywhere.
  while (!job->ShouldStop()) {
    size_t victim = job->cursors.size();
    size_t best_remaining = 0;
    for (size_t p = 0; p < job->cursors.size(); ++p) {
      if (p == slot) continue;
      size_t next = job->cursors[p].next.load(std::memory_order_relaxed);
      size_t remaining = next < job->cursors[p].hi
                             ? job->cursors[p].hi - next
                             : 0;
      if (remaining > best_remaining) {
        best_remaining = remaining;
        victim = p;
      }
    }
    if (victim == job->cursors.size()) break;  // Everything drained.
    size_t m = job->cursors[victim].next.fetch_add(1,
                                                   std::memory_order_relaxed);
    if (m >= job->cursors[victim].hi) continue;  // Lost the race; rescan.
    ++out.steals;
    run(m);
  }
  t_in_morsel = outer_in_morsel;
}

ParallelRunStats ThreadPool::ParallelFor(size_t n, size_t morsel_items,
                                         size_t num_threads,
                                         const MorselFn& body) {
  return ParallelFor(n, morsel_items, num_threads, ParallelForOptions{}, body);
}

ParallelRunStats ThreadPool::ParallelFor(size_t n, size_t morsel_items,
                                         size_t num_threads,
                                         const ParallelForOptions& options,
                                         const MorselFn& body) {
  AQP_CHECK(morsel_items > 0);
  ParallelRunStats stats;
  if (n == 0) return stats;
  const size_t num_morsels = (n + morsel_items - 1) / morsel_items;

  size_t participants = std::max<size_t>(num_threads, 1);
  // An explicit request for P threads is honored with real threads even on
  // machines with fewer cores: grow the pool on demand (the request conveys
  // intent, and determinism never depends on the thread count anyway).
  if (participants > 1) {
    participants = std::min(participants, EnsureWorkers(participants - 1) + 1);
  }
  participants = std::min(participants, num_morsels);
  if (t_in_morsel) participants = 1;  // Nested in a morsel body: run inline.

  if (participants == 1) {
    // Serial path: same morsels, same order — the determinism baseline. The
    // token is checked at every morsel boundary; an exception from the body
    // propagates directly (this IS the caller thread).
    uint64_t items = 0;
    uint64_t executed = 0;
    for (size_t m = 0; m < num_morsels; ++m) {
      if (options.cancel != nullptr && options.cancel->IsCancelled()) break;
      size_t begin = m * morsel_items;
      size_t end = std::min(n, begin + morsel_items);
      body(0, m, begin, end);
      items += end - begin;
      ++executed;
    }
    stats.morsels = executed;
    stats.worker_items.assign(1, items);
    return stats;
  }

  auto job = std::make_shared<Job>();
  job->n = n;
  job->morsel_items = morsel_items;
  job->num_morsels = num_morsels;
  job->body = &body;
  job->cancel = options.cancel;
  job->cursors = std::vector<Job::Cursor>(participants);
  job->slots = std::vector<Job::Slot>(participants);
  // Contiguous morsel runs, remainder spread over the first participants.
  size_t base = num_morsels / participants;
  size_t extra = num_morsels % participants;
  size_t lo = 0;
  for (size_t p = 0; p < participants; ++p) {
    size_t len = base + (p < extra ? 1 : 0);
    job->cursors[p].next.store(lo, std::memory_order_relaxed);
    job->cursors[p].hi = lo + len;
    lo += len;
  }

  // A dispatch fault drops a helper entirely. The hook is consulted once per
  // requested helper, outside mu_ (an armed hang must not stall the pool),
  // and before the free-worker cap, so its hit count depends only on the
  // work, never on which workers happen to be idle.
  std::vector<size_t> dispatch;
  for (size_t slot = 1; slot < participants; ++slot) {
    if (!DispatchFaulted(slot)) dispatch.push_back(slot);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Helpers go only to workers with nothing else to do; the pool never
    // grows for one. A slot without a helper — faulted or capped — is
    // drained by the participants that did start, through work stealing.
    const size_t claimed = busy_ + queue_.size();
    const size_t free = workers_.size() > claimed ? workers_.size() - claimed
                                                  : 0;
    if (dispatch.size() > free) dispatch.resize(free);
    for (size_t slot : dispatch) {
      queue_.emplace_back([job, slot] {
        {
          std::lock_guard<std::mutex> jlock(job->mu);
          if (job->closed) return;
          ++job->helpers_started;
        }
        RunParticipant(job.get(), slot);
        std::lock_guard<std::mutex> jlock(job->mu);
        ++job->helpers_done;
        job->cv.notify_one();
      });
    }
  }
  for (size_t i = 0; i < dispatch.size(); ++i) cv_.notify_one();

  RunParticipant(job.get(), 0);

  // The caller has drained (or abandoned) every cursor, so only helpers that
  // already started can still be running a morsel: close the job to the
  // rest and wait for those. No thread ever waits on a helper that has not
  // started, which is what keeps nested calls from pool workers
  // deadlock-free. Afterwards every per-morsel output is visible.
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->closed = true;
    job->cv.wait(lock, [&job] {
      return job->helpers_done == job->helpers_started;
    });
  }

  for (size_t p = 0; p < participants; ++p) {
    stats.morsels += job->slots[p].morsels;
    stats.steals += job->slots[p].steals;
  }
  stats.worker_items.resize(participants);
  for (size_t p = 0; p < participants; ++p) {
    stats.worker_items[p] = job->slots[p].items;
  }
  // Rethrow the first body exception on the calling thread, after every
  // started helper has left the job — the no-std::terminate contract.
  if (job->exception) std::rethrow_exception(job->exception);
  return stats;
}

}  // namespace aqp
