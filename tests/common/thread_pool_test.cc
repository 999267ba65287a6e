#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace aqp {
namespace {

TEST(ParseThreadCountTest, AcceptsPlainAndPaddedDigits) {
  EXPECT_EQ(ParseThreadCount("4").value(), 4u);
  EXPECT_EQ(ParseThreadCount("1").value(), 1u);
  EXPECT_EQ(ParseThreadCount("  8  ").value(), 8u);
  EXPECT_EQ(ParseThreadCount("4096").value(), 4096u);
}

TEST(ParseThreadCountTest, RejectsGarbage) {
  EXPECT_FALSE(ParseThreadCount("").ok());
  EXPECT_FALSE(ParseThreadCount("   ").ok());
  EXPECT_FALSE(ParseThreadCount("abc").ok());
  EXPECT_FALSE(ParseThreadCount("4x").ok());
  EXPECT_FALSE(ParseThreadCount("x4").ok());
  EXPECT_FALSE(ParseThreadCount("4 2").ok());
  EXPECT_FALSE(ParseThreadCount("+4").ok());
  EXPECT_FALSE(ParseThreadCount("-1").ok());
  EXPECT_FALSE(ParseThreadCount("3.5").ok());
}

TEST(ParseThreadCountTest, RejectsZeroAndOverflow) {
  EXPECT_FALSE(ParseThreadCount("0").ok());
  EXPECT_FALSE(ParseThreadCount("4097").ok());
  // Larger than uint64: must not wrap around into a plausible value.
  EXPECT_FALSE(ParseThreadCount("99999999999999999999999999").ok());
}

TEST(ThreadCountFromEnvTest, UnsetUsesFallback) {
  unsetenv("AQP_TEST_THREADS");
  EXPECT_EQ(ThreadCountFromEnv("AQP_TEST_THREADS", 7), 7u);
}

TEST(ThreadCountFromEnvTest, ValidValueWins) {
  setenv("AQP_TEST_THREADS", "3", 1);
  EXPECT_EQ(ThreadCountFromEnv("AQP_TEST_THREADS", 7), 3u);
  unsetenv("AQP_TEST_THREADS");
}

TEST(ThreadCountFromEnvTest, InvalidValueFallsBackInsteadOfUb) {
  for (const char* bad : {"banana", "-2", "0", "1e3", "999999999999999999999"}) {
    setenv("AQP_TEST_THREADS", bad, 1);
    EXPECT_EQ(ThreadCountFromEnv("AQP_TEST_THREADS", 5), 5u) << bad;
  }
  unsetenv("AQP_TEST_THREADS");
}

TEST(ThreadPoolTest, ParallelForCoversEveryItemOnce) {
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ThreadPool::Shared().ParallelFor(
      kN, 128, 4, [&](size_t, size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ExceptionRethrownOnCaller) {
  EXPECT_THROW(
      ThreadPool::Shared().ParallelFor(
          1000, 10, 4,
          [&](size_t, size_t morsel, size_t, size_t) {
            if (morsel == 37) throw std::runtime_error("morsel 37 blew up");
          }),
      std::runtime_error);
  // The pool must stay usable after a throwing run (no dead workers).
  std::atomic<size_t> count{0};
  ThreadPool::Shared().ParallelFor(
      100, 10, 4,
      [&](size_t, size_t, size_t begin, size_t end) {
        count.fetch_add(end - begin);
      });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPoolTest, ExceptionSkipsRemainingMorsels) {
  // Serial path (1 thread) makes "remaining" deterministic: morsels run in
  // order, so nothing after the throwing one may execute.
  std::vector<int> ran(100, 0);
  EXPECT_THROW(ThreadPool::Shared().ParallelFor(
                   100, 1, 1,
                   [&](size_t, size_t morsel, size_t, size_t) {
                     ran[morsel] = 1;
                     if (morsel == 10) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  EXPECT_EQ(std::accumulate(ran.begin(), ran.end(), 0), 11);
}

TEST(ThreadPoolTest, PreCancelledTokenRunsNothing) {
  CancellationSource source;
  source.RequestCancel(StopCause::kUserCancel, "stop");
  CancellationToken token = source.token();
  std::atomic<size_t> ran{0};
  ParallelRunStats stats = ThreadPool::Shared().ParallelFor(
      1000, 10, 4, ThreadPool::ParallelForOptions{&token},
      [&](size_t, size_t, size_t, size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0u);
  EXPECT_EQ(stats.morsels, 0u);
}

TEST(ThreadPoolTest, MidRunCancellationSkipsRemainingMorsels) {
  CancellationSource source;
  CancellationToken token = source.token();
  std::atomic<size_t> ran{0};
  ThreadPool::Shared().ParallelFor(
      1000, 1, 4, ThreadPool::ParallelForOptions{&token},
      [&](size_t, size_t, size_t, size_t) {
        if (ran.fetch_add(1) == 20) {
          source.RequestCancel(StopCause::kUserCancel, "enough");
        }
      });
  // Some morsels ran before the trip; far from all 1000 afterwards.
  EXPECT_GE(ran.load(), 21u);
  EXPECT_LT(ran.load(), 1000u);
}

TEST(ThreadPoolTest, DispatchFaultStillCompletesAllWork) {
  // Simulate every helper dispatch failing: the calling thread alone must
  // drain all morsels (work stealing has no holes).
  ThreadPool::SetDispatchFaultHook([](size_t) { return true; });
  std::vector<std::atomic<int>> hits(5000);
  ThreadPool::Shared().ParallelFor(
      5000, 64, 4, [&](size_t, size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
  ThreadPool::SetDispatchFaultHook(nullptr);
  for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, MorselDecompositionIndependentOfThreadCount) {
  constexpr size_t kN = 9973;  // Prime: uneven last morsel.
  auto run = [&](size_t threads) {
    std::vector<uint64_t> sums((kN + 99) / 100, 0);
    ThreadPool::Shared().ParallelFor(
        kN, 100, threads, [&](size_t, size_t morsel, size_t begin, size_t end) {
          uint64_t s = 0;
          for (size_t i = begin; i < end; ++i) s += i * i;
          sums[morsel] = s;
        });
    return sums;
  };
  std::vector<uint64_t> serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(8), serial);
}

/// Per-morsel sums of i*i over [0, n): the reference output the nested
/// tests compare every thread count against.
std::vector<uint64_t> MorselSquares(ThreadPool& pool, size_t n, size_t morsel,
                                    size_t threads) {
  std::vector<uint64_t> sums((n + morsel - 1) / morsel, 0);
  pool.ParallelFor(n, morsel, threads,
                   [&](size_t, size_t m, size_t begin, size_t end) {
                     uint64_t s = 0;
                     for (size_t i = begin; i < end; ++i) s += i * i;
                     sums[m] = s;
                   });
  return sums;
}

/// A one-shot gate: Wait blocks until Open.
class Gate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(ThreadPoolTest, EveryWorkerIssuingParallelForCompletes) {
  // Every worker runs a task that fans out with num_threads = 4. In the
  // first round all of them start before any issues its loop, so no worker
  // is free and each loop must finish on its own caller; in the second
  // they race for whichever workers are idle. Either way nothing may wait
  // on a helper that never starts, and every output matches serial.
  constexpr size_t kWorkers = 3;
  constexpr size_t kN = 50000;
  constexpr size_t kMorsel = 64;
  ThreadPool pool(kWorkers);
  const std::vector<uint64_t> serial = MorselSquares(pool, kN, kMorsel, 1);
  for (bool all_busy : {true, false}) {
    auto arrived = std::make_shared<std::atomic<size_t>>(0);
    std::vector<std::future<std::vector<uint64_t>>> outputs;
    for (size_t t = 0; t < kWorkers; ++t) {
      auto output = std::make_shared<std::promise<std::vector<uint64_t>>>();
      outputs.push_back(output->get_future());
      pool.Post([&pool, arrived, output, all_busy] {
        arrived->fetch_add(1);
        while (all_busy && arrived->load() < kWorkers) {
          std::this_thread::yield();
        }
        output->set_value(MorselSquares(pool, kN, kMorsel, 4));
      });
    }
    for (size_t t = 0; t < kWorkers; ++t) {
      ASSERT_EQ(outputs[t].wait_for(std::chrono::seconds(30)),
                std::future_status::ready)
          << "worker " << t << " deadlocked (all_busy=" << all_busy << ")";
      EXPECT_EQ(outputs[t].get(), serial) << t;
    }
  }
}

TEST(ThreadPoolTest, LateHelperTouchesNoFreedState) {
  // A trivial loop: the caller usually drains every morsel (or, in odd
  // runs, cancels after its first) and returns before its queued helper
  // even wakes. Each run's cancellation token is freed as soon as the call
  // returns — a late helper that read it is a use-after-free the sanitizer
  // builds report — while each body outlives its run, so a late helper that
  // ran a morsel is counted here in every build. The protocol requires such
  // a helper to see the job closed and leave without touching either.
  struct RunState {
    std::atomic<bool> returned{false};
  };
  std::atomic<size_t> late_morsels{0};
  std::vector<std::unique_ptr<RunState>> states;
  std::vector<std::unique_ptr<ThreadPool::MorselFn>> bodies;
  ThreadPool pool(2);
  for (int run = 0; run < 500; ++run) {
    states.push_back(std::make_unique<RunState>());
    RunState* state = states.back().get();
    auto source = std::make_unique<CancellationSource>();
    auto token = std::make_unique<CancellationToken>(source->token());
    const bool cancel_early = run % 2 == 1;
    CancellationSource* src = source.get();
    bodies.push_back(std::make_unique<ThreadPool::MorselFn>(
        [state, src, cancel_early, &late_morsels](size_t, size_t, size_t,
                                                  size_t) {
          if (state->returned.load()) {
            late_morsels.fetch_add(1);
            return;
          }
          if (cancel_early) src->RequestCancel(StopCause::kUserCancel, "stop");
        }));
    pool.ParallelFor(4, 1, 3, ThreadPool::ParallelForOptions{token.get()},
                     *bodies.back());
    state->returned.store(true);
    token.reset();
    source.reset();
  }
  // Every queued helper has finished once both workers sit in tasks posted
  // behind all of them (the queue is FIFO).
  std::atomic<int> parked{0};
  std::vector<std::future<void>> drained;
  for (int w = 0; w < 2; ++w) {
    auto promise = std::make_shared<std::promise<void>>();
    drained.push_back(promise->get_future());
    pool.Post([promise, &parked] {
      parked.fetch_add(1);
      while (parked.load() < 2) std::this_thread::yield();
      promise->set_value();
    });
  }
  for (auto& f : drained) f.wait();
  EXPECT_EQ(late_morsels.load(), 0u);
}

TEST(ThreadPoolTest, ParallelForInsideMorselBodyRunsInline) {
  // The enclosing loop already spreads over the participants, so a nested
  // loop runs serial on whichever thread runs the enclosing morsel.
  constexpr size_t kOuter = 8;
  std::vector<ParallelRunStats> inner(kOuter);
  std::vector<int> same_thread(kOuter, 0);
  ThreadPool::Shared().ParallelFor(
      kOuter, 1, 4, [&](size_t, size_t m, size_t, size_t) {
        const std::thread::id outer = std::this_thread::get_id();
        std::atomic<bool> moved{false};
        inner[m] = ThreadPool::Shared().ParallelFor(
            10000, 100, 4, [&](size_t, size_t, size_t, size_t) {
              if (std::this_thread::get_id() != outer) moved.store(true);
            });
        same_thread[m] = moved.load() ? 0 : 1;
      });
  for (size_t m = 0; m < kOuter; ++m) {
    EXPECT_EQ(same_thread[m], 1) << m;
    EXPECT_EQ(inner[m].morsels, 100u) << m;
    EXPECT_EQ(inner[m].worker_items.size(), 1u) << m;
    EXPECT_EQ(inner[m].steals, 0u) << m;
  }
}

TEST(ThreadPoolTest, NoHelperQueuedWhenNoWorkerIsFree) {
  // Both workers are parked on a gate when the loop starts, so it must not
  // queue a helper. The first morsel then frees both workers and waits long
  // enough for any queued helper to start and steal: every morsel still
  // has to run on the caller.
  ThreadPool pool(2);
  Gate gate;
  std::atomic<int> parked{0};
  std::atomic<int> released{0};
  for (int w = 0; w < 2; ++w) {
    pool.Post([&] {
      parked.fetch_add(1);
      gate.Wait();
      released.fetch_add(1);
    });
  }
  while (parked.load() < 2) std::this_thread::yield();

  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_caller{0};
  ParallelRunStats stats = pool.ParallelFor(
      64, 1, 3, [&](size_t, size_t m, size_t, size_t) {
        if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
        if (m == 0) {
          gate.Open();
          while (released.load() < 2) std::this_thread::yield();
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      });
  EXPECT_EQ(off_caller.load(), 0);
  EXPECT_EQ(stats.morsels, 64u);
  ASSERT_EQ(stats.worker_items.size(), 3u);
  EXPECT_EQ(stats.worker_items[0], 64u);
}

}  // namespace
}  // namespace aqp
