// Coverage for the epoch engine's worker pool: its one fork/join entry
// (parallelRanges) run for run, degenerate item counts, the nested-fork
// refusal, exception propagation, worker-count resolution, and a
// randomized stress test asserting that per-worker accumulator
// partitions merged in slot order reproduce the sequential addition
// sequence bit-for-bit at every worker count — the exact protocol the
// fluid engine's emission phase is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mdc/util/expect.hpp"
#include "mdc/util/thread_pool.hpp"

namespace mdc {
namespace {

/// Runs parallelRanges over `items` and returns how often each item ran.
std::vector<int> hitCounts(ThreadPool& pool, std::size_t items) {
  std::vector<std::atomic<int>> hits(items);
  pool.parallelRanges(items, [&](unsigned, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  return {hits.begin(), hits.end()};
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  int ranges = 0;
  pool.parallelRanges(5, [&](unsigned slot, std::size_t lo, std::size_t hi) {
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ranges;  // safe: no helper threads
    for (std::size_t i = lo; i < hi; ++i) order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(ranges, 1);  // one contiguous range, in item order
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ReusableAcrossRounds) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(hitCounts(pool, 17), std::vector<int>(17, 1));
  }
}

TEST(ThreadPool, PropagatesJobExceptions) {
  ThreadPool pool(2);
  const auto failAt57 = [](unsigned, std::size_t lo, std::size_t hi) {
    if (lo <= 57 && 57 < hi) throw std::runtime_error("job failed");
  };
  EXPECT_THROW(pool.parallelRanges(100, failAt57), std::runtime_error);
  // The pool must survive a failed round.
  EXPECT_EQ(hitCounts(pool, 8), std::vector<int>(8, 1));
}

TEST(ThreadPool, ResolveWorkersHonoursEnv) {
  // Oversubscription escape hatch makes the expectations machine-
  // independent; the clamp itself is tested below.
  ::setenv("MDC_ALLOW_OVERSUBSCRIBE", "1", 1);
  EXPECT_EQ(ThreadPool::resolveWorkers(3), 3u);
  ::setenv("MDC_THREADS", "5", 1);
  EXPECT_EQ(ThreadPool::resolveWorkers(0), 5u);
  ::unsetenv("MDC_THREADS");
  EXPECT_EQ(ThreadPool::resolveWorkers(0), 1u);
  ::unsetenv("MDC_ALLOW_OVERSUBSCRIBE");
}

TEST(ThreadPool, ResolveWorkersClampsToHardware) {
  ::unsetenv("MDC_ALLOW_OVERSUBSCRIBE");
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  const unsigned cap = std::min(hw, ThreadPool::kMaxWorkers);
  // A request beyond the machine is clamped, never oversubscribed.
  EXPECT_EQ(ThreadPool::resolveWorkers(cap + 8), cap);
  ::setenv("MDC_THREADS", "64", 1);
  EXPECT_EQ(ThreadPool::resolveWorkers(0), cap);
  ::unsetenv("MDC_THREADS");
  // 1 worker is always granted as-is.
  EXPECT_EQ(ThreadPool::resolveWorkers(1), 1u);
}

TEST(ThreadPool, ResolveWorkersCapsAtMaxEvenWhenOversubscribed) {
  ::setenv("MDC_ALLOW_OVERSUBSCRIBE", "1", 1);
  EXPECT_EQ(ThreadPool::resolveWorkers(ThreadPool::kMaxWorkers + 4),
            ThreadPool::kMaxWorkers);
  ::unsetenv("MDC_ALLOW_OVERSUBSCRIBE");
}

TEST(ThreadPoolEdge, ZeroJobsIsANoOp) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  pool.parallelRanges(0, [&](unsigned, std::size_t, std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 0);
  // The pool stays usable after empty rounds.
  EXPECT_EQ(hitCounts(pool, 5), std::vector<int>(5, 1));
}

TEST(ThreadPoolEdge, NestedParallelForIsRefused) {
  ThreadPool pool(4);
  std::atomic<int> refused{0};
  pool.parallelRanges(8, [&](unsigned, std::size_t, std::size_t) {
    try {
      pool.parallelRanges(2, [](unsigned, std::size_t, std::size_t) {});
    } catch (const PreconditionError&) {
      refused++;
    }
  });
  EXPECT_EQ(refused.load(), 4);  // one per range
  // Refusal from inside the inline (single-worker) path as well.
  ThreadPool solo(1);
  const auto nested = [&](unsigned, std::size_t, std::size_t) {
    solo.parallelRanges(1, [](unsigned, std::size_t, std::size_t) {});
  };
  EXPECT_THROW(solo.parallelRanges(1, nested), PreconditionError);
  // And the refusing pool remains healthy.
  EXPECT_EQ(hitCounts(pool, 16), std::vector<int>(16, 1));
}

TEST(ThreadPoolEdge, ParallelRangesCoversEveryItemExactlyOnce) {
  for (const unsigned workers : {4u, 8u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    for (const std::size_t items : {1ul, 3ul, 4ul, 5ul, 1000ul}) {
      std::vector<std::atomic<int>> hits(items);
      std::atomic<unsigned> maxSlot{0};
      pool.parallelRanges(items, [&](unsigned slot, std::size_t lo,
                                     std::size_t hi) {
        ASSERT_LT(lo, hi);  // no empty ranges are dispatched
        unsigned seen = maxSlot.load();
        while (slot > seen && !maxSlot.compare_exchange_weak(seen, slot)) {
        }
        for (std::size_t i = lo; i < hi; ++i) hits[i]++;
      });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
      // Slots are dense in [0, min(workers, items)).
      EXPECT_LT(maxSlot.load(), std::min<std::size_t>(workers, items));
    }
  }
}

// The merge protocol the epoch engine relies on: workers accumulate
// (slot, value) pairs into per-slot-private ordered buffers over static
// contiguous ranges; buffers applied in slot order replay the sequential
// addition sequence exactly, so the result is bit-identical to a single
// thread's — for ANY worker count, 50 randomized epochs long.
TEST(ThreadPoolStress, DeterministicPartitionMergeAcrossWorkerCounts) {
  constexpr std::size_t kAccumulators = 64;
  constexpr std::size_t kItems = 4096;
  constexpr int kEpochs = 50;

  std::mt19937 rng(0xACC);
  std::uniform_int_distribution<std::uint32_t> slotDist(0, kAccumulators - 1);
  std::uniform_real_distribution<double> valDist(1e-6, 1e6);

  // Per-epoch randomized work: item -> (accumulator slot, addend).
  std::vector<std::vector<std::pair<std::uint32_t, double>>> epochs(kEpochs);
  for (auto& items : epochs) {
    items.resize(kItems);
    for (auto& [slot, val] : items) {
      slot = slotDist(rng);
      val = valDist(rng);
    }
  }

  const auto run = [&](unsigned workers) {
    ThreadPool pool(workers);
    std::vector<double> acc(kAccumulators, 0.0);
    for (const auto& items : epochs) {
      // Each worker emits its contiguous range into a private ordered
      // buffer (never touching acc), then the buffers merge in slot-index
      // order — concatenation order == item order.
      std::vector<std::vector<std::pair<std::uint32_t, double>>> part(
          pool.workers());
      pool.parallelRanges(items.size(), [&](unsigned slot, std::size_t lo,
                                            std::size_t hi) {
        auto& out = part[slot];
        out.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) out.push_back(items[i]);
      });
      for (const auto& p : part) {
        for (const auto& [slot, val] : p) acc[slot] += val;
      }
    }
    return acc;
  };

  const std::vector<double> ref = run(1);
  for (const unsigned workers : {2u, 8u}) {
    const std::vector<double> got = run(workers);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      // Bit-identical, not approximately equal.
      EXPECT_EQ(got[i], ref[i]) << "accumulator " << i << " diverged at "
                                << workers << " workers";
    }
  }
}

}  // namespace
}  // namespace mdc
