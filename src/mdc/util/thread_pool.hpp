// A small fixed worker pool for the epoch engine's per-app fan-out.
//
// The simulation kernel stays single-threaded; the pool exists only so a
// *pure* computation inside one step — independent per-app work with no
// shared mutable state — can be sharded across cores.  One primitive:
//
//   * parallelRanges(items, fn) — fork/join over [0, items), split into
//     at most `workers()` contiguous ascending ranges; fn(slot, lo, hi)
//     runs once per range and the call returns only when every range
//     finished.  The calling thread participates.  The slot index
//     identifies a *worker arena*: at most one live job per slot, so fn
//     may write slot-private state (per-worker accumulators, arena
//     segments) without synchronisation.  The callable is passed as a
//     FunctionRef: no per-call std::function allocation.
//
// Nested parallelism is refused: calling parallelRanges from inside a
// running job throws (the pool has no re-entrant scheduler, and silently
// running the nested loop inline would hide a quadratic fan-out).
//
// Exceptions thrown by a job (MDC_EXPECT violations included) are caught,
// the first one is remembered, and it is rethrown on the calling thread
// after the join, preserving the contract-checking behaviour of the
// sequential code path.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "mdc/util/function_ref.hpp"

namespace mdc {

class ThreadPool {
 public:
  /// Hard ceiling on resolved worker counts: the epoch engine packs the
  /// worker slot into 4 bits of a PathRef segment id.
  static constexpr unsigned kMaxWorkers = 16;

  /// Spawns `workers - 1` helper threads (the caller of parallelRanges
  /// is the remaining worker).  Precondition: workers >= 1.  The count is
  /// taken literally — knob clamping happens in resolveWorkers(), so
  /// tests may deliberately construct oversubscribed pools.
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned workers() const noexcept { return workers_; }

  /// Splits [0, items) into min(workers(), items) contiguous ascending
  /// ranges of near-equal size and runs fn(slot, lo, hi) once per range,
  /// on the pool plus the calling thread; blocks until all ranges
  /// completed.  Slots are dense in [0, workers()); at most one job per
  /// slot is ever live, so fn may use `slot` to index per-worker state
  /// lock-free.  A 1-worker pool (or a single range) runs fn inline.
  /// Throws PreconditionError when called from inside a running job.
  using RangeFn =
      FunctionRef<void(unsigned slot, std::size_t lo, std::size_t hi)>;
  void parallelRanges(std::size_t items, RangeFn fn);

  /// Resolves a worker-count knob: 0 means "use the MDC_THREADS
  /// environment variable, else 1"; anything else is taken literally —
  /// then the result is clamped to hardware_concurrency() (and to
  /// kMaxWorkers) with a one-time warning on stderr, because workers
  /// beyond physical cores are pure synchronisation overhead for the
  /// engine's fork/join phases (BENCH_E15's workers=4-slower-than-1 on a
  /// 1-core host was exactly this).  Setting MDC_ALLOW_OVERSUBSCRIBE
  /// skips the hardware clamp: the determinism tests use it to exercise
  /// real multi-worker merges on small machines.
  [[nodiscard]] static unsigned resolveWorkers(unsigned requested);

 private:
  void workerLoop();
  void runSlots(std::uint64_t round);

  const unsigned workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable wake_;   // signals helpers: new round or shutdown
  std::condition_variable done_;   // signals the caller: round finished
  bool shutdown_ = false;
  std::uint64_t round_ = 0;        // generation counter of parallelRanges calls

  // State of the active round, all guarded by mu_ (fn_ is dereferenced
  // outside the lock, but only for a slot drawn while the round was
  // live, which keeps pending_ > 0 and therefore the caller's
  // parallelRanges frame — where the pointee lives — alive).
  const RangeFn* fn_ = nullptr;
  std::size_t items_ = 0;
  std::size_t slots_ = 0;
  std::size_t next_ = 0;     // next slot to hand out
  std::size_t pending_ = 0;  // slots not yet finished
  std::exception_ptr firstError_;
};

}  // namespace mdc
