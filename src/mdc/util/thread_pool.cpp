#include "mdc/util/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <iostream>

#include "mdc/util/expect.hpp"

namespace mdc {

namespace {
// True while the current thread is executing a parallelRanges job — set on
// every thread that runs jobs (helpers and the participating caller),
// so a nested fork from inside a job is refused deterministically.
thread_local bool tlInParallelJob = false;

struct JobGuard {
  JobGuard() noexcept { tlInParallelJob = true; }
  ~JobGuard() { tlInParallelJob = false; }
};

void warnOnce(const char* what, unsigned requested, unsigned granted) {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::cerr << "mdc: ThreadPool clamping " << what << " workers "
              << requested << " -> " << granted
              << " (hardware_concurrency; set MDC_ALLOW_OVERSUBSCRIBE to "
                 "override)\n";
  }
}
}  // namespace

ThreadPool::ThreadPool(unsigned workers) : workers_(workers) {
  MDC_EXPECT(workers >= 1, "thread pool needs at least one worker");
  threads_.reserve(workers - 1);
  for (unsigned i = 0; i + 1 < workers; ++i) {
    threads_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

unsigned ThreadPool::resolveWorkers(unsigned requested) {
  unsigned n = requested;
  const char* source = "requested";
  if (n == 0) {
    n = 1;
    if (const char* env = std::getenv("MDC_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed >= 1) {
        n = static_cast<unsigned>(parsed);
        source = "MDC_THREADS";
      }
    }
  }
  if (n > kMaxWorkers) {
    warnOnce(source, n, kMaxWorkers);
    n = kMaxWorkers;
  }
  if (std::getenv("MDC_ALLOW_OVERSUBSCRIBE") != nullptr) return n;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;  // unknown: assume a single core, the safe floor
  if (n > hw) {
    warnOnce(source, n, hw);
    n = hw;
  }
  return n;
}

void ThreadPool::runSlots(std::uint64_t round) {
  // Slots are drawn under the lock, so cross-round races are impossible:
  // a straggler from an earlier round fails the round check and simply
  // goes back to sleep.
  for (;;) {
    std::size_t slot;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (round != round_ || next_ >= slots_) return;
      slot = next_++;
    }
    // fn_ stays valid here: the caller cannot leave parallelRanges while
    // this drawn-but-unfinished slot keeps pending_ above zero.
    std::exception_ptr error;
    {
      const JobGuard guard;
      try {
        (*fn_)(static_cast<unsigned>(slot), slot * items_ / slots_,
               (slot + 1) * items_ / slots_);
      } catch (...) {
        error = std::current_exception();
      }
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (error && !firstError_) firstError_ = error;
      if (--pending_ == 0) done_.notify_all();
    }
  }
}

void ThreadPool::workerLoop() {
  std::uint64_t seenRound = 0;
  for (;;) {
    std::uint64_t round;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] { return shutdown_ || round_ != seenRound; });
      if (shutdown_) return;
      seenRound = round = round_;
    }
    runSlots(round);
  }
}

void ThreadPool::parallelRanges(std::size_t items, RangeFn fn) {
  MDC_EXPECT(!tlInParallelJob,
             "nested parallelRanges: the pool is not re-entrant");
  if (items == 0) return;
  // One job per slot, each a contiguous range ascending in the slot
  // index, so a slot-order concatenation of per-range output replays the
  // sequential item order exactly — the property the engine's
  // deterministic merges are built on.
  const std::size_t slots =
      items < static_cast<std::size_t>(workers_) ? items : workers_;
  if (slots == 1) {
    const JobGuard guard;
    fn(0, 0, items);
    return;
  }
  std::uint64_t round;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    items_ = items;
    slots_ = slots;
    next_ = 0;
    pending_ = slots;
    firstError_ = nullptr;
    round = ++round_;
  }
  wake_.notify_all();
  runSlots(round);  // the caller is a worker too
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [&] { return pending_ == 0; });
    slots_ = 0;
    next_ = 0;
    fn_ = nullptr;
    error = firstError_;
    firstError_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace mdc
