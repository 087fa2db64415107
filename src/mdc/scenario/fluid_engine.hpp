// The fluid traffic engine.
//
// Every epoch it routes each application's demand along the paper's data
// path — DNS shares -> VIP -> advertised access link -> owning LB switch
// (-> m-VIP -> second-layer switch, in two-LB-layer mode) -> weighted RIPs
// -> VMs — converts request rates to bandwidth, accounts link and switch
// load, applies serving limits, and publishes an EpochReport to the global
// manager.
//
// Bandwidth contention is approximated per flow as
//   served = demand * min over links on the path of min(1, cap/offered),
// which is monotone, cheap (O(flows)) at the 300k-server scale, and exact
// whenever a flow crosses at most one saturated link (the dominant case
// here: the access link or the switch trunk).  The exact max-min allocator
// in mdc/net remains available for finer analyses.
//
// The engine is incremental and parallel (see DESIGN.md, "Epoch engine
// performance model").  Each application's resolved flow tree is cached
// together with the config versions it was derived from (DNS shares,
// route table, VIP/RIP tables, VM liveness, demand value); an epoch
// re-descends only the applications whose inputs moved and replays every
// other tree from the cache.  The dirty-app fan-out, the link emission,
// and the serving pass run on a small worker pool over static contiguous
// app ranges; every per-accumulator addition sequence is arranged to
// equal the sequential application order, so every mode — incremental or
// full, 1 worker or N — produces bit-identical EpochReports.  The
// virtual-time Simulation loop itself stays single-threaded; only the
// pure computation inside one step() parallelizes.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mdc/app/app_registry.hpp"
#include "mdc/core/epoch_report.hpp"
#include "mdc/dns/dns.hpp"
#include "mdc/host/host_fleet.hpp"
#include "mdc/lb/switch_fleet.hpp"
#include "mdc/metrics/timeseries.hpp"
#include "mdc/net/path_arena.hpp"
#include "mdc/obs/phase_profiler.hpp"
#include "mdc/route/route_registry.hpp"
#include "mdc/sim/simulation.hpp"
#include "mdc/topo/topology.hpp"
#include "mdc/util/thread_pool.hpp"
#include "mdc/workload/demand.hpp"

namespace mdc {

class FluidEngine {
 public:
  struct Options {
    SimTime epoch = 5.0;
    /// Stop recording time series after this many samples (0 = unlimited).
    std::size_t maxSamples = 0;
    /// Serve unchanged apps from the flow-tree cache.  false = recompute
    /// every app every epoch (the always-correct fallback; also what the
    /// equivalence tests compare the cache against).
    bool incremental = true;
    /// Worker threads for the per-app fan-out inside one step().
    /// 0 = take the MDC_THREADS environment variable, defaulting to 1.
    /// Resolved through ThreadPool::resolveWorkers: clamped to
    /// hardware_concurrency (oversubscription is pure fork/join overhead)
    /// unless MDC_ALLOW_OVERSUBSCRIBE is set, and to
    /// ThreadPool::kMaxWorkers always.
    unsigned workers = 0;
  };

  FluidEngine(Simulation& sim, const Topology& topo, AppRegistry& apps,
              AuthoritativeDns& dns, ResolverPopulation& resolvers,
              RouteRegistry& routes, SwitchFleet& fleet, HostFleet& hosts,
              const DemandModel& demand, Options options);
  ~FluidEngine();

  FluidEngine(const FluidEngine&) = delete;
  FluidEngine& operator=(const FluidEngine&) = delete;

  /// Evaluate one epoch at the current simulation time.
  EpochReport step();

  /// Register the periodic epoch loop; each report is forwarded to `sink`.
  void start(std::function<void(const EpochReport&)> sink);

  /// Installs a hook that fills the report's sampled gauges (the GAUGE
  /// rows of MDC_EPOCH_REPORT_GAUGES), which the flow model does not
  /// compute.  Runs inside step(), after the flow fields are filled and
  /// before the report is published.
  void setReportDecorator(std::function<void(EpochReport&)> decorate) {
    decorate_ = std::move(decorate);
  }

  [[nodiscard]] const EpochReport& latest() const noexcept { return latest_; }

  // --- cache observability (bench E15) -----------------------------------

  /// Cumulative apps re-descended / served from cache across all steps.
  [[nodiscard]] std::uint64_t appsRecomputed() const noexcept {
    return totalRecomputed_;
  }
  [[nodiscard]] std::uint64_t appsFromCache() const noexcept {
    return totalCached_;
  }
  /// Interned path nodes (shared prefixes stored once).
  [[nodiscard]] std::size_t pathArenaSize() const noexcept {
    return arena_.size();
  }
  [[nodiscard]] unsigned workerCount() const noexcept {
    return pool_.workers();
  }

  /// Per-phase wall-clock profile of the step() hot path (disabled by
  /// default; enable via profiler().setEnabled(true)).  Pure
  /// observability: never feeds back into simulation state.
  [[nodiscard]] PhaseProfiler& profiler() noexcept { return profiler_; }
  [[nodiscard]] const PhaseProfiler& profiler() const noexcept {
    return profiler_;
  }

  // --- recorded series (inputs to the benches) ---------------------------

  [[nodiscard]] const TimeSeries& linkImbalance() const noexcept {
    return linkImbalance_;
  }
  [[nodiscard]] const TimeSeries& switchImbalance() const noexcept {
    return switchImbalance_;
  }
  [[nodiscard]] const TimeSeries& maxLinkUtil() const noexcept {
    return maxLinkUtil_;
  }
  [[nodiscard]] const TimeSeries& maxSwitchUtil() const noexcept {
    return maxSwitchUtil_;
  }
  [[nodiscard]] const TimeSeries& satisfaction() const noexcept {
    return satisfaction_;
  }
  [[nodiscard]] const TimeSeries& unroutedRps() const noexcept {
    return unrouted_;
  }

 private:
  struct AppCache;

  /// Per-link emission buckets: a link slot belongs to bucket
  /// (slot >> 6) & (kMergeBuckets - 1), i.e. cache-line-aligned 64-slot
  /// blocks dealt round-robin, so merge workers never write neighbouring
  /// linkOffered_ entries (no false sharing) while the bucket count still
  /// spreads hot links across workers.
  static constexpr unsigned kMergeBuckets = 16;
  static constexpr unsigned kMergeBlockShift = 6;

  /// Per-worker emission arena, cache-line aligned so workers appending
  /// concurrently never share a line of vector headers.  Struct-of-arrays:
  /// link slots and gbps values in separate vectors per bucket.
  struct alignas(64) WorkerEmit {
    std::array<std::vector<std::uint32_t>, kMergeBuckets> slots;
    std::array<std::vector<double>, kMergeBuckets> gbps;
  };
  struct alignas(64) WorkerTouched {
    std::vector<VmRecord*> vms;
  };

  [[nodiscard]] bool cacheValid(AppId app, const AppCache& c) const;
  void computeApp(AppId app, AppCache& c, std::span<const VipWeight> shares,
                  unsigned seg);
  void descend(AppId app, VipId vip, double rps, PathRef prefix, int depth,
               AppCache& c, unsigned seg);

  Simulation& sim_;
  const Topology& topo_;
  AppRegistry& apps_;
  AuthoritativeDns& dns_;
  ResolverPopulation& resolvers_;
  RouteRegistry& routes_;
  SwitchFleet& fleet_;
  HostFleet& hosts_;
  const DemandModel& demand_;
  Options options_;
  bool demandInvariant_;

  PathArena arena_;
  ThreadPool pool_;
  std::vector<AppCache> cache_;           // indexed by AppId
  std::vector<std::size_t> dirty_;        // app indices to re-descend
  std::vector<std::vector<VipWeight>> dirtyShares_;  // parallel to dirty_

  // Flat per-epoch accumulators (reused across steps).  The vm/vip/app
  // arrays are epoch-stamped so only the entries a flow actually touched
  // are ever reset; stamps also mark which entries belong to this epoch
  // when the dense arrays are scanned into the report's FlatMaps.
  std::vector<double> linkOffered_;
  std::vector<double> vmOffered_;   // by VmId index, epoch-stamped
  std::vector<double> vmNetRps_;
  std::vector<std::uint64_t> vmStamp_;
  std::vector<double> vipGbps_;     // by VipId index, epoch-stamped
  std::vector<std::uint64_t> vipStamp_;
  std::vector<double> appServed_;   // by AppId index, epoch-stamped
  std::vector<std::uint64_t> appServedStamp_;
  std::uint64_t epochStamp_ = 0;
  // Per-worker state, indexed by the parallelRanges slot: bucketed link
  // emission buffers and the touched-VM lists (next epoch's gauge-reset
  // targets).
  std::vector<WorkerEmit> emit_;
  std::vector<WorkerTouched> touched_;

  std::uint64_t totalRecomputed_ = 0;
  std::uint64_t totalCached_ = 0;
  PhaseProfiler profiler_;
  std::function<void(EpochReport&)> decorate_;

  EpochReport latest_;
  TimeSeries linkImbalance_{"link-imbalance(max/mean)"};
  TimeSeries switchImbalance_{"switch-imbalance(max/mean)"};
  TimeSeries maxLinkUtil_{"max-link-util"};
  TimeSeries maxSwitchUtil_{"max-switch-util"};
  TimeSeries satisfaction_{"served/demand"};
  TimeSeries unrouted_{"unrouted-rps"};
};

}  // namespace mdc
