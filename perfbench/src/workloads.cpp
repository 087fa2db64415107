// Workload specs and world set-up.  Each workload is chosen so that a
// different module does most of the work (README.md, "Workloads").
#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "mdc/core/epoch_report.hpp"
#include "mdc/sim/rng.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seeds for the components the seed drives, decorrelated from each other.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return seed * 0x9e3779b97f4a7c15ull + salt;
}

/// The world scaled like E16's chaos cells: apps/8 servers of 256 cores,
/// generous switch tables, and a fast VIP/RIP queue so the bootstrap's
/// O(apps) command burst drains quickly.
mdc::MegaDcConfig scaledConfig(std::uint32_t apps, std::uint64_t seed) {
  mdc::MegaDcConfig cfg = mdc::testScaleConfig();
  cfg.seed = seed;
  cfg.numApps = apps;
  cfg.totalDemandRps = 5.0 * apps;
  cfg.topology.numServers = std::max(32u, apps / 8);
  cfg.topology.serverCapacity = mdc::CapacityVec{256.0, 1024.0, 25.0};
  cfg.topology.numIsps = 4;
  cfg.topology.accessLinksPerIsp = 2;
  cfg.topology.accessLinkGbps = 400.0;
  cfg.topology.numSwitches = std::max(32u, apps / 500);
  cfg.topology.switchTrunkGbps = 100.0;
  cfg.numPods = std::max(8u, apps / 2500);
  cfg.switchLimits.maxVips = 2 * apps;
  cfg.switchLimits.maxRips = 8 * apps;
  cfg.manager.viprip.processSeconds = 0.001;
  // Loop periods under which no two loops share a firing instant, nor
  // with the 2 s epoch (the traced run tells loops apart by instant; at
  // the defaults pod 0 fires with every fifth engine step, the inter-pod
  // balancer with pod 0, and the link balancer with the health monitor).
  cfg.manager.pod.controlPeriod = 4.9;
  cfg.manager.interPod.period = 10.7;
  cfg.manager.link.period = 10.1;
  cfg.manager.switchBalancer.period = 10.3;
  cfg.manager.reconciler.periodSeconds = 15.1;
  cfg.manager.snapshot.periodSeconds = 60.1;
  cfg.fault.seed = derive(seed, 0xe16u);
  return cfg;
}

}  // namespace

std::optional<Workload> parseWorkload(std::string_view name) {
  if (name == "steady") return Workload::Steady;
  if (name == "diurnal_sessions") return Workload::DiurnalSessions;
  if (name == "storm") return Workload::Storm;
  return std::nullopt;
}

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::Steady:
      return "steady";
    case Workload::DiurnalSessions:
      return "diurnal_sessions";
    case Workload::Storm:
      return "storm";
  }
  return "?";
}

std::uint32_t defaultApps(Workload w) {
  switch (w) {
    case Workload::Steady:
      return 10'000;
    case Workload::DiurnalSessions:
      return 2'000;
    case Workload::Storm:
      return 4'000;
  }
  return 0;
}

std::uint32_t epochsFor(Workload w, double seconds) {
  // Timed epochs per host second at the default scale, measured on the
  // reference machine; the count is fixed per (workload, seconds) so the
  // simulated results repeat exactly for a seed.
  double perSecond = 0.0;
  switch (w) {
    case Workload::Steady:
      perSecond = 18.0;
      break;
    case Workload::DiurnalSessions:
      perSecond = 14.0;
      break;
    case Workload::Storm:
      perSecond = 35.0;
      break;
  }
  return std::max(1u, static_cast<std::uint32_t>(std::lround(
                          perSecond * std::max(0.0, seconds))));
}

Spec makeSpec(Workload w, std::uint64_t seed, std::uint32_t apps,
              std::uint32_t epochs) {
  Spec s;
  s.workload = w;
  s.seed = seed;
  s.epochs = epochs;
  s.config = scaledConfig(apps, seed);
  mdc::Rng rng{derive(seed, 0xbe7cu)};
  switch (w) {
    case Workload::Steady:
      // Static Zipf demand over a large world: the engine stays on its
      // cache-hit path while the control loops walk the whole state.
      s.config.zipfAlpha = rng.uniform(0.8, 1.0);
      break;
    case Workload::DiurnalSessions:
      // Equal 20k rps apps under a diurnal swing: every app is dirty
      // every epoch, and ~1.6M sessions are live.  The 0.9 s tick does not
      // divide the 2 s epoch, so ticks and engine steps fire at distinct
      // instants and the traced run can tell them apart.
      s.config.zipfAlpha = 0.0;
      s.config.totalDemandRps = 20'000.0 * apps;
      s.config.enableSessionEngine = true;
      s.config.session.maxActiveSessions = 4'000'000;
      s.config.session.tick = 0.9;
      s.diurnalDepth = 0.6;
      s.diurnalPeriod = 600.0;
      s.settleSeconds = 90.0;  // three mean session lifetimes of fill
      break;
    case Workload::Storm:
      // E16's lossy channel under a chaos storm with durable-state and
      // command-plane faults in every wave.
      s.config.zipfAlpha = rng.uniform(0.8, 1.0);
      s.config.ctrlFaults.dropRate = 0.05;
      s.config.ctrlFaults.delaySeconds = 0.02;
      s.config.ctrlFaults.delayJitterSeconds = 0.05;
      s.stormWaves = std::max(1u, epochs / 30);
      break;
  }
  return s;
}

// --- World -------------------------------------------------------------------

World::World(const Spec& spec) : spec_(spec) {
  const mdc::MegaDcConfig& cfg = spec_.config;

  auto t0 = Clock::now();
  dc_ = std::make_unique<mdc::MegaDc>(cfg);
  if (spec_.diurnalDepth > 0.0) {
    std::vector<double> base;
    base.reserve(dc_->apps.size());
    for (const mdc::Application& a : dc_->apps.all()) base.push_back(a.baseRps);
    dc_->setDemandModel(std::make_unique<mdc::DiurnalDemand>(
        std::move(base), spec_.diurnalDepth, spec_.diurnalPeriod,
        derive(spec_.seed, 0xd1u)));
  }
  times_.construct = secondsSince(t0);

  t0 = Clock::now();
  dc_->deployAllApps();
  times_.deploy = secondsSince(t0);

  // MegaDc::bootstrap() split into its timed halves.
  t0 = Clock::now();
  const SimTime warmup =
      std::max({10.0, cfg.hostCosts.vmCloneSeconds + 1.0,
                cfg.routePropagationDelay + 1.0});
  dc_->runUntil(dc_->sim.now() + warmup);
  const SimTime startedAt = dc_->sim.now();
  dc_->start();
  times_.warmup = secondsSince(t0);
  schedule_ = std::make_unique<Schedule>(cfg, dc_->manager->pods().size(),
                                         startedAt);

  // Let the manager drain the bootstrap's O(apps) VIP/RIP commands so the
  // window starts converged.
  t0 = Clock::now();
  const SimTime drainCap = dc_->sim.now() + 600.0;
  while (dc_->manager->viprip().queueLength() > 0 &&
         dc_->sim.now() < drainCap) {
    dc_->runUntil(dc_->sim.now() + 5.0);
  }
  times_.drain = secondsSince(t0);

  t0 = Clock::now();
  windowStart_ =
      schedule_->engineInstantAtOrAfter(dc_->sim.now() + spec_.settleSeconds);
  if (spec_.stormWaves > 0) {
    const SimTime windowEnd = windowStart_ + spec_.epochs * cfg.engine.epoch;
    mdc::ChaosStorm::Options sopt;
    sopt.seed = derive(spec_.seed, 0x570u);
    sopt.start = windowStart_;
    sopt.end = windowEnd;
    sopt.waves = spec_.stormWaves;
    // E16's per-wave maxima; the durable-state and command-plane faults
    // are placed below, exactly one of each per wave.
    sopt.maxSwitchCrashes = 1;
    sopt.maxServerCrashes = 2;
    sopt.maxLinkCuts = 1;
    sopt.maxPodOutages = 1;
    sopt.maxChannelPartitions = 1;
    sopt.maxPodManagerCrashes = 1;
    sopt.maxGlobalManagerCrashes = 1;
    sopt.maxJournalTornWrites = 0;
    sopt.maxJournalCorruptRecords = 0;
    sopt.maxSnapshotCorruptions = 0;
    sopt.maxCommandStorms = 0;
    sopt.minRepairSeconds = 5.0;
    sopt.maxRepairSeconds = 25.0;
    mdc::ChaosStorm storm{sopt};
    storm.schedule(*dc_->faults);
    mdc::Rng rng{derive(spec_.seed, 0x57a7u)};
    const SimTime wave = (windowEnd - windowStart_) / spec_.stormWaves;
    for (std::uint32_t w = 0; w < spec_.stormWaves; ++w) {
      const SimTime at = windowStart_ + w * wave;
      dc_->faults->commandStorm(at + rng.uniform(0.0, 0.5 * wave), 64, 5.0);
      dc_->faults->tornJournalWrite(at + rng.uniform(0.0, wave), 15.0);
      dc_->faults->corruptSnapshot(at + rng.uniform(0.0, wave));
    }
    // Failover runs in every storm, whatever the seed draws (as in E16).
    dc_->faults->crashGlobalManager(windowStart_ + 37.0, 15.0);
  }
  dc_->runUntil(windowStart_);
  times_.settle = secondsSince(t0);

  invariants_ = std::make_unique<mdc::WorldInvariants>(
      dc_->topo, dc_->apps, dc_->dns, dc_->fleet, dc_->hosts, *dc_->manager,
      dc_->health.get());
  if (dc_->sessions) {
    mdc::MegaDc* dc = dc_.get();
    invariants_->attachSessionProbe(
        [dc]() -> std::optional<mdc::SessionPlaneSample> {
          if (dc->sessions == nullptr) return std::nullopt;
          mdc::SessionPlaneSample s;
          s.arrivals = dc->sessions->totalArrivals();
          s.active = dc->sessions->activeSessions();
          s.completed = dc->sessions->completedSessions();
          s.broken = dc->sessions->brokenSessions();
          s.rejected = dc->sessions->rejectedSessions();
          return s;
        });
  }
}

std::uint64_t World::stateHash() const {
  return mdc::hashEpochReport(dc_->engine->latest());
}

void World::checkEpoch() {
  const auto t0 = Clock::now();
  const std::vector<std::string> found = invariants_->checkEpoch();
  violationCount_ += found.size();
  for (const std::string& v : found) {
    if (violations_.size() < 5) violations_.push_back(v);
  }
  runHash_ = (runHash_ ^ stateHash()) * 0x100000001b3ull;
  gateSeconds_ += secondsSince(t0);
}

std::optional<SimTime> World::healAndQuiesce(SimTime stormEnd) {
  dc_->manager->viprip().ctrlChannel().setFaults(mdc::ChannelFaults{});
  constexpr int kMaxEpochs = 300;
  for (int e = 0; e < kMaxEpochs; ++e) {
    dc_->runUntil(schedule_->engineInstantAtOrAfter(
        std::nextafter(dc_->sim.now(),
                       std::numeric_limits<double>::infinity())));
    checkEpoch();
    if (invariants_->checkQuiesced().empty()) {
      return dc_->sim.now() - stormEnd;
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
