// Equivalence and invalidation tests for the incremental epoch engine.
//
// The load-bearing property: a FluidEngine in incremental mode — with any
// worker count — produces EpochReports *bit-identical* to full-recompute
// mode.  The randomized test below drives three engines over the same
// shared world through hundreds of epochs of VIP transfers, DNS weight
// shifts, switch crashes/repairs, and VM deaths, comparing every report
// field exactly (not within a tolerance).  The targeted tests pin down
// the invalidation matrix: which mutations must dirty an app's cache and
// which must not.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "mdc/scenario/fluid_engine.hpp"

namespace mdc {
namespace {

FluidEngine::Options engineOptions(bool incremental, unsigned workers) {
  FluidEngine::Options o;
  o.incremental = incremental;
  o.workers = workers;
  return o;
}

/// Exact, field-for-field comparison of what the flow model computes.  The
/// engine-observability counters (engineAppsRecomputed/engineAppsCached)
/// are deliberately excluded: they describe the computation, not the
/// modelled system.  The sampled gauges stay at their defaults here (no
/// MegaDc samples them).
void expectSameReport(const EpochReport& a, const EpochReport& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.accessLinkUtil, b.accessLinkUtil);
  EXPECT_EQ(a.switchUtil, b.switchUtil);
  EXPECT_EQ(a.appDemandRps, b.appDemandRps);
  EXPECT_EQ(a.appServedRps, b.appServedRps);
  EXPECT_EQ(a.vipDemandGbps, b.vipDemandGbps);
  EXPECT_EQ(a.externalOfferedGbps, b.externalOfferedGbps);
  EXPECT_EQ(a.externalServedGbps, b.externalServedGbps);
  EXPECT_EQ(a.unroutedRps, b.unroutedRps);
  EXPECT_EQ(a.unroutedByCause, b.unroutedByCause);
  EXPECT_EQ(a.degradedRoutedRps, b.degradedRoutedRps);
}

// A multi-app world with three engines observing the *same* stores: a
// full-recompute reference, an incremental engine, and an incremental
// engine with a worker pool.  Stepping all three at the same sim time is
// safe: ResolverPopulation::advance is idempotent within a timestamp
// (dt = 0 for the second and third calls) and RouteRegistry::settle
// re-settles nothing.
struct TriWorld {
  Simulation sim;
  Topology topo;
  AppRegistry apps;
  AuthoritativeDns dns;
  RouteRegistry routes{0.0};
  SwitchFleet fleet;
  HostFleet hosts;
  std::unique_ptr<ResolverPopulation> resolvers;
  std::unique_ptr<StaticDemand> demand;
  std::unique_ptr<FluidEngine> full;
  std::unique_ptr<FluidEngine> inc;
  std::unique_ptr<FluidEngine> par;

  std::vector<AppId> appIds;
  std::vector<std::vector<VipId>> appVips;  // per app
  std::vector<VmId> aliveVms;

  static TopologyConfig topoConfig(std::uint32_t servers,
                                   std::uint32_t switches) {
    TopologyConfig cfg;
    cfg.numServers = servers;
    cfg.serverCapacity = CapacityVec{32.0, 128.0, 2.0};
    cfg.numIsps = 2;
    cfg.accessLinksPerIsp = 2;
    cfg.accessLinkGbps = 4.0;
    cfg.numSwitches = switches;
    cfg.switchTrunkGbps = 2.0;
    return cfg;
  }

  TriWorld(std::uint32_t numApps, std::uint32_t servers,
           std::uint32_t switches, std::uint32_t seed,
           double rpsLo = 500.0, double rpsHi = 4000.0, int fanout = 2)
      : topo(topoConfig(servers, switches)),
        hosts(topo, sim, HostCostModel{}) {
    // The equivalence property under test is "any worker count produces
    // the same bits", which needs real multi-worker pools even on
    // single-core CI machines — skip the hardware clamp.
    ::setenv("MDC_ALLOW_OVERSUBSCRIBE", "1", 1);
    std::mt19937 rng(seed);
    for (std::uint32_t i = 0; i < switches; ++i) {
      fleet.addSwitch(SwitchLimits{});
    }
    std::uniform_real_distribution<double> rpsDist(rpsLo, rpsHi);
    std::vector<double> rates;
    for (std::uint32_t a = 0; a < numApps; ++a) {
      const double rps = rpsDist(rng);
      rates.push_back(rps);
      appIds.push_back(
          apps.create("app-" + std::to_string(a), AppSla{}, rps));
      dns.registerApp(appIds.back());
    }
    demand = std::make_unique<StaticDemand>(rates);
    resolvers = std::make_unique<ResolverPopulation>(dns, ResolverConfig{});
    full = std::make_unique<FluidEngine>(sim, topo, apps, dns, *resolvers,
                                         routes, fleet, hosts, *demand,
                                         engineOptions(false, 1));
    inc = std::make_unique<FluidEngine>(sim, topo, apps, dns, *resolvers,
                                        routes, fleet, hosts, *demand,
                                        engineOptions(true, 1));
    par = std::make_unique<FluidEngine>(sim, topo, apps, dns, *resolvers,
                                        routes, fleet, hosts, *demand,
                                        engineOptions(true, 3));

    // Wire every app: 1-2 VIPs, each with 1-2 VM RIPs.
    std::uniform_int_distribution<std::uint32_t> srvDist(0, servers - 1);
    std::uniform_int_distribution<std::uint32_t> swDist(0, switches - 1);
    std::uniform_int_distribution<std::uint32_t> arDist(
        0, topo.config().numIsps * topo.config().accessLinksPerIsp - 1);
    std::uniform_int_distribution<int> countDist(1, fanout);
    std::uniform_real_distribution<double> weightDist(0.5, 2.0);
    appVips.resize(numApps);
    for (std::uint32_t a = 0; a < numApps; ++a) {
      const AppId app = appIds[a];
      const int vips = countDist(rng);
      for (int v = 0; v < vips; ++v) {
        const VipId vip{a * 4 + static_cast<std::uint32_t>(v)};
        EXPECT_TRUE(fleet.configureVip(SwitchId{swDist(rng)}, vip, app).ok());
        const int rips = countDist(rng);
        for (int r = 0; r < rips; ++r) {
          // Random placement; probe forward past full servers.
          const CapacityVec slice = apps.app(app).sla.sliceFor(rates[a], 1.0);
          Result<VmId> vm{Error{"unplaced", ""}};
          const std::uint32_t start = srvDist(rng);
          for (std::uint32_t probe = 0; probe < servers && !vm.ok();
               ++probe) {
            vm = hosts.createVm(app, ServerId{(start + probe) % servers},
                                slice);
          }
          EXPECT_TRUE(vm.ok());
          aliveVms.push_back(vm.value());
          RipEntry e;
          e.rip = RipId{vip.value() * 16 + static_cast<std::uint32_t>(r)};
          e.vm = vm.value();
          e.weight = weightDist(rng);
          EXPECT_TRUE(fleet.addRip(vip, e).ok());
        }
        dns.addVip(app, vip, weightDist(rng));
        routes.advertise(vip, AccessRouterId{arDist(rng)}, sim.now());
        appVips[a].push_back(vip);
      }
    }
    sim.runUntil(61.0);  // boot every VM
    routes.settle(sim.now());
  }

  /// Steps all three engines at the current time and checks exact
  /// equality; returns the reference report.
  EpochReport stepAll(const std::string& what) {
    const EpochReport ref = full->step();
    const EpochReport fromCache = inc->step();
    const EpochReport sharded = par->step();
    expectSameReport(ref, fromCache, what + " [incremental]");
    expectSameReport(ref, sharded, what + " [incremental+workers]");
    return ref;
  }
};

TEST(EpochCacheEquivalence, RandomizedChurn) {
  TriWorld w(24, 16, 6, /*seed=*/0xE15);
  std::mt19937 rng(0x5EED);
  std::uniform_int_distribution<int> mutCount(0, 3);
  std::uniform_int_distribution<int> mutKind(0, 5);
  std::uniform_real_distribution<double> weightDist(0.0, 3.0);
  std::uniform_int_distribution<std::size_t> appPick(0, w.appIds.size() - 1);
  std::uniform_int_distribution<std::uint32_t> swPick(
      0, static_cast<std::uint32_t>(w.fleet.size()) - 1);

  constexpr int kEpochs = 220;
  for (int round = 0; round < kEpochs; ++round) {
    const int mutations = mutCount(rng);
    for (int m = 0; m < mutations; ++m) {
      const std::size_t a = appPick(rng);
      const std::vector<VipId>& vips = w.appVips[a];
      const VipId vip = vips[rng() % vips.size()];
      switch (mutKind(rng)) {
        case 0:  // VIP transfer (may fail: same switch, down switch, ...)
          (void)w.fleet.transferVip(vip, SwitchId{swPick(rng)});
          break;
        case 1:  // DNS weight shift
          w.dns.setWeight(w.appIds[a], vip, weightDist(rng));
          break;
        case 2: {  // switch crash (keep at least one up)
          const SwitchId sw{swPick(rng)};
          if (w.fleet.at(sw).up() && w.fleet.upCount() > 1) {
            (void)w.fleet.crashSwitch(sw, w.sim.now());
          }
          break;
        }
        case 3: {  // switch repair
          const SwitchId sw{swPick(rng)};
          if (!w.fleet.at(sw).up()) w.fleet.recoverSwitch(sw);
          break;
        }
        case 4: {  // VM death
          if (w.aliveVms.size() > 4) {
            const std::size_t i = rng() % w.aliveVms.size();
            w.hosts.destroyVm(w.aliveVms[i]);
            w.aliveVms.erase(w.aliveVms.begin() +
                             static_cast<std::ptrdiff_t>(i));
          }
          break;
        }
        case 5:  // RIP weight change (rip id may not exist: ignored)
          (void)w.fleet.setRipWeight(vip, RipId{vip.value() * 16},
                                     weightDist(rng));
          break;
      }
    }
    w.sim.runUntil(w.sim.now() + 1.0);
    (void)w.stepAll("round " + std::to_string(round));
    if (HasFatalFailure() || HasNonfatalFailure()) break;  // don't spam
  }

  // The cache must actually have been doing work: with <= 3 mutations per
  // round over 24 apps, most epochs serve most apps from cache.
  EXPECT_GT(w.inc->appsFromCache(), w.inc->appsRecomputed());
  // Full mode never reports engine stats.
  EXPECT_EQ(w.full->latest().engineAppsRecomputed, 0u);
  EXPECT_EQ(w.full->latest().engineAppsCached, 0u);
}

TEST(EpochCacheEquivalence, BucketedEmissionMatchesSequential) {
  // Enough apps that the parallel engine's bucketed link emission and
  // slot-order merge carry real volume; the merge must replay the
  // sequential addition order bit-for-bit.
  TriWorld w(1200, 32, 8, /*seed=*/0xE15 + 1, /*rpsLo=*/200.0,
             /*rpsHi=*/600.0, /*fanout=*/1);
  for (int round = 0; round < 3; ++round) {
    w.sim.runUntil(w.sim.now() + 1.0);
    (void)w.stepAll("bucketed round " + std::to_string(round));
  }
  EXPECT_EQ(w.par->workerCount(), 3u);
}

TEST(EpochCacheEquivalence, BitIdenticalAcrossWorkerCountsUnderChurn) {
  // The PR-3 invariant at every pool size the engine supports: engines
  // with 2 and 8 workers (static ranges, per-worker arena segments,
  // bucketed merges) must reproduce the single-worker reference
  // bit-for-bit through 50 randomized mutation epochs.
  TriWorld w(32, 16, 6, /*seed=*/0xE15 + 2);
  auto eng2 = std::make_unique<FluidEngine>(
      w.sim, w.topo, w.apps, w.dns, *w.resolvers, w.routes, w.fleet,
      w.hosts, *w.demand, engineOptions(true, 2));
  auto eng8 = std::make_unique<FluidEngine>(
      w.sim, w.topo, w.apps, w.dns, *w.resolvers, w.routes, w.fleet,
      w.hosts, *w.demand, engineOptions(true, 8));
  ASSERT_EQ(eng2->workerCount(), 2u);
  ASSERT_EQ(eng8->workerCount(), 8u);

  std::mt19937 rng(0x5EED + 1);
  std::uniform_real_distribution<double> weightDist(0.0, 3.0);
  std::uniform_int_distribution<std::size_t> appPick(0, w.appIds.size() - 1);
  for (int round = 0; round < 50; ++round) {
    const std::size_t a = appPick(rng);
    const std::vector<VipId>& vips = w.appVips[a];
    const VipId vip = vips[rng() % vips.size()];
    if (round % 3 == 0) {
      w.dns.setWeight(w.appIds[a], vip, weightDist(rng));
    } else {
      (void)w.fleet.setRipWeight(vip, RipId{vip.value() * 16},
                                 weightDist(rng));
    }
    w.sim.runUntil(w.sim.now() + 1.0);
    const EpochReport ref = w.full->step();
    const EpochReport two = eng2->step();
    const EpochReport eight = eng8->step();
    const std::string what = "workers round " + std::to_string(round);
    expectSameReport(ref, two, what + " [2 workers]");
    expectSameReport(ref, eight, what + " [8 workers]");
    if (HasFatalFailure() || HasNonfatalFailure()) break;  // don't spam
  }
}

// --- Targeted invalidation-matrix tests --------------------------------

struct SmallWorld {
  Simulation sim;
  Topology topo;
  AppRegistry apps;
  AuthoritativeDns dns;
  RouteRegistry routes{0.0};
  SwitchFleet fleet;
  HostFleet hosts;
  std::unique_ptr<ResolverPopulation> resolvers;
  std::unique_ptr<StaticDemand> demand;
  std::unique_ptr<FluidEngine> engine;
  AppId app;
  VmId vm;

  static TopologyConfig topoConfig() {
    TopologyConfig cfg;
    cfg.numServers = 4;
    cfg.serverCapacity = CapacityVec{32.0, 128.0, 2.0};
    cfg.numIsps = 2;
    cfg.accessLinksPerIsp = 1;
    cfg.accessLinkGbps = 1.0;
    cfg.numSwitches = 3;
    cfg.switchTrunkGbps = 1.0;
    return cfg;
  }

  explicit SmallWorld(double appRps = 5000.0)
      : topo(topoConfig()), hosts(topo, sim, HostCostModel{}) {
    for (int i = 0; i < 3; ++i) fleet.addSwitch(SwitchLimits{});
    app = apps.create("web", AppSla{}, appRps);
    dns.registerApp(app);
    resolvers = std::make_unique<ResolverPopulation>(dns, ResolverConfig{});
    demand = std::make_unique<StaticDemand>(std::vector<double>{appRps});
    engine = std::make_unique<FluidEngine>(sim, topo, apps, dns, *resolvers,
                                           routes, fleet, hosts, *demand,
                                           engineOptions(true, 1));
    const auto v =
        hosts.createVm(app, ServerId{0},
                       apps.app(app).sla.sliceFor(2.0 * appRps, 1.0));
    EXPECT_TRUE(v.ok());
    vm = v.value();
    sim.runUntil(61.0);
    EXPECT_TRUE(fleet.configureVip(SwitchId{0}, VipId{0}, app).ok());
    RipEntry e;
    e.rip = RipId{0};
    e.vm = vm;
    EXPECT_TRUE(fleet.addRip(VipId{0}, e).ok());
    dns.addVip(app, VipId{0}, 1.0);
    routes.advertise(VipId{0}, AccessRouterId{0}, sim.now());
    routes.settle(sim.now());
  }

  EpochReport stepAt(double dt) {
    sim.runUntil(sim.now() + dt);
    return engine->step();
  }
};

TEST(EpochCache, SteadyStateServesFromCache) {
  SmallWorld w;
  const EpochReport first = w.stepAt(1.0);
  EXPECT_EQ(first.engineAppsRecomputed, 1u);
  EpochReport second = w.stepAt(1.0);
  EXPECT_EQ(second.engineAppsRecomputed, 0u);
  EXPECT_EQ(second.engineAppsCached, 1u);
  // Identical world, identical report (modulo the epoch timestamp).
  second.time = first.time;
  expectSameReport(first, second, "steady state");
  EXPECT_EQ(w.engine->appsRecomputed(), 1u);
  EXPECT_EQ(w.engine->appsFromCache(), 1u);
}

TEST(EpochCache, RipWeightChangeInvalidates) {
  SmallWorld w;
  (void)w.stepAt(1.0);
  ASSERT_TRUE(w.fleet.setRipWeight(VipId{0}, RipId{0}, 2.0).ok());
  const EpochReport r = w.stepAt(1.0);
  EXPECT_EQ(r.engineAppsRecomputed, 1u);
}

TEST(EpochCache, DnsWeightShiftInvalidates) {
  SmallWorld w;
  // A second VIP so the (normalized) share vector can actually shift.
  const auto v2 = w.hosts.createVm(
      w.app, ServerId{1}, w.apps.app(w.app).sla.sliceFor(10'000.0, 1.0));
  ASSERT_TRUE(v2.ok());
  w.sim.runUntil(w.sim.now() + 61.0);
  ASSERT_TRUE(w.fleet.configureVip(SwitchId{1}, VipId{1}, w.app).ok());
  RipEntry e;
  e.rip = RipId{16};
  e.vm = v2.value();
  ASSERT_TRUE(w.fleet.addRip(VipId{1}, e).ok());
  w.dns.addVip(w.app, VipId{1}, 1.0);
  w.routes.advertise(VipId{1}, AccessRouterId{1}, w.sim.now());
  w.routes.settle(w.sim.now());
  (void)w.stepAt(1.0);
  (void)w.stepAt(1.0);  // settle into the cache
  const double before = w.hosts.vm(w.vm).offeredRps;

  w.dns.setWeight(w.app, VipId{0}, 0.25);
  const EpochReport r = w.stepAt(1.0);
  EXPECT_EQ(r.engineAppsRecomputed, 1u);
  EXPECT_LT(w.hosts.vm(w.vm).offeredRps, before);
  // Resolver shares relax toward the new weights over the TTL; every
  // relax step must keep re-dirtying the app — the cache must not freeze
  // a moving share.
  const EpochReport r2 = w.stepAt(1.0);
  EXPECT_EQ(r2.engineAppsRecomputed, 1u);
}

TEST(EpochCache, VmDeathInvalidatesAndReportsDeadVm) {
  SmallWorld w;
  (void)w.stepAt(1.0);
  w.hosts.destroyVm(w.vm);
  const EpochReport r = w.stepAt(1.0);
  EXPECT_EQ(r.engineAppsRecomputed, 1u);
  EXPECT_NEAR(r.unroutedByCause.at("dead_vm"), 5000.0, 1e-6);
}

TEST(EpochCache, VipTransferInvalidates) {
  SmallWorld w;
  const EpochReport before = w.stepAt(1.0);
  EXPECT_GT(before.switchUtil[0], 0.0);
  ASSERT_TRUE(w.fleet.transferVip(VipId{0}, SwitchId{1}).ok());
  const EpochReport r = w.stepAt(1.0);
  EXPECT_EQ(r.engineAppsRecomputed, 1u);
  EXPECT_EQ(r.switchUtil[0], 0.0);
  EXPECT_GT(r.switchUtil[1], 0.0);
}

TEST(EpochCache, SwitchCrashInvalidates) {
  SmallWorld w;
  (void)w.stepAt(1.0);
  (void)w.fleet.crashSwitch(SwitchId{0}, w.sim.now());
  const EpochReport r = w.stepAt(1.0);
  EXPECT_EQ(r.engineAppsRecomputed, 1u);
  EXPECT_NEAR(r.unroutedByCause.at("no_owner"), 5000.0, 1e-6);
}

TEST(EpochCache, DegradedRoutedRpsTracksPaddedFallback) {
  SmallWorld w;
  const EpochReport healthy = w.stepAt(1.0);
  EXPECT_EQ(healthy.degradedRoutedRps, 0.0);
  // Pad the only route: no Active route remains, the engine falls back
  // to reachable (padded) routes and flags the traffic as degraded.
  w.routes.pad(VipId{0}, AccessRouterId{0}, w.sim.now());
  const EpochReport r = w.stepAt(1.0);
  EXPECT_NEAR(r.degradedRoutedRps, 5000.0, 1e-6);
  EXPECT_NEAR(r.appServedRps.at(w.app), 5000.0, 1e-6);
  EXPECT_EQ(r.unroutedRps, 0.0);
}

TEST(EpochCache, FullRecomputeFallbackKnob) {
  SmallWorld w;
  // Swap in a full-recompute engine over the same world.
  auto fullEngine = std::make_unique<FluidEngine>(
      w.sim, w.topo, w.apps, w.dns, *w.resolvers, w.routes, w.fleet,
      w.hosts, *w.demand, engineOptions(false, 1));
  w.sim.runUntil(w.sim.now() + 1.0);
  const EpochReport inc = w.engine->step();
  const EpochReport full = fullEngine->step();
  expectSameReport(full, inc, "fallback knob");
  EXPECT_EQ(full.engineAppsRecomputed, 0u);
  EXPECT_EQ(full.engineAppsCached, 0u);
  EXPECT_EQ(fullEngine->appsRecomputed(), 0u);
}

}  // namespace
}  // namespace mdc
