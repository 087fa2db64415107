// Unit tests for the pod registry and pod manager.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mdc/core/pod.hpp"
#include "mdc/state/codec.hpp"

namespace mdc {
namespace {

/// Records RIP requests instead of touching switches.
class RecordingSink final : public RipRequestSink {
 public:
  void requestNewRip(AppId app, VmId vm, double weight) override {
    newRips.push_back({app, vm, weight});
  }
  void requestRipRemoval(VmId vm, std::function<void()> onDone) override {
    removals.push_back(vm);
    if (onDone) onDone();  // pretend the switch update applied instantly
  }
  void requestRipWeight(VmId vm, double weight) override {
    weightUpdates.push_back({vm, weight});
  }

  struct NewRip {
    AppId app;
    VmId vm;
    double weight;
  };
  std::vector<NewRip> newRips;
  std::vector<VmId> removals;
  std::vector<std::pair<VmId, double>> weightUpdates;
};

struct Fixture {
  Simulation sim;
  Topology topo;
  HostFleet hosts;
  AppRegistry apps;
  PodRegistry registry;
  RecordingSink sink;
  std::vector<std::unique_ptr<PodManager>> pods;

  static TopologyConfig topoConfig() {
    TopologyConfig cfg;
    cfg.numServers = 8;
    cfg.serverCapacity = CapacityVec{8.0, 32.0, 1.0};
    cfg.numSwitches = 1;
    return cfg;
  }
  static HostCostModel costs() {
    HostCostModel c;
    c.vmBootSeconds = 4.0;
    c.vmCloneSeconds = 1.0;
    c.capacityAdjustSeconds = 0.5;
    c.migrationGbps = 32.0;  // 1 GB in 0.25 s
    return c;
  }
  static PodManager::Options podOptions() {
    PodManager::Options o;
    o.controlPeriod = 5.0;
    return o;
  }

  Fixture() : topo(topoConfig()), hosts(topo, sim, costs()),
              registry(topoConfig().numServers) {}

  PodManager& makePod(std::vector<ServerId> servers) {
    const PodId id{static_cast<PodId::value_type>(pods.size())};
    pods.push_back(std::make_unique<PodManager>(
        id, sim, hosts, apps, topo, registry,
        std::make_shared<PlacementController>(), sink, podOptions()));
    for (ServerId s : servers) pods.back()->adoptServer(s);
    return *pods.back();
  }
};

TEST(PodRegistry, AssignAndMove) {
  PodRegistry reg{4};
  reg.assign(ServerId{0}, PodId{0});
  reg.assign(ServerId{1}, PodId{0});
  reg.assign(ServerId{2}, PodId{1});
  EXPECT_EQ(reg.podOf(ServerId{0}), PodId{0});
  EXPECT_EQ(reg.serversOf(PodId{0}).size(), 2u);
  EXPECT_FALSE(reg.podOf(ServerId{3}).valid());

  reg.assign(ServerId{1}, PodId{1});
  EXPECT_EQ(reg.serversOf(PodId{0}).size(), 1u);
  EXPECT_EQ(reg.serversOf(PodId{1}).size(), 2u);
}

TEST(PodRegistry, ReassignToSamePodIsNoop) {
  PodRegistry reg{2};
  reg.assign(ServerId{0}, PodId{0});
  reg.assign(ServerId{0}, PodId{0});
  EXPECT_EQ(reg.serversOf(PodId{0}).size(), 1u);
}

TEST(PodRegistry, UnknownServerThrows) {
  PodRegistry reg{2};
  EXPECT_THROW(reg.assign(ServerId{9}, PodId{0}), PreconditionError);
  EXPECT_THROW((void)reg.podOf(ServerId{9}), PreconditionError);
}

TEST(PodManager, ControlLoopCreatesVmsForDemand) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}, ServerId{2}});
  const AppId app = f.apps.create("web", AppSla{}, 1000.0);
  pod.setAppDemand(app, 2000.0);
  pod.runControlLoop();
  // VMs created (still booting); RIP requests arrive on activation.
  EXPECT_GT(f.hosts.activeVmCount(), 0u);
  f.sim.runUntil(2.0);  // clones activate
  EXPECT_FALSE(f.sink.newRips.empty());
  EXPECT_EQ(f.sink.newRips[0].app, app);
  // Demand is actually servable by the created slices.
  double servable = 0.0;
  for (const auto& nr : f.sink.newRips) {
    servable +=
        f.apps.app(app).sla.servableRps(f.hosts.vm(nr.vm).effectiveSlice);
  }
  EXPECT_GE(servable, 2000.0);
}

TEST(PodManager, StatsReflectDecision) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}});
  const AppId app = f.apps.create("web", AppSla{}, 1000.0);
  pod.setAppDemand(app, 1000.0);
  pod.runControlLoop();
  const PodStats& st = pod.stats();
  EXPECT_EQ(st.pod, pod.id());
  EXPECT_EQ(st.servers, 2u);
  EXPECT_DOUBLE_EQ(st.demandRps, 1000.0);
  EXPECT_NEAR(st.satisfiedRatio, 1.0, 1e-9);
  EXPECT_GT(st.decisionSeconds, 0.0);
  EXPECT_GT(st.placementChanges, 0u);
}

TEST(PodManager, ShrinksWhenDemandVanishes) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}});
  const AppId app = f.apps.create("web", AppSla{}, 1000.0);
  pod.setAppDemand(app, 2000.0);
  pod.runControlLoop();
  f.sim.runUntil(25.0);  // past the young-VM grace period
  const auto vmsBefore = f.hosts.activeVmCount();
  ASSERT_GT(vmsBefore, 0u);

  pod.setAppDemand(app, 0.0);
  pod.runControlLoop();
  f.sim.runUntil(40.0);
  EXPECT_EQ(f.hosts.activeVmCount(), 0u);
  EXPECT_EQ(f.sink.removals.size(), vmsBefore);
}

TEST(PodManager, PeriodicLoopRuns) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  pod.setAppDemand(app, 100.0);
  pod.start();
  f.sim.runUntil(11.0);  // loops at 0, 5, 10 (phase 0)
  EXPECT_GT(f.hosts.activeVmCount(), 0u);
}

TEST(PodManager, AdoptAndDonorSelection) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}, ServerId{2}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  // Load server 0 only.
  ASSERT_TRUE(
      f.hosts.createVm(app, ServerId{0}, CapacityVec{4.0, 8.0, 0.5}).ok());
  const auto donors = pod.pickDonorServers(2);
  ASSERT_EQ(donors.size(), 2u);
  EXPECT_NE(donors[0], ServerId{0});
  EXPECT_NE(donors[1], ServerId{0});
}

TEST(PodManager, VacateServerMigratesAndFires) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  const auto vm =
      f.hosts.createVm(app, ServerId{0}, CapacityVec{2.0, 4.0, 0.25});
  ASSERT_TRUE(vm.ok());
  f.sim.runUntil(5.0);  // VM active

  ServerId freed;
  ASSERT_TRUE(pod.vacateServer(ServerId{0},
                               [&](ServerId s) { freed = s; }));
  f.sim.runUntil(10.0);
  EXPECT_EQ(freed, ServerId{0});
  EXPECT_EQ(f.hosts.vm(vm.value()).server, ServerId{1});
  EXPECT_EQ(f.hosts.usedCapacity(ServerId{0}), CapacityVec{});
}

TEST(PodManager, VacateEmptyServerFiresImmediately) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}});
  bool fired = false;
  ASSERT_TRUE(pod.vacateServer(ServerId{0}, [&](ServerId) { fired = true; }));
  EXPECT_TRUE(fired);
}

TEST(PodManager, VacateFailsWhenNoRoom) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  // Fill both servers so neither can absorb the other.
  ASSERT_TRUE(
      f.hosts.createVm(app, ServerId{0}, CapacityVec{6.0, 24.0, 0.8}).ok());
  ASSERT_TRUE(
      f.hosts.createVm(app, ServerId{1}, CapacityVec{6.0, 24.0, 0.8}).ok());
  f.sim.runUntil(5.0);
  EXPECT_FALSE(pod.vacateServer(ServerId{0}, {}));
}

TEST(PodManager, VacateFailsWithBootingVm) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  ASSERT_TRUE(
      f.hosts.createVm(app, ServerId{0}, CapacityVec{1.0, 2.0, 0.1}).ok());
  // Still booting at t=0.
  EXPECT_FALSE(pod.vacateServer(ServerId{0}, {}));
}

TEST(PodManager, CoveredApps) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}});
  const AppId a = f.apps.create("a", AppSla{}, 1.0);
  const AppId b = f.apps.create("b", AppSla{}, 1.0);
  ASSERT_TRUE(
      f.hosts.createVm(a, ServerId{0}, CapacityVec{1.0, 2.0, 0.1}).ok());
  ASSERT_TRUE(
      f.hosts.createVm(b, ServerId{0}, CapacityVec{1.0, 2.0, 0.1}).ok());
  const auto covered = pod.coveredApps();
  EXPECT_EQ(covered.size(), 2u);
}

TEST(PodManager, ElephantTransferMovesServersWithVms) {
  // Moving a server between pods with its VM intact is pure bookkeeping.
  Fixture f;
  PodManager& podA = f.makePod({ServerId{0}, ServerId{1}});
  PodManager& podB = f.makePod({ServerId{2}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  const auto vm =
      f.hosts.createVm(app, ServerId{0}, CapacityVec{2.0, 4.0, 0.2});
  ASSERT_TRUE(vm.ok());

  podB.adoptServer(ServerId{0});  // elephant-relief path
  EXPECT_EQ(f.registry.podOf(ServerId{0}), podB.id());
  EXPECT_EQ(podA.servers().size(), 1u);
  EXPECT_EQ(podB.servers().size(), 2u);
  // VM untouched.
  EXPECT_EQ(f.hosts.vm(vm.value()).server, ServerId{0});
}

TEST(PodManager, VacatePrefersServerWithoutTheApp) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}, ServerId{2}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  const auto moving =
      f.hosts.createVm(app, ServerId{0}, CapacityVec{2.0, 4.0, 0.25});
  ASSERT_TRUE(moving.ok());
  ASSERT_TRUE(
      f.hosts.createVm(app, ServerId{1}, CapacityVec{2.0, 4.0, 0.25}).ok());
  f.sim.runUntil(5.0);

  // Server 1 is the tighter fit, but it already hosts the app.
  ASSERT_TRUE(pod.vacateServer(ServerId{0}, {}));
  f.sim.runUntil(10.0);
  EXPECT_EQ(f.hosts.vm(moving.value()).server, ServerId{2});
}

// When a vacate has no choice but a server that already hosts the app,
// the two VMs share one (app, server) instance key.  The control loop
// manages the oldest Active VM and retires the other one instead of
// leaving it unmanaged with its slice reserved.
TEST(PodManager, ControlLoopRetiresCoResidentDuplicate) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}, ServerId{1}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  const auto moved =
      f.hosts.createVm(app, ServerId{0}, CapacityVec{2.0, 4.0, 0.25});
  const auto resident =
      f.hosts.createVm(app, ServerId{1}, CapacityVec{2.0, 4.0, 0.25});
  ASSERT_TRUE(moved.ok() && resident.ok());
  f.apps.addInstance(app, moved.value());
  f.apps.addInstance(app, resident.value());
  f.sim.runUntil(5.0);
  ASSERT_TRUE(pod.vacateServer(ServerId{0}, {}));
  f.sim.runUntil(25.0);  // migrated, and past the young-VM grace period
  ASSERT_EQ(f.hosts.vm(moved.value()).server, ServerId{1});

  pod.setAppDemand(app, 1000.0);
  pod.runControlLoop();
  f.sim.runUntil(30.0);
  ASSERT_EQ(f.sink.removals.size(), 1u);
  EXPECT_EQ(f.sink.removals[0], resident.value());
  EXPECT_FALSE(f.hosts.vmExists(resident.value()));
  EXPECT_TRUE(f.hosts.vmExists(moved.value()));
  const auto& instances = f.apps.app(app).instances;
  EXPECT_NE(std::find(instances.begin(), instances.end(), moved.value()),
            instances.end());
  EXPECT_EQ(f.hosts.vmsOn(ServerId{1}), std::vector<VmId>{moved.value()});

  // Without demand, nothing of the app is left behind (the rebalance may
  // have started a young instance on server 0; it goes after its grace).
  pod.setAppDemand(app, 0.0);
  pod.runControlLoop();
  f.sim.runUntil(60.0);
  pod.runControlLoop();
  f.sim.runUntil(65.0);
  EXPECT_EQ(f.hosts.activeVmCount(), 0u);
  EXPECT_TRUE(f.apps.app(app).instances.empty());
}

// A clone that lands beside an established instance (a cross-pod
// deployment) must not displace it: the established Active VM keeps
// managing the key, and the clone is retired only after its grace period.
TEST(PodManager, ControlLoopKeepsEstablishedVmBesideYoungClone) {
  Fixture f;
  PodManager& pod = f.makePod({ServerId{0}});
  const AppId app = f.apps.create("web", AppSla{}, 100.0);
  const auto established =
      f.hosts.createVm(app, ServerId{0}, CapacityVec{2.0, 4.0, 0.25});
  ASSERT_TRUE(established.ok());
  f.apps.addInstance(app, established.value());
  f.sim.runUntil(30.0);  // active, and past the young-VM grace period
  const auto clone = f.hosts.createVm(app, ServerId{0},
                                      CapacityVec{1.0, 2.0, 0.1},
                                      /*clone=*/true);
  ASSERT_TRUE(clone.ok());
  f.apps.addInstance(app, clone.value());
  pod.setAppDemand(app, 1000.0);

  pod.runControlLoop();  // the clone is still booting
  EXPECT_TRUE(f.sink.removals.empty());
  ASSERT_EQ(f.sink.weightUpdates.size(), 1u);
  EXPECT_EQ(f.sink.weightUpdates[0].first, established.value());

  f.sim.runUntil(40.0);  // the clone is active but young
  pod.runControlLoop();
  EXPECT_TRUE(f.sink.removals.empty());

  f.sim.runUntil(55.0);
  pod.runControlLoop();
  EXPECT_EQ(f.sink.removals, std::vector<VmId>{clone.value()});
  EXPECT_TRUE(f.hosts.vmExists(established.value()));
  EXPECT_FALSE(f.hosts.vmExists(clone.value()));
  for (const auto& [vm, weight] : f.sink.weightUpdates) {
    EXPECT_EQ(vm, established.value());
  }
}

/// Logs every RIP request, in arrival order; removals complete one
/// simulated second later, like a switch update would.
class LoggingSink final : public RipRequestSink {
 public:
  LoggingSink(Simulation& sim, state::ByteWriter& log) : sim_(sim), log_(log) {}
  void requestNewRip(AppId app, VmId vm, double weight) override {
    log_.u64(1);
    log_.u64(app.value());
    log_.u64(vm.value());
    log_.f64(weight);
    lastWeight[vm] = weight;
  }
  void requestRipRemoval(VmId vm, std::function<void()> onDone) override {
    log_.u64(2);
    log_.u64(vm.value());
    sim_.after(1.0, std::move(onDone));
  }
  void requestRipWeight(VmId vm, double weight) override {
    log_.u64(3);
    log_.u64(vm.value());
    log_.f64(weight);
    lastWeight[vm] = weight;
  }
  std::map<VmId, double> lastWeight;

 private:
  Simulation& sim_;
  state::ByteWriter& log_;
};

// Pins what a pod manager decides over a scripted world — demand steps, a
// server crash, a manager crash and restart, and a server vacate: every
// VM created, resized or destroyed (the whole VM table after each step),
// every RIP request in order, and the reported stats except the measured
// decision time.  A storage or iteration-order change in the control
// loop must leave the digest as it is.
TEST(PodManager, ScriptedWorldDecisionDigestIsPinned) {
  Fixture f;
  state::ByteWriter log;
  LoggingSink sink{f.sim, log};
  PodManager pod{PodId{0},
                 f.sim,
                 f.hosts,
                 f.apps,
                 f.topo,
                 f.registry,
                 std::make_shared<PlacementController>(),
                 sink,
                 Fixture::podOptions()};
  for (std::uint32_t s = 0; s < 6; ++s) pod.adoptServer(ServerId{s});
  std::vector<AppId> apps;
  for (int i = 0; i < 6; ++i) {
    apps.push_back(f.apps.create("app" + std::to_string(i), AppSla{}, 1.0));
  }

  const auto record = [&] {
    for (std::size_t i = 0; i < f.hosts.vmIndexBound(); ++i) {
      const VmRecord& vm = f.hosts.vm(VmId{static_cast<VmId::value_type>(i)});
      log.u64(vm.id.value());
      log.u64(vm.app.value());
      log.u64(vm.server.value());
      log.u64(static_cast<std::uint64_t>(vm.state));
      for (auto r : {Resource::Cpu, Resource::Memory, Resource::Network}) {
        log.f64(vm.slice[r]);
      }
    }
    const PodStats& st = pod.stats();
    log.u64(st.servers);
    log.u64(st.vms);
    log.f64(st.demandRps);
    log.f64(st.satisfiedRatio);
    log.f64(st.meanUtilization);
    log.f64(st.maxUtilization);
    log.u64(st.placementChanges);
  };
  const auto demand = [&](std::vector<double> rps) {
    pod.clearAppDemand();
    for (std::size_t i = 0; i < rps.size(); ++i) {
      if (rps[i] >= 0.0) pod.setAppDemand(apps[i], rps[i]);
    }
  };
  const auto loopAt = [&](SimTime t) {
    f.sim.runUntil(t);
    pod.runControlLoop();
    record();
  };

  demand({9000.0, 5000.0, 3000.0, 1200.0, 600.0, -1.0});
  loopAt(0.0);
  loopAt(10.0);
  loopAt(30.0);
  demand({14000.0, 2000.0, 3000.0, 4500.0, 0.0, 2500.0});  // demand step
  loopAt(40.0);
  loopAt(60.0);
  const ServerId crashed = f.hosts.vm(f.apps.app(apps[0]).instances[0]).server;
  f.hosts.crashServer(crashed);
  for (const CrashedVm& dead : f.hosts.takeCrashCasualties(crashed)) {
    f.apps.removeInstance(dead.app, dead.vm);
  }
  loopAt(65.0);
  loopAt(90.0);
  f.hosts.recoverServer(crashed);
  pod.crash();
  loopAt(95.0);  // inert while down
  pod.restart([&](VmId vm) {
    const auto it = sink.lastWeight.find(vm);
    return it == sink.lastWeight.end() ? 0.0 : it->second;
  });
  demand({11000.0, 2600.0, 3000.0, 4000.0, 300.0, 2400.0});
  loopAt(100.0);
  loopAt(125.0);
  // A server joins carrying one VM of an app found nowhere else in the
  // pod, and is vacated before any round sees it: the VM migrates into
  // the pod's tightest fit and is managed there from then on.
  pod.adoptServer(ServerId{6});
  apps.push_back(f.apps.create("solo", AppSla{}, 1.0));
  const auto solo = f.hosts.createVm(apps[6], ServerId{6},
                                     AppSla{}.sliceFor(800.0), true);
  ASSERT_TRUE(solo.ok());
  f.apps.addInstance(apps[6], solo.value());
  f.sim.runUntil(127.0);
  bool emptied = false;
  ASSERT_TRUE(pod.vacateServer(ServerId{6}, [&](ServerId) { emptied = true; }));
  demand({11000.0, 2600.0, 3000.0, 4000.0, 300.0, 2400.0, 800.0});
  loopAt(130.0);
  loopAt(150.0);
  EXPECT_TRUE(emptied);
  EXPECT_NE(f.hosts.vm(solo.value()).server, ServerId{6});
  // No server hosts two VMs of one app.
  for (ServerId s : pod.servers()) {
    std::vector<AppId> resident;
    for (VmId vm : f.hosts.vmsOn(s)) {
      if (f.hosts.vmExists(vm)) resident.push_back(f.hosts.vm(vm).app);
    }
    std::sort(resident.begin(), resident.end());
    EXPECT_EQ(std::adjacent_find(resident.begin(), resident.end()),
              resident.end());
  }
  demand({6000.0, 2600.0, 0.0, 4000.0, 300.0, 2400.0, 900.0});
  loopAt(160.0);
  loopAt(190.0);
  loopAt(220.0);

  EXPECT_GT(f.hosts.vmsCreated(), 10u);
  EXPECT_GT(f.hosts.capacityAdjustments(), 0u);
  EXPECT_EQ(state::fnv1a64(log.bytes()), 0x521c989110467fe9ull);
}

}  // namespace
}  // namespace mdc
