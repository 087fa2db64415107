// Unit tests for the host fleet: VM lifecycle, capacity accounting, and
// hypervisor operation latencies.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mdc/host/host_fleet.hpp"
#include "mdc/topo/topology.hpp"

namespace mdc {
namespace {

constexpr AppId kApp{0};

struct Fixture {
  Simulation sim;
  Topology topo;
  HostFleet fleet;

  static TopologyConfig config() {
    TopologyConfig cfg;
    cfg.numServers = 4;
    cfg.serverCapacity = CapacityVec{8.0, 32.0, 1.0};
    cfg.numSwitches = 1;
    return cfg;
  }
  static HostCostModel costs() {
    HostCostModel c;
    c.vmBootSeconds = 60.0;
    c.vmCloneSeconds = 5.0;
    c.capacityAdjustSeconds = 2.0;
    c.migrationGbps = 8.0;  // 1 GB memory -> 1 s
    return c;
  }

  Fixture() : topo(config()), fleet(topo, sim, costs()) {}
};

CapacityVec slice(double cpu = 2.0, double mem = 4.0, double net = 0.25) {
  return CapacityVec{cpu, mem, net};
}

TEST(HostFleet, CreateVmReservesCapacityImmediately) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(f.fleet.usedCapacity(ServerId{0}), slice());
  EXPECT_EQ(f.fleet.vm(r.value()).state, VmState::Booting);
  EXPECT_EQ(f.fleet.vm(r.value()).effectiveSlice, CapacityVec{});
}

TEST(HostFleet, VmBecomesActiveAfterBootLatency) {
  Fixture f;
  bool activated = false;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice(), false,
                                  [&](VmId) { activated = true; });
  ASSERT_TRUE(r.ok());
  f.sim.runUntil(59.0);
  EXPECT_FALSE(activated);
  f.sim.runUntil(61.0);
  EXPECT_TRUE(activated);
  EXPECT_EQ(f.fleet.vm(r.value()).state, VmState::Active);
  EXPECT_EQ(f.fleet.vm(r.value()).effectiveSlice, slice());
}

TEST(HostFleet, CloneIsFasterThanBoot) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice(), /*clone=*/true);
  ASSERT_TRUE(r.ok());
  f.sim.runUntil(6.0);
  EXPECT_EQ(f.fleet.vm(r.value()).state, VmState::Active);
}

TEST(HostFleet, CreateRejectsOversubscription) {
  Fixture f;
  ASSERT_TRUE(f.fleet.createVm(kApp, ServerId{0}, slice(6.0, 8.0, 0.5)).ok());
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice(6.0, 8.0, 0.5));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "insufficient_capacity");
}

TEST(HostFleet, DestroyWhileBootingFreesEverything) {
  Fixture f;
  bool activated = false;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice(), false,
                                  [&](VmId) { activated = true; });
  f.fleet.destroyVm(r.value());
  f.sim.runUntil(120.0);
  EXPECT_FALSE(activated);
  EXPECT_EQ(f.fleet.usedCapacity(ServerId{0}), CapacityVec{});
  EXPECT_FALSE(f.fleet.vmExists(r.value()));
  EXPECT_EQ(f.fleet.activeVmCount(), 0u);
}

TEST(HostFleet, AdjustCapacityGrow) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice(2.0, 4.0, 0.25));
  f.sim.runUntil(61.0);
  bool done = false;
  ASSERT_TRUE(f.fleet
                  .adjustVmCapacity(r.value(), slice(4.0, 4.0, 0.5),
                                    [&](VmId) { done = true; })
                  .ok());
  // During the transition the reservation is the pointwise max.
  EXPECT_DOUBLE_EQ(f.fleet.usedCapacity(ServerId{0}).cpu(), 4.0);
  f.sim.runUntil(64.0);
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(f.fleet.vm(r.value()).effectiveSlice.cpu(), 4.0);
  EXPECT_DOUBLE_EQ(f.fleet.usedCapacity(ServerId{0}).cpu(), 4.0);
}

TEST(HostFleet, AdjustCapacityShrinkFreesAfterDelay) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice(4.0, 4.0, 0.5));
  f.sim.runUntil(61.0);
  ASSERT_TRUE(f.fleet.adjustVmCapacity(r.value(), slice(2.0, 4.0, 0.25)).ok());
  // Shrink keeps the old reservation until it completes.
  EXPECT_DOUBLE_EQ(f.fleet.usedCapacity(ServerId{0}).cpu(), 4.0);
  f.sim.runUntil(64.0);
  EXPECT_DOUBLE_EQ(f.fleet.usedCapacity(ServerId{0}).cpu(), 2.0);
}

TEST(HostFleet, AdjustRejectsWhenPeakDoesNotFit) {
  Fixture f;
  const auto a = f.fleet.createVm(kApp, ServerId{0}, slice(4.0, 16.0, 0.5));
  const auto b = f.fleet.createVm(kApp, ServerId{0}, slice(4.0, 16.0, 0.5));
  (void)b;
  f.sim.runUntil(61.0);
  const Status s = f.fleet.adjustVmCapacity(a.value(), slice(5.0, 16.0, 0.5));
  EXPECT_EQ(s.error().code, "insufficient_capacity");
}

TEST(HostFleet, AdjustRequiresActiveVm) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice());
  EXPECT_EQ(f.fleet.adjustVmCapacity(r.value(), slice()).error().code,
            "vm_not_active");
}

TEST(HostFleet, MigrationMovesVmAfterTransfer) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice(2.0, 4.0, 0.25));
  f.sim.runUntil(61.0);
  bool done = false;
  ASSERT_TRUE(
      f.fleet.migrateVm(r.value(), ServerId{1}, [&](VmId) { done = true; })
          .ok());
  EXPECT_EQ(f.fleet.vm(r.value()).state, VmState::Migrating);
  // Both reservations held during migration.
  EXPECT_DOUBLE_EQ(f.fleet.usedCapacity(ServerId{0}).cpu(), 2.0);
  EXPECT_DOUBLE_EQ(f.fleet.usedCapacity(ServerId{1}).cpu(), 2.0);
  // 4 GB * 8 / 8 Gbps = 4 s.
  f.sim.runUntil(64.0);
  EXPECT_FALSE(done);
  f.sim.runUntil(66.0);
  EXPECT_TRUE(done);
  EXPECT_EQ(f.fleet.vm(r.value()).server, ServerId{1});
  EXPECT_EQ(f.fleet.vm(r.value()).state, VmState::Active);
  EXPECT_EQ(f.fleet.usedCapacity(ServerId{0}), CapacityVec{});
  EXPECT_DOUBLE_EQ(f.fleet.migratedGb(), 4.0);
}

TEST(HostFleet, MigrationRejectsSameServerAndFullDestination) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice());
  f.sim.runUntil(61.0);
  EXPECT_EQ(f.fleet.migrateVm(r.value(), ServerId{0}).error().code,
            "same_server");
  // Fill server 1.
  ASSERT_TRUE(f.fleet.createVm(kApp, ServerId{1}, slice(8.0, 32.0, 1.0)).ok());
  EXPECT_EQ(f.fleet.migrateVm(r.value(), ServerId{1}).error().code,
            "insufficient_capacity");
}

TEST(HostFleet, DestroyDuringMigrationReleasesBothReservations) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice());
  f.sim.runUntil(61.0);
  ASSERT_TRUE(f.fleet.migrateVm(r.value(), ServerId{1}).ok());
  f.fleet.destroyVm(r.value());
  EXPECT_EQ(f.fleet.usedCapacity(ServerId{0}), CapacityVec{});
  EXPECT_EQ(f.fleet.usedCapacity(ServerId{1}), CapacityVec{});
  f.sim.runUntil(120.0);  // completion callback must be a no-op
  EXPECT_EQ(f.fleet.usedCapacity(ServerId{1}), CapacityVec{});
}

TEST(HostFleet, ServerUtilizationUsesBindingResource) {
  Fixture f;
  ASSERT_TRUE(f.fleet.createVm(kApp, ServerId{0}, slice(2.0, 4.0, 0.75)).ok());
  // net: 0.75/1.0 = 0.75 is the binding dimension.
  EXPECT_DOUBLE_EQ(f.fleet.serverUtilization(ServerId{0}), 0.75);
}

TEST(HostFleet, VmsOnTracksPlacement) {
  Fixture f;
  const auto a = f.fleet.createVm(kApp, ServerId{2}, slice());
  const auto b = f.fleet.createVm(kApp, ServerId{2}, slice());
  EXPECT_EQ(f.fleet.vmsOn(ServerId{2}).size(), 2u);
  f.fleet.destroyVm(a.value());
  ASSERT_EQ(f.fleet.vmsOn(ServerId{2}).size(), 1u);
  EXPECT_EQ(f.fleet.vmsOn(ServerId{2})[0], b.value());
}

TEST(HostFleet, OperationCounters) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice());
  f.sim.runUntil(61.0);
  ASSERT_TRUE(f.fleet.adjustVmCapacity(r.value(), slice(3.0, 4.0, 0.25)).ok());
  f.sim.runUntil(64.0);
  ASSERT_TRUE(f.fleet.migrateVm(r.value(), ServerId{1}).ok());
  EXPECT_EQ(f.fleet.vmsCreated(), 1u);
  EXPECT_EQ(f.fleet.capacityAdjustments(), 1u);
  EXPECT_EQ(f.fleet.migrationsStarted(), 1u);
}

TEST(HostFleet, DoubleDestroyThrows) {
  Fixture f;
  const auto r = f.fleet.createVm(kApp, ServerId{0}, slice());
  f.fleet.destroyVm(r.value());
  EXPECT_THROW(f.fleet.destroyVm(r.value()), PreconditionError);
}

// Records are slot-stored by id: a VmRecord* stays valid while the fleet
// grows (the fluid engine keeps such pointers across epochs), and a
// destroyed VM's record stays readable.
TEST(HostFleet, VmRecordsKeepTheirAddressAndOutliveDestruction) {
  Fixture f;
  const auto first = f.fleet.createVm(kApp, ServerId{0}, slice());
  ASSERT_TRUE(first.ok());
  const VmRecord* record = &f.fleet.vm(first.value());
  std::vector<VmId> more;
  for (int i = 0; i < 5000; ++i) {
    const auto r = f.fleet.createVm(
        AppId{static_cast<AppId::value_type>(i % 7)},
        ServerId{static_cast<ServerId::value_type>(1 + i % 3)},
        slice(0.001, 0.001, 0.0001));
    ASSERT_TRUE(r.ok());
    more.push_back(r.value());
  }
  EXPECT_EQ(&f.fleet.vm(first.value()), record);
  EXPECT_EQ(record->id, first.value());
  EXPECT_EQ(record->server, ServerId{0});
  EXPECT_EQ(f.fleet.vmIndexBound(), 5001u);
  EXPECT_EQ(more.back(), VmId{5000});

  f.fleet.destroyVm(first.value());
  f.fleet.destroyVm(more[1234]);
  EXPECT_FALSE(f.fleet.vmExists(first.value()));
  EXPECT_FALSE(f.fleet.vmExists(more[1234]));
  EXPECT_TRUE(f.fleet.vmExists(more[1235]));
  EXPECT_EQ(&f.fleet.vm(first.value()), record);
  EXPECT_EQ(record->state, VmState::Destroyed);
  EXPECT_EQ(f.fleet.vm(more[1234]).app, AppId{1234 % 7});
  EXPECT_EQ(f.fleet.activeVmCount(), 4999u);
  std::size_t visited = 0;
  f.fleet.forEachVm([&](VmRecord&) { ++visited; });
  EXPECT_EQ(visited, 4999u);

  // A never-allocated id is not a VM.
  EXPECT_FALSE(f.fleet.vmExists(VmId{5001}));
  EXPECT_FALSE(f.fleet.vmExists(VmId{}));
  EXPECT_THROW((void)f.fleet.vm(VmId{5001}), PreconditionError);
}

}  // namespace
}  // namespace mdc
