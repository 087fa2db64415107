// Unit and property tests for the placement algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "mdc/core/placement.hpp"
#include "mdc/sim/rng.hpp"
#include "mdc/util/stats.hpp"

namespace mdc {
namespace {

PlacementInput uniformInput(std::size_t servers, std::size_t apps,
                            double perAppRps) {
  PlacementInput in;
  in.servers.assign(servers, PlacementServer{CapacityVec{8.0, 32.0, 1.0}});
  in.apps.assign(apps, PlacementApp{AppSla{}, perAppRps});
  return in;
}

TEST(FirstFitPlacement, SatisfiesFeasibleDemand) {
  // 4 servers x 8 cores; 4 apps x 1000 rps x 1 core/krps = 4 cores total.
  PlacementInput in = uniformInput(4, 4, 1000.0);
  FirstFitPlacement ff;
  const auto r = ff.place(in);
  validatePlacement(in, r);
  EXPECT_NEAR(r.satisfactionRatio(), 1.0, 1e-9);
  EXPECT_EQ(r.instancesStopped, 0u);
}

TEST(FirstFitPlacement, PacksFirstServersFirst) {
  PlacementInput in = uniformInput(4, 2, 1000.0);
  FirstFitPlacement ff;
  const auto r = ff.place(in);
  // Everything fits on server 0 (8 cores, 2 krps needs 2 cores + mem).
  for (const Assignment& a : r.assignment) EXPECT_EQ(a.server, 0u);
}

TEST(FirstFitPlacement, OverloadLeavesUnsatisfiedDemand) {
  // 1 server x 8 cores; demand 20 krps needs 20 cores.
  PlacementInput in = uniformInput(1, 2, 10'000.0);
  FirstFitPlacement ff;
  const auto r = ff.place(in);
  validatePlacement(in, r);
  EXPECT_LT(r.satisfiedRps, r.demandRps);
  EXPECT_GT(r.satisfiedRps, 0.0);
}

// Churn counts instances as (app, server) pairs: duplicate `current`
// entries are one instance, zero-rps entries are none.
TEST(FirstFitPlacement, ChurnCountsDistinctLiveInstances) {
  PlacementInput in = uniformInput(2, 2, 0.0);
  in.apps[0].demandRps = 2000.0;
  in.apps[1].demandRps = 1000.0;
  // First fit puts both apps on server 0: after = {(0,0), (1,0)}.
  in.current = {Assignment{0, 0, 10.0}, Assignment{0, 1, 5.0},
                Assignment{1, 0, 0.0}, Assignment{0, 0, 20.0},
                Assignment{1, 1, 0.0}};
  // before = {(0,0), (0,1)}: (1,0) starts, (0,1) stops.
  const auto r = FirstFitPlacement{}.place(in);
  ASSERT_EQ(r.assignment.size(), 2u);
  EXPECT_EQ(r.instancesStarted, 1u);
  EXPECT_EQ(r.instancesStopped, 1u);

  // Order of `current` does not matter; an all-zero current is empty.
  std::reverse(in.current.begin(), in.current.end());
  const auto reversed = FirstFitPlacement{}.place(in);
  EXPECT_EQ(reversed.instancesStarted, 1u);
  EXPECT_EQ(reversed.instancesStopped, 1u);
  in.current = {Assignment{1, 1, 0.0}, Assignment{1, 1, 0.0}};
  const auto fresh = FirstFitPlacement{}.place(in);
  EXPECT_EQ(fresh.instancesStarted, 2u);
  EXPECT_EQ(fresh.instancesStopped, 0u);

  // No demand left: every distinct live instance stops.
  in.apps[0].demandRps = 0.0;
  in.apps[1].demandRps = 0.0;
  in.current = {Assignment{0, 0, 10.0}, Assignment{0, 0, 20.0},
                Assignment{1, 1, 3.0}, Assignment{1, 0, 0.0}};
  const auto drained = FirstFitPlacement{}.place(in);
  EXPECT_TRUE(drained.assignment.empty());
  EXPECT_EQ(drained.instancesStarted, 0u);
  EXPECT_EQ(drained.instancesStopped, 2u);
}

TEST(PlacementController, SatisfiesFeasibleDemand) {
  PlacementInput in = uniformInput(6, 10, 800.0);
  PlacementController pc;
  const auto r = pc.place(in);
  validatePlacement(in, r);
  EXPECT_NEAR(r.satisfactionRatio(), 1.0, 1e-9);
}

TEST(PlacementController, BalancesBetterThanFirstFit) {
  PlacementInput in = uniformInput(8, 16, 700.0);
  const auto ffr = FirstFitPlacement{}.place(in);
  const auto pcr = PlacementController{}.place(in);
  validatePlacement(in, ffr);
  validatePlacement(in, pcr);

  auto serverLoads = [&](const PlacementResult& r) {
    std::vector<double> load(in.servers.size(), 0.0);
    for (const Assignment& a : r.assignment) {
      load[a.server] += a.rps;
    }
    return load;
  };
  const double ffImb = maxOverMean(serverLoads(ffr));
  const double pcImb = maxOverMean(serverLoads(pcr));
  EXPECT_LT(pcImb, ffImb);
  EXPECT_LT(pcImb, 1.3);
}

TEST(PlacementController, MinimizesChurnAgainstCurrentPlacement) {
  PlacementInput in = uniformInput(4, 4, 1000.0);
  // A feasible existing placement: app i on server i.
  for (std::uint32_t i = 0; i < 4; ++i) {
    in.current.push_back(Assignment{i, i, 1000.0});
  }
  PlacementController pc;
  const auto r = pc.place(in);
  validatePlacement(in, r);
  EXPECT_NEAR(r.satisfactionRatio(), 1.0, 1e-9);
  EXPECT_EQ(r.instancesStarted, 0u);
  EXPECT_EQ(r.instancesStopped, 0u);
}

TEST(PlacementController, DropsInstancesWhenDemandVanishes) {
  PlacementInput in = uniformInput(2, 1, 0.0);
  in.current.push_back(Assignment{0, 0, 500.0});
  in.current.push_back(Assignment{0, 1, 500.0});
  const auto r = PlacementController{}.place(in);
  validatePlacement(in, r);
  EXPECT_TRUE(r.assignment.empty());
  EXPECT_EQ(r.instancesStopped, 2u);
}

TEST(PlacementController, RespectsMaxInstancesPerApp) {
  PlacementController::Options opt;
  opt.maxInstancesPerApp = 2;
  PlacementController pc{opt};
  // One app whose demand needs more than 2 servers' worth of CPU.
  PlacementInput in = uniformInput(8, 1, 30'000.0);
  const auto r = pc.place(in);
  validatePlacement(in, r);
  std::size_t instances = 0;
  for (const Assignment& a : r.assignment) {
    if (a.rps > 0.0) ++instances;
  }
  EXPECT_LE(instances, 2u);
  EXPECT_LT(r.satisfiedRps, r.demandRps);  // capped by the limit
}

TEST(PlacementController, MemoryFootprintLimitsColocation) {
  // Server with 4 GB memory, app footprint 2 GB -> at most 2 apps.
  PlacementInput in;
  in.servers.assign(1, PlacementServer{CapacityVec{32.0, 4.0, 10.0}});
  in.apps.assign(3, PlacementApp{AppSla{}, 100.0});
  const auto r = PlacementController{}.place(in);
  validatePlacement(in, r);
  std::size_t placed = 0;
  for (const Assignment& a : r.assignment) {
    if (a.rps > 0.0) ++placed;
  }
  EXPECT_LE(placed, 2u);
}

TEST(PlacementController, InvalidCurrentAssignmentThrows) {
  PlacementInput in = uniformInput(2, 2, 100.0);
  in.current.push_back(Assignment{5, 0, 10.0});
  EXPECT_THROW((void)PlacementController{}.place(in), PreconditionError);
}

TEST(PlacementController, OptionValidation) {
  PlacementController::Options bad;
  bad.balanceTolerance = 0.5;
  EXPECT_THROW((PlacementController{bad}), PreconditionError);
  bad = PlacementController::Options{};
  bad.maxInstancesPerApp = 0;
  EXPECT_THROW((PlacementController{bad}), PreconditionError);
}

TEST(ValidatePlacement, CatchesOversubscription) {
  PlacementInput in = uniformInput(1, 1, 1000.0);
  PlacementResult r;
  r.assignment.push_back(Assignment{0, 0, 100'000.0});
  r.satisfiedRps = 100'000.0;
  r.demandRps = 1000.0;
  EXPECT_THROW(validatePlacement(in, r), InvariantError);
}

TEST(ValidatePlacement, CatchesDuplicatePairs) {
  PlacementInput in = uniformInput(1, 1, 1000.0);
  PlacementResult r;
  r.assignment.push_back(Assignment{0, 0, 100.0});
  r.assignment.push_back(Assignment{0, 0, 100.0});
  r.satisfiedRps = 200.0;
  r.demandRps = 1000.0;
  EXPECT_THROW(validatePlacement(in, r), InvariantError);
}

// Property suite over randomized instances: both algorithms must produce
// valid placements; the controller must satisfy at least as much demand
// as first-fit (it strictly dominates by construction) up to epsilon.
class PlacementPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PlacementPropertyTest, BothAlgorithmsProduceValidPlacements) {
  Rng rng{GetParam()};
  PlacementInput in;
  const std::size_t servers = 2 + rng.uniformInt(12);
  const std::size_t apps = 1 + rng.uniformInt(20);
  for (std::size_t s = 0; s < servers; ++s) {
    in.servers.push_back(PlacementServer{
        CapacityVec{rng.uniform(4.0, 16.0), rng.uniform(8.0, 64.0),
                    rng.uniform(0.5, 2.0)}});
  }
  for (std::size_t a = 0; a < apps; ++a) {
    AppSla sla;
    sla.cpuPerKrps = rng.uniform(0.5, 2.0);
    sla.memPerInstanceGb = rng.uniform(1.0, 4.0);
    sla.gbpsPerKrps = rng.uniform(0.01, 0.1);
    in.apps.push_back(PlacementApp{sla, rng.uniform(0.0, 3000.0)});
  }
  // Random (feasible-per-entry) current placement.
  const std::size_t currents = rng.uniformInt(5);
  for (std::size_t c = 0; c < currents; ++c) {
    in.current.push_back(
        Assignment{static_cast<std::uint32_t>(rng.uniformInt(apps)),
                   static_cast<std::uint32_t>(rng.uniformInt(servers)),
                   rng.uniform(0.0, 500.0)});
  }

  const auto ffr = FirstFitPlacement{}.place(in);
  const auto pcr = PlacementController{}.place(in);
  validatePlacement(in, ffr);
  validatePlacement(in, pcr);
  EXPECT_GE(pcr.satisfiedRps, ffr.satisfiedRps - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PlacementPropertyTest,
                         ::testing::Range<std::uint64_t>(100, 140));

}  // namespace
}  // namespace mdc
