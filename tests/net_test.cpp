// Unit and property tests for the flow-level network engine.
#include <gtest/gtest.h>

#include <cmath>

#include <vector>

#include "mdc/net/network.hpp"
#include "mdc/sim/rng.hpp"

namespace mdc {
namespace {

Network twoLinkNet(double capA, double capB) {
  Network net;
  net.addLink("a", capA);
  net.addLink("b", capB);
  return net;
}

TEST(Network, AddAndQueryLinks) {
  Network net;
  const LinkId a = net.addLink("uplink", 10.0);
  EXPECT_EQ(net.linkCount(), 1u);
  EXPECT_EQ(net.link(a).name, "uplink");
  EXPECT_DOUBLE_EQ(net.link(a).capacityGbps, 10.0);
}

TEST(Network, UnknownLinkThrows) {
  Network net;
  EXPECT_THROW((void)net.link(LinkId{0}), PreconditionError);
  EXPECT_THROW((void)net.link(LinkId{}), PreconditionError);
}

TEST(Network, SetCapacity) {
  Network net;
  const LinkId a = net.addLink("x", 5.0);
  net.setCapacity(a, 1.0);
  EXPECT_DOUBLE_EQ(net.link(a).capacityGbps, 1.0);
  EXPECT_THROW(net.setCapacity(a, -1.0), PreconditionError);
}

TEST(Network, UncontendedFlowGetsFullDemand) {
  Network net = twoLinkNet(10.0, 10.0);
  std::vector<Flow> flows{{3.0, {LinkId{0}, LinkId{1}}}};
  const auto alloc = net.allocate(flows);
  EXPECT_DOUBLE_EQ(alloc.flowRate[0], 3.0);
  EXPECT_DOUBLE_EQ(alloc.linkServed[0], 3.0);
  EXPECT_DOUBLE_EQ(alloc.linkOffered[0], 3.0);
}

TEST(Network, BottleneckSharedEqually) {
  Network net = twoLinkNet(4.0, 100.0);
  std::vector<Flow> flows{
      {10.0, {LinkId{0}}},
      {10.0, {LinkId{0}}},
  };
  const auto alloc = net.allocate(flows);
  EXPECT_NEAR(alloc.flowRate[0], 2.0, 1e-9);
  EXPECT_NEAR(alloc.flowRate[1], 2.0, 1e-9);
  EXPECT_NEAR(alloc.linkServed[0], 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(alloc.linkOffered[0], 20.0);
}

TEST(Network, SmallFlowUnconstrainedByBigNeighbor) {
  // Max-min property: a flow demanding less than its fair share gets its
  // full demand; the rest goes to the bigger flow.
  Network net = twoLinkNet(10.0, 100.0);
  std::vector<Flow> flows{
      {2.0, {LinkId{0}}},
      {50.0, {LinkId{0}}},
  };
  const auto alloc = net.allocate(flows);
  EXPECT_NEAR(alloc.flowRate[0], 2.0, 1e-9);
  EXPECT_NEAR(alloc.flowRate[1], 8.0, 1e-9);
}

TEST(Network, MultiHopBottleneckIsTightestLink) {
  Network net;
  net.addLink("wide", 100.0);
  net.addLink("narrow", 1.0);
  std::vector<Flow> flows{{5.0, {LinkId{0}, LinkId{1}}}};
  const auto alloc = net.allocate(flows);
  EXPECT_NEAR(alloc.flowRate[0], 1.0, 1e-9);
}

TEST(Network, CrossTrafficScenario) {
  // Flow 0 crosses links A and B; flow 1 only A; flow 2 only B.
  Network net = twoLinkNet(10.0, 4.0);
  std::vector<Flow> flows{
      {100.0, {LinkId{0}, LinkId{1}}},
      {100.0, {LinkId{0}}},
      {100.0, {LinkId{1}}},
  };
  const auto alloc = net.allocate(flows);
  // B (cap 4) is the tighter bottleneck for flows 0 and 2: 2 each.
  EXPECT_NEAR(alloc.flowRate[0], 2.0, 1e-9);
  EXPECT_NEAR(alloc.flowRate[2], 2.0, 1e-9);
  // Flow 1 then takes the rest of A: 10 - 2 = 8.
  EXPECT_NEAR(alloc.flowRate[1], 8.0, 1e-9);
}

TEST(Network, ZeroDemandFlow) {
  Network net = twoLinkNet(1.0, 1.0);
  std::vector<Flow> flows{{0.0, {LinkId{0}}}};
  const auto alloc = net.allocate(flows);
  EXPECT_DOUBLE_EQ(alloc.flowRate[0], 0.0);
}

TEST(Network, EmptyPathAlwaysServed) {
  Network net = twoLinkNet(1.0, 1.0);
  std::vector<Flow> flows{{42.0, {}}};
  const auto alloc = net.allocate(flows);
  EXPECT_DOUBLE_EQ(alloc.flowRate[0], 42.0);
}

TEST(Network, ZeroCapacityLinkBlocksFlow) {
  Network net;
  net.addLink("down", 0.0);
  std::vector<Flow> flows{{5.0, {LinkId{0}}}};
  const auto alloc = net.allocate(flows);
  EXPECT_DOUBLE_EQ(alloc.flowRate[0], 0.0);
}

TEST(Network, NegativeDemandThrows) {
  Network net = twoLinkNet(1.0, 1.0);
  std::vector<Flow> flows{{-1.0, {LinkId{0}}}};
  EXPECT_THROW((void)net.allocate(flows), PreconditionError);
}

TEST(Network, UtilizationComputation) {
  Network net = twoLinkNet(10.0, 0.0);
  std::vector<Flow> flows{{5.0, {LinkId{0}}}, {1.0, {LinkId{1}}}};
  const auto offered = net.offeredLoad(flows);
  const auto util = net.utilization(offered);
  EXPECT_DOUBLE_EQ(util[0], 0.5);
  EXPECT_TRUE(std::isinf(util[1]));
}

TEST(Network, TotalServedNeverExceedsDemand) {
  Network net = twoLinkNet(3.0, 7.0);
  std::vector<Flow> flows{
      {2.0, {LinkId{0}}},
      {9.0, {LinkId{1}}},
      {4.0, {LinkId{0}, LinkId{1}}},
  };
  const auto alloc = net.allocate(flows);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_LE(alloc.flowRate[i], flows[i].demandGbps + 1e-9);
  }
  EXPECT_LE(alloc.totalServed(), alloc.totalDemand(flows) + 1e-9);
}

// Property suite: randomized flow sets must respect capacity and demand
// bounds, and allocation must be work-conserving on saturated links.
class NetworkPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkPropertyTest, AllocationInvariants) {
  Rng rng{GetParam()};
  Network net;
  const std::size_t nLinks = 3 + rng.uniformInt(6);
  for (std::size_t i = 0; i < nLinks; ++i) {
    net.addLink(std::string{"l"} + std::to_string(i), rng.uniform(0.5, 20.0));
  }
  std::vector<Flow> flows;
  const std::size_t nFlows = 1 + rng.uniformInt(20);
  for (std::size_t f = 0; f < nFlows; ++f) {
    Flow flow;
    flow.demandGbps = rng.uniform(0.0, 10.0);
    const std::size_t hops = 1 + rng.uniformInt(3);
    for (std::size_t h = 0; h < hops; ++h) {
      const LinkId l{static_cast<LinkId::value_type>(rng.uniformInt(nLinks))};
      if (std::find(flow.path.begin(), flow.path.end(), l) ==
          flow.path.end()) {
        flow.path.push_back(l);
      }
    }
    flows.push_back(std::move(flow));
  }

  const auto alloc = net.allocate(flows);

  // (1) Demand bound per flow.
  for (std::size_t f = 0; f < flows.size(); ++f) {
    EXPECT_GE(alloc.flowRate[f], -1e-9);
    EXPECT_LE(alloc.flowRate[f], flows[f].demandGbps + 1e-9);
  }
  // (2) Capacity bound per link.
  for (std::size_t l = 0; l < nLinks; ++l) {
    EXPECT_LE(alloc.linkServed[l],
              net.link(LinkId{static_cast<LinkId::value_type>(l)})
                      .capacityGbps + 1e-6);
  }
  // (3) Work conservation: every unsatisfied flow crosses at least one
  // (approximately) saturated link.
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (alloc.flowRate[f] < flows[f].demandGbps - 1e-6) {
      bool saturated = false;
      for (LinkId l : flows[f].path) {
        const double cap = net.link(l).capacityGbps;
        if (alloc.linkServed[l.index()] >= cap - 1e-6) saturated = true;
      }
      EXPECT_TRUE(saturated) << "flow " << f << " starved without bottleneck";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFlowSets, NetworkPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace mdc
