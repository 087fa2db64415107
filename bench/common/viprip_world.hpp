// A VIP/RIP manager on its own: eight LB switches over a small topology,
// with no MegaDc around it.  E12 runs the paper's serialized queue on it;
// E18 compares that queue with pipelined admission.
#pragma once

#include "mdc/core/viprip_manager.hpp"

namespace mdc::bench {

struct VipRipWorld {
  Simulation sim;
  Topology topo{topoConfig()};
  SwitchFleet fleet;
  AuthoritativeDns dns;
  RouteRegistry routes{30.0};
  AppRegistry apps;
  VipRipManager viprip;

  VipRipWorld(const VipRipManager::Options& options,
              const SwitchLimits& limits)
      : viprip(sim, fleet, dns, routes, apps, topo, options) {
    for (int i = 0; i < 8; ++i) fleet.addSwitch(limits);
  }

  static TopologyConfig topoConfig() {
    TopologyConfig cfg;
    cfg.numServers = 8;
    cfg.numIsps = 4;
    cfg.numSwitches = 8;
    return cfg;
  }
};

}  // namespace mdc::bench
