// E9 — policy conflicts and the two-LB-layer architecture (§V-B).
//
// The conflict: an application's VIP on a lightly-loaded access link maps
// to servers in a *highly-loaded* pod.  With a single LB layer, the DNS
// weight of that VIP steers the access link AND the pod at once — helping
// one objective hurts the other.  The demand-distribution layer decouples
// them: external VIPs (per access link) map to m-VIPs, whose RIP weights
// pick the pod independently.
//
// Setup: 2 access links (link 1 degraded to 30%), 2 servers ("pods"),
// server 1 shouldering heavy background load.  The app's capacity sits
// behind both.  Single layer: VIP@link0 -> server1(busy),
// VIP@link1(degraded) -> server0(idle) — the worst-case coupling.  We
// sweep the DNS split and report the best achievable (link, server)
// overload pair; then wire the two-layer variant and show both objectives
// met, at the cost of extra switches.
#include <iostream>
#include <memory>

#include "mdc/metrics/table.hpp"
#include "mdc/scenario/fluid_engine.hpp"

namespace {

using namespace mdc;

struct World {
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
  VmId vmBusy, vmIdle, vmBackground;

  static TopologyConfig topoConfig(std::uint32_t switches) {
    TopologyConfig cfg;
    cfg.numServers = 2;
    cfg.serverCapacity = CapacityVec{32.0, 128.0, 4.0};
    cfg.numIsps = 2;
    cfg.accessLinksPerIsp = 1;
    cfg.accessLinkGbps = 1.0;
    cfg.numSwitches = switches;
    cfg.switchTrunkGbps = 4.0;
    return cfg;
  }

  explicit World(std::uint32_t switches)
      : topo(topoConfig(switches)), hosts(topo, sim, HostCostModel{}) {
    for (std::uint32_t i = 0; i < switches; ++i) {
      fleet.addSwitch(SwitchLimits{});
    }
    // Link 1 degraded to 30%.
    topo.network().setCapacity(topo.accessLink(1).link, 0.3);

    // The app under test: 20 krps (0.8 Gbps external).  The background
    // app is CPU-heavy but network-light: it pins server 1's cores
    // without touching the access links.
    AppSla bgSla;
    bgSla.gbpsPerKrps = 0.001;
    apps.create("background", bgSla, 24'000.0);
    app = apps.create("web", AppSla{}, 20'000.0);
    dns.registerApp(AppId{0});
    dns.registerApp(app);

    auto mkVm = [&](ServerId srv, double rps, AppId a) {
      const auto vm =
          hosts.createVm(a, srv, apps.app(a).sla.sliceFor(rps, 1.0));
      MDC_ENSURE(vm.ok(), "vm creation failed");
      return vm.value();
    };
    // Server 1 has only 8 cores left after the background VM, so the
    // app's VM there can serve at most 8 krps; server 0 is wide open.
    vmBackground = mkVm(ServerId{1}, 24'000.0, AppId{0});
    vmBusy = mkVm(ServerId{1}, 8'000.0, app);
    vmIdle = mkVm(ServerId{0}, 20'000.0, app);
    sim.runUntil(70.0);  // VMs boot

    resolvers = std::make_unique<ResolverPopulation>(dns, ResolverConfig{});
    demand = std::make_unique<StaticDemand>(
        std::vector<double>{24'000.0, 20'000.0});
    engine = std::make_unique<FluidEngine>(sim, topo, apps, dns, *resolvers,
                                           routes, fleet, hosts, *demand,
                                           FluidEngine::Options{});
  }

  /// Overload of the worse server, measured as offered/capacity rps.
  double serverOverload(const EpochReport& r) const {
    (void)r;
    double worst = 0.0;
    for (const ServerInfo& s : topo.servers()) {
      double offered = 0.0, capacity = 0.0;
      for (VmId vm : hosts.vmsOn(s.id)) {
        if (!hosts.vmExists(vm)) continue;
        offered += hosts.vm(vm).offeredRps;
        capacity += apps.app(hosts.vm(vm).app)
                        .sla.servableRps(hosts.vm(vm).effectiveSlice);
      }
      if (capacity > 0.0) worst = std::max(worst, offered / capacity);
    }
    return worst;
  }
};

RipEntry vmRip(std::uint32_t rip, VmId vm, double w = 1.0) {
  RipEntry e;
  e.rip = RipId{rip};
  e.vm = vm;
  e.weight = w;
  return e;
}

RipEntry mvipRip(std::uint32_t rip, VipId mvip, double w) {
  RipEntry e;
  e.rip = RipId{rip};
  e.mvip = mvip;
  e.weight = w;
  return e;
}

}  // namespace

int main() {
  // ---------------- single layer: the objectives are coupled ------------
  Table single{"E9a: single LB layer — link needs >=62.5% on link 0, but the busy"
               " server behind it tolerates <=40%",
               {"weight on vip@link0->busy", "max link util",
                "max server overload", "both <= 1.0?"}};
  double bestSingle = 1e9;
  for (int i = 0; i <= 10; ++i) {
    const double w = static_cast<double>(i) / 10.0;
    World world{2};
    const VipId vip0{0}, vip1{1};
    // VIP0: advertised on healthy link 0, backed by the BUSY server.
    MDC_ENSURE(world.fleet.configureVip(SwitchId{0}, vip0, world.app).ok(),
               "wire vip0");
    MDC_ENSURE(world.fleet.addRip(vip0, vmRip(0, world.vmBusy)).ok(), "rip0");
    // VIP1: advertised on the DEGRADED link 1, backed by the idle server.
    MDC_ENSURE(world.fleet.configureVip(SwitchId{1}, vip1, world.app).ok(),
               "wire vip1");
    MDC_ENSURE(world.fleet.addRip(vip1, vmRip(1, world.vmIdle)).ok(), "rip1");
    // Background app eats most of server 1 via its own VIP on link 0.
    const VipId vipBg{2};
    MDC_ENSURE(
        world.fleet.configureVip(SwitchId{0}, vipBg, AppId{0}).ok(), "bg");
    MDC_ENSURE(
        world.fleet.addRip(vipBg, vmRip(2, world.vmBackground)).ok(), "bgr");
    world.dns.addVip(AppId{0}, vipBg, 1.0);
    world.routes.advertise(vipBg, AccessRouterId{0}, 0.0);

    world.dns.addVip(world.app, vip0, w);
    world.dns.addVip(world.app, vip1, 1.0 - w);
    world.routes.advertise(vip0, AccessRouterId{0}, 0.0);
    world.routes.advertise(vip1, AccessRouterId{1}, 0.0);
    world.routes.settle(world.sim.now());

    const EpochReport r = world.engine->step();
    const double linkUtil =
        std::max(r.accessLinkUtil[0], r.accessLinkUtil[1]);
    const double srvOver = world.serverOverload(r);
    const double worse = std::max(linkUtil, srvOver);
    bestSingle = std::min(bestSingle, worse);
    single.addRow({w, linkUtil, srvOver,
                   std::string{(linkUtil <= 1.0 && srvOver <= 1.0) ? "yes"
                                                                   : "NO"}});
  }
  single.print(std::cout);
  std::cout << "best achievable max(link util, server overload) with one"
               " layer: " << bestSingle << "\n\n";

  // ---------------- two layers: decoupled ------------------------------
  World world{4};  // 2 demand-distribution + 2 load-balancing switches
  const VipId ext0{10}, ext1{11}, mvip0{12}, mvip1{13};
  // m-VIPs on the load-balancing layer choose the SERVER (pod): weight
  // toward the idle server.
  MDC_ENSURE(world.fleet.configureVip(SwitchId{2}, mvip0, world.app).ok(),
             "mvip0");
  MDC_ENSURE(world.fleet.addRip(mvip0, vmRip(10, world.vmBusy, 0.25)).ok(),
             "m0r0");
  MDC_ENSURE(world.fleet.addRip(mvip0, vmRip(11, world.vmIdle, 0.75)).ok(),
             "m0r1");
  MDC_ENSURE(world.fleet.configureVip(SwitchId{3}, mvip1, world.app).ok(),
             "mvip1");
  MDC_ENSURE(world.fleet.addRip(mvip1, vmRip(12, world.vmBusy, 0.25)).ok(),
             "m1r0");
  MDC_ENSURE(world.fleet.addRip(mvip1, vmRip(13, world.vmIdle, 0.75)).ok(),
             "m1r1");
  // External VIPs on the demand-distribution layer choose the LINK: both
  // map to the same m-VIP set (as §V-B prescribes, conserving m-VIPs).
  MDC_ENSURE(world.fleet.configureVip(SwitchId{0}, ext0, world.app).ok(),
             "ext0");
  MDC_ENSURE(world.fleet.addRip(ext0, mvipRip(14, mvip0, 0.5)).ok(), "e0m0");
  MDC_ENSURE(world.fleet.addRip(ext0, mvipRip(15, mvip1, 0.5)).ok(), "e0m1");
  MDC_ENSURE(world.fleet.configureVip(SwitchId{1}, ext1, world.app).ok(),
             "ext1");
  MDC_ENSURE(world.fleet.addRip(ext1, mvipRip(16, mvip0, 0.5)).ok(), "e1m0");
  MDC_ENSURE(world.fleet.addRip(ext1, mvipRip(17, mvip1, 0.5)).ok(), "e1m1");
  // Background as before.
  const VipId vipBg{18};
  MDC_ENSURE(world.fleet.configureVip(SwitchId{2}, vipBg, AppId{0}).ok(),
             "bg");
  MDC_ENSURE(
      world.fleet.addRip(vipBg, vmRip(18, world.vmBackground)).ok(), "bgr");
  world.dns.addVip(AppId{0}, vipBg, 1.0);
  world.routes.advertise(vipBg, AccessRouterId{0}, 0.0);
  // DNS (link objective): 90% to the healthy link, 10% to the degraded.
  world.dns.addVip(world.app, ext0, 0.9);
  world.dns.addVip(world.app, ext1, 0.1);
  world.routes.advertise(ext0, AccessRouterId{0}, 0.0);
  world.routes.advertise(ext1, AccessRouterId{1}, 0.0);
  world.routes.settle(world.sim.now());

  const EpochReport r = world.engine->step();
  Table two{"E9b: two LB layers — objectives decoupled",
            {"metric", "value"}};
  two.addRow({std::string{"max link util"},
              std::max(r.accessLinkUtil[0], r.accessLinkUtil[1])});
  two.addRow({std::string{"max server overload"}, world.serverOverload(r)});
  two.addRow({std::string{"switches used (single layer)"},
              static_cast<long long>(2)});
  two.addRow({std::string{"switches used (two layers)"},
              static_cast<long long>(4)});
  two.print(std::cout);
  std::cout << "expected shape: no single-layer split keeps both the link"
               " and the server within capacity; the demand-distribution"
               " layer achieves both at the price of extra switches —"
               " exactly the §V-B trade-off\n";
  return 0;
}
