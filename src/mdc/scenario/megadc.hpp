// One-call construction of a fully wired (scaled-down or full-scale) mega
// data center: topology, switches, DNS, routes, hosts, applications, pods,
// global manager, and the fluid traffic engine.
//
// Every experiment and example builds its world through this header so
// component wiring lives in exactly one place.
#pragma once

#include <memory>
#include <string>

#include "mdc/core/global_manager.hpp"
#include "mdc/ctrl/control_channel.hpp"
#include "mdc/fault/fault_injector.hpp"
#include "mdc/fault/health_monitor.hpp"
#include "mdc/obs/metrics_registry.hpp"
#include "mdc/obs/trace.hpp"
#include "mdc/scenario/fluid_engine.hpp"
#include "mdc/scenario/session_engine.hpp"
#include "mdc/workload/demand.hpp"

namespace mdc {

struct MegaDcConfig {
  std::uint64_t seed = 1;

  TopologyConfig topology;

  // Applications.
  std::uint32_t numApps = 50;
  double totalDemandRps = 200'000.0;
  double zipfAlpha = 0.9;
  AppSla sla;
  std::uint32_t instancesPerApp = 2;

  // Pods: servers striped round-robin over this many pods.
  std::uint32_t numPods = 4;

  HostCostModel hostCosts;
  ResolverConfig resolver;
  SimTime routePropagationDelay = 30.0;
  SwitchLimits switchLimits;

  GlobalManager::Options manager;
  FluidEngine::Options engine;

  /// Failure detection + self-healing (E13).  Disabled monitors leave
  /// injected faults unrepaired — the "no recovery" baseline.
  bool enableHealthMonitor = true;
  HealthMonitor::Options health;
  FaultInjector::Options fault;

  /// Manager->switch control-link fault model (E14).  Applied at start()
  /// so the bootstrap path stays on a reliable channel; the default is
  /// the seed's lossless behavior.
  ChannelFaults ctrlFaults;

  /// Causal command tracing.  Compiled in but disabled by default; flip
  /// `tracing.enabled` (or `tracer->setEnabled(true)` at any time) to
  /// record every control-plane hop into the ring.
  Tracer::Options tracing;

  /// Session data plane (E19): per-connection tracking on the switches'
  /// shards, alongside the fluid engine.  Off by default — it adds a
  /// per-tick cost proportional to session arrivals.  `session` carries
  /// the engine knobs, including the (now configurable) global
  /// maxActiveSessions budget; the seed is derived from the scenario
  /// seed at construction.
  bool enableSessionEngine = false;
  SessionEngine::Options session;
};

/// The assembled world.  Construction wires everything; call
/// `deployAllApps()` + `start()` (or just `bootstrap()`) before running.
class MegaDc {
 public:
  explicit MegaDc(MegaDcConfig config);
  ~MegaDc();

  /// Registers every app with DNS/VIPs and spreads initial instances.
  void deployAllApps();

  /// Installs a demand model (defaults to StaticDemand over Zipf rates).
  void setDemandModel(std::unique_ptr<DemandModel> model);

  /// Starts all periodic control loops and the fluid engine.
  void start();

  /// deployAllApps + a warmup run (VM boot + RIP binding) + start().
  void bootstrap(SimTime warmupSeconds = 10.0);

  /// Run the simulation until `until` (absolute sim time).
  void runUntil(SimTime until);

  [[nodiscard]] const MegaDcConfig& config() const noexcept {
    return config_;
  }

  // Component access, in dependency order.
  Simulation sim;
  /// Unified metrics registry: every legacy gauge in the world is
  /// registered here as a callback (see registerStandardMetrics()), so
  /// one snapshot() sees the control plane, engine, faults, and health.
  MetricsRegistry metrics;
  /// Control-plane tracer, attached through the manager to the channel,
  /// sender, agents, and reconciler.  Never null after construction.
  std::unique_ptr<Tracer> tracer;
  Topology topo;
  AppRegistry apps;
  AuthoritativeDns dns;
  RouteRegistry routes;
  SwitchFleet fleet;
  HostFleet hosts;
  PodRegistry podRegistry;
  std::unique_ptr<DemandModel> demand;
  std::unique_ptr<GlobalManager> manager;
  std::unique_ptr<ResolverPopulation> resolvers;
  std::unique_ptr<FluidEngine> engine;
  std::unique_ptr<SessionEngine> sessions;  // null unless enabled
  std::unique_ptr<FaultInjector> faults;
  std::unique_ptr<HealthMonitor> health;  // null when disabled

 private:
  /// (Re)builds the fluid engine, with sampleGauges() as its report
  /// decorator, and the session engine when enabled, over the current
  /// demand model.
  void buildEngines();

  /// Fills the report's GAUGE rows (MDC_EPOCH_REPORT_GAUGES) from the
  /// components that own them.
  void sampleGauges(EpochReport& r);

  /// Registers callback gauges for every component counter under the
  /// `mdc.<subsystem>.<metric>` convention: the report's GAUGE rows from
  /// the table, the registry-only counters by hand.  Idempotent
  /// (re-registration replaces the callback), so it is re-run after
  /// engine rebuilds.
  void registerStandardMetrics();

  MegaDcConfig config_;
  bool started_ = false;
};

/// A config pre-filled with the paper's full-scale targets (§II): 300k
/// servers, 300k applications, 20 VMs/app, 3 VIPs/app, 375+ Catalyst-class
/// switches.  Building this allocates millions of objects — use in E1/E10
/// style structural benches, not in tests.
[[nodiscard]] MegaDcConfig paperScaleConfig();

/// A small config suitable for unit/integration tests (fast boot, short
/// latencies, a few dozen servers).
[[nodiscard]] MegaDcConfig testScaleConfig();

}  // namespace mdc
