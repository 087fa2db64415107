#include "mdc/scenario/megadc.hpp"

#include <algorithm>
#include <cmath>

#include "mdc/util/expect.hpp"

namespace mdc {

MegaDc::MegaDc(MegaDcConfig config)
    : topo(config.topology),
      routes(config.routePropagationDelay),
      hosts(topo, sim, config.hostCosts),
      podRegistry(config.topology.numServers),
      config_(std::move(config)) {
  MDC_EXPECT(config_.numApps > 0, "need at least one app");
  MDC_EXPECT(config_.numPods > 0, "need at least one pod");

  // LB switches matching the topology's trunk count.
  for (std::uint32_t i = 0; i < config_.topology.numSwitches; ++i) {
    SwitchLimits limits = config_.switchLimits;
    limits.capacityGbps = config_.topology.switchTrunkGbps;
    fleet.addSwitch(limits);
  }

  // Applications with Zipf-distributed base demand.
  const auto rates =
      zipfBaseRates(config_.numApps, config_.zipfAlpha, config_.totalDemandRps);
  for (std::uint32_t a = 0; a < config_.numApps; ++a) {
    apps.create("app-" + std::to_string(a), config_.sla, rates[a]);
  }
  demand = std::make_unique<StaticDemand>(rates);

  resolvers = std::make_unique<ResolverPopulation>(dns, config_.resolver);

  // Derive the control-channel seed from the scenario seed so faulty runs
  // replay bit-identically without correlating with the fault injector.
  config_.manager.viprip.channelSeed = config_.seed * 0x9e3779b9u + 0xe14u;

  manager = std::make_unique<GlobalManager>(
      sim, topo, hosts, apps, fleet, dns, routes, podRegistry,
      std::make_shared<PlacementController>(), config_.manager);

  // Tracer before pods/agents exist: the manager forwards it to the
  // channel, sender, every (lazily created) agent, and the reconciler —
  // including one built by a later start().
  tracer = std::make_unique<Tracer>(sim, config_.tracing);
  manager->attachTracer(tracer.get());

  // Pods: servers striped round-robin.
  std::vector<std::vector<ServerId>> podServers(config_.numPods);
  for (std::uint32_t s = 0; s < config_.topology.numServers; ++s) {
    podServers[s % config_.numPods].push_back(ServerId{s});
  }
  for (auto& servers : podServers) {
    manager->createPod(servers);
  }

  buildEngines();

  std::vector<PodManager*> rawPods;
  rawPods.reserve(manager->pods().size());
  for (auto& p : manager->pods()) rawPods.push_back(p.get());
  faults = std::make_unique<FaultInjector>(sim, topo, fleet, hosts,
                                           config_.fault);
  faults->attachPods(rawPods);
  faults->attachChannel(&manager->viprip().ctrlChannel());
  faults->attachManager(manager.get());
  if (config_.enableHealthMonitor) {
    health = std::make_unique<HealthMonitor>(sim, fleet, hosts, apps, dns,
                                             manager->viprip(),
                                             config_.health);
    health->attachPods(std::move(rawPods));
  }
  registerStandardMetrics();
}

MegaDc::~MegaDc() {
  // Members die in reverse declaration order, which would free the
  // health monitor (and the engines) before the manager.  But destroying
  // the manager is a process crash: it completes every queued or
  // in-flight request with "cancelled", and those completions run
  // callbacks that other components registered (the health monitor's
  // VIP-restore and dead-VM-cleanup retries write to the monitor).  So
  // the manager goes first, while everything it can call back is alive.
  manager.reset();
}

void MegaDc::buildEngines() {
  engine = std::make_unique<FluidEngine>(sim, topo, apps, dns, *resolvers,
                                         routes, fleet, hosts, *demand,
                                         config_.engine);
  engine->setReportDecorator([this](EpochReport& r) { sampleGauges(r); });
  if (!config_.enableSessionEngine) return;
  // Destroy before rebuilding: an old engine must detach its shards from
  // the switches before the new one attaches its own.
  sessions.reset();
  // Derived like the channel seed: replayable from the scenario seed,
  // uncorrelated with the other component streams.
  config_.session.seed = config_.seed * 0x9e3779b9u + 0xe19u;
  sessions = std::make_unique<SessionEngine>(sim, apps, *demand, dns,
                                             *resolvers, fleet,
                                             config_.session);
  sessions->attachTracer(tracer.get());
}

void MegaDc::sampleGauges(EpochReport& r) {
#define MDC_SAMPLE_GAUGE(field, type, wire, init, metric, source) \
  r.field = static_cast<type>(source);
  MDC_EPOCH_REPORT_GAUGES(MDC_EPOCH_REPORT_SKIP, MDC_SAMPLE_GAUGE)
#undef MDC_SAMPLE_GAUGE
}

void MegaDc::registerStandardMetrics() {
  // Every sampled report gauge, read live from its source (not from the
  // last report), so snapshot() is current between epochs too.
#define MDC_REGISTER_GAUGE(field, type, wire, init, metric, source) \
  metrics.registerGauge(metric, [this] {                           \
    return static_cast<double>(static_cast<type>(source));          \
  });
  MDC_EPOCH_REPORT_GAUGES(MDC_EPOCH_REPORT_SKIP, MDC_REGISTER_GAUGE)
#undef MDC_REGISTER_GAUGE

  // Registry-only gauges.
  auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };

  // Control channel + command sender (E14).
  const auto& vr = manager->viprip();
  metrics.registerGauge("mdc.ctrl.messages_sent", [&vr, u64] {
    return u64(vr.ctrlChannel().messagesSent());
  });
  metrics.registerGauge("mdc.ctrl.messages_duplicated", [&vr, u64] {
    return u64(vr.ctrlChannel().messagesDuplicated());
  });
  metrics.registerGauge("mdc.ctrl.messages_reordered", [&vr, u64] {
    return u64(vr.ctrlChannel().messagesReordered());
  });
  metrics.registerGauge("mdc.ctrl.commands_sent", [&vr, u64] {
    return u64(vr.ctrlSender().commandsSent());
  });
  metrics.registerGauge("mdc.ctrl.acks_received", [&vr, u64] {
    return u64(vr.ctrlSender().acksReceived());
  });

  // The serialized VIP/RIP queue (§III-C).
  metrics.registerGauge("mdc.manager.queue_length", [&vr] {
    return static_cast<double>(vr.queueLength());
  });
  metrics.registerGauge("mdc.manager.processed_requests", [&vr, u64] {
    return u64(vr.processedRequests());
  });
  metrics.registerGauge("mdc.manager.rejected_requests", [&vr, u64] {
    return u64(vr.rejectedRequests());
  });
  metrics.registerGauge("mdc.manager.cancelled_requests", [&vr, u64] {
    return u64(vr.cancelledRequests());
  });

  // Command-plane admission & overload (E18).
  const auto& adm = vr.admission();
  metrics.registerGauge("mdc.admission.queue_depth", [&adm] {
    return static_cast<double>(adm.depth());
  });
  for (std::size_t c = 0; c < kAdmissionClassCount; ++c) {
    const auto cls = static_cast<AdmissionClass>(c);
    const MetricLabels labels{{"class", toString(cls)}};
    metrics.registerGauge(
        "mdc.admission.class_depth",
        [&adm, cls] { return static_cast<double>(adm.depthOf(cls)); }, labels);
    metrics.registerGauge(
        "mdc.admission.shed_requests",
        [&adm, cls, u64] { return u64(adm.shedOf(cls)); }, labels);
  }
  metrics.registerGauge("mdc.admission.oldest_age_seconds",
                        [&adm, this] { return adm.oldestAgeSeconds(sim.now()); });
  metrics.registerGauge("mdc.admission.effective_batch_size", [&adm] {
    return static_cast<double>(adm.effectiveBatchSize());
  });
  metrics.registerGauge("mdc.admission.brownout_active", [&adm] {
    return adm.brownoutActive() ? 1.0 : 0.0;
  });
  metrics.registerGauge("mdc.admission.rounds",
                        [&adm, u64] { return u64(adm.rounds()); });
  metrics.registerGauge("mdc.admission.admitted_requests",
                        [&adm, u64] { return u64(adm.admitted()); });
  metrics.registerGauge("mdc.admission.deadline_expired",
                        [&adm, u64] { return u64(adm.deadlineExpired()); });
  metrics.registerGauge("mdc.admission.conflict_deferred",
                        [&adm, u64] { return u64(adm.conflictDeferred()); });
  metrics.registerGauge("mdc.admission.coalesced_requests",
                        [&adm, u64] { return u64(adm.coalesced()); });
  metrics.registerGauge("mdc.admission.bulk_evictions",
                        [&adm, u64] { return u64(adm.evictions()); });
  metrics.registerGauge("mdc.admission.brownout_entries",
                        [&adm, u64] { return u64(adm.brownoutEntries()); });

  // Durable state machine: snapshots, changelog, recovery (E17).
  auto machine = [this]() -> state::DurableStateMachine& {
    return manager->viprip().stateMachine();
  };
  metrics.registerGauge("mdc.state.changelog_bytes", [machine, u64] {
    return u64(machine().changelog().bytes());
  });
  metrics.registerGauge("mdc.state.snapshot_age_seconds", [this, machine] {
    return machine().snapshotsTaken() > 0
               ? sim.now() - machine().lastSnapshotAt()
               : 0.0;
  });

  // Anti-entropy reconciler (E14) — built at start(); 0 until then.
  auto rec = [&vr]() { return vr.reconciler(); };
  metrics.registerGauge("mdc.reconciler.rounds", [rec, u64] {
    return rec() ? u64(rec()->rounds()) : 0.0;
  });
  metrics.registerGauge("mdc.reconciler.rounds_skipped", [rec, u64] {
    return rec() ? u64(rec()->roundsSkipped()) : 0.0;
  });
  metrics.registerGauge("mdc.reconciler.drift_detected", [rec, u64] {
    return rec() ? u64(rec()->driftDetected()) : 0.0;
  });
  metrics.registerGauge("mdc.reconciler.repairs_succeeded", [rec, u64] {
    return rec() ? u64(rec()->repairsSucceeded()) : 0.0;
  });
  metrics.registerGauge("mdc.reconciler.repairs_failed", [rec, u64] {
    return rec() ? u64(rec()->repairsFailed()) : 0.0;
  });
  metrics.registerGauge("mdc.reconciler.placements_adopted", [rec, u64] {
    return rec() ? u64(rec()->placementsAdopted()) : 0.0;
  });
  metrics.registerGauge("mdc.reconciler.weights_adopted", [rec, u64] {
    return rec() ? u64(rec()->weightsAdopted()) : 0.0;
  });
  for (const char* kind : {"stray_vip", "duplicate_vip", "wrong_switch",
                           "missing_vip", "orphan_rip", "missing_rip"}) {
    metrics.registerGauge(
        "mdc.reconciler.drift",
        [rec, kind, u64]() -> double {
          if (rec() == nullptr) return 0.0;
          const auto& byKind = rec()->driftByKind();
          const auto it = byKind.find(kind);
          return it == byKind.end() ? 0.0 : u64(it->second);
        },
        {{"kind", kind}});
  }

  // Failure detection + self-healing (E13) — null when disabled.
  metrics.registerGauge("mdc.health.switch_failures_detected", [this, u64] {
    return health ? u64(health->switchFailuresDetected()) : 0.0;
  });
  metrics.registerGauge("mdc.health.server_failures_detected", [this, u64] {
    return health ? u64(health->serverFailuresDetected()) : 0.0;
  });
  metrics.registerGauge("mdc.health.pod_failures_detected", [this, u64] {
    return health ? u64(health->podFailuresDetected()) : 0.0;
  });
  metrics.registerGauge("mdc.health.vips_restored", [this, u64] {
    return health ? u64(health->vipsRestored()) : 0.0;
  });
  metrics.registerGauge("mdc.health.vms_cleaned_up", [this, u64] {
    return health ? u64(health->vmsCleanedUp()) : 0.0;
  });
  metrics.registerGauge("mdc.health.restore_retries", [this, u64] {
    return health ? u64(health->restoreRetries()) : 0.0;
  });
  metrics.registerGauge("mdc.health.cleanup_retries", [this, u64] {
    return health ? u64(health->cleanupRetries()) : 0.0;
  });
  metrics.registerGauge("mdc.health.pending_vip_restores", [this, u64] {
    return health ? u64(health->pendingVipRestores()) : 0.0;
  });
  metrics.registerGauge("mdc.health.pending_vm_cleanups", [this, u64] {
    return health ? u64(health->pendingVmCleanups()) : 0.0;
  });
  metrics.registerGauge("mdc.health.flap_suppressions", [this, u64] {
    return health ? u64(health->flapSuppressions()) : 0.0;
  });
  metrics.registerGauge("mdc.health.unavailability_rps_seconds", [this] {
    return health ? health->unavailabilityRpsSeconds() : 0.0;
  });

  // Epoch engine: cache effectiveness + per-phase wall-clock profile.
  // Deliberately dereferences `engine` (and its profiler) inside the
  // callback so the gauges survive the rebuild in setDemandModel().
  metrics.registerGauge("mdc.engine.apps_recomputed", [this, u64] {
    return u64(engine->appsRecomputed());
  });
  metrics.registerGauge("mdc.engine.apps_from_cache", [this, u64] {
    return u64(engine->appsFromCache());
  });
  metrics.registerGauge("mdc.engine.path_arena_size", [this] {
    return static_cast<double>(engine->pathArenaSize());
  });
  metrics.registerGauge("mdc.engine.workers", [this] {
    return static_cast<double>(engine->workerCount());
  });
  for (std::size_t p = 0; p < PhaseProfiler::kPhases; ++p) {
    const auto phase = static_cast<PhaseProfiler::Phase>(p);
    const MetricLabels labels{{"phase", PhaseProfiler::name(phase)}};
    metrics.registerGauge(
        "mdc.engine.phase_ns",
        [this, phase, u64] { return u64(engine->profiler().ns(phase)); },
        labels);
    metrics.registerGauge(
        "mdc.engine.phase_calls",
        [this, phase, u64] { return u64(engine->profiler().calls(phase)); },
        labels);
  }

  // Session data plane (E19) — null unless enabled; gauges read 0 then.
  for (std::size_t r = 0; r < kSessionRejectCount; ++r) {
    const auto reason = static_cast<SessionReject>(r);
    metrics.registerGauge(
        "mdc.session.rejected",
        [this, reason, u64] {
          return sessions ? u64(sessions->rejectedFor(reason)) : 0.0;
        },
        {{"reason", toString(reason)}});
  }
  metrics.registerGauge("mdc.session.drains_in_progress", [this] {
    return sessions ? static_cast<double>(sessions->drainsInProgress()) : 0.0;
  });
  metrics.registerGauge("mdc.session.drains_aborted", [this, u64] {
    return sessions ? u64(sessions->drainsAborted()) : 0.0;
  });

  // The tracer's own ring.
  metrics.registerGauge("mdc.trace.events_total", [this, u64] {
    return u64(tracer->ring().total());
  });
  metrics.registerGauge("mdc.trace.events_overwritten", [this, u64] {
    return u64(tracer->ring().overwritten());
  });
}

void MegaDc::setDemandModel(std::unique_ptr<DemandModel> model) {
  MDC_EXPECT(model != nullptr, "null demand model");
  MDC_EXPECT(!started_, "cannot swap demand model after start()");
  demand = std::move(model);
  // Rebuild the engines against the new model (they hold a reference).
  buildEngines();
  registerStandardMetrics();
}

void MegaDc::deployAllApps() {
  for (const Application& a : apps.all()) {
    // Enough instances that each initial slice fits comfortably within
    // one server (at most ~half a server per instance).
    const double perServerRps =
        a.sla.servableRps(config_.topology.serverCapacity);
    std::uint32_t instances = config_.instancesPerApp;
    if (perServerRps > 0.0) {
      const auto needed = static_cast<std::uint32_t>(
          std::ceil(a.baseRps * config_.manager.pod.headroom /
                    (0.5 * perServerRps)));
      instances = std::max(instances, needed);
    }
    const Status s =
        manager->deployApp(a.id, instances, a.baseRps / instances);
    MDC_ENSURE(s.ok(), "deployApp failed: " + s.error().code);
  }
}

void MegaDc::start() {
  MDC_EXPECT(!started_, "start() called twice");
  started_ = true;
  // The bootstrap ran on a reliable channel; unreliability begins with
  // the control loops.
  manager->viprip().ctrlChannel().setFaults(config_.ctrlFaults);
  manager->start();
  if (sessions) sessions->start();
  engine->start([this](const EpochReport& r) {
    manager->observe(r);
    if (health) health->observe(r);
  });
  if (health) {
    // Offset from the control loops so probes interleave with decisions.
    health->start(0.25 * config_.health.heartbeatInterval);
    if (config_.manager.enableInterPodBalancer) {
      manager->interPodBalancer().setPodFrozenCheck(
          [this](PodId pod) { return health->isPodSuspect(pod); });
    }
  }
}

void MegaDc::bootstrap(SimTime warmupSeconds) {
  deployAllApps();
  // Let route advertisements converge and cloned VMs come up before the
  // control loops begin.
  const SimTime warmup =
      std::max({warmupSeconds, config_.hostCosts.vmCloneSeconds + 1.0,
                config_.routePropagationDelay + 1.0});
  sim.runUntil(sim.now() + warmup);
  start();
}

void MegaDc::runUntil(SimTime until) { sim.runUntil(until); }

MegaDcConfig paperScaleConfig() {
  MegaDcConfig cfg;
  cfg.topology.numServers = 300'000;
  cfg.topology.serverCapacity = CapacityVec{16.0, 64.0, 1.0};
  cfg.topology.numIsps = 4;
  cfg.topology.accessLinksPerIsp = 4;
  cfg.topology.accessLinkGbps = 100.0;
  cfg.topology.numSwitches = 400;  // >= the paper's 375 minimum
  cfg.topology.switchTrunkGbps = 4.0;
  cfg.numApps = 300'000;
  cfg.totalDemandRps = 60.0e6;
  cfg.instancesPerApp = 2;  // grown toward ~20 by the managers
  cfg.numPods = 60;         // 5,000 servers per pod (§III-A)
  cfg.manager.vipsPerApp = 3;
  // At 300k apps the epoch fan-out is the hot loop; fan it out.  The
  // request is clamped to hardware_concurrency by resolveWorkers, so
  // on a 1-core box this degrades to a serial engine instead of paying
  // oversubscribed fork/join overhead.
  cfg.engine.workers = 4;
  return cfg;
}

MegaDcConfig testScaleConfig() {
  MegaDcConfig cfg;
  cfg.seed = 7;
  cfg.topology.numServers = 32;
  cfg.topology.serverCapacity = CapacityVec{8.0, 32.0, 1.0};
  cfg.topology.numIsps = 2;
  cfg.topology.accessLinksPerIsp = 1;
  cfg.topology.accessLinkGbps = 2.0;
  cfg.topology.numSwitches = 3;
  cfg.topology.switchTrunkGbps = 4.0;
  cfg.numApps = 6;
  cfg.totalDemandRps = 30'000.0;
  cfg.numPods = 2;
  cfg.instancesPerApp = 2;
  cfg.hostCosts.vmBootSeconds = 5.0;
  cfg.hostCosts.vmCloneSeconds = 1.0;
  cfg.hostCosts.capacityAdjustSeconds = 0.5;
  cfg.hostCosts.migrationGbps = 8.0;
  cfg.routePropagationDelay = 2.0;
  cfg.resolver.ttlSeconds = 20.0;
  cfg.resolver.lingerFraction = 0.02;
  cfg.switchLimits.reconfigSeconds = 0.5;
  cfg.manager.vipsPerApp = 2;
  cfg.manager.viprip.processSeconds = 0.01;
  cfg.manager.pod.controlPeriod = 5.0;
  cfg.manager.link.period = 10.0;
  cfg.manager.switchBalancer.period = 10.0;
  cfg.manager.interPod.period = 10.0;
  cfg.engine.epoch = 2.0;
  return cfg;
}

}  // namespace mdc
