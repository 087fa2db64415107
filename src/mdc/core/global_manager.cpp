#include "mdc/core/global_manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

namespace mdc {

GlobalManager::GlobalManager(
    Simulation& sim, const Topology& topo, HostFleet& hosts,
    AppRegistry& apps, SwitchFleet& fleet, AuthoritativeDns& dns,
    RouteRegistry& routes, PodRegistry& podRegistry,
    std::shared_ptr<const PlacementAlgorithm> algorithm, Options options)
    : sim_(sim),
      topo_(topo),
      hosts_(hosts),
      apps_(apps),
      fleet_(fleet),
      podRegistry_(podRegistry),
      algorithm_(std::move(algorithm)),
      options_(options) {
  MDC_EXPECT(options.vipsPerApp >= 1, "apps need at least one VIP");
  viprip_ = std::make_unique<VipRipManager>(sim, fleet, dns, routes, apps,
                                            topo, options.viprip);
  viprip_->setVmLivenessCheck(
      [this](VmId vm) { return hosts_.vmExists(vm); });
  linkBalancer_ = std::make_unique<AccessLinkBalancer>(
      sim, dns, *viprip_, apps, fleet, topo, options.link);
  switchBalancer_ = std::make_unique<SwitchBalancer>(
      sim, fleet, dns, apps, *viprip_, options.switchBalancer);
}

PodManager& GlobalManager::createPod(const std::vector<ServerId>& servers) {
  MDC_EXPECT(!started_, "createPod after start()");
  const PodId id{static_cast<PodId::value_type>(pods_.size())};
  auto pod = std::make_unique<PodManager>(id, sim_, hosts_, apps_, topo_,
                                          podRegistry_, algorithm_, *this,
                                          options_.pod);
  for (ServerId s : servers) pod->adoptServer(s);
  pods_.push_back(std::move(pod));
  return *pods_.back();
}

Status GlobalManager::deployApp(AppId app, std::uint32_t instances,
                                double perInstanceRps) {
  MDC_EXPECT(!pods_.empty(), "deployApp before any pod exists");
  MDC_EXPECT(instances > 0, "deployApp needs at least one instance");

  for (std::uint32_t v = 0; v < options_.vipsPerApp; ++v) {
    const auto vip = viprip_->createVipNow(app);
    if (!vip.ok()) return Status::fail(vip.error().code, vip.error().detail);
  }

  const AppSla& sla = apps_.app(app).sla;
  const CapacityVec slice = sla.sliceFor(perInstanceRps, options_.pod.headroom);
  for (std::uint32_t i = 0; i < instances; ++i) {
    // Round-robin over pods, emptiest feasible server within the pod.
    bool placed = false;
    const std::size_t attempts = options_.pinAppsToPods ? 1 : pods_.size();
    for (std::size_t attempt = 0; attempt < attempts && !placed; ++attempt) {
      PodManager& pod = options_.pinAppsToPods
                            ? *pods_[app.index() % pods_.size()]
                            : *pods_[nextDeployPod_ % pods_.size()];
      ++nextDeployPod_;
      ServerId best;
      double bestUtil = std::numeric_limits<double>::infinity();
      for (ServerId s : pod.servers()) {
        if (!hosts_.serverUp(s)) continue;
        if (!slice.fitsWithin(hosts_.freeCapacity(s))) continue;
        const double u = hosts_.serverUtilization(s);
        if (u < bestUtil) {
          bestUtil = u;
          best = s;
        }
      }
      if (!best.valid()) continue;
      auto created = hosts_.createVm(
          app, best, slice, /*clone=*/true,
          [this, app, perInstanceRps](VmId vm) {
            // Bootstrap path: bind the RIP synchronously on activation.
            (void)viprip_->createRipNow(app, vm, perInstanceRps);
          });
      if (created.ok()) {
        apps_.addInstance(app, created.value());
        placed = true;
      }
    }
    if (!placed) return Status::fail("insufficient_capacity");
  }
  return Status::okStatus();
}

void GlobalManager::attachTracer(Tracer* tracer) {
  tracer_ = tracer;
  viprip_->attachTracer(tracer);
  if (reconciler_ != nullptr) reconciler_->setTracer(tracer);
}

void GlobalManager::start() {
  MDC_EXPECT(!started_, "start() called twice");
  started_ = true;
  // Balancer rounds are leader work: while no leader is up, no
  // datacenter-scale decision (and no journal write) may happen, so the
  // loops are registered here behind the leadership gate instead of via
  // the components' own start().
  if (options_.enableInterPodBalancer && !pods_.empty()) {
    std::vector<PodManager*> raw;
    raw.reserve(pods_.size());
    for (auto& p : pods_) raw.push_back(p.get());
    interPod_ = std::make_unique<InterPodBalancer>(
        sim_, hosts_, apps_, fleet_, *viprip_, podRegistry_,
        std::move(raw), options_.interPod);
    sim_.every(options_.interPod.period,
               [this] {
                 if (leaderUp_) interPod_->runOnce();
               },
               options_.interPod.period * 0.5);
  }
  if (options_.enablePodLoops) {
    double phase = 0.0;
    for (auto& p : pods_) {
      p->start(phase);
      phase += options_.pod.controlPeriod / (static_cast<double>(pods_.size()) + 1.0);
    }
  }
  if (options_.enableLinkBalancer) {
    sim_.every(options_.link.period,
               [this] {
                 if (leaderUp_) linkBalancer_->runOnce();
               },
               options_.link.period * 0.25);
  }
  if (options_.enableSwitchBalancer) {
    sim_.every(options_.switchBalancer.period,
               [this] {
                 if (leaderUp_) switchBalancer_->runOnce();
               },
               options_.switchBalancer.period * 0.75);
  }
  if (options_.enableReconciler) {
    Reconciler::Hooks hooks;
    hooks.adoptPlacement = [this](VipId vip, SwitchId actual) {
      viprip_->adoptPlacement(vip, actual);
    };
    hooks.adoptRipWeight = [this](VipId vip, RipId rip, double actual) {
      viprip_->adoptRipWeight(vip, rip, actual);
    };
    hooks.resyncDns = [this](VipId vip) { viprip_->resyncVipDnsWeight(vip); };
    reconciler_ = std::make_unique<Reconciler>(
        sim_, fleet_, viprip_->intent(), viprip_->ctrlSender(),
        std::move(hooks), options_.reconciler);
    viprip_->attachReconciler(reconciler_.get());
    reconciler_->setTracer(tracer_);
    reconciler_->setActiveCheck([this] { return leaderUp_; });
    reconciler_->setOverloadCheck([this]() -> double {
      return viprip_->overloaded() ? viprip_->suggestedRetryAfter() : 0.0;
    });
    reconciler_->start(options_.reconciler.periodSeconds * 0.4);
  }
  if (options_.failover.enable) {
    MDC_EXPECT(options_.failover.leaseSeconds > 0.0 &&
                   options_.failover.renewSeconds > 0.0,
               "lease and renew periods must be positive");
    leaseExpiry_ = sim_.now() + options_.failover.leaseSeconds;
    sim_.every(options_.failover.renewSeconds, [this] { leaseTick(); });
  }
  if (options_.snapshot.enable) {
    MDC_EXPECT(options_.snapshot.periodSeconds > 0.0,
               "snapshot period must be positive");
    viprip_->setSnapshotAdvisoryHooks(
        [this](state::ByteWriter& w) { buildPodAdvisory(w); },
        [this](state::ByteReader& r) { installPodAdvisory(r); });
    // Snapshots are leader work like every other durable write; the
    // phase offset keeps them clear of the balancer rounds.
    sim_.every(options_.snapshot.periodSeconds,
               [this] {
                 if (leaderUp_) viprip_->snapshotNow(term_);
               },
               options_.snapshot.periodSeconds * 0.6);
  }
}

void GlobalManager::buildPodAdvisory(state::ByteWriter& w) const {
  w.u64(pods_.size());
  for (const auto& pod : pods_) {
    const std::map<VmId, double> sorted(pod->weightCheckpoint().begin(),
                                        pod->weightCheckpoint().end());
    w.u64(sorted.size());
    for (const auto& [vm, weight] : sorted) {
      w.id(vm);
      w.f64(weight);
    }
  }
}

void GlobalManager::installPodAdvisory(state::ByteReader& r) {
  snapshotPodWeights_.clear();
  const std::uint64_t podCount = r.u64();
  for (std::uint64_t p = 0; p < podCount && r.ok(); ++p) {
    const std::uint64_t entries = r.u64();
    for (std::uint64_t i = 0; i < entries && r.ok(); ++i) {
      const VmId vm = r.id<VmId>();
      const double weight = r.f64();
      if (r.ok()) snapshotPodWeights_[vm] = weight;
    }
  }
  // Advisory bytes are best-effort by design: on any decode trouble the
  // entries that parsed are kept and the rest is dropped.
}

void GlobalManager::leaseTick() {
  if (leaderUp_) {
    leaseExpiry_ = sim_.now() + options_.failover.leaseSeconds;
    return;
  }
  if (standbys_ == 0) return;             // nobody left to promote
  if (sim_.now() < leaseExpiry_) return;  // fencing: wait out the old lease
  // Promotion: the standby becomes leader under a strictly higher term.
  --standbys_;
  leaderUp_ = true;
  ++term_;
  ++failovers_;
  leaseExpiry_ = sim_.now() + options_.failover.leaseSeconds;
  // Recover from the durable state: new fencing term (agents will reject
  // anything older), journal replay (which also purges RIPs of VMs that
  // died meanwhile), reopened serialization queue...
  viprip_->recoverAsLeader(term_);
  // ...and an immediate audit re-derives pending work from the rebuilt
  // IntentStore instead of waiting out the periodic round.
  if (reconciler_ != nullptr) reconciler_->auditRound();
}

void GlobalManager::crashLeader() {
  MDC_EXPECT(leaderUp_, "crashLeader() with no live leader");
  leaderUp_ = false;
  // Everything queued or awaiting an ack dies with the process; each
  // submitter sees Cancelled exactly once and nothing retries into the
  // dead term.
  viprip_->crash();
}

void GlobalManager::reviveInstance() {
  MDC_EXPECT(aliveManagers() < 2, "both manager instances already alive");
  ++standbys_;
}

void GlobalManager::crashPod(PodId pod) {
  MDC_EXPECT(pod.valid() && pod.index() < pods_.size(), "unknown pod");
  pods_[pod.index()]->crash();
}

void GlobalManager::restartPod(PodId pod) {
  MDC_EXPECT(pod.valid() && pod.index() < pods_.size(), "unknown pod");
  ++podRestarts_;
  pods_[pod.index()]->restart(
      [this](VmId vm) { return checkpointVmWeight(vm); });
}

double GlobalManager::intendedVmWeight(VmId vm) const {
  double total = 0.0;
  for (const RipRef& ref : viprip_->ripsOf(vm)) {
    total += viprip_->intent().find(ref.vip)->findRip(ref.rip)->weight;
  }
  return total;
}

double GlobalManager::checkpointVmWeight(VmId vm) const {
  // Intent is authoritative; the snapshot's advisory checkpoint only
  // fills in when the VM has no journaled RIP weight at all (e.g. its
  // binding raced the crash).
  if (!viprip_->ripsOf(vm).empty()) return intendedVmWeight(vm);
  const auto it = snapshotPodWeights_.find(vm);
  return it == snapshotPodWeights_.end() ? 0.0 : it->second;
}

void GlobalManager::observe(const EpochReport& report) {
  if (!leaderUp_) return;  // a dead manager observes nothing
  linkBalancer_->observe(report);
  switchBalancer_->observe(report);
  if (interPod_ != nullptr) interPod_->observe(report);

  // Push per-pod demand into pod managers: each app's demand is split by
  // where its offered load actually landed (the VMs' offeredRps gauges).
  for (auto& pod : pods_) {
    pod->clearAppDemand();
  }
  for (const Application& a : apps_.all()) {
    std::unordered_map<PodId, double> perPod;
    double routed = 0.0;
    for (VmId vm : a.instances) {
      if (!hosts_.vmExists(vm)) continue;
      const VmRecord& rec = hosts_.vm(vm);
      const PodId pod = podRegistry_.podOf(rec.server);
      if (!pod.valid()) continue;
      perPod[pod] += rec.offeredRps;
      routed += rec.offeredRps;
    }
    // Demand that found no RIP path yet is assigned proportionally (or to
    // the app's first instance's pod) so someone scales it up.
    const auto it = report.appDemandRps.find(a.id);
    const double demand = it == report.appDemandRps.end() ? 0.0 : it->second;
    const double missing = std::max(0.0, demand - routed);
    if (missing > 0.0 && !perPod.empty()) {
      const double bump = missing / static_cast<double>(perPod.size());
      for (auto& [pod, rps] : perPod) rps += bump;
    } else if (demand > 0.0 && perPod.empty()) {
      // The app has demand but no live instance anywhere (e.g. scaled
      // fully in, or lost its pod): credit its demand to the least-loaded
      // pod so that pod's manager re-seeds it.
      PodManager* coldest = nullptr;
      for (auto& pod : pods_) {
        if (coldest == nullptr || pod->stats().meanUtilization <
                                      coldest->stats().meanUtilization) {
          coldest = pod.get();
        }
      }
      if (coldest != nullptr) perPod[coldest->id()] = demand;
    }
    for (const auto& [pod, rps] : perPod) {
      if (pod.index() < pods_.size()) {
        pods_[pod.index()]->setAppDemand(a.id, rps);
      }
    }
  }
}

namespace {

/// Failure codes produced by a crashed or overloaded manager rather than
/// by the request itself; the work is still wanted and must be retried
/// against the recovered (or drained) leader.  "overloaded" and
/// "deadline_expired" are the admission layer's backpressure (E18): the
/// request was valid, the control plane just could not take it in time.
bool crashTransient(const Status& s) {
  const std::string& code = s.error().code;
  return code == "manager_down" || code == "cancelled" ||
         code == "ctrl_timeout" || code == "overloaded" ||
         code == "deadline_expired";
}

SimTime retryBackoff(std::uint32_t attempt) {
  return std::min(60.0, 5.0 * std::pow(2.0, static_cast<double>(attempt)));
}

}  // namespace

SimTime GlobalManager::retryDelayFor(const Status& s,
                                     std::uint32_t attempt) const {
  // A shed request carries an explicit retry-after hint sized to the
  // admission queue's drain rate; honor whichever is longer so retries
  // neither hammer a full queue nor sleep past a drained one.
  if (s.error().code == "overloaded") {
    return std::max(retryBackoff(attempt), viprip_->suggestedRetryAfter());
  }
  return retryBackoff(attempt);
}

void GlobalManager::requestNewRip(AppId app, VmId vm, double weight) {
  submitNewRip(app, vm, weight, 0);
}

void GlobalManager::submitNewRip(AppId app, VmId vm, double weight,
                                 std::uint32_t attempt) {
  VipRipRequest req;
  req.op = VipRipOp::NewRip;
  req.app = app;
  req.vm = vm;
  req.weight = weight;
  req.priority = 1;  // capacity-bringing requests go first
  req.done = [this, app, vm, weight, attempt](Status s) {
    if (s.ok() || !crashTransient(s)) return;
    // The registration died with a crashed (or overloaded) manager.  A VM
    // without a RIP serves nothing forever, so keep trying while it is
    // still a managed instance of the app.
    sim_.after(retryDelayFor(s, attempt), [this, app, vm, weight, attempt] {
      if (!hosts_.vmExists(vm)) return;
      const auto& instances = apps_.app(app).instances;
      if (std::find(instances.begin(), instances.end(), vm) ==
          instances.end()) {
        return;  // retired meanwhile
      }
      if (!viprip_->ripsOf(vm).empty()) return;  // someone else bound it
      submitNewRip(app, vm, weight, attempt + 1);
    });
  };
  viprip_->submit(std::move(req));
}

void GlobalManager::requestRipRemoval(VmId vm, std::function<void()> onDone) {
  submitRipRemoval(vm, std::move(onDone), 0);
}

void GlobalManager::submitRipRemoval(VmId vm, std::function<void()> onDone,
                                     std::uint32_t attempt) {
  VipRipRequest req;
  req.op = VipRipOp::DeleteRip;
  req.vm = vm;
  req.done = [this, vm, onDone = std::move(onDone),
              attempt](Status s) mutable {
    if (s.ok()) {
      if (!viprip_->ripsOf(vm).empty()) {
        // A concurrent NewRip re-bound the VM between our DeleteRip's
        // commit and its switch acks (command storms race retirements).
        // Destroying now would leave a reconciler-blind RIP to a dead
        // VM; purge again until the VM is provably unreferenced.
        sim_.after(retryBackoff(attempt),
                   [this, vm, onDone = std::move(onDone),
                    attempt]() mutable {
                     if (!hosts_.vmExists(vm)) return;
                     submitRipRemoval(vm, std::move(onDone), attempt + 1);
                   });
        return;
      }
      if (onDone) onDone();
      return;
    }
    // `onDone` destroys the VM — that must not happen while switch
    // tables may still reference it.  DeleteRip only fails when the
    // manager died (or shed it) around it; retry until it lands.
    sim_.after(retryDelayFor(s, attempt),
               [this, vm, onDone = std::move(onDone), attempt]() mutable {
                 if (!hosts_.vmExists(vm)) return;  // monitor cleaned it up
                 submitRipRemoval(vm, std::move(onDone), attempt + 1);
               });
  };
  viprip_->submit(std::move(req));
}

void GlobalManager::requestRipWeight(VmId vm, double weight) {
  VipRipRequest req;
  req.op = VipRipOp::SetWeight;
  req.vm = vm;
  req.weight = weight;
  req.done = [this, vm, weight](Status s) {
    if (s.ok() || s.error().code != "vm_has_no_rips") return;
    if (!hosts_.vmExists(vm)) return;
    // The VM lost (or never got) its RIP — typically a NewRip that died
    // with a crashed manager.  Re-bind it so its capacity serves again.
    const AppId app = hosts_.vm(vm).app;
    const auto& instances = apps_.app(app).instances;
    if (std::find(instances.begin(), instances.end(), vm) ==
        instances.end()) {
      return;  // being retired; DeleteRip owns it
    }
    submitNewRip(app, vm, weight, 0);
  };
  viprip_->submit(std::move(req));
}

}  // namespace mdc
