#include "mdc/core/pod.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ranges>

#include "mdc/util/expect.hpp"
#include "mdc/util/stats.hpp"

namespace mdc {

const std::vector<ServerId> PodRegistry::kEmpty;

PodRegistry::PodRegistry(std::size_t numServers) {
  podOf_.assign(numServers, PodId{});
}

void PodRegistry::assign(ServerId server, PodId pod) {
  MDC_EXPECT(server.valid() && server.index() < podOf_.size(),
             "unknown server");
  MDC_EXPECT(pod.valid(), "invalid pod");
  const PodId old = podOf_[server.index()];
  if (old == pod) return;
  if (old.valid()) {
    auto& vec = pods_[old.index()];
    const auto it = std::find(vec.begin(), vec.end(), server);
    MDC_ENSURE(it != vec.end(), "pod registry out of sync");
    vec.erase(it);
  }
  if (pod.index() >= pods_.size()) pods_.resize(pod.index() + 1);
  pods_[pod.index()].push_back(server);
  podOf_[server.index()] = pod;
}

PodId PodRegistry::podOf(ServerId server) const {
  MDC_EXPECT(server.valid() && server.index() < podOf_.size(),
             "unknown server");
  return podOf_[server.index()];
}

const std::vector<ServerId>& PodRegistry::serversOf(PodId pod) const {
  MDC_EXPECT(pod.valid(), "invalid pod");
  if (pod.index() >= pods_.size()) return kEmpty;
  return pods_[pod.index()];
}

PodManager::PodManager(PodId id, Simulation& sim, HostFleet& hosts,
                       AppRegistry& apps, const Topology& topo,
                       PodRegistry& registry,
                       std::shared_ptr<const PlacementAlgorithm> algorithm,
                       RipRequestSink& rips, Options options)
    : id_(id),
      sim_(sim),
      hosts_(hosts),
      apps_(apps),
      topo_(topo),
      registry_(registry),
      algorithm_(std::move(algorithm)),
      rips_(rips),
      options_(options) {
  MDC_EXPECT(id.valid(), "invalid pod id");
  MDC_EXPECT(algorithm_ != nullptr, "pod manager needs an algorithm");
  MDC_EXPECT(options.controlPeriod > 0.0, "control period must be positive");
  stats_.pod = id;
}

const std::vector<ServerId>& PodManager::servers() const {
  return registry_.serversOf(id_);
}

void PodManager::adoptServer(ServerId server) {
  registry_.assign(server, id_);
}

void PodManager::releaseServer(ServerId server) {
  MDC_EXPECT(registry_.podOf(server) == id_, "server not in this pod");
  for (VmId vm : hosts_.vmsOn(server)) {
    MDC_EXPECT(!hosts_.vmExists(vm), "releaseServer: server not empty");
  }
  vacating_.erase(server);
}

bool PodManager::vacateServer(ServerId server,
                              std::function<void(ServerId)> onEmpty) {
  MDC_EXPECT(registry_.podOf(server) == id_, "server not in this pod");
  if (vacating_.contains(server)) return false;

  // Collect live VMs; all must be Active to migrate.
  std::vector<VmId> toMove;
  for (VmId vm : hosts_.vmsOn(server)) {
    if (!hosts_.vmExists(vm)) continue;
    if (hosts_.vm(vm).state != VmState::Active) return false;
    toMove.push_back(vm);
  }

  // Feasibility: greedy-fit every slice into the pod's other servers.
  std::vector<std::pair<ServerId, CapacityVec>> free;
  for (ServerId s : servers()) {
    if (s == server || vacating_.contains(s) || !hosts_.serverUp(s)) continue;
    free.emplace_back(s, hosts_.freeCapacity(s));
  }
  std::vector<std::pair<VmId, ServerId>> plan;
  // A target already hosting the app is a last resort: two instances of
  // one app on one server are one instance to the control loop, which
  // retires the extra one.
  const auto hostsApp = [&](ServerId s, AppId app) {
    if (hosts_.hostsApp(s, app)) return true;
    for (const auto& [planned, dst] : plan) {
      if (dst == s && hosts_.vm(planned).app == app) return true;
    }
    return false;
  };
  for (VmId vm : toMove) {
    const VmRecord& rec = hosts_.vm(vm);
    auto best = free.end();
    bool bestHostsApp = false;
    for (auto it = free.begin(); it != free.end(); ++it) {
      if (!rec.slice.fitsWithin(it->second)) continue;
      const bool itHostsApp = hostsApp(it->first, rec.app);
      if (best == free.end() || (bestHostsApp && !itHostsApp) ||
          (bestHostsApp == itHostsApp &&
           it->second.maxRatio(topo_.server(it->first).capacity) <
               best->second.maxRatio(topo_.server(best->first).capacity))) {
        best = it;
        bestHostsApp = itHostsApp;
      }
    }
    if (best == free.end()) return false;
    best->second -= rec.slice;
    plan.emplace_back(vm, best->first);
  }

  vacating_.insert(server);
  if (plan.empty()) {
    vacating_.erase(server);
    if (onEmpty) onEmpty(server);
    return true;
  }

  const auto remaining = std::make_shared<std::size_t>(plan.size());
  for (const auto& [vm, dst] : plan) {
    const Status s = hosts_.migrateVm(
        vm, dst,
        [this, server, remaining, onEmpty](VmId) {
          if (--*remaining == 0) {
            vacating_.erase(server);
            if (onEmpty) onEmpty(server);
          }
        });
    MDC_ENSURE(s.ok(), "planned migration failed: " + s.error().code);
  }
  return true;
}

std::vector<ServerId> PodManager::pickDonorServers(std::size_t n) const {
  std::vector<ServerId> candidates;
  for (ServerId s : servers()) {
    if (!vacating_.contains(s) && hosts_.serverUp(s)) candidates.push_back(s);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](ServerId a, ServerId b) {
                     return hosts_.serverUtilization(a) <
                            hosts_.serverUtilization(b);
                   });
  if (candidates.size() > n) candidates.resize(n);
  return candidates;
}

void PodManager::setAppDemand(AppId app, double rps) {
  MDC_EXPECT(app.valid(), "invalid app");
  MDC_EXPECT(rps >= 0.0, "negative demand");
  const std::size_t i = app.index();
  if (i >= demand_.size()) demand_.resize(i + 1, -1.0);
  if (demand_[i] < 0.0) demandApps_.push_back(app);
  demand_[i] = rps;
}

void PodManager::clearAppDemand() {
  for (AppId app : demandApps_) demand_[app.index()] = -1.0;
  demandApps_.clear();
}

std::vector<AppId> PodManager::coveredApps() const {
  std::unordered_set<AppId> seen;
  std::vector<AppId> out;
  for (ServerId s : servers()) {
    for (VmId vm : hosts_.vmsOn(s)) {
      if (!hosts_.vmExists(vm)) continue;
      const AppId app = hosts_.vm(vm).app;
      if (seen.insert(app).second) out.push_back(app);
    }
  }
  return out;
}

void PodManager::runControlLoop() {
  // A crashed pod manager makes no decisions; its VMs keep serving.
  if (!online_) return;
  // No demand signal yet (the engine has not reported an epoch): deciding
  // now would mistake "unknown" for "zero" and tear everything down.
  if (demandApps_.empty()) return;

  // --- build the placement problem over this pod ------------------------
  std::vector<ServerId> serverIds;
  for (ServerId s : servers()) {
    if (!vacating_.contains(s) && hosts_.serverUp(s)) serverIds.push_back(s);
  }
  if (serverIds.empty()) return;

  std::vector<AppId> appIds;
  auto internApp = [&](AppId app) {
    const std::size_t i = app.index();
    if (i >= appSlot_.size()) appSlot_.resize(i + 1, 0);
    if (appSlot_[i] == 0) {
      appIds.push_back(app);
      appSlot_[i] = static_cast<std::uint32_t>(appIds.size());
    }
    return appSlot_[i] - 1;
  };

  PlacementInput input;
  input.servers.reserve(serverIds.size());
  for (ServerId s : serverIds) {
    input.servers.push_back(PlacementServer{topo_.server(s).capacity});
  }

  // Current assignments from live VMs (the VM of each entry kept beside
  // it); also interns their apps.
  std::vector<VmId> currentVms;
  for (std::uint32_t si = 0; si < serverIds.size(); ++si) {
    for (VmId vm : hosts_.vmsOn(serverIds[si])) {
      if (!hosts_.vmExists(vm)) continue;
      const VmRecord& rec = hosts_.vm(vm);
      if (rec.server != serverIds[si]) continue;  // migration target copy
      if (!isManagedInstance(rec.app, vm)) continue;  // being retired
      const std::uint32_t ai = internApp(rec.app);
      const double rps = apps_.app(rec.app).sla.servableRps(rec.slice) /
                         options_.headroom;
      input.current.push_back(Assignment{ai, si, rps});
      currentVms.push_back(vm);
    }
  }
  // Apps known only from the demand report are interned newest-reported
  // first.  The order is a fixed choice; the pinned decision digest
  // (pod_test) and the benchmark's run hashes depend on it.
  for (AppId app : std::views::reverse(demandApps_)) internApp(app);

  input.apps.resize(appIds.size());
  for (std::uint32_t ai = 0; ai < appIds.size(); ++ai) {
    input.apps[ai] =
        PlacementApp{apps_.app(appIds[ai]).sla, demandOf(appIds[ai])};
    appSlot_[appIds[ai].index()] = 0;  // scratch is clean for next round
  }

  // --- decide (measuring real decision time) ----------------------------
  const auto t0 = std::chrono::steady_clock::now();
  const PlacementResult result = algorithm_->place(input);
  const auto t1 = std::chrono::steady_clock::now();
  stats_.decisionSeconds =
      std::chrono::duration<double>(t1 - t0).count();

  applyAssignment(input, result, appIds, serverIds, currentVms);
  updateStats(result);
}

void PodManager::applyAssignment(const PlacementInput& input,
                                 const PlacementResult& result,
                                 const std::vector<AppId>& appIds,
                                 const std::vector<ServerId>& serverIds,
                                 const std::vector<VmId>& currentVms) {
  // Desired instances: the assignment minus negligible ones.
  std::vector<const Assignment*> desired;
  desired.reserve(result.assignment.size());
  for (const Assignment& a : result.assignment) {
    if (a.rps <= 1e-9) continue;
    MDC_ENSURE(desired.empty() || instanceKey(*desired.back()) < instanceKey(a),
               "placement assignment not in (app, server) order");
    desired.push_back(&a);
  }
  // Existing instances in (app, server) key order, VmId order within a
  // key.  Two instances of one app on one server (a migration or a clone
  // landing beside a resident) are one instance to placement: the oldest
  // Active VM manages the key and the others are duplicates to retire.
  // While none is Active the lowest id manages and none is a duplicate.
  struct Existing {
    std::uint64_t key;
    VmId vm;
    bool manages = false;
    bool duplicate = false;
  };
  std::vector<Existing> existing;
  existing.reserve(input.current.size());
  for (std::size_t i = 0; i < input.current.size(); ++i) {
    existing.push_back(Existing{instanceKey(input.current[i]), currentVms[i]});
  }
  std::sort(existing.begin(), existing.end(),
            [](const Existing& a, const Existing& b) {
              return a.key != b.key ? a.key < b.key : a.vm < b.vm;
            });
  const auto active = [this](const Existing& ex) {
    return hosts_.vm(ex.vm).state == VmState::Active;
  };
  for (std::size_t lo = 0, hi = 0; lo < existing.size(); lo = hi) {
    while (hi < existing.size() && existing[hi].key == existing[lo].key) ++hi;
    std::size_t manager = lo;
    while (manager < hi && !active(existing[manager])) ++manager;
    if (manager == hi) {
      existing[lo].manages = true;
      continue;
    }
    for (std::size_t i = lo; i < hi; ++i) {
      existing[i].manages = i == manager;
      existing[i].duplicate = i != manager;
    }
  }

  // Create or resize.
  std::size_t e = 0;
  for (const Assignment* want : desired) {
    const std::uint64_t key = instanceKey(*want);
    while (e < existing.size() &&
           (existing[e].key < key ||
            (existing[e].key == key && !existing[e].manages))) {
      ++e;
    }
    const AppId app = appIds[want->app];
    const ServerId server = serverIds[want->server];
    const double rps = want->rps;
    const AppSla& sla = input.apps[want->app].sla;
    const CapacityVec slice = sla.sliceFor(rps, options_.headroom);
    if (e == existing.size() || existing[e].key != key) {
      const double weight = rps;
      auto created = hosts_.createVm(
          app, server, slice, options_.useFastClone,
          [this, app, weight](VmId vm) {
            rips_.requestNewRip(app, vm, weight);
          });
      if (created.ok()) {
        apps_.addInstance(app, created.value());
      }
      // insufficient_capacity can happen when the placement's model lags
      // physical reservations (e.g. in-flight adjustments); skipped this
      // round, retried next.
    } else {
      const VmId vm = existing[e].vm;
      const VmRecord& rec = hosts_.vm(vm);
      if (rec.state != VmState::Active) continue;
      const double curRps = sla.servableRps(rec.slice) / options_.headroom;
      if (std::abs(curRps - rps) > options_.resizeDeadband *
                                       std::max(curRps, 1.0)) {
        (void)hosts_.adjustVmCapacity(vm, slice);
      }
      // Only submit a weight update when it moved meaningfully; the
      // VIP/RIP manager is a serialized shared resource (§III-C) and
      // chasing every demand wiggle floods its queue.
      const auto lw = lastWeight_.find(vm);
      if (lw == lastWeight_.end() ||
          std::abs(lw->second - rps) >
              options_.weightDeadband * std::max(lw->second, 1.0)) {
        rips_.requestRipWeight(vm, rps);
        lastWeight_[vm] = rps;
      }
    }
  }

  // Destroy what placement no longer wants, and co-resident duplicates.
  std::size_t d = 0;
  for (const Existing& ex : existing) {
    const std::uint64_t key = ex.key;
    while (d < desired.size() && instanceKey(*desired[d]) < key) ++d;
    const bool wanted = d < desired.size() && instanceKey(*desired[d]) == key;
    if (wanted && !ex.duplicate) continue;
    const VmId vm = ex.vm;
    if (!hosts_.vmExists(vm)) continue;
    if (hosts_.vm(vm).state == VmState::Migrating) continue;
    // Freshly created instances (e.g. a cross-pod deployment, §IV-D)
    // have not attracted traffic yet; give them a grace period.
    if (sim_.now() - hosts_.vm(vm).createdAt <
        options_.youngVmGraceSeconds) {
      continue;
    }
    const AppId app = appIds[key >> 32];
    apps_.removeInstance(app, vm);
    lastWeight_.erase(vm);
    // Destroy only after the switch tables stop referencing the VM;
    // destroying earlier would black-hole the traffic still arriving.
    rips_.requestRipRemoval(vm, [this, vm] {
      if (hosts_.vmExists(vm) && hosts_.vm(vm).state != VmState::Migrating) {
        hosts_.destroyVm(vm);
      }
    });
  }
}

bool PodManager::isManagedInstance(AppId app, VmId vm) const {
  const auto& inst = apps_.app(app).instances;
  return std::find(inst.begin(), inst.end(), vm) != inst.end();
}

void PodManager::updateStats(const PlacementResult& result) {
  stats_.servers = servers().size();
  std::vector<double> utils;
  std::size_t vms = 0;
  for (ServerId s : servers()) {
    utils.push_back(hosts_.serverUtilization(s));
    for (VmId vm : hosts_.vmsOn(s)) {
      if (hosts_.vmExists(vm)) ++vms;
    }
  }
  stats_.vms = vms;
  stats_.demandRps = result.demandRps;
  stats_.satisfiedRatio = result.satisfactionRatio();
  stats_.meanUtilization = mean(utils);
  stats_.maxUtilization =
      utils.empty() ? 0.0 : *std::max_element(utils.begin(), utils.end());
  stats_.placementChanges = result.instancesStarted + result.instancesStopped;
}

void PodManager::start(SimTime phase) {
  sim_.every(options_.controlPeriod, [this] { runControlLoop(); }, phase);
}

void PodManager::crash() {
  online_ = false;
  ++crashes_;
  // The process's soft state is gone.  Resident VMs (HostFleet) and the
  // intended RIP weights (IntentJournal) are the durable state a restart
  // rebuilds from.
  clearAppDemand();
  lastWeight_.clear();
  vacating_.clear();
}

void PodManager::restart(const std::function<double(VmId)>& intendedWeight) {
  MDC_EXPECT(!online_, "restart() of a pod manager that is not down");
  ++restarts_;
  // Checkpoint recovery: resident VMs come back from the HostFleet, their
  // last-applied weights from the replayed intent.  Without this seed the
  // first control round would re-push (and churn) every weight whose
  // demand sits inside the deadband.
  for (ServerId s : servers()) {
    for (VmId vm : hosts_.vmsOn(s)) {
      if (!hosts_.vmExists(vm)) continue;
      const VmRecord& rec = hosts_.vm(vm);
      if (!isManagedInstance(rec.app, vm)) continue;
      lastWeight_[vm] = intendedWeight ? intendedWeight(vm) : 0.0;
    }
  }
  online_ = true;
}

}  // namespace mdc
