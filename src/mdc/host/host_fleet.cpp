#include "mdc/host/host_fleet.hpp"

#include <algorithm>

#include "mdc/util/expect.hpp"

namespace mdc {

HostFleet::HostFleet(const Topology& topo, Simulation& sim,
                     HostCostModel costs)
    : topo_(topo), sim_(sim), costs_(costs) {
  MDC_EXPECT(costs.vmBootSeconds >= 0.0 && costs.vmCloneSeconds >= 0.0 &&
                 costs.capacityAdjustSeconds >= 0.0,
             "negative latency in host cost model");
  MDC_EXPECT(costs.migrationGbps > 0.0, "migration bandwidth must be > 0");
  servers_.resize(topo.serverCount());
}

HostFleet::ServerState& HostFleet::serverState(ServerId id) {
  MDC_EXPECT(id.valid() && id.index() < servers_.size(), "unknown server");
  return servers_[id.index()];
}

const HostFleet::ServerState& HostFleet::serverState(ServerId id) const {
  MDC_EXPECT(id.valid() && id.index() < servers_.size(), "unknown server");
  return servers_[id.index()];
}

Result<VmId> HostFleet::createVm(AppId app, ServerId server, CapacityVec slice,
                                 bool clone, VmCallback onActive) {
  MDC_EXPECT(app.valid(), "createVm: invalid app");
  MDC_EXPECT(slice.nonNegative(), "createVm: negative slice");
  ServerState& st = serverState(server);
  if (!st.up) return Error{"server_down", ""};
  const CapacityVec cap = topo_.server(server).capacity;
  if (!(st.used + slice).fitsWithin(cap)) {
    return Error{"insufficient_capacity", ""};
  }

  const VmId id{static_cast<VmId::value_type>(vms_.size())};
  st.used += slice;
  st.vms.push_back(id);
  VmRecord& rec = vms_.emplace_back();
  rec.id = id;
  rec.app = app;
  rec.server = server;
  rec.slice = slice;
  rec.effectiveSlice = CapacityVec{};  // serves nothing until active
  rec.state = VmState::Booting;
  rec.createdAt = sim_.now();
  bumpVm(id);
  ++liveVms_;
  ++created_;

  const SimTime latency =
      clone ? costs_.vmCloneSeconds : costs_.vmBootSeconds;
  sim_.after(latency, [this, id, cb = std::move(onActive)] {
    VmRecord& r = *findVm(id);
    if (r.state == VmState::Destroyed) return;  // destroyed while booting
    r.state = VmState::Active;
    r.effectiveSlice = r.slice;
    if (cb) cb(id);
  });
  return id;
}

Status HostFleet::adjustVmCapacity(VmId vmId, CapacityVec newSlice,
                                   VmCallback onDone) {
  MDC_EXPECT(newSlice.nonNegative(), "adjust: negative slice");
  VmRecord* found = findVm(vmId);
  MDC_EXPECT(found != nullptr, "adjust: unknown vm");
  VmRecord& rec = *found;
  if (rec.state != VmState::Active) return Status::fail("vm_not_active");

  ServerState& st = serverState(rec.server);
  const CapacityVec cap = topo_.server(rec.server).capacity;
  // Reserve the pointwise max of old and new during the transition.
  CapacityVec peak = rec.slice;
  for (auto r : {Resource::Cpu, Resource::Memory, Resource::Network}) {
    peak[r] = std::max(peak[r], newSlice[r]);
  }
  const CapacityVec delta = peak - rec.slice;
  if (!(st.used + delta).fitsWithin(cap)) {
    return Status::fail("insufficient_capacity");
  }
  st.used += delta;
  rec.slice = peak;
  ++adjustments_;

  sim_.after(costs_.capacityAdjustSeconds,
             [this, vmId, newSlice, cb = std::move(onDone)] {
               VmRecord& r = *findVm(vmId);
               if (r.state == VmState::Destroyed) return;
               ServerState& s = serverState(r.server);
               s.used -= r.slice - newSlice;
               r.slice = newSlice;
               r.effectiveSlice = newSlice;
               if (cb) cb(vmId);
             });
  return Status::okStatus();
}

Status HostFleet::migrateVm(VmId vmId, ServerId dst, VmCallback onDone) {
  VmRecord* found = findVm(vmId);
  MDC_EXPECT(found != nullptr, "migrate: unknown vm");
  VmRecord& rec = *found;
  if (rec.state != VmState::Active) return Status::fail("vm_not_active");
  if (rec.server == dst) return Status::fail("same_server");

  ServerState& dstState = serverState(dst);
  if (!dstState.up) return Status::fail("server_down");
  const CapacityVec dstCap = topo_.server(dst).capacity;
  if (!(dstState.used + rec.slice).fitsWithin(dstCap)) {
    return Status::fail("insufficient_capacity");
  }
  dstState.used += rec.slice;
  dstState.vms.push_back(vmId);
  rec.state = VmState::Migrating;
  const std::uint64_t seq = ++rec.migrationSeq;
  ++migrations_;

  const double memGb = rec.slice.memory() * costs_.migrationMemoryFactor;
  migratedGb_ += memGb;
  const SimTime duration = memGb * 8.0 / costs_.migrationGbps;
  const ServerId src = rec.server;
  sim_.after(duration, [this, vmId, src, dst, seq, cb = std::move(onDone)] {
    VmRecord& r = *findVm(vmId);
    if (r.state == VmState::Destroyed || r.migrationSeq != seq) {
      return;  // destroyed mid-flight, or the move was cancelled by a crash
    }
    ServerState& srcState = serverState(src);
    srcState.used -= r.slice;
    detachFromServer(vmId, src);
    r.server = dst;
    r.state = VmState::Active;
    bumpVm(vmId);
    if (cb) cb(vmId);
  });
  return Status::okStatus();
}

void HostFleet::destroyVm(VmId vmId) {
  VmRecord* found = findVm(vmId);
  MDC_EXPECT(found != nullptr, "destroy: unknown vm");
  VmRecord& rec = *found;
  MDC_EXPECT(rec.state != VmState::Destroyed, "destroy: vm already destroyed");

  // Free the current server's reservation; a mid-migration VM also holds a
  // reservation at the destination that the completion callback would have
  // moved to — it is released here by scanning both attachment lists.
  ServerState& st = serverState(rec.server);
  st.used -= rec.slice;
  detachFromServer(vmId, rec.server);
  if (rec.state == VmState::Migrating) {
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      auto& vms = servers_[i].vms;
      const auto pos = std::find(vms.begin(), vms.end(), vmId);
      if (pos != vms.end()) {
        servers_[i].used -= rec.slice;
        vms.erase(pos);
        break;
      }
    }
  }
  rec.state = VmState::Destroyed;
  bumpVm(vmId);
  --liveVms_;
}

std::size_t HostFleet::crashServer(ServerId server) {
  ServerState& st = serverState(server);
  MDC_EXPECT(st.up, "crashServer: server already down");
  st.up = false;
  ++down_;
  ++serverCrashes_;

  auto& log = casualties_[server];
  const std::vector<VmId> attached = st.vms;  // mutated below; iterate a copy
  std::size_t killed = 0;
  for (VmId vmId : attached) {
    VmRecord* found = findVm(vmId);
    MDC_ENSURE(found != nullptr, "attached vm has no record");
    VmRecord& rec = *found;
    if (rec.server != server) {
      // In-flight migration *into* this server: only the destination copy
      // dies; the VM keeps serving on its source.  Cancel the move.
      st.used -= rec.slice;
      detachFromServer(vmId, server);
      rec.state = VmState::Active;
      ++rec.migrationSeq;  // invalidate the pending completion event
      continue;
    }
    log.push_back(CrashedVm{vmId, rec.app, sim_.now()});
    destroyVm(vmId);
    ++killed;
    ++vmsLost_;
  }
  st.used = CapacityVec{};  // no residual reservations on a dead host
  return killed;
}

void HostFleet::recoverServer(ServerId server) {
  ServerState& st = serverState(server);
  MDC_EXPECT(!st.up, "recoverServer: server is not down");
  MDC_ENSURE(st.vms.empty(), "crashed server still has attachments");
  st.up = true;
  --down_;
}

std::vector<CrashedVm> HostFleet::takeCrashCasualties(ServerId server) {
  const auto it = casualties_.find(server);
  if (it == casualties_.end()) return {};
  std::vector<CrashedVm> out = std::move(it->second);
  casualties_.erase(it);
  return out;
}

void HostFleet::bumpVm(VmId id) {
  const std::size_t i = id.index();
  if (i >= vmVersions_.size()) vmVersions_.resize(i + 1, 0);
  ++vmVersions_[i];
}

void HostFleet::detachFromServer(VmId vmId, ServerId server) {
  auto& vms = serverState(server).vms;
  const auto pos = std::find(vms.begin(), vms.end(), vmId);
  MDC_ENSURE(pos != vms.end(), "vm not attached to its server");
  vms.erase(pos);
}

void HostFleet::forEachVm(const std::function<void(VmRecord&)>& fn) {
  for (VmRecord& rec : vms_) {
    if (rec.state != VmState::Destroyed) fn(rec);
  }
}

const std::vector<VmId>& HostFleet::vmsOn(ServerId server) const {
  return serverState(server).vms;
}

bool HostFleet::hostsApp(ServerId server, AppId app) const {
  for (VmId vm : serverState(server).vms) {
    if (vmExists(vm) && this->vm(vm).app == app) return true;
  }
  return false;
}

CapacityVec HostFleet::usedCapacity(ServerId server) const {
  return serverState(server).used;
}

CapacityVec HostFleet::freeCapacity(ServerId server) const {
  return topo_.server(server).capacity - serverState(server).used;
}

double HostFleet::serverUtilization(ServerId server) const {
  return serverState(server).used.maxRatio(topo_.server(server).capacity);
}

}  // namespace mdc
