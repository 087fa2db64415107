// Physical servers and the VMs they host, with the hypervisor operations
// the paper's knobs rely on:
//
//  * VM creation (fresh boot) and fast cloning (SnowFlock [14]),
//  * live migration (black-box/gray-box [25]) with a bandwidth cost,
//  * hot VM capacity adjustment without reboot (VMware ESX-style [5]).
//
// Every operation has a latency drawn from the cited systems' magnitudes
// (configurable via HostCostModel) so the knob-comparison experiments can
// weigh speed against reach.  Capacity is reserved pessimistically at
// operation start so concurrent decisions never oversubscribe a server.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "mdc/sim/simulation.hpp"
#include "mdc/topo/topology.hpp"
#include "mdc/util/expect.hpp"
#include "mdc/util/ids.hpp"
#include "mdc/util/result.hpp"
#include "mdc/util/units.hpp"

namespace mdc {

enum class VmState : std::uint8_t { Booting, Active, Migrating, Destroyed };

struct VmRecord {
  VmId id;
  AppId app;
  ServerId server;
  CapacityVec slice;           // reserved share of the server
  CapacityVec effectiveSlice;  // share actually serving load (lags slice)
  VmState state = VmState::Booting;
  SimTime createdAt = 0.0;
  /// Bumped whenever a migration starts or is cancelled, so a stale
  /// migration-completion event can detect it no longer applies.
  std::uint64_t migrationSeq = 0;

  // Fluid-engine gauges (requests/s offered to and served by this VM).
  double offeredRps = 0.0;
  double servedRps = 0.0;
};

struct HostCostModel {
  SimTime vmBootSeconds = 60.0;
  SimTime vmCloneSeconds = 5.0;
  SimTime capacityAdjustSeconds = 2.0;
  double migrationGbps = 1.0;  // dedicated migration bandwidth
  /// Memory actually copied for a migration, as a fraction of the slice.
  double migrationMemoryFactor = 1.0;
};

/// A VM killed by a server crash, recorded for the failure detector:
/// switch tables may still reference it (black-holing traffic) until the
/// detector purges its RIPs.
struct CrashedVm {
  VmId vm;
  AppId app;
  SimTime crashedAt = 0.0;
};

/// Runtime state of the server fleet plus all VM lifecycle operations.
class HostFleet {
 public:
  using VmCallback = std::function<void(VmId)>;

  HostFleet(const Topology& topo, Simulation& sim, HostCostModel costs);

  // --- VM lifecycle -----------------------------------------------------

  /// Creates a VM for `app` on `server` with the given slice.  `clone`
  /// selects the fast-clone latency instead of a cold boot.  `onActive`
  /// (optional) fires when the VM starts serving.
  /// Errors: "insufficient_capacity", "server_down".
  Result<VmId> createVm(AppId app, ServerId server, CapacityVec slice,
                        bool clone = false, VmCallback onActive = {});

  /// Hot-resizes the VM's slice.  The reservation moves to
  /// max(old, new) during the transition and settles at `newSlice`.
  /// Errors: "vm_not_active", "insufficient_capacity".
  Status adjustVmCapacity(VmId vm, CapacityVec newSlice,
                          VmCallback onDone = {});

  /// Live-migrates the VM; it keeps serving on the source until the
  /// migration completes.  Duration = sliceMemory * 8 / migrationGbps.
  /// Errors: "vm_not_active", "same_server", "insufficient_capacity",
  /// "server_down".
  Status migrateVm(VmId vm, ServerId dst, VmCallback onDone = {});

  /// Destroys the VM and frees its reservation immediately.
  /// Precondition: VM exists and is not already destroyed.
  void destroyVm(VmId vm);

  // --- failure semantics --------------------------------------------------

  /// Crashes a server: every resident VM dies instantly (recorded as a
  /// crash casualty), an in-flight migration *into* the server loses its
  /// destination copy (the VM keeps serving on its source), and the
  /// server refuses placements until recoverServer().  Returns how many
  /// VMs were killed.
  std::size_t crashServer(ServerId server);

  /// Brings a crashed server back into service (empty).
  void recoverServer(ServerId server);

  [[nodiscard]] bool serverUp(ServerId server) const {
    return serverState(server).up;
  }
  [[nodiscard]] std::size_t downServers() const noexcept { return down_; }

  /// Casualties of one crashed server, surrendered to the caller exactly
  /// once (the failure detector purges their RIP bindings).
  [[nodiscard]] std::vector<CrashedVm> takeCrashCasualties(ServerId server);

  /// Uncollected casualty batches keyed by the crashed server (peek).
  [[nodiscard]] const std::unordered_map<ServerId, std::vector<CrashedVm>>&
  crashCasualties() const noexcept {
    return casualties_;
  }

  [[nodiscard]] std::uint64_t serverCrashes() const noexcept {
    return serverCrashes_;
  }
  [[nodiscard]] std::uint64_t vmsLostToCrashes() const noexcept {
    return vmsLost_;
  }

  // --- queries ------------------------------------------------------------

  [[nodiscard]] const VmRecord& vm(VmId id) const {
    const VmRecord* rec = findVm(id);
    MDC_EXPECT(rec != nullptr, "unknown vm");
    return *rec;
  }
  [[nodiscard]] VmRecord& vmMutable(VmId id) {
    VmRecord* rec = findVm(id);
    MDC_EXPECT(rec != nullptr, "unknown vm");
    return *rec;
  }
  /// True for a created VM that is not destroyed.
  [[nodiscard]] bool vmExists(VmId id) const noexcept {
    const VmRecord* rec = findVm(id);
    return rec != nullptr && rec->state != VmState::Destroyed;
  }

  /// Monotonic per-VM version covering the facts the epoch descent
  /// resolves through a RIP: the VM's existence and its host server.
  /// Bumped by createVm, destroyVm (crash kills included), and migration
  /// completion (the server — and so the flow path — changes).  Slice and
  /// gauge changes do NOT bump it: they feed the serving phase, which the
  /// engine recomputes every epoch anyway.  Never-allocated ids read 0.
  [[nodiscard]] std::uint64_t vmConfigVersion(VmId id) const noexcept {
    const std::size_t i = id.index();
    return i < vmVersions_.size() ? vmVersions_[i] : 0;
  }

  /// One past the largest VM index ever allocated (ids are dense and
  /// never reused, so this is the bound for VmId-indexed gauge arrays).
  [[nodiscard]] std::size_t vmIndexBound() const noexcept {
    return vms_.size();
  }

  [[nodiscard]] const std::vector<VmId>& vmsOn(ServerId server) const;
  /// True when a live VM of `app` is attached to `server` (an inbound
  /// migration counts).
  [[nodiscard]] bool hostsApp(ServerId server, AppId app) const;
  [[nodiscard]] CapacityVec usedCapacity(ServerId server) const;
  [[nodiscard]] CapacityVec freeCapacity(ServerId server) const;

  /// Binding-resource utilization of a server in [0, inf).
  [[nodiscard]] double serverUtilization(ServerId server) const;

  [[nodiscard]] std::size_t activeVmCount() const noexcept {
    return liveVms_;
  }
  [[nodiscard]] std::size_t serverCount() const noexcept {
    return servers_.size();
  }

  /// Visits every non-destroyed VM in id order (mutable; used to reset
  /// per-epoch gauges).
  void forEachVm(const std::function<void(VmRecord&)>& fn);

  // --- operation counters (disruption accounting for E6) -----------------

  [[nodiscard]] std::uint64_t vmsCreated() const noexcept { return created_; }
  [[nodiscard]] std::uint64_t migrationsStarted() const noexcept {
    return migrations_;
  }
  [[nodiscard]] std::uint64_t capacityAdjustments() const noexcept {
    return adjustments_;
  }
  [[nodiscard]] double migratedGb() const noexcept { return migratedGb_; }

  [[nodiscard]] const HostCostModel& costs() const noexcept { return costs_; }

 private:
  struct ServerState {
    CapacityVec used;
    std::vector<VmId> vms;
    bool up = true;
  };

  /// The record of an allocated id (destroyed or not); nullptr otherwise.
  [[nodiscard]] VmRecord* findVm(VmId id) noexcept {
    return id.index() < vms_.size() ? &vms_[id.index()] : nullptr;
  }
  [[nodiscard]] const VmRecord* findVm(VmId id) const noexcept {
    return id.index() < vms_.size() ? &vms_[id.index()] : nullptr;
  }

  ServerState& serverState(ServerId id);
  const ServerState& serverState(ServerId id) const;
  void detachFromServer(VmId vm, ServerId server);
  void bumpVm(VmId id);

  const Topology& topo_;
  Simulation& sim_;
  HostCostModel costs_;
  std::vector<ServerState> servers_;
  /// Indexed by VmId::index(): ids are dense and never reused, and
  /// destroyed records are kept.  A deque because a record must never move
  /// once created: the fluid engine holds VmRecord* across epochs while
  /// pod loops create VMs between them.
  std::deque<VmRecord> vms_;
  std::vector<std::uint64_t> vmVersions_;
  std::size_t liveVms_ = 0;
  std::uint64_t created_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t adjustments_ = 0;
  double migratedGb_ = 0.0;
  std::size_t down_ = 0;
  std::uint64_t serverCrashes_ = 0;
  std::uint64_t vmsLost_ = 0;
  std::unordered_map<ServerId, std::vector<CrashedVm>> casualties_;
};

}  // namespace mdc
