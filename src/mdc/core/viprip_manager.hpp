// The VIP/RIP manager inside the global manager (§III-C).
//
// All LB switches are a globally shared resource; every component that
// wants to (re)configure a VIP or RIP on any switch submits a request
// here.  Requests are admitted in scheduling rounds through the
// AdmissionController: each round forms a batch — highest priority
// first, ties FIFO — of requests whose read/write footprints are
// mutually disjoint, pays one bounded decision cost for the round, and
// commits the batch concurrently; requests that conflict on a key stay
// queued and serialize across rounds in exactly the order the seed's
// fully serialized queue would have given them.  Each applied operation
// additionally pays the switch's multi-second programmatic
// reconfiguration latency.  Placement policy:
//
//  * new VIP  -> the most underloaded switch (fewest VIPs, then lowest
//    offered throughput), plus a DNS record and a route advertisement at
//    the least-loaded access router;
//  * new RIP  -> among switches already hosting one of the application's
//    VIPs, the one with spare RIP capacity and the lowest throughput.
//
// Decisions no longer reach the switches as direct function calls: each
// applied operation is journaled as *intent* (write-ahead, so a manager
// crash can rebuild it) and then sent as idempotent commands over a
// per-switch ControlChannel that may drop, delay, duplicate, and reorder
// them.  The CommandSender retries with backoff until each command is
// acked (or times out); the periodic Reconciler heals whatever drift the
// channel leaves between the IntentStore and the switches' actual tables.
// With the default reliable channel every command round trip completes
// inline and behavior is identical to the seed's in-process calls.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "mdc/app/app_registry.hpp"
#include "mdc/ctrl/admission.hpp"
#include "mdc/ctrl/command_sender.hpp"
#include "mdc/ctrl/control_channel.hpp"
#include "mdc/ctrl/done_guard.hpp"
#include "mdc/ctrl/intent.hpp"
#include "mdc/dns/dns.hpp"
#include "mdc/lb/switch_fleet.hpp"
#include "mdc/metrics/histogram.hpp"
#include "mdc/route/route_registry.hpp"
#include "mdc/sim/simulation.hpp"
#include "mdc/state/state_machine.hpp"
#include "mdc/topo/topology.hpp"
#include "mdc/util/ids.hpp"

namespace mdc {

class Reconciler;

// VipRipOp / VipRipRequest / SubmitResult live with the admission layer
// (mdc/ctrl/admission.hpp) — the request struct is the admission
// currency and the two headers would otherwise be circular.

class VipRipManager {
 public:
  struct Options {
    /// Decision time the global manager spends per request (serialization
    /// cost, E12).
    SimTime processSeconds = 0.05;
    /// Extra latency of the switch-side programmatic reconfiguration; if
    /// negative, the target switch's own limits().reconfigSeconds is used.
    SimTime reconfigSeconds = -1.0;
    /// Seed of the control channel's fault randomness (E14).
    std::uint64_t channelSeed = 0x6d646314u;
    /// Ack/retry policy of the manager->switch command links.
    CommandSender::Options ctrl;
    /// Batched admission + overload policy (E18).  Defaults keep the
    /// seed's unbounded queue and no deadlines; `roundSeconds` is
    /// overwritten with processSeconds at construction.
    AdmissionController::Options admission;
  };

  VipRipManager(Simulation& sim, SwitchFleet& fleet, AuthoritativeDns& dns,
                RouteRegistry& routes, AppRegistry& apps,
                const Topology& topo, Options options);
  /// Settles every queued request and in-flight command (with
  /// "cancelled") before any member dies: sender_ is destroyed before
  /// the stats and intent members declared after it, and destroying an
  /// outstanding completion fires its DoneGuard — which must not land in
  /// freed members.
  ~VipRipManager();

  /// Enqueues a request; processing is asynchronous, in batched rounds.
  /// The result reports admission only: a shed request (bounded queue
  /// full) has already been settled with "overloaded" and the caller
  /// should back off for `retryAfterSeconds` before resubmitting.
  SubmitResult submit(VipRipRequest request);

  /// Attach (or detach with nullptr) the tracer; forwarded to the
  /// channel and sender so request, channel, agent, and completion hops
  /// all land in the same ring.
  void attachTracer(Tracer* tracer);
  [[nodiscard]] Tracer* tracer() const noexcept { return tracer_; }

  /// Installs a VM-liveness predicate.  Requests can sit in the serialized
  /// queue for a long time; a NewRip applied after its VM died would
  /// black-hole traffic forever, so liveness is re-checked at apply time.
  void setVmLivenessCheck(std::function<bool(VmId)> check) {
    vmAlive_ = std::move(check);
  }

  /// Convenience synchronous-decision API used at deployment time, before
  /// the simulation starts (bypasses the queue, still applies policy).
  /// Requires a reliable control channel — fault rates are switched on
  /// after bootstrap.
  Result<VipId> createVipNow(AppId app);
  Status createRipNow(AppId app, VmId vm, double weight);

  // --- directory ---------------------------------------------------------

  /// The access router at which a VIP is (or will be) advertised.
  [[nodiscard]] AccessRouterId routerOf(VipId vip) const;

  /// Selective-exposure knob: scales the VIP's DNS weight relative to its
  /// serving capacity.  0 fully unexposes it (drains); 1 is neutral.
  void setVipExposureFactor(VipId vip, double factor);
  [[nodiscard]] double vipExposureFactor(VipId vip) const;

  /// Naive VIP transfer between access links (§IV-A's strawman): pad the
  /// old route, advertise at `to`, withdraw the old route after a drain
  /// window.  Used by the re-advertisement baseline in E4.
  void moveVipRoute(VipId vip, AccessRouterId to);
  /// RIPs currently bound to a VM: (vip, rip) pairs, read from the
  /// intent store (valid until the next intent mutation).
  [[nodiscard]] std::span<const RipRef> ripsOf(VmId vm) const {
    return intent_.ripsOf(vm);
  }

  // --- control plane (E14) -----------------------------------------------

  [[nodiscard]] ControlChannel& ctrlChannel() noexcept { return channel_; }
  [[nodiscard]] const ControlChannel& ctrlChannel() const noexcept {
    return channel_;
  }
  [[nodiscard]] CommandSender& ctrlSender() noexcept { return sender_; }
  [[nodiscard]] const CommandSender& ctrlSender() const noexcept {
    return sender_;
  }
  /// The intended (authoritative) VIP/RIP state, audited by the
  /// Reconciler against the fleet's actual tables.
  [[nodiscard]] const IntentStore& intent() const noexcept { return intent_; }
  [[nodiscard]] const IntentJournal& intentJournal() const noexcept {
    return journal_;
  }

  // --- durable state machine (E17) ---------------------------------------

  /// The hydra-style snapshot+changelog machine behind the journal.
  [[nodiscard]] state::DurableStateMachine& stateMachine() noexcept {
    return machine_;
  }
  [[nodiscard]] const state::DurableStateMachine& stateMachine()
      const noexcept {
    return machine_;
  }

  /// Highest fencing term the durable state has seen (recovered from
  /// snapshot + tail; recoverAsLeader() must always exceed it).
  [[nodiscard]] std::uint64_t durableTerm() const noexcept {
    return durableTerm_;
  }

  /// Owner-supplied advisory snapshot section (pod weight checkpoints).
  /// Advisory bytes ride inside every snapshot but are excluded from the
  /// deterministic state hash: losing them costs warm-start quality, not
  /// correctness.
  void setSnapshotAdvisoryHooks(
      std::function<void(state::ByteWriter&)> build,
      std::function<void(state::ByteReader&)> install);

  /// Takes a whole-DC snapshot (intent, id watermarks, fencing term,
  /// advisory pod checkpoints) and compacts the changelog behind it.
  state::DurableStateMachine::SnapshotResult snapshotNow(
      std::uint64_t term);

  /// Reconciler hooks: accept observed reality into the intent journal.
  void adoptPlacement(VipId vip, SwitchId actual);
  void adoptRipWeight(VipId vip, RipId rip, double actual);
  /// Recomputes the VIP's DNS weight from the fleet's actual tables
  /// (reconciler hook after a structural repair lands).
  void resyncVipDnsWeight(VipId vip) { syncVipDnsWeight(vip); }

  /// Simulated manager crash-recovery: discards the in-memory intended
  /// state (and the pending request queue) and rebuilds it by replaying
  /// the write-ahead journal.  Exposure factors are balancer policy, not
  /// placement intent, and are not journaled: a rebuilt manager starts
  /// neutral until the balancers re-decide.  Call on a quiesced manager
  /// (no commands awaiting acks) — or use crash()/recoverAsLeader() for
  /// the full mid-flight failure sequence.
  void rebuildIntentFromJournal();

  // --- manager-tier fault tolerance (E16) --------------------------------

  /// The serializing manager process dies mid-operation: every staged
  /// or queued request and every command awaiting its ack completes
  /// exactly once with "cancelled" (no retry may fire into a dead term),
  /// and further submissions are refused with "manager_down" until
  /// recovery.  The write-ahead journal — the durable state — survives.
  void crash();

  /// A standby takes over under a strictly higher fencing term: leftover
  /// in-flight commands are cancelled, the per-switch sequence spaces
  /// restart, the intended state is rebuilt by replaying the journal, and
  /// the serialization queue reopens.  Pending work is re-derived from
  /// the rebuilt IntentStore by the reconciler's next audit.
  void recoverAsLeader(std::uint64_t term);

  [[nodiscard]] bool online() const noexcept { return online_; }
  /// Requests that died with a crashed manager (queued or mid-flight).
  [[nodiscard]] std::uint64_t cancelledRequests() const noexcept {
    return cancelledRequests_;
  }

  /// Lets the epoch reporter read reconciler gauges alongside the channel
  /// and sender stats (the reconciler lives in the GlobalManager).
  void attachReconciler(const Reconciler* reconciler) noexcept {
    reconciler_ = reconciler;
  }
  [[nodiscard]] const Reconciler* reconciler() const noexcept {
    return reconciler_;
  }

  // --- admission & overload (E18) ----------------------------------------

  /// The batched admission layer: queue bounds, priority classes,
  /// deadlines, brownout, and the shed/deferred/expired counters.
  [[nodiscard]] const AdmissionController& admission() const noexcept {
    return admission_;
  }
  /// Whether periodic callers (balancers, reconciler) should back off
  /// before submitting more work.
  [[nodiscard]] bool overloaded() const noexcept {
    return admission_.overloaded();
  }
  /// Backoff hint for overloaded callers, sized to the drain rate.
  [[nodiscard]] SimTime suggestedRetryAfter() const noexcept {
    return admission_.retryAfterHint();
  }
  /// Durable admission aggregates: the journaled per-round counts summed
  /// over the manager's history.  Part of the deterministic state hash —
  /// a recovered manager replays to bit-identical values.
  struct AdmissionTotals {
    std::uint64_t rounds = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t deferred = 0;
  };
  [[nodiscard]] const AdmissionTotals& admissionTotals() const noexcept {
    return admissionTotals_;
  }

  // --- introspection (E12) -----------------------------------------------

  [[nodiscard]] std::size_t queueLength() const noexcept {
    return admission_.depth();
  }
  [[nodiscard]] std::uint64_t processedRequests() const noexcept {
    return processed_;
  }
  [[nodiscard]] std::uint64_t rejectedRequests() const noexcept {
    return rejected_;
  }
  /// Rejections of queued requests broken down by error code (e.g.
  /// "vip_table_full", "no_rip_capacity", "vm_dead") — which resource
  /// actually ran out, for capacity planning and the fault experiments.
  [[nodiscard]] const std::unordered_map<std::string, std::uint64_t>&
  rejectionsByCode() const noexcept {
    return rejectionsByCode_;
  }
  [[nodiscard]] const Histogram& requestLatency() const noexcept {
    return latency_;
  }

 private:
  void pump();
  /// Applies staged round `id`, unless crash() already settled it.
  void commitRound(std::uint64_t id);
  /// Settles a request that died with the crashed manager.
  void cancelPending(AdmissionController::Entry p);
  /// Settles a request the admission layer refused or evicted.
  void shedEntry(AdmissionController::Entry e, SimTime retryAfter);
  /// Settles a request whose deadline budget ran out in the queue.
  void expireEntry(AdmissionController::Entry e);
  /// The request's read/write key set (admission conflict detection).
  void computeFootprint(const VipRipRequest& req, FootprintSet& fp) const;
  /// Write-ahead journals one round's admission counts, then applies
  /// them to the durable aggregates (mirroring intend()).
  void intendAdmission(const AdmissionRoundRecord& rec);
  void apply(const VipRipRequest& req, DoneGuard done);
  void applyNewVip(const VipRipRequest& req, DoneGuard done);
  void applyNewRip(const VipRipRequest& req, DoneGuard done);
  void applyDeleteVip(const VipRipRequest& req, DoneGuard done);
  void applyDeleteRip(const VipRipRequest& req, DoneGuard done);
  void applySetWeight(const VipRipRequest& req, DoneGuard done);
  void applyRestoreVip(const VipRipRequest& req, DoneGuard done);

  /// Stamps the record with the current time, appends it to the journal
  /// (write-ahead), then applies it to the in-memory store.
  void intend(IntentRecord record);
  /// Binds a fresh RIP for `vm` under `vip`: journals it, sends the
  /// AddRip, and on a switch rejection rolls the intent back out.
  void bindRip(VipId vip, VmId vm, double weight, TraceId trace,
               SpanId parentSpan, DoneGuard done);
  /// Journals the removal of an intended RIP (a no-op for a VIP the
  /// intent no longer holds).
  void dropRipIntent(VipId vip, RipId rip);

  /// The most underloaded *healthy* switch with intended VIP-table space,
  /// if any.  Scored on intent, not actual tables: under in-flight or
  /// lost commands the actual tables lag what the manager already
  /// decided.  `ignoring` (a VIP being re-placed) does not count against
  /// its own intended switch — an orphan must be able to return to its
  /// rebooted home even when the fleet has no other headroom.
  [[nodiscard]] std::optional<SwitchId> pickSwitchForVip(
      VipId ignoring = VipId{}) const;
  [[nodiscard]] AccessRouterId pickAccessRouter() const;
  /// Re-backs a VIP that lost its last RIP with another live instance of
  /// `app` (excluding the VM being retired).  Returns false if no
  /// instance or no table space was available.
  bool refillVip(VipId vip, AppId app, VmId excluding, TraceId trace = 0,
                 SpanId parentSpan = 0);
  /// Installs the state-machine hooks (serialize/install/apply) that
  /// bind the generic DurableStateMachine to this manager's state.
  void setupStateMachine();
  /// Serializes the replayable state: fencing term, id watermarks, and
  /// the intent store in canonical (id-sorted) order.
  void serializeDurable(state::ByteWriter& w) const;
  /// Rebuilds intent/directories from snapshot + tail replay, then
  /// re-syncs the externally visible side effects (DNS records, route
  /// advertisements) with the recovered intent — a lost tail record must
  /// not leave a deleted VIP exposed or a recovered VIP unreachable.
  void recoverFromDurable();
  void resyncExternalFromIntent();
  /// Recomputes the VIP's DNS weight as
  ///   (serving capacity behind it, i.e. sum of RIP weights) x
  ///   (its exposure factor).
  /// The factor is the balancers' knob (selective exposure, drains); the
  /// capacity term tracks RIP configuration automatically, so the two
  /// policies compose instead of overwriting each other (§V-B).
  void syncVipDnsWeight(VipId vip);

  Simulation& sim_;
  SwitchFleet& fleet_;
  AuthoritativeDns& dns_;
  RouteRegistry& routes_;
  AppRegistry& apps_;
  const Topology& topo_;
  Options options_;

  ControlChannel channel_;
  CommandSender sender_;
  IntentStore intent_;
  IntentJournal journal_;
  state::DurableStateMachine machine_;
  std::uint64_t durableTerm_ = 0;
  std::function<void(state::ByteWriter&)> advisoryBuild_;
  std::function<void(state::ByteReader&)> advisoryInstall_;
  const Reconciler* reconciler_ = nullptr;
  Tracer* tracer_ = nullptr;

  std::function<bool(VmId)> vmAlive_;
  std::unordered_map<VipId, double> exposureFactor_;
  AdmissionController admission_;
  AdmissionTotals admissionTotals_;
  /// Admitted rounds waiting out their decision + reconfiguration time,
  /// keyed by round id (admission order).  The pump's timers carry only
  /// the id, so crash() can settle a round a timer still points at.
  std::map<std::uint64_t, std::vector<AdmissionController::Entry>> staged_;
  std::uint64_t nextRoundId_ = 0;
  bool pumping_ = false;
  /// False while the manager process is down (between crash() and
  /// recoverAsLeader()); gates the queue and every apply continuation.
  bool online_ = true;
  std::uint64_t cancelledRequests_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t rejected_ = 0;
  std::unordered_map<std::string, std::uint64_t> rejectionsByCode_;
  Histogram latency_{0.001, 3600.0, 96};

  IdAllocator<VipId> vipIds_;
  IdAllocator<RipId> ripIds_;
};

}  // namespace mdc
