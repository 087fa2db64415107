// The per-epoch observation snapshot produced by the fluid engine and
// consumed by every balancer: utilization of access links, LB switches,
// and servers, plus per-app and per-VIP demand.  This is the monitoring
// plane of Figure 1 (the dashed arrows).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mdc/util/flat_map.hpp"
#include "mdc/util/ids.hpp"
#include "mdc/util/units.hpp"

namespace mdc {

// The report's scalar gauges, one row each, in wire order.  This table is
// the one place a scalar gauge is declared: the EpochReport members, the
// canonical codec (epoch_report.cpp), MegaDc's per-epoch sampler and its
// metrics registry are all expanded from it.  Rows come in two kinds:
//
//   FLOW(field, type, wire, init)
//       computed by the fluid engine's flow model inside step().
//   GAUGE(field, type, wire, init, metric, source)
//       sampled by MegaDc::sampleGauges() once per epoch, after the flow
//       fields and before the report is published, and registered as the
//       live callback gauge `metric`.  `source` is an expression over
//       MegaDc's public members; it is only ever expanded in MegaDc.
//
// `wire` names the state::ByteWriter/ByteReader method that encodes the
// field.  A new row goes at the end: the row order is the byte order, and
// reordering rows changes every report hash.
#define MDC_EPOCH_REPORT_GAUGES(FLOW, GAUGE)                                 \
  /* Demand routed only via reachable (padded/draining) routes because the \
     VIP had no Active route: E4 separates this fallback share from        \
     healthy routing. */                                                   \
  FLOW(degradedRoutedRps, double, f64, 0.0)                                \
  /* Apps re-descended this epoch vs served from the flow-tree cache; both \
     0 in full-recompute mode.  They describe the computation, not the     \
     modelled system, so engine-equivalence checks skip them. */           \
  FLOW(engineAppsRecomputed, std::uint32_t, u32, 0)                        \
  FLOW(engineAppsCached, std::uint32_t, u32, 0)                            \
  /* Failure state (E13); orphaned VIPs are not yet re-hosted. */          \
  GAUGE(downSwitches, std::uint32_t, u32, 0, "mdc.fleet.down_switches",    \
        fleet.size() - fleet.upCount())                                    \
  GAUGE(downServers, std::uint32_t, u32, 0, "mdc.hosts.down_servers",      \
        hosts.downServers())                                               \
  GAUGE(orphanedVips, std::uint32_t, u32, 0, "mdc.fleet.orphaned_vips",    \
        fleet.pendingOrphans())                                            \
  /* Control plane (E14): the manager->switch command channel, and the     \
     reconciler's divergence in its latest audit (0 = converged) plus the  \
     repairs it issued (both 0 until start() builds the reconciler). */    \
  GAUGE(ctrlMessagesDropped, std::uint64_t, u64, 0,                        \
        "mdc.ctrl.messages_dropped",                                       \
        manager->viprip().ctrlChannel().messagesDropped())                 \
  GAUGE(ctrlRetransmits, std::uint64_t, u64, 0, "mdc.ctrl.retransmits",    \
        manager->viprip().ctrlSender().retransmits())                      \
  GAUGE(ctrlTimeouts, std::uint64_t, u64, 0, "mdc.ctrl.timeouts",          \
        manager->viprip().ctrlSender().timeouts())                         \
  GAUGE(ctrlInflightCommands, std::uint32_t, u32, 0, "mdc.ctrl.inflight",  \
        manager->viprip().ctrlSender().inflight())                         \
  GAUGE(ctrlPartitionedLinks, std::uint32_t, u32, 0,                       \
        "mdc.ctrl.partitioned_links",                                      \
        manager->viprip().ctrlChannel().partitionedLinks())                \
  GAUGE(ctrlDriftLastAudit, std::uint64_t, u64, 0,                         \
        "mdc.reconciler.divergence_last_round",                            \
        manager->viprip().reconciler() == nullptr                          \
            ? 0                                                            \
            : manager->viprip().reconciler()->divergenceLastRound())       \
  GAUGE(ctrlRepairsIssued, std::uint64_t, u64, 0,                          \
        "mdc.reconciler.repairs_issued",                                   \
        manager->viprip().reconciler() == nullptr                          \
            ? 0                                                            \
            : manager->viprip().reconciler()->repairsIssued())             \
  /* Manager tier (E16): the fencing term the sender stamps on commands,   \
     leader liveness, live instances (leader + standbys), cumulative       \
     failovers and pod-manager restarts, and the commands agents refused   \
     for a dead leader's term or a crash/takeover cancelled. */            \
  GAUGE(managerTerm, std::uint64_t, u64, 1, "mdc.manager.term",            \
        manager->viprip().ctrlSender().currentTerm())                      \
  GAUGE(managerLeaderUp, bool, b, true, "mdc.manager.leader_up",           \
        manager->leaderUp())                                               \
  GAUGE(managerAlive, std::uint32_t, u32, 2, "mdc.manager.alive_instances",\
        manager->aliveManagers())                                          \
  GAUGE(managerFailovers, std::uint64_t, u64, 0, "mdc.manager.failovers",  \
        manager->failovers())                                              \
  GAUGE(podManagerRestarts, std::uint64_t, u64, 0,                         \
        "mdc.manager.pod_restarts", manager->podRestarts())                \
  GAUGE(ctrlStaleTermRejections, std::uint64_t, u64, 0,                    \
        "mdc.ctrl.stale_term_rejections",                                  \
        manager->viprip().ctrlSender().staleTermRejections())              \
  GAUGE(ctrlCancelledCommands, std::uint64_t, u64, 0,                      \
        "mdc.ctrl.cancelled_commands",                                     \
        manager->viprip().ctrlSender().cancelledCommands())                \
  /* Fault replay: the injector's plan seed and its cumulative counters    \
     reproduce a chaos run from the report alone (the storm schedule is a  \
     pure function of the seed and the storm options). */                  \
  GAUGE(faultPlanSeed, std::uint64_t, u64, 0, "mdc.fault.plan_seed",       \
        faults->seed())                                                    \
  GAUGE(faultsInjected, std::uint64_t, u64, 0, "mdc.fault.injected",       \
        faults->faultsInjected())                                          \
  GAUGE(faultRepairsApplied, std::uint64_t, u64, 0,                        \
        "mdc.fault.repairs_applied", faults->repairsApplied())             \
  /* Durable state (E17): changelog/snapshot health of the manager's       \
     state machine.  Records since the last snapshot bound the replay;     \
     the cumulative recovery counters say how much corruption-tolerant     \
     recovery has happened. */                                             \
  GAUGE(stateChangelogRecords, std::uint64_t, u64, 0,                      \
        "mdc.state.changelog_records",                                     \
        manager->viprip().stateMachine().changelog().size())               \
  GAUGE(stateSnapshotsTaken, std::uint64_t, u64, 0,                        \
        "mdc.state.snapshots_taken",                                       \
        manager->viprip().stateMachine().snapshotsTaken())                 \
  GAUGE(stateRecordsSinceSnapshot, std::uint64_t, u64, 0,                  \
        "mdc.state.records_since_snapshot",                                \
        manager->viprip().stateMachine().recordsSinceSnapshot())           \
  GAUGE(stateRecoveries, std::uint64_t, u64, 0, "mdc.state.recoveries",    \
        manager->viprip().stateMachine().recoveries())                     \
  GAUGE(stateReplayedRecords, std::uint64_t, u64, 0,                       \
        "mdc.state.replayed_records",                                      \
        manager->viprip().stateMachine().replayedRecordsTotal())           \
  GAUGE(stateTruncatedBytes, std::uint64_t, u64, 0,                        \
        "mdc.state.truncated_bytes",                                       \
        manager->viprip().stateMachine().truncatedBytesTotal())            \
  GAUGE(stateSnapshotsRejected, std::uint64_t, u64, 0,                     \
        "mdc.state.snapshots_rejected",                                    \
        manager->viprip().stateMachine().snapshotsRejectedTotal())         \
  GAUGE(stateCompactedRecords, std::uint64_t, u64, 0,                      \
        "mdc.state.compacted_records",                                     \
        manager->viprip().stateMachine().compactedRecordsTotal())          \
  /* Session data plane (E19): live TCP sessions on the per-switch         \
     connection shards plus the quiescent-drain gauges; all 0 when no      \
     SessionEngine runs. */                                                \
  GAUGE(sessionArrivals, std::uint64_t, u64, 0, "mdc.session.arrivals",    \
        sessions ? sessions->totalArrivals() : 0)                          \
  GAUGE(sessionActive, std::uint64_t, u64, 0, "mdc.session.active",        \
        sessions ? sessions->activeSessions() : 0)                         \
  GAUGE(sessionCompleted, std::uint64_t, u64, 0, "mdc.session.completed",  \
        sessions ? sessions->completedSessions() : 0)                      \
  GAUGE(sessionBroken, std::uint64_t, u64, 0, "mdc.session.broken",        \
        sessions ? sessions->brokenSessions() : 0)                         \
  GAUGE(sessionRejected, std::uint64_t, u64, 0,                            \
        "mdc.session.rejected_total",                                      \
        sessions ? sessions->rejectedSessions() : 0)                       \
  GAUGE(sessionDrainsCompleted, std::uint64_t, u64, 0,                     \
        "mdc.session.drains_completed",                                    \
        sessions ? sessions->drainsCompleted() : 0)                        \
  GAUGE(sessionDrainP99Seconds, double, f64, 0.0,                          \
        "mdc.session.drain_p99_seconds",                                   \
        sessions ? sessions->drainP99Seconds() : 0.0)

/// Pass for the row kind an expansion ignores.
#define MDC_EPOCH_REPORT_SKIP(...)

struct EpochReport {
  SimTime time = 0.0;

  /// Offered utilization per access link (index as in Topology).
  std::vector<double> accessLinkUtil;
  /// Offered utilization per LB switch.
  std::vector<double> switchUtil;

  /// Demand and service, aggregated per application.  FlatMaps (sorted
  /// vectors): the engine fills them in ascending app order, so building
  /// them is an append loop and the canonical encoder needs no sorting.
  FlatMap<AppId, double> appDemandRps;
  FlatMap<AppId, double> appServedRps;

  /// Offered demand per VIP (Gbps) — what the switch balancer reasons on.
  FlatMap<VipId, double> vipDemandGbps;

  double externalOfferedGbps = 0.0;
  double externalServedGbps = 0.0;
  /// Demand dropped because no active VIP/RIP path existed for it.
  double unroutedRps = 0.0;
  /// Why it was dropped: "no_dns", "no_shares", "no_route", "no_owner",
  /// "no_rips", "depth", "dead_vm".
  FlatMap<std::string, double> unroutedByCause;

  /// The scalar gauge block, one member per MDC_EPOCH_REPORT_GAUGES row.
#define MDC_REPORT_MEMBER(field, type, wire, init, ...) type field = init;
  MDC_EPOCH_REPORT_GAUGES(MDC_REPORT_MEMBER, MDC_REPORT_MEMBER)
#undef MDC_REPORT_MEMBER

  [[nodiscard]] double totalDemandRps() const {
    double d = 0.0;
    for (const auto& [app, rps] : appDemandRps) d += rps;
    return d;
  }
  [[nodiscard]] double totalServedRps() const {
    double d = 0.0;
    for (const auto& [app, rps] : appServedRps) d += rps;
    return d;
  }
};

namespace state {
class ByteWriter;
class ByteReader;
}  // namespace state

/// Canonical binary encoding of a report: fixed field order, maps
/// emitted key-sorted — two equal reports encode to identical bytes.
void encodeEpochReport(const EpochReport& rep, state::ByteWriter& w);
EpochReport decodeEpochReport(state::ByteReader& r);

/// fnv1a64 over the canonical encoding.  Two runs of the same seeded
/// scenario must produce reports with equal hashes — the end-to-end
/// deterministic-replay invariant.
[[nodiscard]] std::uint64_t hashEpochReport(const EpochReport& rep);

}  // namespace mdc
