// E18 — the overload-robust pipelined command plane: batched
// conflict-checked admission vs the fully serialized queue, priority
// load-shedding correctness, and a long CommandStorm chaos run with a
// crash/recover state-hash check.
//
// Three cell families:
//
//   throughput — {serialized, pipelined} x {disjoint, conflicting}
//       workloads on a direct VipRipManager world.  Disjoint work
//       (NewRip on distinct VMs) pipelines: one decision cost is
//       amortized over a footprint-disjoint batch, so sustained
//       commands/sec must beat the serialized queue by >= 3x.
//       Conflicting work (NewVip on one app: every request writes the
//       app key) must NOT speed up — conflicts serialize in submission
//       order, reproducing the serialized manager's timeline.
//       This family also owns the serialized-queue measurement that
//       E12a used to headline; bench_e12 keeps its serialized world by
//       pinning admission.pipelined = false.
//
//   shedding — a tightly bounded queue under a bulk SetWeight flood
//       with critical (priority >= 10) work interleaved.  The bar:
//       bulk is shed with "overloaded", the critical class is never
//       shed, and every critical request completes.
//
//   chaos — a >= 200-epoch MegaDc run where ChaosStorm draws
//       CommandStorm bursts on top of infrastructure faults and a
//       deterministic leader crash; WorldInvariants judges every
//       epoch, and after quiesce the journal is replayed from durable
//       state to a bit-identical state hash.
//
// Flags (bench/common/harness.hpp): --smoke (small cells; seconds, not
// minutes), --out FILE (default BENCH_E18.json), --baseline FILE (fail
// on a >30% regression of the pipelined disjoint speedup).
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/harness.hpp"
#include "common/viprip_world.hpp"
#include "mdc/core/viprip_manager.hpp"
#include "mdc/fault/chaos.hpp"
#include "mdc/metrics/table.hpp"
#include "mdc/scenario/megadc.hpp"

namespace {
using namespace mdc;

// --- direct-manager world (E12's, with roomy switches) ----------------------

SwitchLimits bigSwitch() {
  SwitchLimits lim;
  lim.maxVips = 4096;
  lim.maxRips = 100000;
  return lim;
}

VipRipManager::Options managerOptions(bool pipelined) {
  VipRipManager::Options o;
  o.processSeconds = 0.5;  // the E12 serialized-decision cost
  o.reconfigSeconds = 3.0;
  o.admission.pipelined = pipelined;
  o.admission.batchSize = 16;
  return o;
}

// --- throughput cells ------------------------------------------------------

struct ThroughputCell {
  std::string mode;      // "serialized" | "pipelined"
  std::string workload;  // "disjoint" | "conflicting"
  double offered = 0.0;  // req/s
  double sustained = 0.0;
  double p50 = 0.0;  // request latency s (queueing + reconfig)
  double p99 = 0.0;
  std::uint64_t processed = 0;
  std::uint64_t rounds = 0;
  std::uint64_t deferred = 0;
  std::size_t finalQueue = 0;
};

/// Offers `rate` req/s for `duration` sim-seconds and reports sustained
/// completions/sec over that window (backlog intentionally not drained —
/// the serialized mode's whole story is that it cannot keep up).
ThroughputCell runThroughputCell(bool pipelined, const std::string& workload,
                                 double rate, double duration) {
  ThroughputCell r;
  r.mode = pipelined ? "pipelined" : "serialized";
  r.workload = workload;
  r.offered = rate;

  bench::VipRipWorld w{managerOptions(pipelined), bigSwitch()};
  const AppId app = w.apps.create("a", AppSla{}, 1.0);
  (void)w.viprip.createVipNow(app);

  const auto total = static_cast<std::uint32_t>(rate * duration);
  for (std::uint32_t i = 0; i < total; ++i) {
    w.sim.at(static_cast<double>(i) / rate, [&w, app, i, workload] {
      VipRipRequest req;
      if (workload == "disjoint") {
        // Distinct VMs: every request reads the app key and writes its
        // own VM key, so whole batches commit per decision round.
        req.op = VipRipOp::NewRip;
        req.app = app;
        req.vm = VmId{1000 + i};
        req.weight = 1.0;
      } else {
        // Every NewVip writes the app key: strict serialization.
        req.op = VipRipOp::NewVip;
        req.app = app;
      }
      (void)w.viprip.submit(std::move(req));
    });
  }
  w.sim.runUntil(duration);

  r.processed = w.viprip.processedRequests();
  r.sustained = static_cast<double>(r.processed) / duration;
  const Histogram& lat = w.viprip.requestLatency();
  r.p50 = lat.count() ? lat.quantile(0.5) : 0.0;
  r.p99 = lat.count() ? lat.quantile(0.99) : 0.0;
  r.rounds = w.viprip.admission().rounds();
  r.deferred = w.viprip.admission().conflictDeferred();
  r.finalQueue = w.viprip.queueLength();
  return r;
}

// --- shedding cell ---------------------------------------------------------

struct ShedCell {
  std::uint64_t bulkShed = 0;
  std::uint64_t capacityShed = 0;
  std::uint64_t criticalShed = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expired = 0;
  int criticalSubmitted = 0;
  int criticalCompleted = 0;  // done(ok) count
};

/// Floods a depth-8 queue with bulk SetWeights (distinct VMs, so none
/// coalesce away) and interleaves critical-priority capacity work.
ShedCell runShedCell() {
  ShedCell r;
  VipRipManager::Options o = managerOptions(true);
  o.admission.maxQueueDepth = 8;
  o.admission.bulkShare = 0.5;
  bench::VipRipWorld w{o, bigSwitch()};
  const AppId app = w.apps.create("a", AppSla{}, 1.0);
  (void)w.viprip.createVipNow(app);
  for (std::uint32_t v = 0; v < 400; ++v) {
    (void)w.viprip.createRipNow(app, VmId{v}, 1.0);
  }

  // 100 bulk updates/sec for 3 s against a queue that admits ~32/s.
  for (std::uint32_t i = 0; i < 300; ++i) {
    w.sim.at(0.01 * static_cast<double>(i), [&w, i] {
      VipRipRequest req;
      req.op = VipRipOp::SetWeight;
      req.vm = VmId{i % 400};
      req.weight = 2.0;
      (void)w.viprip.submit(std::move(req));
    });
  }
  // Critical repair-style work lands mid-flood and must never be shed.
  for (int j = 0; j < 20; ++j) {
    w.sim.at(0.5 + 0.1 * static_cast<double>(j), [&w, app, j, &r] {
      VipRipRequest req;
      req.op = VipRipOp::NewRip;
      req.app = app;
      req.vm = VmId{1000 + static_cast<std::uint32_t>(j)};
      req.weight = 1.0;
      req.priority = 12;  // >= criticalPriority
      req.done = [&r](Status s) {
        if (s.ok()) ++r.criticalCompleted;
      };
      ++r.criticalSubmitted;
      (void)w.viprip.submit(std::move(req));
    });
  }
  w.sim.runUntil(600.0);

  const AdmissionController& adm = w.viprip.admission();
  r.bulkShed = adm.shedOf(AdmissionClass::Bulk);
  r.capacityShed = adm.shedOf(AdmissionClass::Capacity);
  r.criticalShed = adm.shedOf(AdmissionClass::Critical);
  r.evictions = adm.evictions();
  r.expired = adm.deadlineExpired();
  return r;
}

// --- chaos cell ------------------------------------------------------------

struct ChaosCell {
  std::uint64_t epochs = 0;
  std::uint64_t epochViolations = 0;
  bool quiesced = false;
  std::uint64_t faultsInjected = 0;
  std::uint64_t roundsCommitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t criticalShed = 0;
  std::uint64_t hashBefore = 0;
  std::uint64_t hashAfterReplay = 0;
  bool hashMatch = false;
};

/// The acceptance run: CommandStorm bursts composed with infrastructure
/// faults and a deterministic leader crash, every epoch judged, then a
/// durable-journal replay that must land on a bit-identical state hash.
ChaosCell runChaosCell(bool smoke) {
  ChaosCell r;
  MegaDcConfig cfg = testScaleConfig();
  cfg.seed = 1;
  cfg.fault.seed = cfg.seed * 0x9e3779b97f4a7c15ull + 0xe18u;
  cfg.ctrlFaults.dropRate = 0.05;
  cfg.ctrlFaults.delaySeconds = 0.02;
  cfg.ctrlFaults.delayJitterSeconds = 0.05;
  cfg.manager.viprip.admission.maxQueueDepth = 24;
  cfg.manager.viprip.admission.bulkShare = 0.5;
  cfg.manager.viprip.admission.capacityDeadlineSeconds = 30.0;
  MegaDc dc{cfg};
  dc.bootstrap();

  WorldInvariants inv{dc.topo, dc.apps,      dc.dns,          dc.fleet,
                      dc.hosts, *dc.manager, dc.health.get()};

  const SimTime epoch = cfg.engine.epoch;
  ChaosStorm::Options sopt;
  sopt.seed = cfg.seed;
  sopt.start = dc.sim.now() + 10.0;
  sopt.end = sopt.start + (smoke ? 120.0 : 440.0);
  sopt.waves = smoke ? 4u : 8u;
  sopt.maxSwitchCrashes = 1;
  sopt.maxServerCrashes = 2;
  sopt.maxLinkCuts = 1;
  sopt.maxPodOutages = 1;
  sopt.maxChannelPartitions = 1;
  sopt.maxPodManagerCrashes = 1;
  sopt.maxGlobalManagerCrashes = 1;
  sopt.maxCommandStorms = 2;
  sopt.stormBurst = 96;
  sopt.stormWindowSeconds = 4.0;
  sopt.minRepairSeconds = 5.0;
  sopt.maxRepairSeconds = 25.0;
  ChaosStorm storm{sopt};
  storm.schedule(*dc.faults);
  dc.faults->commandStorm(sopt.start + 25.0, 96, 4.0);
  dc.faults->crashGlobalManager(sopt.start + 37.0, /*repairAfter=*/15.0);

  const auto judgedEpoch = [&] {
    dc.runUntil(dc.sim.now() + epoch);
    ++r.epochs;
    r.epochViolations += inv.checkEpoch().size();
  };
  while (dc.sim.now() < sopt.end) judgedEpoch();

  // Quiesce: heal the channel, drain the backlog, keep judging.
  dc.manager->viprip().ctrlChannel().setFaults(ChannelFaults{});
  for (int round = 0; round < 60 && !r.quiesced; ++round) {
    for (int e = 0; e < 5; ++e) judgedEpoch();
    r.quiesced = inv.checkQuiesced().empty();
  }

  r.faultsInjected = dc.faults->faultsInjected();
  VipRipManager& vr = dc.manager->viprip();
  const VipRipManager::AdmissionTotals totals = vr.admissionTotals();
  r.roundsCommitted = totals.rounds;
  r.admitted = totals.admitted;
  r.shed = totals.shed;
  r.criticalShed = vr.admission().shedOf(AdmissionClass::Critical);

  // The crash/recover contract: replaying the durable journal on the
  // quiesced manager reproduces the state hash bit-for-bit, admission
  // history included.
  r.hashBefore = vr.stateMachine().stateHash();
  vr.rebuildIntentFromJournal();
  r.hashAfterReplay = vr.stateMachine().stateHash();
  r.hashMatch = (r.hashBefore == r.hashAfterReplay);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parseArgs(argc, argv, {"BENCH_E18.json", {}, {}});
  if (!args) return 2;
  const bool smoke = args->smoke;

  const double duration = smoke ? 60.0 : 300.0;
  std::vector<ThroughputCell> cells;
  Table t{"E18: command-plane throughput, serialized vs pipelined "
          "(0.5 s decision, 3 s parallel switch reconfig, batch 16)",
          {"mode", "workload", "offered/s", "sustained/s", "p50 s", "p99 s",
           "rounds", "deferred", "final queue"}};
  for (const bool pipelined : {false, true}) {
    // Disjoint at 24/s saturates the serialized queue 12x over; the
    // conflicting cell runs at 4/s so its backlog stays interpretable.
    cells.push_back(
        runThroughputCell(pipelined, "disjoint", 24.0, duration));
    cells.push_back(
        runThroughputCell(pipelined, "conflicting", 4.0, duration));
  }
  for (const ThroughputCell& r : cells) {
    t.addRow({r.mode, r.workload, r.offered, r.sustained, r.p50, r.p99,
              static_cast<long long>(r.rounds),
              static_cast<long long>(r.deferred),
              static_cast<long long>(r.finalQueue)});
  }
  t.print(std::cout);
  std::cout << "expected shape: disjoint work pipelines (one decision cost"
               " amortized over a footprint-disjoint batch) for >= 3x the"
               " serialized commands/sec; conflicting work stays at the"
               " serialized rate — conflicts keep per-key FIFO order and"
               " the seed timeline (SS III-C)\n\n";

  const ShedCell shed = runShedCell();
  Table s{"E18: load-shedding under a bulk flood (queue depth 8)",
          {"bulk shed", "capacity shed", "critical shed", "evictions",
           "critical ok"}};
  s.addRow({static_cast<long long>(shed.bulkShed),
            static_cast<long long>(shed.capacityShed),
            static_cast<long long>(shed.criticalShed),
            static_cast<long long>(shed.evictions),
            std::string(std::to_string(shed.criticalCompleted) + "/" +
                        std::to_string(shed.criticalSubmitted))});
  s.print(std::cout);
  std::cout << "expected shape: bulk weight updates shed first under"
               " overload; the critical (repair) class is never shed and"
               " every critical request completes\n\n";

  const ChaosCell chaos = runChaosCell(smoke);
  Table c{"E18: CommandStorm chaos run",
          {"epochs", "violations", "quiesced", "rounds", "admitted", "shed",
           "critical shed", "hash match"}};
  c.addRow({static_cast<long long>(chaos.epochs),
            static_cast<long long>(chaos.epochViolations),
            std::string(chaos.quiesced ? "yes" : "NO"),
            static_cast<long long>(chaos.roundsCommitted),
            static_cast<long long>(chaos.admitted),
            static_cast<long long>(chaos.shed),
            static_cast<long long>(chaos.criticalShed),
            std::string(chaos.hashMatch ? "yes" : "NO")});
  c.print(std::cout);
  std::cout << "expected shape: zero invariant violations across the storm,"
               " a quiesced world at the end, and a bit-identical state"
               " hash after replaying the durable journal (admission"
               " history included)\n";

  // --- gates ---------------------------------------------------------------
  int status = 0;  // 1 once any gate failed
  // cells: serialized {disjoint, conflicting}, then pipelined {same}.
  const auto speedup = [&](std::size_t workload) {
    const double serialized = cells[workload].sustained;
    return serialized > 0.0 ? cells[workload + 2].sustained / serialized : 0.0;
  };
  const double speedupDisjoint = speedup(0);
  const double speedupConflicting = speedup(1);
  if (speedupDisjoint < 3.0) {
    status = bench::fail("pipelined disjoint speedup ", speedupDisjoint,
                         " < 3.0");
  }
  const bool sheddingOk = shed.criticalShed == 0 && shed.bulkShed > 0 &&
                          shed.criticalCompleted == shed.criticalSubmitted;
  if (!sheddingOk) {
    status = bench::fail("shedding correctness (critical shed=",
                         shed.criticalShed, ", bulk shed=", shed.bulkShed,
                         ", critical ", shed.criticalCompleted, "/",
                         shed.criticalSubmitted, ")");
  }
  if (chaos.epochViolations != 0 || !chaos.quiesced || !chaos.hashMatch ||
      chaos.criticalShed != 0) {
    status = bench::fail("chaos run (violations=", chaos.epochViolations,
                         ", quiesced=", chaos.quiesced,
                         ", hash match=", chaos.hashMatch,
                         ", critical shed=", chaos.criticalShed, ")");
  }
  if (!smoke && chaos.epochs < 200) {
    status = bench::fail("chaos run covered ", chaos.epochs, " epochs < 200");
  }

  const auto run = [](const ThroughputCell& r) -> bench::Json {
    return {{"mode", r.mode}, {"workload", r.workload},
            {"offered_rps", r.offered}, {"sustained_rps", r.sustained},
            {"p50_latency_s", r.p50}, {"p99_latency_s", r.p99},
            {"processed", r.processed}, {"rounds", r.rounds},
            {"conflict_deferred", r.deferred}, {"final_queue", r.finalQueue}};
  };
  bench::Json doc = bench::report("e18_command_plane", smoke);
  doc.add("runs", bench::Json::array(cells, run))
      .add("shedding", {{"bulk_shed", shed.bulkShed},
                        {"capacity_shed", shed.capacityShed},
                        {"critical_shed", shed.criticalShed},
                        {"bulk_evictions", shed.evictions},
                        {"critical_completed", shed.criticalCompleted},
                        {"critical_submitted", shed.criticalSubmitted}})
      .add("chaos", {{"epochs", chaos.epochs},
                     {"epoch_violations", chaos.epochViolations},
                     {"quiesced", chaos.quiesced},
                     {"faults_injected", chaos.faultsInjected},
                     {"rounds_committed", chaos.roundsCommitted},
                     {"admitted", chaos.admitted}, {"shed", chaos.shed},
                     {"critical_shed", chaos.criticalShed},
                     {"state_hash_before", chaos.hashBefore},
                     {"state_hash_after_replay", chaos.hashAfterReplay},
                     {"state_hash_match", chaos.hashMatch}})
      .add("checks", {{"pipelined_speedup_disjoint", speedupDisjoint},
                      {"pipelined_speedup_conflicting", speedupConflicting},
                      {"shedding_ok", sheddingOk}, {"healthy", status == 0}});
  bench::writeReport(args->out, doc);
  if (status != 0) return status;

  return bench::baselineGates(*args, [&](const bench::Baseline& base) {
    return base.requireAtLeast("pipelined_speedup_disjoint", speedupDisjoint,
                               0.7, "pipelined_speedup_disjoint");
  });
}
