// E16 — control-plane resilience under chaos storms: epochs/sec with and
// without composed faults, failover/recovery epoch counts, and invariant
// violations (which must be zero).
//
// Each cell builds a full MegaDc world and drives it epoch-by-epoch the
// way the chaos test does, but with wall-clock timing around the epoch
// advance.  Storm cells overlay a seeded ChaosStorm (plus one
// deterministic leader crash so failover runs under every seed) on a
// mildly lossy command channel; calm cells measure the same world
// undisturbed, so the JSON exposes the price of digesting a storm.
//
// Replayability (the E16 contract): the JSON records the fault-injector
// seed and the full drawn storm schedule — wave windows, per-kind fault
// counts, repair delays — so any run can be reproduced bit-identically
// from the artifact alone.
//
// Flags (bench/common/harness.hpp): --smoke (small fixed cells; seconds,
// not minutes), --out FILE (default BENCH_E16.json), --baseline FILE
// (fail on a >30% storm epochs/sec regression), plus --trace FILE (run
// the storm smoke cell traced and dump its spans as JSONL) and
// --metrics FILE (dump that cell's metrics registry as JSONL after
// quiesce).
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/harness.hpp"
#include "mdc/fault/chaos.hpp"
#include "mdc/metrics/table.hpp"
#include "mdc/obs/export.hpp"
#include "mdc/scenario/megadc.hpp"
#include "mdc/util/stats.hpp"

namespace {
using namespace mdc;

/// A bench-scale world: big servers and generous switch tables so the
/// cell stresses the control plane's failure handling, not placement.
MegaDcConfig chaosConfig(std::uint32_t numApps) {
  MegaDcConfig cfg = testScaleConfig();
  cfg.seed = 1;
  cfg.numApps = numApps;
  cfg.totalDemandRps = 5.0 * numApps;
  cfg.topology.numServers = 256;
  cfg.topology.serverCapacity = CapacityVec{1024.0, 4096.0, 100.0};
  cfg.topology.numIsps = 4;
  cfg.topology.accessLinksPerIsp = 2;
  cfg.topology.accessLinkGbps = 400.0;
  cfg.topology.numSwitches = 32;
  cfg.topology.switchTrunkGbps = 100.0;
  cfg.numPods = 8;
  cfg.switchLimits.maxVips = 2 * numApps;
  cfg.switchLimits.maxRips = 8 * numApps;
  // Drain the bootstrap's O(apps) command burst quickly; the storm phase
  // still pays per-command latency through the lossy channel.
  cfg.manager.viprip.processSeconds = 0.001;
  cfg.fault.seed = cfg.seed * 0x9e3779b97f4a7c15ull + 0xe16u;
  return cfg;
}

struct CellResult {
  std::string mode;  // "calm" | "storm"
  std::uint32_t numApps = 0;
  double epochsPerSec = 0.0;
  double p50Ms = 0.0;
  double p99Ms = 0.0;
  std::uint64_t epochs = 0;
  std::uint64_t epochViolations = 0;
  std::uint64_t failovers = 0;
  std::uint64_t maxLeaderlessRun = 0;
  std::uint64_t recoveryEpochs = 0;  // storm end -> first clean quiesce
  bool quiesced = false;
  std::uint64_t faultsInjected = 0;
  std::uint64_t repairsApplied = 0;
  std::uint64_t faultSeed = 0;
  std::uint64_t stormSeed = 0;
  std::vector<FaultInjector::RandomPlan> stormWaves;
};

/// Runs one (mode, apps) cell on a fresh world.
CellResult runCell(const std::string& mode, std::uint32_t numApps,
                   bool smoke, const std::string& traceOut = "",
                   const std::string& metricsOut = "") {
  const bool stormy = (mode == "storm");
  MegaDcConfig cfg = chaosConfig(numApps);
  if (stormy) {
    // The storm composes with retransmits and late-landing commands.
    cfg.ctrlFaults.dropRate = 0.05;
    cfg.ctrlFaults.delaySeconds = 0.02;
    cfg.ctrlFaults.delayJitterSeconds = 0.05;
  }
  if (!traceOut.empty()) {
    cfg.tracing.enabled = true;
    cfg.tracing.ringCapacity = 1u << 19;
  }
  MegaDc dc{cfg};
  dc.bootstrap();
  // Deploying `numApps` apps queues O(apps) VIP/RIP commands; let the
  // manager drain them so the measured window starts converged.
  const SimTime drainCap = dc.sim.now() + 600.0;
  while (dc.manager->viprip().queueLength() > 0 && dc.sim.now() < drainCap) {
    dc.runUntil(dc.sim.now() + 5.0);
  }

  WorldInvariants inv{dc.topo, dc.apps,      dc.dns,          dc.fleet,
                      dc.hosts, *dc.manager, dc.health.get()};

  const SimTime epoch = cfg.engine.epoch;
  const SimTime windowStart = dc.sim.now() + 10.0;
  const SimTime windowEnd = windowStart + (smoke ? 120.0 : 300.0);
  ChaosStorm::Options sopt;
  sopt.seed = cfg.seed;
  sopt.start = windowStart;
  sopt.end = windowEnd;
  sopt.waves = smoke ? 4u : 8u;
  sopt.maxSwitchCrashes = 1;
  sopt.maxServerCrashes = 2;
  sopt.maxLinkCuts = 1;
  sopt.maxPodOutages = 1;
  sopt.maxChannelPartitions = 1;
  sopt.maxPodManagerCrashes = 1;
  sopt.maxGlobalManagerCrashes = 1;
  sopt.minRepairSeconds = 5.0;
  sopt.maxRepairSeconds = 25.0;
  ChaosStorm storm{sopt};
  if (stormy) {
    storm.schedule(*dc.faults);
    // Failover runs in every storm cell, whatever the seed draws.
    dc.faults->crashGlobalManager(windowStart + 37.0, /*repairAfter=*/15.0);
  }

  CellResult r;
  r.mode = mode;
  r.numApps = numApps;
  r.faultSeed = dc.faults->seed();
  r.stormSeed = storm.seed();
  if (stormy) r.stormWaves = storm.waves();

  dc.runUntil(windowStart);
  std::vector<double> stepMs;
  while (dc.sim.now() < windowEnd) {
    const auto t0 = std::chrono::steady_clock::now();
    dc.runUntil(dc.sim.now() + epoch);
    const auto t1 = std::chrono::steady_clock::now();
    stepMs.push_back(1000.0 *
                     std::chrono::duration<double>(t1 - t0).count());
    ++r.epochs;
    r.epochViolations += inv.checkEpoch().size();
  }

  // Quiesce: heal the channel, let repairs and anti-entropy converge.
  dc.manager->viprip().ctrlChannel().setFaults(ChannelFaults{});
  for (int round = 0; round < 60 && !r.quiesced; ++round) {
    for (int e = 0; e < 5; ++e) {
      dc.runUntil(dc.sim.now() + epoch);
      ++r.recoveryEpochs;
      r.epochViolations += inv.checkEpoch().size();
    }
    r.quiesced = inv.checkQuiesced().empty();
  }

  r.p50Ms = percentile(stepMs, 50.0);
  r.p99Ms = percentile(stepMs, 99.0);
  // Median-based throughput, robust against scheduler hiccups (and, in
  // storm cells, against the few epochs that carry a whole repair wave).
  r.epochsPerSec = r.p50Ms > 0.0 ? 1000.0 / r.p50Ms : 0.0;
  r.failovers = dc.manager->failovers();
  r.maxLeaderlessRun = inv.maxLeaderlessRun();
  r.faultsInjected = dc.faults->faultsInjected();
  r.repairsApplied = dc.faults->repairsApplied();

  if (!traceOut.empty()) {
    std::ofstream out(traceOut);
    const std::size_t lines = exportSpansJsonl(dc.tracer->ring(), out);
    std::cout << "wrote " << traceOut << " (" << lines << " span events, "
              << dc.tracer->ring().overwritten() << " overwritten)\n";
  }
  if (!metricsOut.empty()) {
    std::ofstream out(metricsOut);
    const std::size_t lines = exportMetricsJsonl(dc.metrics, out);
    std::cout << "wrote " << metricsOut << " (" << lines << " samples)\n";
  }
  return r;
}

bench::Json runJson(const CellResult& r) {
  const auto wave = [](const FaultInjector::RandomPlan& w) -> bench::Json {
    return {{"start", w.start}, {"end", w.end},
            {"switch_crashes", w.switchCrashes},
            {"server_crashes", w.serverCrashes}, {"link_cuts", w.linkCuts},
            {"pod_outages", w.podOutages},
            {"channel_partitions", w.channelPartitions},
            {"pod_manager_crashes", w.podManagerCrashes},
            {"global_manager_crashes", w.globalManagerCrashes},
            {"repair_after", w.repairAfter}};
  };
  return {{"mode", r.mode}, {"apps", r.numApps},
          {"epochs_per_sec", r.epochsPerSec}, {"p50_ms", r.p50Ms},
          {"p99_ms", r.p99Ms}, {"epochs", r.epochs},
          {"epoch_violations", r.epochViolations},
          {"failovers", r.failovers},
          {"max_leaderless_run", r.maxLeaderlessRun},
          {"recovery_epochs", r.recoveryEpochs}, {"quiesced", r.quiesced},
          {"faults_injected", r.faultsInjected},
          {"repairs_applied", r.repairsApplied}, {"fault_seed", r.faultSeed},
          {"storm_seed", r.stormSeed},
          {"storm_waves", bench::Json::array(r.stormWaves, wave)}};
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parseArgs(
      argc, argv, {"BENCH_E16.json", {}, {"--trace", "--metrics"}});
  if (!args) return 2;
  const bool smoke = args->smoke;

  std::vector<CellResult> results;
  Table table{"E16: epochs/sec and recovery under chaos storms",
              {"mode", "apps", "epochs/s", "p50 ms", "p99 ms", "violations",
               "failovers", "max ldrless", "recov epochs", "quiesced"}};
  const auto record = [&](const CellResult& r) {
    results.push_back(r);
    table.addRow({r.mode, static_cast<long long>(r.numApps), r.epochsPerSec,
                  r.p50Ms, r.p99Ms,
                  static_cast<long long>(r.epochViolations),
                  static_cast<long long>(r.failovers),
                  static_cast<long long>(r.maxLeaderlessRun),
                  static_cast<long long>(r.recoveryEpochs),
                  std::string(r.quiesced ? "yes" : "NO")});
  };

  // The smoke cells run in every configuration so CI regressions compare
  // against the committed full-run artifact apples-to-apples.
  constexpr std::uint32_t kSmokeApps = 2000;
  record(runCell("calm", kSmokeApps, /*smoke=*/true));
  record(runCell("storm", kSmokeApps, /*smoke=*/true, args->file("--trace"),
                 args->file("--metrics")));
  const double smokeCalm = results[0].epochsPerSec;
  const double smokeStorm = results[1].epochsPerSec;

  if (!smoke) {
    // The acceptance cell: 10k apps digesting a full 8-wave storm.
    record(runCell("storm", 10'000, /*smoke=*/false));
  }

  table.print(std::cout);
  std::cout << "expected shape: storm epochs/sec tracks calm within a small"
               " factor (faults cost retransmits and recovery work, not"
               " engine throughput); violations are zero at every epoch;"
               " leaderless runs stay within the lease+watch bound; every"
               " cell quiesces to intent==actual\n";

  int status = 0;  // 1 once any gate failed
  for (const CellResult& r : results) {
    if (r.epochViolations > 0) {
      status = bench::fail(r.epochViolations, " invariant violations in ",
                           r.mode, "/", r.numApps,
                           " (replay: fault_seed=", r.faultSeed, ")");
    }
    if (!r.quiesced) {
      status = bench::fail(r.mode, "/", r.numApps, " never quiesced");
    }
  }

  bench::Json doc = bench::report("e16_chaos", smoke);
  doc.add("runs", bench::Json::array(results, runJson))
      .add("checks", {{"smoke_apps", kSmokeApps},
                      {"smoke_calm_epochs_per_sec", smokeCalm},
                      {"smoke_storm_epochs_per_sec", smokeStorm},
                      {"smoke_storm_over_calm_ratio", smokeStorm / smokeCalm},
                      {"invariants_clean", status == 0}});
  bench::writeReport(args->out, doc);
  if (status != 0) return status;

  return bench::baselineGates(*args, [&](const bench::Baseline& base) {
    return base.requireAtLeast("smoke_storm_epochs_per_sec", smokeStorm, 0.7,
                               "storm epochs/sec");
  });
}
