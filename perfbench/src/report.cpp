// One invocation end to end: set-ups, windows, correctness gates, and the
// metric tables the benchmark prints.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr MetricDef kEndToEnd[] = {
    {"epoch_ms_p50", "ms"},
    {"epoch_ms_p95", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"served_ratio", "ratio"},
    {"engine.step_ms", "ms"},
    {"engine.validate_ms", "ms"},
    {"engine.descent_ms", "ms"},
    {"engine.emit_ms", "ms"},
    {"engine.emit_buckets_ms", "ms"},
    {"engine.merge_ms", "ms"},
    {"engine.serve_ms", "ms"},
    {"engine.apps_recomputed", "count"},
    {"engine.cache_hit_ratio", "ratio"},
    {"session.tick_ms", "ms"},
    {"session.arrivals", "count"},
    {"session.active", "count"},
    {"session_admit_ratio", "ratio"},
    {"pod.control_loop_ms", "ms"},
    {"pod.placement_changes", "count"},
    {"manager.observe_ms", "ms"},
    {"interpod.run_ms", "ms"},
    {"link.run_ms", "ms"},
    {"switch.run_ms", "ms"},
    {"viprip.requests_processed", "count"},
    {"viprip.requests_rejected", "count"},
    {"ctrl_request_p99_s", "sim_s"},
    {"ctrl.async_ms", "ms"},
    {"ctrl.commands_sent", "count"},
    {"ctrl.retransmits", "count"},
    {"ctrl.timeouts", "count"},
    {"ctrl.ack_ratio", "ratio"},
    {"admission.rounds", "count"},
    {"admission.admitted", "count"},
    {"admission.shed", "count"},
    {"admission.deadline_expired", "count"},
    {"reconciler.audit_ms", "ms"},
    {"state.snapshot_ms", "ms"},
    {"state.changelog_records", "count"},
    {"state.changelog_bytes", "bytes"},
    {"state.replayed_records", "count"},
    {"health.heartbeat_ms", "ms"},
    {"fault.faults_injected", "count"},
    {"fault.repairs_applied", "count"},
    {"recovery_s", "sim_s"},
    {"sim.events_per_epoch", "count"},
    {"setup.construct_s", "s"},
    {"setup.deploy_s", "s"},
    {"setup.warmup_s", "s"},
    {"setup.drain_s", "s"},
    {"setup.settle_s", "s"},
    {"other_ms", "ms"},
    {"trace.epoch_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

std::string unitOf(std::span<const MetricDef> defs, const std::string& name) {
  for (const MetricDef& d : defs) {
    if (name == d.name) return d.unit;
  }
  return "";
}

/// Appends `value` under `name`, taking the unit from the table.
struct MetricSink {
  std::span<const MetricDef> defs;
  std::vector<Metric>& out;
  void operator()(const std::string& name, double value) const {
    out.push_back(Metric{name, value, unitOf(defs, name)});
  }
};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t delta(std::uint64_t after, std::uint64_t before) {
  return after >= before ? after - before : 0;
}

/// Operations counted against attempts: VIP/RIP requests (failed when
/// rejected, shed, expired or cancelled) plus sessions (failed when
/// rejected or broken).
void countOperations(const WindowResult& w, RunReport& rep) {
  const Counters& a = w.after;
  const Counters& b = w.before;
  const std::uint64_t shed = delta(a.shed, b.shed);
  const std::uint64_t cancelled =
      delta(a.requestsCancelled, b.requestsCancelled);
  rep.attempted += delta(a.requestsProcessed, b.requestsProcessed) + shed +
                   cancelled + delta(a.sessionArrivals, b.sessionArrivals);
  rep.failed += delta(a.requestsRejected, b.requestsRejected) + shed +
                cancelled + delta(a.sessionRejected, b.sessionRejected) +
                delta(a.sessionBroken, b.sessionBroken);
  // Every epoch is an operation too, so a window without control traffic
  // still reports what it attempted.
  rep.attempted += w.epochMs.size();
}

void gate(RunReport& rep, bool ok, const std::string& what) {
  if (!ok) {
    rep.correct = false;
    rep.problems.push_back(what);
  }
}

void gateWindow(RunReport& rep, const World& world, const WindowResult& w,
                const char* label) {
  std::string first;
  if (!world.firstViolations().empty()) first = ": " + world.firstViolations()[0];
  gate(rep, w.violations == 0,
       std::string(label) + " window: " + std::to_string(w.violations) +
           " invariant violations" + first);
  if (world.spec().stormWaves > 0) {
    gate(rep, w.recovery.has_value(),
         std::string(label) + " window: storm never quiesced");
  }
  gate(rep, !w.epochMs.empty(), std::string(label) + " window: no epochs");
}

}  // namespace

std::span<const MetricDef> endToEndMetrics() { return kEndToEnd; }
std::span<const MetricDef> perLayerMetrics() { return kPerLayer; }

double percentile(std::span<const double> xs, double pct) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(pct, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double ratio(double num, double den, double fallback) {
  return den == 0.0 ? fallback : num / den;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double hostProbeMs() {
  // A fixed hash-map insert/find kernel over an 8 MiB open-addressing
  // table that is allocated once, so the probe's speed depends on the
  // machine and not on the heap the simulator left behind.
  constexpr std::size_t kSlots = 1u << 19;
  constexpr std::uint64_t kKeys = kSlots / 2;
  static std::vector<std::uint64_t> table(2 * kSlots);
  const auto t0 = Clock::now();
  std::fill(table.begin(), table.end(), 0);
  const auto slotOf = [](std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 45);
  };
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t key = x | 1;
    std::size_t s = slotOf(key);
    while (table[2 * s] != 0 && table[2 * s] != key) s = (s + 1) % kSlots;
    table[2 * s] = key;
    table[2 * s + 1] = i;
  }
  std::uint64_t found = 0;
  x = 1;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t key = x | 1;
    std::size_t s = slotOf(key);
    while (table[2 * s] != 0 && table[2 * s] != key) s = (s + 1) % kSlots;
    found += table[2 * s] == key;
  }
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return found == kKeys ? ms : -ms;  // a negative time flags a broken probe
}

RunReport runBenchmark(const Spec& spec, std::uint32_t setups, bool traced) {
  RunReport rep;
  std::vector<double> setupS;
  std::vector<std::uint64_t> setupHashes;
  const auto setUp = [&](World& w) {
    setupS.push_back(w.setupTimes().total());
    setupHashes.push_back(w.stateHash());
  };

  // Set-up only worlds: set-up time is reported as a median.
  const std::uint32_t extra = traced ? 0 : std::max(1u, setups) - 1;
  for (std::uint32_t i = 0; i < extra; ++i) {
    World w(spec);
    setUp(w);
  }

  std::optional<WindowResult> untraced;
  std::optional<WindowResult> tracedRun;
  SetupTimes tracedSetup;
  unsigned engineWorkers = 0;
  unsigned sessionWorkers = 0;
  {
    World w(spec);
    setUp(w);
    engineWorkers = w.dc().engine->workerCount();
    sessionWorkers = w.dc().sessions ? w.dc().sessions->workerCount() : 0;
    untraced = runWindow(w, false);
    gateWindow(rep, w, *untraced, "untraced");
  }
  if (traced) {
    World w(spec);
    setUp(w);
    tracedSetup = w.setupTimes();
    tracedRun = runWindow(w, true);
    gateWindow(rep, w, *tracedRun, "traced");
    gate(rep, tracedRun->hash == untraced->hash,
         "traced run hash " + hex(tracedRun->hash) +
             " != untraced run hash " + hex(untraced->hash));
    gate(rep, tracedRun->layers->scheduleMismatches == 0,
         std::to_string(tracedRun->layers->scheduleMismatches) +
             " firing instants disagree with the program's schedule");
  }
  for (const std::uint64_t h : setupHashes) {
    gate(rep, h == setupHashes.front(),
         "set-ups of one seed reached different states");
  }

  const WindowResult& u = *untraced;
  countOperations(u, rep);
  const double p50 = percentile(u.epochMs, 50.0);

  if (!traced) {
    const MetricSink put{kEndToEnd, rep.metrics};
    put("epoch_ms_p50", p50);
    put("epoch_ms_p95", percentile(u.epochMs, 95.0));
    put("setup_s", median(setupS));
    put("peak_rss_mb", peakRssMb());
  } else {
    const WindowResult& t = *tracedRun;
    const Counters& a = t.after;
    const Counters& b = t.before;
    const double epochs = static_cast<double>(t.epochMs.size());
    const MetricSink put{kPerLayer, rep.metrics};
    put("served_ratio", ratio(t.servedRps, t.offeredRps, 1.0));
    double named = 0.0;
    for (const auto& [name, ms] : t.layers->ms) {
      if (name == "other_ms") continue;
      // Phases are already inside engine.step_ms.
      const bool phase = name.rfind("engine.", 0) == 0 && name != "engine.step_ms";
      if (!phase) named += ms;
    }
    const double tracedMean = t.layers->tracedTotalMs / epochs;
    for (const MetricDef& d : kPerLayer) {
      const std::string name = d.name;
      const auto it = t.layers->ms.find(name);
      if (it != t.layers->ms.end() && name != "other_ms") {
        put(name, it->second / epochs);
      }
    }
    // Whatever the named layers did not cover: coinciding loops and the
    // slicing's own bookkeeping.
    put("other_ms", (t.layers->tracedTotalMs - named) / epochs);
    const double recomputed =
        static_cast<double>(delta(a.appsRecomputed, b.appsRecomputed));
    const double cached = static_cast<double>(delta(a.appsCached, b.appsCached));
    put("engine.apps_recomputed", recomputed);
    put("engine.cache_hit_ratio", ratio(cached, cached + recomputed));
    const double arrivals =
        static_cast<double>(delta(a.sessionArrivals, b.sessionArrivals));
    put("session.arrivals", arrivals);
    put("session.active", static_cast<double>(a.sessionActive));
    put("session_admit_ratio",
        ratio(arrivals - static_cast<double>(
                             delta(a.sessionRejected, b.sessionRejected)),
              arrivals));
    put("pod.placement_changes",
        static_cast<double>(t.layers->placementChanges));
    put("viprip.requests_processed",
        static_cast<double>(delta(a.requestsProcessed, b.requestsProcessed)));
    put("viprip.requests_rejected",
        static_cast<double>(delta(a.requestsRejected, b.requestsRejected)));
    put("ctrl_request_p99_s", t.requestP99);
    const double sent = static_cast<double>(delta(a.commandsSent, b.commandsSent));
    put("ctrl.commands_sent", sent);
    put("ctrl.retransmits",
        static_cast<double>(delta(a.retransmits, b.retransmits)));
    put("ctrl.timeouts", static_cast<double>(delta(a.timeouts, b.timeouts)));
    put("ctrl.ack_ratio",
        ratio(static_cast<double>(delta(a.acks, b.acks)), sent));
    put("admission.rounds",
        static_cast<double>(delta(a.admissionRounds, b.admissionRounds)));
    put("admission.admitted", static_cast<double>(delta(a.admitted, b.admitted)));
    put("admission.shed", static_cast<double>(delta(a.shed, b.shed)));
    put("admission.deadline_expired",
        static_cast<double>(delta(a.expired, b.expired)));
    put("state.changelog_records", static_cast<double>(a.changelogRecords));
    put("state.changelog_bytes", static_cast<double>(a.changelogBytes));
    put("state.replayed_records",
        static_cast<double>(delta(a.replayed, b.replayed)));
    put("fault.faults_injected",
        static_cast<double>(delta(a.faultsInjected, b.faultsInjected)));
    put("fault.repairs_applied",
        static_cast<double>(delta(a.repairsApplied, b.repairsApplied)));
    put("recovery_s", t.recovery.value_or(0.0));
    put("sim.events_per_epoch",
        static_cast<double>(delta(a.events, b.events)) / epochs);
    put("setup.construct_s", tracedSetup.construct);
    put("setup.deploy_s", tracedSetup.deploy);
    put("setup.warmup_s", tracedSetup.warmup);
    put("setup.drain_s", tracedSetup.drain);
    put("setup.settle_s", tracedSetup.settle);
    put("trace.epoch_ms", tracedMean);
    put("trace.overhead_ratio", ratio(percentile(t.epochMs, 50.0), p50));
  }
  for (const Metric& m : rep.metrics) {
    gate(rep, std::isfinite(m.value), m.name + " is not finite");
  }

  // Diagnostics, so a noisy verdict can be traced to the machine.
  const auto info = [&rep](const std::string& key, const std::string& json) {
    rep.info.emplace_back(key, json);
  };
  info("workload", quoted(workloadName(spec.workload)));
  info("seed", std::to_string(spec.seed));
  info("apps", std::to_string(spec.config.numApps));
  info("epochs", std::to_string(spec.epochs));
  info("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  info("hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency()));
  info("build_type", quoted(PERFBENCH_BUILD_TYPE));
  info("compiler", quoted(PERFBENCH_COMPILER));
  info("engine_workers", std::to_string(engineWorkers));
  info("session_workers", std::to_string(sessionWorkers));
  info("run_hash", quoted(hex(u.hash)));
  info("gate_s", number(u.gateSeconds));
  info("probe_ms_before", number(u.probeMsBefore));
  info("probe_ms_after", number(u.probeMsAfter));
  std::string setupList = "[";
  for (std::size_t i = 0; i < setupS.size(); ++i) {
    setupList += (i ? ", " : "") + number(setupS[i]);
  }
  info("setup_s_each", setupList + "]");
  if (u.recovery) info("recovery_s", number(*u.recovery));
  if (tracedRun) {
    // The part of other_ms spent at instants where several loops fire.
    info("trace_cofiring_ms",
         number(tracedRun->layers->ms["other_ms"] /
                static_cast<double>(tracedRun->epochMs.size())));
  }
  std::string problems = "[";
  for (std::size_t i = 0; i < rep.problems.size(); ++i) {
    problems += (i ? ", " : "") + quoted(rep.problems[i]);
  }
  info("problems", problems + "]");
  return rep;
}

std::string resultJson(const RunReport& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out << (i ? ", " : "") << quoted(m.name) << ": {\"value\": "
        << number(std::isfinite(m.value) ? m.value : 0.0)
        << ", \"unit\": " << quoted(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

std::string infoJson(const RunReport& r) {
  std::ostringstream out;
  out << "{\"info\": {";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    out << (i ? ", " : "") << quoted(r.info[i].first) << ": "
        << r.info[i].second;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
