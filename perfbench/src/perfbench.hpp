// End-to-end benchmark of the fully wired MegaDc (see ../README.md).
//
// One single-threaded process builds a world from a workload spec, sets
// it up, and drives it epoch by epoch through MegaDc's public API.  An
// untraced window yields the end-to-end metrics; a traced window of the
// same simulation attributes host time to each control loop by
// sim-time slicing: every loop fires at instants that follow from the
// config alone, so the benchmark advances the clock to just before each
// firing instant, then across it, and charges the time to the loops that
// fire there.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mdc/fault/chaos.hpp"
#include "mdc/scenario/megadc.hpp"

namespace perfbench {

using mdc::SimTime;

// --- workloads --------------------------------------------------------------

enum class Workload { Steady, DiurnalSessions, Storm };

[[nodiscard]] std::optional<Workload> parseWorkload(std::string_view name);
[[nodiscard]] const char* workloadName(Workload w);

/// Everything the program receives, generated from (workload, seed).
struct Spec {
  Workload workload = Workload::Steady;
  std::uint64_t seed = 1;
  mdc::MegaDcConfig config;
  /// Timed epochs per window.
  std::uint32_t epochs = 0;
  /// Sim seconds between bootstrap drain and the window (session fill).
  SimTime settleSeconds = 10.0;
  /// DiurnalDemand parameters (depth 0 = static Zipf demand).
  double diurnalDepth = 0.0;
  SimTime diurnalPeriod = 600.0;
  /// Chaos waves over the window (0 = none), then heal-and-quiesce.
  std::uint32_t stormWaves = 0;
};

/// The benchmark's world for `w` at `apps` applications.
[[nodiscard]] Spec makeSpec(Workload w, std::uint64_t seed,
                            std::uint32_t apps, std::uint32_t epochs);
/// The default scale of each workload, and the number of timed epochs
/// that takes about `seconds` of host time on the reference machine.
[[nodiscard]] std::uint32_t defaultApps(Workload w);
[[nodiscard]] std::uint32_t epochsFor(Workload w, double seconds);

// --- firing-instant calculator ---------------------------------------------

/// The control loops MegaDc::start() registers, one per layer the traced
/// run reports.  Lease renewals fire with the engine and are charged to
/// the manager slice.
enum class Loop : std::uint8_t {
  Engine,
  Lease,
  Session,
  Pod,
  InterPod,
  Link,
  Switch,
  Reconciler,
  Snapshot,
  Health,
};

/// One instant at which at least one loop fires.
struct Firing {
  SimTime at = 0.0;
  std::uint32_t loops = 0;  // bitmask over Loop
  std::vector<std::uint32_t> pods;  // pod indices firing here
  [[nodiscard]] bool has(Loop l) const noexcept {
    return (loops >> static_cast<unsigned>(l)) & 1u;
  }
};

/// Replays the periodic schedule MegaDc::start() sets up at `startedAt`:
/// each loop's first firing is startedAt + phase and every later one is
/// the previous instant + period, accumulated in doubles exactly as the
/// simulation re-arms its periodic events.
class Schedule {
 public:
  Schedule(const mdc::MegaDcConfig& config, std::size_t pods,
           SimTime startedAt);

  /// Every firing instant in (from, to], ascending; loops firing at the
  /// same instant share one entry.
  [[nodiscard]] std::vector<Firing> between(SimTime from, SimTime to);
  /// The first engine instant at or after `t`.
  [[nodiscard]] SimTime engineInstantAtOrAfter(SimTime t);

 private:
  struct Clock {
    Loop loop;
    std::uint32_t pod = 0;
    SimTime next = 0.0;
    SimTime period = 0.0;
  };
  std::vector<Clock> clocks_;
  SimTime engineNext_ = 0.0;
  SimTime epoch_ = 0.0;
};

// --- the world ---------------------------------------------------------------

/// Host seconds of each set-up phase.
struct SetupTimes {
  double construct = 0.0;
  double deploy = 0.0;
  double warmup = 0.0;  // warm-up run + start()
  double drain = 0.0;   // bootstrap command drain
  double settle = 0.0;  // until the window (the session fill)
  [[nodiscard]] double total() const {
    return construct + deploy + warmup + drain + settle;
  }
};

/// A MegaDc built from a Spec and set up to the start of its window.
class World {
 public:
  explicit World(const Spec& spec);

  [[nodiscard]] mdc::MegaDc& dc() noexcept { return *dc_; }
  [[nodiscard]] const Spec& spec() const noexcept { return spec_; }
  [[nodiscard]] const SetupTimes& setupTimes() const noexcept {
    return times_;
  }
  [[nodiscard]] SimTime windowStart() const noexcept { return windowStart_; }
  [[nodiscard]] Schedule& schedule() noexcept { return *schedule_; }
  /// Hash of the engine's latest report (the state the window starts in).
  [[nodiscard]] std::uint64_t stateHash() const;

  /// Per-epoch correctness gate (outside timed sections): counts the
  /// invariant violations and folds the epoch's report into the run hash.
  void checkEpoch();
  [[nodiscard]] std::uint64_t violationCount() const noexcept {
    return violationCount_;
  }
  [[nodiscard]] std::uint64_t runHash() const noexcept { return runHash_; }
  /// Host seconds spent in checkEpoch() (untimed, reported as a diagnostic).
  [[nodiscard]] double gateSeconds() const noexcept { return gateSeconds_; }
  [[nodiscard]] const std::vector<std::string>& firstViolations() const {
    return violations_;
  }

  /// Storm only: heal the channel and run until checkQuiesced() is clean.
  /// Returns the simulated seconds from `stormEnd` until then, or
  /// nullopt if it never quiesced.
  std::optional<SimTime> healAndQuiesce(SimTime stormEnd);

 private:
  Spec spec_;
  std::unique_ptr<mdc::MegaDc> dc_;
  std::unique_ptr<Schedule> schedule_;
  // Declared after dc_: holds references into the world.
  std::unique_ptr<mdc::WorldInvariants> invariants_;
  SetupTimes times_;
  SimTime windowStart_ = 0.0;
  std::uint64_t runHash_ = 0;
  std::uint64_t violationCount_ = 0;
  double gateSeconds_ = 0.0;
  std::vector<std::string> violations_;
};

// --- windows -----------------------------------------------------------------

/// Host ms per layer over a traced window, summed over its epochs.
struct LayerTimes {
  std::map<std::string, double> ms;
  double tracedTotalMs = 0.0;
  std::uint64_t placementChanges = 0;
  /// Firing instants at which the program did not run what the calculator
  /// predicted (an engine step exactly at engine instants, and at least
  /// one event per predicted loop); nonzero means it is out of step.
  std::uint64_t scheduleMismatches = 0;
};

/// Counters read before and after the window.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t appsRecomputed = 0, appsCached = 0;
  std::uint64_t sessionArrivals = 0, sessionRejected = 0,
                sessionBroken = 0, sessionActive = 0;
  std::uint64_t requestsProcessed = 0, requestsRejected = 0,
                requestsCancelled = 0;
  std::uint64_t commandsSent = 0, acks = 0, retransmits = 0, timeouts = 0;
  std::uint64_t admissionRounds = 0, admitted = 0, shed = 0, expired = 0;
  std::uint64_t changelogRecords = 0, changelogBytes = 0, replayed = 0;
  std::uint64_t faultsInjected = 0, repairsApplied = 0;
  [[nodiscard]] static Counters read(mdc::MegaDc& dc);
};

struct WindowResult {
  std::vector<double> epochMs;
  double offeredRps = 0.0;  // summed over epochs
  double servedRps = 0.0;
  Counters before, after;
  double requestP99 = 0.0;  // sim seconds, whole run's histogram
  std::uint64_t violations = 0;
  std::optional<SimTime> recovery;  // storm only
  std::uint64_t hash = 0;
  double gateSeconds = 0.0;  // host seconds in the per-epoch gates
  std::optional<LayerTimes> layers;  // traced windows only
  double probeMsBefore = 0.0, probeMsAfter = 0.0;
};

/// Runs the timed window on a set-up world (and, for the storm, the
/// heal-and-quiesce after it).  `traced` slices every epoch by firing
/// instant and enables the engine's phase profiler.
[[nodiscard]] WindowResult runWindow(World& world, bool traced);

// --- helpers -------------------------------------------------------------

/// Linear-interpolation percentile (pct in [0, 100]); 0 for empty input.
[[nodiscard]] double percentile(std::span<const double> xs, double pct);
[[nodiscard]] double median(std::span<const double> xs);
/// num / den, or `fallback` when den is 0.
[[nodiscard]] double ratio(double num, double den, double fallback = 0.0);
/// Peak resident set of this process in MiB.
[[nodiscard]] double peakRssMb();
/// Host-speed probe: ms for a fixed hash-map insert/find kernel.
[[nodiscard]] double hostProbeMs();

/// A named metric value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The metric names and units the benchmark reports, per mode.
struct MetricDef {
  const char* name;
  const char* unit;
};
[[nodiscard]] std::span<const MetricDef> endToEndMetrics();
[[nodiscard]] std::span<const MetricDef> perLayerMetrics();

/// What one invocation measured.
struct RunReport {
  bool correct = true;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;  // JSON fragments
};

/// Runs one invocation: `setups` set-ups (the last one also runs the
/// untraced window), plus a separately set-up traced window when `traced`.
[[nodiscard]] RunReport runBenchmark(const Spec& spec, std::uint32_t setups,
                                     bool traced);

/// The final result line: {"correct","attempted","failed","metrics"}.
[[nodiscard]] std::string resultJson(const RunReport& r);
/// A diagnostics line: {"info": {...}}.
[[nodiscard]] std::string infoJson(const RunReport& r);

}  // namespace perfbench
