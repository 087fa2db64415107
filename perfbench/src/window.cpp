// The firing-instant calculator and the timed windows.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>

#include "perfbench.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using mdc::PhaseProfiler;

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

constexpr std::uint32_t bit(Loop l) { return 1u << static_cast<unsigned>(l); }

/// Wall ns of each engine phase so far (the profiler accumulates).
std::array<std::uint64_t, PhaseProfiler::kPhases> phaseNs(
    const mdc::FluidEngine& engine) {
  std::array<std::uint64_t, PhaseProfiler::kPhases> out{};
  for (std::size_t p = 0; p < out.size(); ++p) {
    out[p] = engine.profiler().ns(static_cast<PhaseProfiler::Phase>(p));
  }
  return out;
}

constexpr std::array<const char*, PhaseProfiler::kPhases> kPhaseMetric = {
    "engine.validate_ms", "engine.descent_ms", "engine.emit_ms",
    "engine.emit_buckets_ms", "engine.merge_ms", "engine.serve_ms"};

/// The layer a lone loop's instant is charged to.
const char* layerOf(Loop l) {
  switch (l) {
    case Loop::Session:
      return "session.tick_ms";
    case Loop::Pod:
      return "pod.control_loop_ms";
    case Loop::InterPod:
      return "interpod.run_ms";
    case Loop::Link:
      return "link.run_ms";
    case Loop::Switch:
      return "switch.run_ms";
    case Loop::Reconciler:
      return "reconciler.audit_ms";
    case Loop::Snapshot:
      return "state.snapshot_ms";
    case Loop::Health:
      return "health.heartbeat_ms";
    case Loop::Engine:
    case Loop::Lease:
      break;
  }
  return "other_ms";
}

}  // namespace

// --- Schedule ----------------------------------------------------------------

Schedule::Schedule(const mdc::MegaDcConfig& config, std::size_t pods,
                   SimTime startedAt)
    : epoch_(config.engine.epoch) {
  // Mirrors the registration order and phase arithmetic of
  // GlobalManager::start(), SessionEngine::start(), FluidEngine::start()
  // and the health monitor's start in MegaDc::start().
  const mdc::GlobalManager::Options& m = config.manager;
  const auto add = [&](Loop l, SimTime phase, SimTime period,
                       std::uint32_t pod = 0) {
    clocks_.push_back(Clock{l, pod, startedAt + phase, period});
  };
  if (m.enableInterPodBalancer && pods > 0) {
    add(Loop::InterPod, m.interPod.period * 0.5, m.interPod.period);
  }
  if (m.enablePodLoops) {
    double phase = 0.0;
    for (std::uint32_t i = 0; i < pods; ++i) {
      add(Loop::Pod, phase, m.pod.controlPeriod, i);
      phase += m.pod.controlPeriod / (static_cast<double>(pods) + 1.0);
    }
  }
  if (m.enableLinkBalancer) add(Loop::Link, m.link.period * 0.25, m.link.period);
  if (m.enableSwitchBalancer) {
    add(Loop::Switch, m.switchBalancer.period * 0.75, m.switchBalancer.period);
  }
  if (m.enableReconciler) {
    add(Loop::Reconciler, m.reconciler.periodSeconds * 0.4,
        m.reconciler.periodSeconds);
  }
  if (m.failover.enable) add(Loop::Lease, 0.0, m.failover.renewSeconds);
  if (m.snapshot.enable) {
    add(Loop::Snapshot, m.snapshot.periodSeconds * 0.6,
        m.snapshot.periodSeconds);
  }
  if (config.enableSessionEngine) add(Loop::Session, 0.0, config.session.tick);
  add(Loop::Engine, 0.0, config.engine.epoch);
  if (config.enableHealthMonitor) {
    add(Loop::Health, 0.25 * config.health.heartbeatInterval,
        config.health.heartbeatInterval);
  }
  engineNext_ = startedAt;
}

std::vector<Firing> Schedule::between(SimTime from, SimTime to) {
  std::vector<Firing> out;
  for (Clock& c : clocks_) {
    while (c.next <= from) c.next = c.next + c.period;
    for (; c.next <= to; c.next = c.next + c.period) {
      auto it = std::lower_bound(
          out.begin(), out.end(), c.next,
          [](const Firing& f, SimTime t) { return f.at < t; });
      if (it == out.end() || it->at != c.next) {
        it = out.insert(it, Firing{c.next, 0, {}});
      }
      it->loops |= bit(c.loop);
      if (c.loop == Loop::Pod) it->pods.push_back(c.pod);
    }
  }
  return out;
}

SimTime Schedule::engineInstantAtOrAfter(SimTime t) {
  while (engineNext_ < t) engineNext_ = engineNext_ + epoch_;
  return engineNext_;
}

// --- counters ----------------------------------------------------------------

Counters Counters::read(mdc::MegaDc& dc) {
  Counters c;
  const mdc::VipRipManager& vr = dc.manager->viprip();
  c.events = dc.sim.eventsExecuted();
  c.appsRecomputed = dc.engine->appsRecomputed();
  c.appsCached = dc.engine->appsFromCache();
  if (dc.sessions) {
    c.sessionArrivals = dc.sessions->totalArrivals();
    c.sessionRejected = dc.sessions->rejectedSessions();
    c.sessionBroken = dc.sessions->brokenSessions();
    c.sessionActive = dc.sessions->activeSessions();
  }
  c.requestsProcessed = vr.processedRequests();
  c.requestsRejected = vr.rejectedRequests();
  c.requestsCancelled = vr.cancelledRequests();
  c.commandsSent = vr.ctrlSender().commandsSent();
  c.acks = vr.ctrlSender().acksReceived();
  c.retransmits = vr.ctrlSender().retransmits();
  c.timeouts = vr.ctrlSender().timeouts();
  const mdc::AdmissionController& adm = vr.admission();
  c.admissionRounds = adm.rounds();
  c.admitted = adm.admitted();
  c.shed = adm.shed();
  c.expired = adm.deadlineExpired();
  auto& machine = dc.manager->viprip().stateMachine();
  c.changelogRecords = machine.changelog().size();
  c.changelogBytes = machine.changelog().bytes();
  c.replayed = machine.replayedRecordsTotal();
  c.faultsInjected = dc.faults->faultsInjected();
  c.repairsApplied = dc.faults->repairsApplied();
  return c;
}

// --- windows -----------------------------------------------------------------

namespace {

/// Advances one epoch in slices around each firing instant and charges
/// every slice to a layer.  Returns the host ms of the whole epoch.
double tracedEpoch(World& world, SimTime from, SimTime to, LayerTimes& lt) {
  mdc::MegaDc& dc = world.dc();
  const std::vector<Firing> firings = world.schedule().between(from, to);
  const auto epochStart = Clock::now();
  for (const Firing& f : firings) {
    auto t0 = Clock::now();
    dc.runUntil(std::nextafter(f.at, -std::numeric_limits<double>::infinity()));
    auto t1 = Clock::now();
    lt.ms["ctrl.async_ms"] += msBetween(t0, t1);

    const auto phasesBefore = phaseNs(*dc.engine);
    const auto stepsBefore =
        dc.engine->profiler().calls(PhaseProfiler::Phase::Validate);
    const auto eventsBefore = dc.sim.eventsExecuted();
    t0 = Clock::now();
    dc.runUntil(f.at);
    t1 = Clock::now();
    const double instantMs = msBetween(t0, t1);
    const auto phasesAfter = phaseNs(*dc.engine);
    // Every predicted loop is one event at this instant (each pod its
    // own), and only engine instants step the engine.
    const auto steps =
        dc.engine->profiler().calls(PhaseProfiler::Phase::Validate) -
        stepsBefore;
    const auto predicted = static_cast<std::uint64_t>(
        std::popcount(f.loops) +
        (f.pods.empty() ? 0 : static_cast<int>(f.pods.size()) - 1));
    if (steps != (f.has(Loop::Engine) ? 1u : 0u) ||
        dc.sim.eventsExecuted() - eventsBefore < predicted) {
      ++lt.scheduleMismatches;
    }

    for (std::uint32_t pod : f.pods) {
      lt.placementChanges +=
          dc.manager->pods()[pod]->stats().placementChanges;
    }

    // Loops other than the engine and its lease renewal.
    const std::uint32_t others =
        f.loops & ~(bit(Loop::Engine) | bit(Loop::Lease));
    if (f.has(Loop::Engine)) {
      double stepMs = 0.0;
      for (std::size_t p = 0; p < phasesAfter.size(); ++p) {
        const double ms =
            static_cast<double>(phasesAfter[p] - phasesBefore[p]) / 1e6;
        lt.ms[kPhaseMetric[p]] += ms;
        stepMs += ms;
      }
      lt.ms["engine.step_ms"] += stepMs;
      // The sink (manager + health observe) and the lease renewal; a
      // loop firing at the same instant makes the remainder unattributable.
      lt.ms[others == 0 ? "manager.observe_ms" : "other_ms"] +=
          instantMs - stepMs;
    } else if (others != 0 && (others & (others - 1)) == 0) {
      const auto loop = static_cast<Loop>(std::countr_zero(others));
      lt.ms[layerOf(loop)] += instantMs;
    } else {
      lt.ms["other_ms"] += instantMs;
    }
  }
  if (dc.sim.now() < to) {
    const auto t0 = Clock::now();
    dc.runUntil(to);
    lt.ms["ctrl.async_ms"] += msBetween(t0, Clock::now());
  }
  const double epochMs = msBetween(epochStart, Clock::now());
  lt.tracedTotalMs += epochMs;
  return epochMs;
}

}  // namespace

WindowResult runWindow(World& world, bool traced) {
  mdc::MegaDc& dc = world.dc();
  const Spec& spec = world.spec();
  WindowResult r;
  r.epochMs.reserve(spec.epochs);
  if (traced) {
    r.layers.emplace();
    for (const char* name : kPhaseMetric) r.layers->ms[name] = 0.0;
    for (const char* name :
         {"engine.step_ms", "manager.observe_ms", "session.tick_ms",
          "pod.control_loop_ms", "interpod.run_ms", "link.run_ms",
          "switch.run_ms", "reconciler.audit_ms", "state.snapshot_ms",
          "health.heartbeat_ms", "ctrl.async_ms", "other_ms"}) {
      r.layers->ms[name] = 0.0;
    }
    dc.engine->profiler().reset();
    dc.engine->profiler().setEnabled(true);
  }

  r.probeMsBefore = hostProbeMs();
  r.before = Counters::read(dc);
  SimTime now = world.windowStart();
  // Discard firings at or before the window start (the set-up ran them).
  (void)world.schedule().between(-1.0, now);
  for (std::uint32_t e = 0; e < spec.epochs; ++e) {
    const SimTime next = world.schedule().engineInstantAtOrAfter(
        std::nextafter(now, std::numeric_limits<double>::infinity()));
    double ms = 0.0;
    if (traced) {
      ms = tracedEpoch(world, now, next, *r.layers);
    } else {
      const auto t0 = Clock::now();
      dc.runUntil(next);
      ms = msBetween(t0, Clock::now());
    }
    r.epochMs.push_back(ms);
    now = next;

    // Outside the timed section: correctness gate and served totals.
    world.checkEpoch();
    const mdc::EpochReport& rep = dc.engine->latest();
    r.offeredRps += rep.totalDemandRps();
    r.servedRps += rep.totalServedRps();
  }
  r.after = Counters::read(dc);
  r.probeMsAfter = hostProbeMs();
  if (traced) dc.engine->profiler().setEnabled(false);

  const mdc::Histogram& lat = dc.manager->viprip().requestLatency();
  r.requestP99 = lat.count() > 0 ? lat.quantile(0.99) : 0.0;
  if (spec.stormWaves > 0) r.recovery = world.healAndQuiesce(now);
  r.violations = world.violationCount();
  r.hash = world.runHash();
  r.gateSeconds = world.gateSeconds();
  return r;
}

}  // namespace perfbench
