// Tests for the observability layer: the trace ring's wrap/overflow
// accounting, the metrics registry's ownership and callback semantics,
// the exporters' formats, causal trace continuity through channel
// misbehavior (retry, duplicate delivery, term fencing), and the
// registry-vs-EpochReport equivalence on a long run.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mdc/ctrl/command_sender.hpp"
#include "mdc/ctrl/control_channel.hpp"
#include "mdc/obs/export.hpp"
#include "mdc/obs/metrics_registry.hpp"
#include "mdc/obs/phase_profiler.hpp"
#include "mdc/obs/trace.hpp"
#include "mdc/scenario/megadc.hpp"

namespace mdc {
namespace {

// --- trace ring ------------------------------------------------------------

TEST(TraceRing, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing{1}.capacity(), 2u);
  EXPECT_EQ(TraceRing{2}.capacity(), 2u);
  EXPECT_EQ(TraceRing{5}.capacity(), 8u);
  EXPECT_EQ(TraceRing{8}.capacity(), 8u);
  EXPECT_EQ(TraceRing{1000}.capacity(), 1024u);
}

TEST(TraceRing, WrapOverwritesOldestAndCountsLoss) {
  TraceRing ring{4};
  for (std::uint64_t i = 0; i < 11; ++i) {
    TraceEvent e;
    e.trace = 1;
    e.a = i;
    ring.push(e);
  }
  EXPECT_EQ(ring.total(), 11u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.overwritten(), 7u);

  // Snapshot returns the survivors oldest first: events 7..10.
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 7u + i);
  }
}

TEST(TraceRing, BeforeWrapNothingIsLost) {
  TraceRing ring{8};
  for (std::uint64_t i = 0; i < 3; ++i) {
    TraceEvent e;
    e.a = i;
    ring.push(e);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.overwritten(), 0u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().a, 0u);
  EXPECT_EQ(events.back().a, 2u);

  ring.clear();
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, EventCodeTruncatesSafely) {
  TraceEvent e;
  const std::string tooLong(2 * sizeof(e.code), 'x');
  e.setCode(tooLong.c_str());
  EXPECT_EQ(std::string(e.code), tooLong.substr(0, sizeof(e.code) - 1));
  e.setCode(nullptr);
  EXPECT_EQ(std::string(e.code), "");
}

TEST(Tracer, DisabledMintsNothingAndRecordsNothing) {
  Simulation sim;
  Tracer tracer{sim, Tracer::Options{16, false}};
  EXPECT_EQ(tracer.begin(), 0u);
  EXPECT_EQ(tracer.newSpan(), 0u);
  tracer.record(1, 1, 0, HopKind::CmdSend, "x");
  EXPECT_EQ(tracer.ring().total(), 0u);

  tracer.setEnabled(true);
  const TraceId t = tracer.begin();
  EXPECT_NE(t, 0u);
  tracer.record(t, tracer.newSpan(), 0, HopKind::CmdSend, "x");
  EXPECT_EQ(tracer.ring().total(), 1u);
  // An untraced command (trace 0) stays invisible even when enabled.
  tracer.record(0, 1, 0, HopKind::CmdSend, "x");
  EXPECT_EQ(tracer.ring().total(), 1u);
}

// --- metrics registry ------------------------------------------------------

TEST(MetricsRegistry, OwnedCellsAreGetOrCreate) {
  MetricsRegistry reg;
  Counter& c = reg.counter("mdc.test.count");
  c.inc();
  c.inc(3);
  EXPECT_EQ(&reg.counter("mdc.test.count"), &c);  // same cell
  EXPECT_DOUBLE_EQ(reg.value("mdc.test.count"), 4.0);

  Gauge& g = reg.gauge("mdc.test.level", {{"pod", "0"}});
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(reg.value("mdc.test.level", {{"pod", "0"}}), 3.0);
  // Different labels, different cell.
  reg.gauge("mdc.test.level", {{"pod", "1"}}).set(9.0);
  EXPECT_DOUBLE_EQ(reg.value("mdc.test.level", {{"pod", "0"}}), 3.0);
  EXPECT_DOUBLE_EQ(reg.value("mdc.test.level", {{"pod", "1"}}), 9.0);

  Histogram& h = reg.histogram("mdc.test.latency", 0.001, 10.0);
  h.record(0.5);
  h.record(2.0);
  EXPECT_DOUBLE_EQ(reg.value("mdc.test.latency"), 2.0);  // observation count

  EXPECT_TRUE(reg.has("mdc.test.count"));
  EXPECT_FALSE(reg.has("mdc.test.count", {{"pod", "0"}}));
  EXPECT_EQ(reg.metricCount(), 4u);
}

TEST(MetricsRegistry, KeyCanonicalizesLabelOrder) {
  const std::string a =
      MetricsRegistry::keyOf("m", {{"b", "2"}, {"a", "1"}});
  const std::string b =
      MetricsRegistry::keyOf("m", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, "m{a=1,b=2}");
  EXPECT_EQ(MetricsRegistry::keyOf("m", {}), "m");
}

TEST(MetricsRegistry, CallbackReRegistrationReplaces) {
  MetricsRegistry reg;
  int generation = 1;
  reg.registerGauge("mdc.test.cb", [&generation] {
    return static_cast<double>(generation) * 10.0;
  });
  EXPECT_DOUBLE_EQ(reg.value("mdc.test.cb"), 10.0);
  generation = 2;
  EXPECT_DOUBLE_EQ(reg.value("mdc.test.cb"), 20.0);

  // A component rebuild re-registers the same key: the new callback wins
  // and the metric count stays flat.
  reg.registerGauge("mdc.test.cb", [] { return 77.0; });
  EXPECT_DOUBLE_EQ(reg.value("mdc.test.cb"), 77.0);
  EXPECT_EQ(reg.metricCount(), 1u);
}

TEST(MetricsRegistry, SnapshotIsSortedByKey) {
  MetricsRegistry reg;
  reg.counter("mdc.z.last").inc();
  reg.gauge("mdc.a.first").set(1.0);
  reg.registerGauge("mdc.m.mid", [] { return 5.0; });
  const auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "mdc.a.first");
  EXPECT_EQ(samples[1].name, "mdc.m.mid");
  EXPECT_DOUBLE_EQ(samples[1].value, 5.0);
  EXPECT_EQ(samples[2].name, "mdc.z.last");
}

// --- exporters -------------------------------------------------------------

TEST(ObsExport, JsonEscape) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(ObsExport, SpanJsonlOneLinePerEvent) {
  Simulation sim;
  Tracer tracer{sim, Tracer::Options{16, true}};
  const TraceId t = tracer.begin();
  const SpanId root = tracer.newSpan();
  tracer.record(t, root, 0, HopKind::RequestSubmitted, "NewVip", 3, 1);
  const SpanId child = tracer.newSpan();
  tracer.record(t, child, root, HopKind::CmdSend, "ConfigureVip", 0, 1);
  tracer.record(t, child, root, HopKind::CmdAcked, "acked", 0, 1);

  std::ostringstream out;
  EXPECT_EQ(exportSpansJsonl(tracer.ring(), out), 3u);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"hop\":\"request_submitted\""), std::string::npos);
  EXPECT_NE(text.find("\"hop\":\"cmd_acked\""), std::string::npos);
  EXPECT_NE(text.find("\"code\":\"NewVip\""), std::string::npos);
  // Exactly three newline-terminated records.
  std::size_t lines = 0;
  for (const char ch : text) lines += (ch == '\n') ? 1u : 0u;
  EXPECT_EQ(lines, 3u);
}

TEST(ObsExport, MetricsJsonlAndTimeSeriesCsv) {
  MetricsRegistry reg;
  reg.counter("mdc.test.count").inc(7);
  reg.gauge("mdc.test.level", {{"pod", "0"}}).set(1.5);
  std::ostringstream mout;
  EXPECT_EQ(exportMetricsJsonl(reg, mout), 2u);
  EXPECT_NE(mout.str().find("\"name\":\"mdc.test.count\""),
            std::string::npos);
  EXPECT_NE(mout.str().find("\"pod\":\"0\""), std::string::npos);

  TimeSeries s{"served"};
  s.record(0.0, 1.0);
  s.record(2.0, 3.0);
  const TimeSeries* series[] = {&s, nullptr};
  std::ostringstream cout_;
  EXPECT_EQ(exportTimeSeriesCsv(series, cout_), 2u);  // rows, not header
  EXPECT_NE(cout_.str().find("series,time,value"), std::string::npos);
  EXPECT_NE(cout_.str().find("served,2,3"), std::string::npos);
}

// --- phase profiler --------------------------------------------------------

TEST(PhaseProfiler, AccumulatesOnlyWhenEnabled) {
  PhaseProfiler prof;
  { const auto s = prof.time(PhaseProfiler::Phase::Descent); }
  EXPECT_EQ(prof.calls(PhaseProfiler::Phase::Descent), 0u);

  prof.setEnabled(true);
  { const auto s = prof.time(PhaseProfiler::Phase::Descent); }
  { const auto s = prof.time(PhaseProfiler::Phase::Descent); }
  EXPECT_EQ(prof.calls(PhaseProfiler::Phase::Descent), 2u);
  EXPECT_EQ(prof.calls(PhaseProfiler::Phase::Serve), 0u);

  MetricsRegistry reg;
  prof.registerWith(reg);
  EXPECT_DOUBLE_EQ(
      reg.value("mdc.engine.phase_calls", {{"phase", "a1_descent"}}), 2.0);

  prof.reset();
  EXPECT_EQ(prof.calls(PhaseProfiler::Phase::Descent), 0u);
  EXPECT_EQ(prof.ns(PhaseProfiler::Phase::Descent), 0u);
}

// --- trace continuity through channel misbehavior --------------------------

// Events of one command span, in ring (= causal, single-threaded) order.
std::vector<TraceEvent> spanEvents(const Tracer& tracer, SpanId span) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : tracer.ring().snapshot()) {
    if (e.span == span) out.push_back(e);
  }
  return out;
}

std::size_t countHops(const std::vector<TraceEvent>& events, HopKind hop) {
  std::size_t n = 0;
  for (const TraceEvent& e : events) n += (e.hop == hop) ? 1u : 0u;
  return n;
}

std::size_t countTerminals(const std::vector<TraceEvent>& events) {
  std::size_t n = 0;
  for (const TraceEvent& e : events) n += isCommandTerminal(e.hop) ? 1u : 0u;
  return n;
}

TEST(Tracing, RetryReplaysOnTheSameSpanUntilAcked) {
  Simulation sim;
  SwitchFleet fleet;
  const SwitchId sw = fleet.addSwitch(SwitchLimits{});
  ControlChannel channel{sim, 21};
  CommandSender::Options opt;
  opt.ackTimeoutSeconds = 0.5;
  opt.maxAttempts = 0;
  CommandSender sender{sim, channel, fleet, opt};
  Tracer tracer{sim, Tracer::Options{256, true}};
  channel.setTracer(&tracer);
  sender.setTracer(&tracer);

  // Drop everything for a while, then heal: the command must land via a
  // retransmit, and every attempt must appear on the same span.
  ChannelFaults faults;
  faults.dropRate = 1.0;
  channel.setFaults(faults);

  SwitchCommand cfg;
  cfg.kind = CmdKind::ConfigureVip;
  cfg.vip = VipId{1};
  cfg.app = AppId{0};
  cfg.trace = tracer.begin();
  int done = 0;
  sender.send(sw, cfg, [&done](Status s) {
    ++done;
    EXPECT_TRUE(s.ok());
  });
  sim.runUntil(2.0);  // a few attempts, all dropped
  EXPECT_EQ(done, 0);
  channel.setFaults(ChannelFaults{});
  sim.runUntil(60.0);
  ASSERT_EQ(done, 1);

  // Find the command span: the unique span with a CmdSend.
  SpanId span = 0;
  for (const TraceEvent& e : tracer.ring().snapshot()) {
    if (e.hop == HopKind::CmdSend) span = e.span;
  }
  ASSERT_NE(span, 0u);
  const auto events = spanEvents(tracer, span);
  EXPECT_EQ(countHops(events, HopKind::CmdSend), 1u);
  EXPECT_GE(countHops(events, HopKind::CmdTransmit), 2u);  // retried
  EXPECT_GE(countHops(events, HopKind::ChanDrop), 1u);
  EXPECT_EQ(countHops(events, HopKind::AgentApplied), 1u);  // exactly once
  EXPECT_EQ(countHops(events, HopKind::AckReceived), 1u);
  ASSERT_EQ(countTerminals(events), 1u);
  EXPECT_EQ(events.back().hop, HopKind::CmdAcked);
  EXPECT_EQ(std::string(events.back().code), "acked");
}

TEST(Tracing, DuplicateDeliveryShowsDedupeOnTheSpan) {
  Simulation sim;
  SwitchFleet fleet;
  const SwitchId sw = fleet.addSwitch(SwitchLimits{});
  ControlChannel channel{sim, 22};
  CommandSender::Options opt;
  opt.ackTimeoutSeconds = 5.0;
  CommandSender sender{sim, channel, fleet, opt};
  Tracer tracer{sim, Tracer::Options{256, true}};
  channel.setTracer(&tracer);
  sender.setTracer(&tracer);

  ChannelFaults faults;
  faults.duplicateRate = 1.0;  // every message arrives twice
  faults.delaySeconds = 0.01;
  channel.setFaults(faults);

  SwitchCommand cfg;
  cfg.kind = CmdKind::ConfigureVip;
  cfg.vip = VipId{1};
  cfg.app = AppId{0};
  cfg.trace = tracer.begin();
  int done = 0;
  sender.send(sw, cfg, [&done](Status s) {
    ++done;
    EXPECT_TRUE(s.ok());
  });
  sim.runUntil(10.0);
  ASSERT_EQ(done, 1);
  EXPECT_EQ(fleet.at(sw).vipCount(), 1u);

  SpanId span = 0;
  for (const TraceEvent& e : tracer.ring().snapshot()) {
    if (e.hop == HopKind::CmdSend) span = e.span;
  }
  const auto events = spanEvents(tracer, span);
  EXPECT_GE(countHops(events, HopKind::ChanDuplicate), 1u);
  EXPECT_EQ(countHops(events, HopKind::AgentApplied), 1u);
  EXPECT_GE(countHops(events, HopKind::AgentDuplicate), 1u);  // deduped copy
  ASSERT_EQ(countTerminals(events), 1u);
  EXPECT_EQ(countHops(events, HopKind::CmdAcked), 1u);
}

TEST(Tracing, StaleTermRefusalLandsOnTheCancelledSpan) {
  Simulation sim;
  SwitchFleet fleet;
  const SwitchId sw = fleet.addSwitch(SwitchLimits{});
  ControlChannel channel{sim, 23};
  CommandSender::Options opt;
  opt.ackTimeoutSeconds = 30.0;  // no retransmit noise
  CommandSender sender{sim, channel, fleet, opt};
  Tracer tracer{sim, Tracer::Options{256, true}};
  channel.setTracer(&tracer);
  sender.setTracer(&tracer);

  // A slow channel: the term-1 command is still in flight when the term
  // changes underneath it.
  ChannelFaults slow;
  slow.delaySeconds = 5.0;
  channel.setFaults(slow);

  SwitchCommand old;
  old.kind = CmdKind::ConfigureVip;
  old.vip = VipId{1};
  old.app = AppId{0};
  old.trace = tracer.begin();
  Status oldOutcome;
  sender.send(sw, old, [&oldOutcome](Status s) { oldOutcome = std::move(s); });
  SpanId oldSpan = 0;
  for (const TraceEvent& e : tracer.ring().snapshot()) {
    if (e.hop == HopKind::CmdSend) oldSpan = e.span;
  }
  ASSERT_NE(oldSpan, 0u);

  // Failover at t=1: term 2 cancels the in-flight command...
  sim.runUntil(1.0);
  sender.beginTerm(2);
  ASSERT_FALSE(oldOutcome.ok());
  EXPECT_EQ(oldOutcome.error().code, "cancelled");

  // ...and a faster term-2 command teaches the agent the new term before
  // the old copy arrives.
  ChannelFaults quick;
  quick.delaySeconds = 0.5;
  channel.setFaults(quick);
  SwitchCommand fresh;
  fresh.kind = CmdKind::ConfigureVip;
  fresh.vip = VipId{2};
  fresh.app = AppId{0};
  fresh.trace = tracer.begin();
  sender.send(sw, fresh, [](Status s) { EXPECT_TRUE(s.ok()); });

  sim.runUntil(30.0);
  EXPECT_EQ(sender.agentOf(sw).term(), 2u);
  EXPECT_EQ(sender.agentOf(sw).staleTermRejections(), 1u);
  EXPECT_FALSE(fleet.at(sw).hasVip(VipId{1}));  // fenced out, never applied

  // The refusal is recorded on the *original* span: the whole story of
  // the old command — send, cancellation, late fencing — reads in order.
  const auto events = spanEvents(tracer, oldSpan);
  EXPECT_EQ(countHops(events, HopKind::CmdSend), 1u);
  EXPECT_EQ(countHops(events, HopKind::CmdCancelled), 1u);
  EXPECT_EQ(countHops(events, HopKind::AgentStaleTerm), 1u);
  EXPECT_EQ(countHops(events, HopKind::AgentApplied), 0u);
  EXPECT_EQ(countTerminals(events), 1u);  // cancelled once, not twice
}

// --- registry vs. EpochReport ---------------------------------------------

TEST(Obs, RegistryMatchesEpochReportGaugesOverFiftyEpochs) {
  MegaDcConfig cfg = testScaleConfig();
  cfg.ctrlFaults.dropRate = 0.1;  // keep the control counters moving
  cfg.ctrlFaults.delaySeconds = 0.02;
  cfg.enableSessionEngine = true;
  cfg.manager.failover.enable = true;
  MegaDc dc{cfg};
  dc.bootstrap();
  FaultInjector::RandomPlan plan;
  plan.start = dc.sim.now() + 5.0;
  plan.end = dc.sim.now() + 60.0;
  plan.switchCrashes = 1;
  plan.serverCrashes = 2;
  plan.globalManagerCrashes = 1;
  plan.repairAfter = 20.0;
  dc.faults->schedulePlan(plan);

  const SimTime epoch = cfg.engine.epoch;
  for (int e = 0; e < 50; ++e) {
    dc.runUntil(dc.sim.now() + epoch);
    // A direct step() yields a report with nothing running between the
    // snapshot and the registry reads below, so the comparison is exact.
    const EpochReport r = dc.engine->step();
    const MetricsRegistry& m = dc.metrics;
#define MDC_EXPECT_GAUGE(field, type, wire, init, metric, source) \
  EXPECT_DOUBLE_EQ(m.value(metric), static_cast<double>(r.field)) << metric;
    MDC_EPOCH_REPORT_GAUGES(MDC_EPOCH_REPORT_SKIP, MDC_EXPECT_GAUGE)
#undef MDC_EXPECT_GAUGE
  }
  // The registry saw real traffic, faults and a failover, not all zeros.
  EXPECT_GT(dc.metrics.value("mdc.ctrl.messages_sent"), 0.0);
  EXPECT_GT(dc.metrics.value("mdc.ctrl.retransmits"), 0.0);
  EXPECT_GT(dc.metrics.value("mdc.fault.injected"), 0.0);
  EXPECT_GT(dc.metrics.value("mdc.manager.term"), 1.0);
  EXPECT_GT(dc.metrics.value("mdc.session.arrivals"), 0.0);
}

TEST(Obs, RegistrySurvivesDemandModelSwap) {
  MegaDcConfig cfg = testScaleConfig();
  MegaDc dc{cfg};
  const std::size_t before = dc.metrics.metricCount();
  std::vector<double> rates(cfg.numApps, 1000.0);
  dc.setDemandModel(std::make_unique<StaticDemand>(rates));
  // Re-registration replaced callbacks instead of duplicating metrics,
  // and the engine gauges read the *new* engine.
  EXPECT_EQ(dc.metrics.metricCount(), before);
  dc.bootstrap();
  dc.runUntil(dc.sim.now() + 5 * cfg.engine.epoch);
  EXPECT_DOUBLE_EQ(dc.metrics.value("mdc.engine.apps_recomputed"),
                   static_cast<double>(dc.engine->appsRecomputed()));
  EXPECT_GT(dc.metrics.value("mdc.engine.apps_recomputed"), 0.0);
}

}  // namespace
}  // namespace mdc
