// Tests for the benchmark's own code: the firing-instant calculator, the
// statistics helpers, and the output schema.
#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "perfbench.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kEngineAndLease =
    (1u << static_cast<unsigned>(Loop::Engine)) |
    (1u << static_cast<unsigned>(Loop::Lease));

// --- the firing-instant calculator -----------------------------------------

class TinyWorld : public ::testing::TestWithParam<Workload> {};

// If the calculator missed or invented a firing, the traced run would see
// an engine step where it predicted none (or the reverse), and slicing
// the clock at wrong instants must still leave the simulation unchanged.
TEST_P(TinyWorld, TracedRunMatchesUntracedRunAndTheSchedule) {
  const Spec spec = makeSpec(GetParam(), 7, 300, 40);
  World plain(spec);
  const WindowResult u = runWindow(plain, false);
  World traced(spec);
  const WindowResult t = runWindow(traced, true);

  EXPECT_EQ(u.violations, 0u);
  EXPECT_EQ(t.violations, 0u);
  EXPECT_EQ(u.hash, t.hash);
  ASSERT_TRUE(t.layers.has_value());
  EXPECT_EQ(t.layers->scheduleMismatches, 0u);
  EXPECT_EQ(t.epochMs.size(), 40u);
  if (spec.stormWaves > 0) {
    EXPECT_TRUE(u.recovery.has_value());
    EXPECT_EQ(u.recovery, t.recovery);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, TinyWorld,
                         ::testing::Values(Workload::Steady,
                                           Workload::DiurnalSessions,
                                           Workload::Storm),
                         [](const auto& info) {
                           return std::string(workloadName(info.param));
                         });

TEST(Schedule, ReplaysPhasesAndMarksSharedInstants) {
  mdc::MegaDcConfig cfg = mdc::testScaleConfig();  // epoch 2, pods 5, 10 s
  Schedule s(cfg, 2, 10.0);
  const std::vector<Firing> f = s.between(10.0, 20.0);
  ASSERT_FALSE(f.empty());
  EXPECT_GT(f.front().at, 10.0);  // `from` is exclusive
  std::set<double> engine;
  for (const Firing& x : f) {
    if (x.has(Loop::Engine)) {
      engine.insert(x.at);
      EXPECT_TRUE(x.has(Loop::Lease));  // renewSeconds == epoch
    }
  }
  EXPECT_EQ(engine, (std::set<double>{12.0, 14.0, 16.0, 18.0, 20.0}));
  // Pod 0 (phase 0) and the inter-pod balancer (phase period/2) coincide.
  const auto at15 = std::find_if(f.begin(), f.end(),
                                 [](const Firing& x) { return x.at == 15.0; });
  ASSERT_NE(at15, f.end());
  EXPECT_TRUE(at15->has(Loop::Pod));
  EXPECT_TRUE(at15->has(Loop::InterPod));
  EXPECT_EQ(at15->pods, std::vector<std::uint32_t>{0});
  // Pod 1 fires a third of a period after pod 0.
  const double pod1 = 10.0 + 5.0 / 3.0;
  EXPECT_TRUE(std::any_of(f.begin(), f.end(), [&](const Firing& x) {
    return x.at == pod1 && x.pods == std::vector<std::uint32_t>{1};
  }));
  EXPECT_EQ(s.engineInstantAtOrAfter(20.5), 22.0);
}

// The traced run can only attribute a loop that fires alone; the
// benchmark's loop periods keep shared instants rare.
TEST(Schedule, BenchmarkLoopsRarelyShareAnInstant) {
  for (const Workload w :
       {Workload::Steady, Workload::DiurnalSessions, Workload::Storm}) {
    const Spec spec = makeSpec(w, 1, defaultApps(w), 10);
    Schedule s(spec.config, spec.config.numPods, 10.0);
    const std::vector<Firing> f = s.between(10.0, 3010.0);
    std::size_t shared = 0;
    for (const Firing& x : f) {
      const std::uint32_t others = x.loops & ~kEngineAndLease;
      const int loops = std::popcount(others) + (x.has(Loop::Engine) ? 1 : 0);
      if (loops > 1 || x.pods.size() > 1) ++shared;
    }
    EXPECT_LT(shared * 200, f.size()) << workloadName(w);
  }
}

// --- helpers -----------------------------------------------------------------

TEST(Helpers, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 1.75);
  EXPECT_DOUBLE_EQ(percentile(xs, 95.0), 3.85);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{5.0}), 5.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{}, 50.0), 0.0);
}

TEST(Helpers, RatioFallsBackOnZeroDenominator) {
  EXPECT_DOUBLE_EQ(ratio(1.0, 4.0), 0.25);
  EXPECT_DOUBLE_EQ(ratio(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(1.0, 0.0, 1.0), 1.0);
}

// --- output schema -------------------------------------------------------------

/// (name, unit) pairs of one metric list in BENCHMARK.json.
std::set<std::pair<std::string, std::string>> specMetrics(
    const std::string& list) {
  std::ifstream in(PERFBENCH_SPEC);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const auto start = text.find("\"" + list + "\"");
  EXPECT_NE(start, std::string::npos) << list;
  const auto end = text.find(']', start);
  const std::string section = text.substr(start, end - start);
  const std::regex entry(
      R"re("name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)")re");
  std::set<std::pair<std::string, std::string>> out;
  for (auto it = std::sregex_iterator(section.begin(), section.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.emplace((*it)[1], (*it)[2]);
  }
  return out;
}

std::set<std::pair<std::string, std::string>> asSet(
    std::span<const MetricDef> defs) {
  std::set<std::pair<std::string, std::string>> out;
  for (const MetricDef& d : defs) out.emplace(d.name, d.unit);
  return out;
}

std::set<std::pair<std::string, std::string>> emitted(const RunReport& r) {
  std::set<std::pair<std::string, std::string>> out;
  for (const Metric& m : r.metrics) out.emplace(m.name, m.unit);
  return out;
}

TEST(Schema, MetricTablesMatchBenchmarkJson) {
  EXPECT_EQ(asSet(endToEndMetrics()), specMetrics("end_to_end"));
  EXPECT_EQ(asSet(perLayerMetrics()), specMetrics("per_layer"));
}

TEST(Schema, EachModeEmitsExactlyItsMetrics) {
  const Spec spec = makeSpec(Workload::Storm, 3, 300, 30);
  const RunReport e2e = runBenchmark(spec, 2, false);
  EXPECT_TRUE(e2e.correct) << (e2e.problems.empty() ? "" : e2e.problems[0]);
  EXPECT_EQ(emitted(e2e), asSet(endToEndMetrics()));
  EXPECT_EQ(e2e.metrics.size(), endToEndMetrics().size());
  EXPECT_GE(e2e.attempted, 30u);

  const RunReport layers = runBenchmark(spec, 1, true);
  EXPECT_TRUE(layers.correct)
      << (layers.problems.empty() ? "" : layers.problems[0]);
  EXPECT_EQ(emitted(layers), asSet(perLayerMetrics()));
  EXPECT_EQ(layers.metrics.size(), perLayerMetrics().size());
}

TEST(Schema, ResultLineHasExactlyTheContractKeys) {
  RunReport r;
  r.attempted = 3;
  r.failed = 1;
  r.metrics.push_back(Metric{"epoch_ms_p50", 1.5, "ms"});
  EXPECT_EQ(resultJson(r),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {\"epoch_ms_p50\": {\"value\": 1.5, \"unit\": "
            "\"ms\"}}}");
}

}  // namespace
}  // namespace perfbench
