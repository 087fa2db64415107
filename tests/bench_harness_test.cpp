// Tests for the gated benches' shared harness (bench/common): flag
// parsing, the baseline gate (which must never be skipped silently),
// worker-sweep summaries, timed windows and the JSON report header.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/harness.hpp"

namespace mdc::bench {
namespace {

class BenchHarness : public ::testing::Test {
 protected:
  /// Writes `text` to a fresh temp file and loads it as a baseline.
  std::optional<Baseline> load(const std::string& text) {
    const std::string path =
        ::testing::TempDir() + "baseline_" + std::to_string(files_++) + ".json";
    std::ofstream(path) << text;
    return Baseline::load(path, out_, err_);
  }

  std::optional<Args> parse(std::vector<const char*> argv,
                            const ArgSpec& spec) {
    argv.insert(argv.begin(), "bench");
    return parseArgs(static_cast<int>(argv.size()), argv.data(), spec, err_);
  }

  int files_ = 0;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(BenchHarness, MissingGatedKeyFailsByName) {
  const auto base = load("{\"checks\": {\"other_key\": 3.5}}");
  ASSERT_TRUE(base.has_value());
  EXPECT_FALSE(base->requireAtLeast("speedup_at_10k", 100.0, 0.7, "speedup"));
  EXPECT_NE(err_.str().find("FAIL"), std::string::npos);
  EXPECT_NE(err_.str().find("\"speedup_at_10k\""), std::string::npos);
  // A key whose value is not a number cannot gate either.
  EXPECT_FALSE(base->requireAtLeast("checks", 1.0, 0.7, "checks"));
}

TEST_F(BenchHarness, MissingBaselineFileFails) {
  EXPECT_FALSE(Baseline::load(::testing::TempDir() + "absent/none.json",
                              out_, err_));
  EXPECT_NE(err_.str().find("FAIL: cannot read baseline"), std::string::npos);
}

TEST_F(BenchHarness, GatePassesOrFailsExactlyAtTheFraction) {
  const auto base = load("{\n  \"checks\": {\n    \"k\": 10\n  }\n}\n");
  ASSERT_TRUE(base.has_value());
  ASSERT_EQ(base->number("k"), 10.0);
  EXPECT_TRUE(base->requireAtLeast("k", 0.7 * 10.0, 0.7, "k"));
  EXPECT_EQ(err_.str(), "");
  EXPECT_FALSE(
      base->requireAtLeast("k", std::nextafter(0.7 * 10.0, 0.0), 0.7, "k"));
  EXPECT_NE(err_.str().find("FAIL"), std::string::npos);
  EXPECT_NE(out_.str().find("baseline compare"), std::string::npos);
}

TEST_F(BenchHarness, SmokeFieldIsRead) {
  EXPECT_TRUE(load("{\"bench\": \"x\", \"smoke\": true}")->smoke());
  EXPECT_TRUE(load("{\"smoke\":true}")->smoke());
  EXPECT_FALSE(load("{\"bench\": \"x\", \"smoke\": false}")->smoke());
  EXPECT_FALSE(load("{}")->smoke());
}

TEST_F(BenchHarness, UnknownFlagIsRejectedWithUsage) {
  EXPECT_FALSE(parse({"--smoke", "--bogus"}, {"OUT.json", {}, {}}));
  EXPECT_EQ(err_.str(),
            "usage: bench [--smoke] [--out FILE] [--baseline FILE]\n");
  // A FILE flag without its value, and another bench's flag, too.
  EXPECT_FALSE(parse({"--baseline"}, {"OUT.json", {}, {}}));
  EXPECT_FALSE(parse({"--mega"}, {"OUT.json", {}, {"--trace"}}));
  EXPECT_NE(err_.str().find("[--trace FILE]\n"), std::string::npos);
}

TEST_F(BenchHarness, CommonAndExtraFlagsParse) {
  const auto plain = parse({}, {"OUT.json", {}, {}});
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(plain->smoke);
  EXPECT_EQ(plain->out, "OUT.json");
  EXPECT_EQ(plain->baseline, "");
  // E15's switches.
  const auto e15 = parse({"--mega", "--profile", "--out", "m.json"},
                         {"", {"--mega", "--profile"}, {}});
  ASSERT_TRUE(e15.has_value());
  EXPECT_TRUE(e15->has("--mega") && e15->has("--profile"));
  EXPECT_EQ(e15->out, "m.json");
  // E16's FILE options.
  const auto e16 =
      parse({"--smoke", "--trace", "t.jsonl", "--baseline", "B.json"},
            {"OUT.json", {}, {"--trace", "--metrics"}});
  ASSERT_TRUE(e16.has_value());
  EXPECT_TRUE(e16->smoke);
  EXPECT_EQ(e16->baseline, "B.json");
  EXPECT_EQ(e16->file("--trace"), "t.jsonl");
  EXPECT_EQ(e16->file("--metrics"), "");
  EXPECT_EQ(err_.str(), "");
}

TEST_F(BenchHarness, SweepAppliesScaledAndClampedFloors) {
  // E19's rule: a cell with more effective workers than the 1-worker
  // cell must reach 0.9 of it; a cell the clamp left at 1 worker runs
  // the same work and only has to reach 0.75.
  const std::vector<SweepCell> clamped{{100.0, 1}, {80.0, 1}};
  EXPECT_TRUE(sweepSummary(clamped, 0.9, 0.75).floorsOk);
  EXPECT_DOUBLE_EQ(sweepSummary(clamped, 0.9, 0.75).minRatio, 0.8);
  const std::vector<SweepCell> scaled{{100.0, 1}, {80.0, 2}};
  EXPECT_FALSE(sweepSummary(scaled, 0.9, 0.75).floorsOk);
  const std::vector<SweepCell> low{{100.0, 1}, {74.0, 1}};
  EXPECT_FALSE(sweepSummary(low, 0.9, 0.75).floorsOk);
}

TEST_F(BenchHarness, SweepEfficiencyIsPerEffectiveWorkerAtTheWidestCell) {
  // E15's smoke sweep requests 1/2/4/8 workers; on a 4-core box the
  // widest cell is clamped to 4 effective workers.
  const std::vector<SweepCell> cells{
      {100.0, 1}, {150.0, 2}, {260.0, 4}, {250.0, 4}};
  const SweepSummary s = sweepSummary(cells, 0.9, 0.9);
  EXPECT_DOUBLE_EQ(s.minRatio, 1.5);
  EXPECT_DOUBLE_EQ(s.efficiency, 2.5 / 4.0);
  EXPECT_TRUE(s.floorsOk);
  const std::vector<SweepCell> slow{{100.0, 1}, {68.0, 2}, {120.0, 4}};
  const SweepSummary f = sweepSummary(slow, 0.9, 0.9);
  EXPECT_FALSE(f.floorsOk);
  EXPECT_DOUBLE_EQ(f.minRatio, 0.68);
  EXPECT_DOUBLE_EQ(f.efficiency, 0.3);
}

TEST_F(BenchHarness, TimedWindowsRunEveryEpochOnce) {
  std::vector<int> stepsPerWindow(3, 0);
  int untimed = 0;
  const TimedWindow best = bestOfWindows(
      3, 4, [&](std::size_t window) { ++stepsPerWindow.at(window); },
      [&] { ++untimed; });
  EXPECT_EQ(stepsPerWindow, (std::vector<int>{4, 4, 4}));
  EXPECT_EQ(untimed, 12);
  EXPECT_LT(best.window, 3u);
  EXPECT_LE(best.p50Ms, best.p99Ms);
}

TEST_F(BenchHarness, ReportHeaderDescribesTheRun) {
  Json doc = report("e99_test", true);
  doc.add("runs", std::vector<Json>{{{"mode", "a"}, {"p50_ms", 1.5}}})
      .add("checks", {{"speedup", 2.25}, {"ok", false}});
  const std::string text = doc.str();
  const std::string hw =
      std::to_string(std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_NE(text.find("\"hardware_concurrency\": " + hw), std::string::npos);
  EXPECT_NE(std::string(buildType()), "");
  EXPECT_NE(text.find("\"build_type\": \"" + std::string(buildType()) + "\""),
            std::string::npos);
  EXPECT_NE(text.find("    {\"mode\": \"a\", \"p50_ms\": 1.5}"),
            std::string::npos);
  // What a bench writes, a later run's baseline gate reads back.
  const auto base = load(text);
  ASSERT_TRUE(base.has_value());
  EXPECT_TRUE(base->smoke());
  EXPECT_EQ(base->number("speedup"), 2.25);
}

}  // namespace
}  // namespace mdc::bench
