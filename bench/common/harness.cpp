#include "common/harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "mdc/util/stats.hpp"

namespace mdc::bench {

std::optional<Args> parseArgs(int argc, const char* const* argv,
                              const ArgSpec& spec, std::ostream& err) {
  Args args;
  args.out = spec.defaultOut;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--out" && hasValue) {
      args.out = argv[++i];
    } else if (arg == "--baseline" && hasValue) {
      args.baseline = argv[++i];
    } else if (std::ranges::count(spec.switches, arg) > 0) {
      args.extra[arg] = "";
    } else if (std::ranges::count(spec.files, arg) > 0 && hasValue) {
      args.extra[arg] = argv[++i];
    } else {
      err << "usage: " << argv[0]
          << " [--smoke] [--out FILE] [--baseline FILE]";
      for (const std::string& s : spec.switches) err << " [" << s << "]";
      for (const std::string& f : spec.files) err << " [" << f << " FILE]";
      err << "\n";
      return std::nullopt;
    }
  }
  return args;
}

std::optional<Baseline> Baseline::load(const std::string& path,
                                       std::ostream& out, std::ostream& err) {
  std::ifstream in(path);
  if (!in) {
    err << "FAIL: cannot read baseline " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return Baseline{path, buf.str(), &out, &err};
}

std::optional<double> Baseline::number(const std::string& key) const {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos != std::string::npos) {
    const char* start = text.c_str() + pos + needle.size();
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end != start) return v;
  }
  *err << "FAIL: baseline " << path << " has no number \"" << key
        << "\"; the gate on it cannot run\n";
  return std::nullopt;
}

bool Baseline::smoke() const {
  const auto pos = text.find("\"smoke\":");
  if (pos == std::string::npos) return false;
  const auto value = text.find_first_not_of(" \t\n", pos + 8);
  return value != std::string::npos && text.compare(value, 4, "true") == 0;
}

bool Baseline::atLeast(double now, double base, double fraction,
                       const std::string& what) const {
  *out << "baseline compare: " << what << " " << now << " vs " << base
        << " (fail below " << 100.0 * fraction << "% of baseline)\n";
  if (now >= fraction * base) return true;
  *err << "FAIL: " << what << " " << now << " regressed below "
        << 100.0 * fraction << "% of baseline " << base << "\n";
  return false;
}

bool Baseline::requireAtLeast(const std::string& key, double now,
                              double fraction, const std::string& what) const {
  const std::optional<double> base = number(key);
  return base.has_value() && atLeast(now, *base, fraction, what);
}

int baselineGates(const Args& args,
                  FunctionRef<bool(const Baseline&)> gates) {
  if (args.baseline.empty()) return 0;
  const std::optional<Baseline> base = Baseline::load(args.baseline);
  return base.has_value() && gates(*base) ? 0 : 1;
}

TimedWindow bestOfWindows(int windows, int epochs,
                          FunctionRef<void(std::size_t window)> step,
                          FunctionRef<void()> untimed) {
  using Clock = std::chrono::steady_clock;
  const auto msSince = [](Clock::time_point t0) {
    return 1000.0 * std::chrono::duration<double>(Clock::now() - t0).count();
  };
  TimedWindow best;
  for (std::size_t win = 0; win < static_cast<std::size_t>(windows); ++win) {
    std::vector<double> stepMs;
    const auto w0 = Clock::now();
    for (int e = 0; e < epochs; ++e) {
      untimed();
      const auto t0 = Clock::now();
      step(win);
      stepMs.push_back(msSince(t0));
    }
    const double wallSeconds = msSince(w0) / 1000.0;
    const double p50 = percentile(stepMs, 50.0);
    if (win == 0 || p50 < best.p50Ms) {
      best = {p50, percentile(stepMs, 99.0), wallSeconds, win};
    }
  }
  return best;
}

SweepSummary sweepSummary(std::span<const SweepCell> cells,
                          double scaledFloor, double clampedFloor) {
  SweepSummary s;
  for (std::size_t i = 1; i < cells.size(); ++i) {
    const double ratio = cells[i].throughput / cells[0].throughput;
    s.minRatio = std::min(s.minRatio, ratio);
    const bool scaled = cells[i].workers > cells[0].workers;
    if (ratio < (scaled ? scaledFloor : clampedFloor)) s.floorsOk = false;
    if (i + 1 == cells.size()) {
      s.efficiency = ratio / static_cast<double>(cells[i].workers);
    }
  }
  return s;
}

Json& Json::add(std::string key, Json value) {
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

std::string Json::str() const {
  std::ostringstream out;
  write(out, 0);
  out << "\n";
  return out.str();
}

void Json::write(std::ostream& out, int depth) const {
  if (kind_ == Kind::Scalar) {
    out << scalar_;
    return;
  }
  // The document and its direct sections list one entry per line.
  const bool multiline = depth <= 1;
  const std::string indent(static_cast<std::size_t>(2 * depth), ' ');
  const bool object = kind_ == Kind::Object;
  const std::size_t n = object ? members_.size() : items_.size();
  out << (object ? '{' : '[');
  for (std::size_t i = 0; i < n; ++i) {
    out << (i > 0 ? "," : "");
    out << (multiline ? "\n  " + indent : std::string(i > 0 ? " " : ""));
    if (object) out << '"' << members_[i].first << "\": ";
    (object ? members_[i].second : items_[i]).write(out, depth + 1);
  }
  if (multiline && n > 0) out << "\n" << indent;
  out << (object ? '}' : ']');
}

const char* buildType() { return MDC_BENCH_BUILD_TYPE; }

Json report(const std::string& bench, bool smoke) {
  return {{"bench", bench}, {"smoke", smoke},
          {"hardware_concurrency",
           std::max(1u, std::thread::hardware_concurrency())},
          {"build_type", buildType()}};
}

void writeReport(const std::string& path, const Json& doc) {
  std::ofstream(path) << doc.str();
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace mdc::bench
