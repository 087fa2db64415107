// Shared scaffolding of the gated benches (E15–E19).
//
// Every gated bench takes the same flags, gates on a committed baseline
// the same way, times best-of-N windows, summarises a worker sweep and
// writes a JSON report.  This library holds one copy of each:
//
//   * parseArgs      — --smoke, --out FILE, --baseline FILE, plus the
//                      extra switches / FILE options a bench declares;
//   * Baseline       — a committed BENCH_*.json, looked up by key.  A
//                      missing file or a missing key is a named FAIL,
//                      never a silently skipped gate (baselineGates
//                      runs a bench's gates; fail() prints FAIL lines);
//   * bestOfWindows  — p50/p99 of the lowest-p50 timed window;
//   * sweepSummary   — worker-sweep ratios against the 1-worker cell,
//                      judged per *effective* (post-clamp) worker;
//   * Json / report  — the report writer; every file starts with the
//                      same header (bench, smoke, hardware_concurrency,
//                      build_type).
//
// The gates' bounds stay in the benches: the library only evaluates
// the bounds it is handed.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mdc/util/function_ref.hpp"

namespace mdc::bench {

// --- flags ---------------------------------------------------------------

/// The flags one bench accepts beyond --smoke/--out/--baseline.
struct ArgSpec {
  std::string defaultOut;             // --out when not given ("" = none)
  std::vector<std::string> switches;  // boolean flags, e.g. "--mega"
  std::vector<std::string> files;     // FILE-valued flags, e.g. "--trace"
};

struct Args {
  bool smoke = false;
  std::string out;
  std::string baseline;  // empty: no baseline gates run
  std::map<std::string, std::string> extra;  // given extra flag -> FILE

  [[nodiscard]] bool has(const std::string& flag) const {
    return extra.count(flag) > 0;
  }
  /// The FILE given with `flag`, or "" when the flag was not given.
  [[nodiscard]] std::string file(const std::string& flag) const {
    return has(flag) ? extra.at(flag) : "";
  }
};

/// Parses argv against `spec`.  On an unknown flag (or a FILE flag
/// without its value) prints one usage line to `err` and returns
/// nullopt; the bench then exits with status 2.
[[nodiscard]] std::optional<Args> parseArgs(int argc,
                                            const char* const* argv,
                                            const ArgSpec& spec,
                                            std::ostream& err = std::cerr);

/// Prints `parts` as one "FAIL: ..." line on stderr; returns exit status 1.
template <typename... Parts>
int fail(const Parts&... parts) {
  ((std::cerr << "FAIL: ") << ... << parts) << "\n";
  return 1;
}

// --- baseline gates --------------------------------------------------------

/// A committed BENCH_*.json, looked up by key.  Gates print their
/// comparison to `out` and FAIL lines to `err`.
struct Baseline {
  std::string path;
  std::string text;
  std::ostream* out = &std::cout;
  std::ostream* err = &std::cerr;

  /// Reads `path`; prints "FAIL: cannot read baseline ..." to `err` and
  /// returns nullopt when it cannot.
  [[nodiscard]] static std::optional<Baseline> load(
      const std::string& path, std::ostream& out = std::cout,
      std::ostream& err = std::cerr);

  /// The number after the first `"key":` in the file.  A missing key, or
  /// one whose value is not a number, prints a FAIL naming the key.
  [[nodiscard]] std::optional<double> number(const std::string& key) const;

  /// The file's top-level "smoke" field (false when absent).
  [[nodiscard]] bool smoke() const;

  /// Gate: passes iff now >= fraction * base.  Prints the comparison to
  /// `out` and a FAIL line to `err`.
  [[nodiscard]] bool atLeast(double now, double base, double fraction,
                             const std::string& what) const;

  /// number(key) then atLeast(); a missing key fails the gate.
  [[nodiscard]] bool requireAtLeast(const std::string& key, double now,
                                    double fraction,
                                    const std::string& what) const;
};

/// The bench's exit status after its baseline gates: 0 when no
/// --baseline was given or gates() passed, 1 when the file is unreadable
/// or a gate (a missing key included) failed.
[[nodiscard]] int baselineGates(const Args& args,
                                FunctionRef<bool(const Baseline&)> gates);

// --- timed windows -----------------------------------------------------------

struct TimedWindow {
  double p50Ms = 0.0;
  double p99Ms = 0.0;
  double wallSeconds = 0.0;  // the whole window, untimed work included
  std::size_t window = 0;    // index of the kept window
};

/// Runs `windows` windows of `epochs` epochs.  Each epoch calls
/// untimed() off the clock, then step(window) on it.  Keeps the window
/// with the lowest p50 step time (the first one on ties): a virtualized
/// core throttles in multi-second bursts, and a burst has to cover every
/// window of a cell to bias its median.
TimedWindow bestOfWindows(int windows, int epochs,
                          FunctionRef<void(std::size_t window)> step,
                          FunctionRef<void()> untimed = [] {});

// --- worker sweeps -----------------------------------------------------------

struct SweepCell {
  double throughput = 0.0;
  unsigned workers = 1;  // effective workers, after resolveWorkers' clamp
};

struct SweepSummary {
  double minRatio = 1e18;    // min over cells[1..] of throughput / cells[0]'s
  double efficiency = -1.0;  // widest cell's ratio per effective worker
  bool floorsOk = true;      // every ratio met its floor
};

/// cells[0] is the 1-worker cell.  A cell with more effective workers
/// than cells[0] must reach `scaledFloor`; a cell the clamp left at the
/// same count runs the same work, so it must reach `clampedFloor`.
[[nodiscard]] SweepSummary sweepSummary(std::span<const SweepCell> cells,
                                        double scaledFloor,
                                        double clampedFloor);

// --- JSON report -------------------------------------------------------------

/// A JSON value built in place: a number, bool, string, object (members
/// in insertion order) or array.  Strings are written unescaped; bench
/// strings are plain identifiers.
class Json {
 public:
  using Member = std::pair<std::string, Json>;

  Json(bool b) : scalar_(b ? "true" : "false") {}
  template <typename T>
    requires std::is_arithmetic_v<T>
  Json(T v) {  // iostream's default formatting, as the reports always had
    std::ostringstream s;
    s << v;
    scalar_ = s.str();
  }
  Json(const char* s) : scalar_('"' + std::string(s) + '"') {}
  Json(const std::string& s) : scalar_('"' + s + '"') {}
  Json(std::initializer_list<Member> members)
      : kind_(Kind::Object), members_(members) {}
  Json(std::vector<Json> items)
      : kind_(Kind::Array), items_(std::move(items)) {}

  /// An array of fn(item) over `items`, in order.
  template <typename Range, typename Fn>
  static Json array(const Range& items, Fn fn) {
    std::vector<Json> out;
    for (const auto& item : items) out.push_back(fn(item));
    return out;
  }

  /// Appends a member to an object.
  Json& add(std::string key, Json value);

  /// The document text: top-level members and the items of top-level
  /// arrays one per line, anything deeper inline.
  [[nodiscard]] std::string str() const;

 private:
  enum class Kind { Scalar, Object, Array };
  void write(std::ostream& out, int depth) const;

  Kind kind_ = Kind::Scalar;
  std::string scalar_;
  std::vector<Member> members_;
  std::vector<Json> items_;
};

/// The CMAKE_BUILD_TYPE the bench was compiled with.
[[nodiscard]] const char* buildType();

/// An object holding the shared header: bench, smoke,
/// hardware_concurrency, build_type.  The bench adds its own sections.
[[nodiscard]] Json report(const std::string& bench, bool smoke);

/// Writes `doc` to `path` and prints where it went.
void writeReport(const std::string& path, const Json& doc);

}  // namespace mdc::bench
