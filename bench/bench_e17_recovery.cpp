// E17 — durable recovery cost: cold full-replay vs snapshot+tail as the
// journal grows.
//
// Each cell builds a changelog of N synthetic intent-sized records on a
// toy deterministic automaton, then measures wall-clock recovery two
// ways on the same history:
//
//   cold   — no snapshot images at all: recovery replays all N records;
//   snap   — periodic snapshots were taken (every `interval` records):
//            recovery installs the newest image and replays only the
//            tail, so its cost is bounded by the snapshot cadence, not
//            by N.
//
// Both paths must land on the same state hash as a straight-line clean
// run — the determinism contract — and the bench hard-fails otherwise.
// The headline check: snapshot+tail beats cold replay at histories of
// 10k records and beyond, and the gap widens linearly with N.
//
// Flags (bench/common/harness.hpp): --smoke (small cells; well under a
// second), --out FILE (default BENCH_E17.json), --baseline FILE (fail on
// a >30% regression of speedup_at_10k).
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/harness.hpp"
#include "mdc/metrics/table.hpp"
#include "mdc/sim/rng.hpp"
#include "mdc/state/state_machine.hpp"

namespace {
using namespace mdc;
using namespace mdc::state;

// The same order-sensitive digest automaton the kill-point tests use:
// cheap per record, so the measurement is dominated by the machinery
// under test (frame parsing, CRC validation, snapshot decode) and not
// by application logic.
struct ToyAutomaton {
  std::uint64_t acc = 0;
  std::uint64_t applied = 0;
  void apply(std::uint64_t v) {
    acc = acc * 6364136223846793005ull + v;
    ++applied;
  }
};

DurableStateMachine::Hooks toyHooks(ToyAutomaton& toy) {
  DurableStateMachine::Hooks hooks;
  hooks.buildDeterministic = [&toy](ByteWriter& w) {
    w.u64(toy.acc);
    w.u64(toy.applied);
  };
  hooks.installDeterministic = [&toy](ByteReader& r) {
    toy.acc = r.u64();
    toy.applied = r.u64();
    return r.ok();
  };
  hooks.reset = [&toy] { toy = ToyAutomaton{}; };
  hooks.applyMutation = [&toy](std::span<const std::uint8_t> bytes) {
    ByteReader r{bytes};
    const std::uint64_t v = r.u64();
    for (int i = 0; i < 4; ++i) (void)r.u64();  // filler (see recordPayload)
    if (!r.exhausted()) return false;
    toy.apply(v);
    return true;
  };
  return hooks;
}

/// Record payload shaped like a journaled intent record (~40 bytes), so
/// frame/CRC costs per record track the real journal's.
std::vector<std::uint8_t> recordPayload(std::uint64_t v) {
  ByteWriter w;
  w.u64(v);
  for (int i = 0; i < 4; ++i) w.u64(v ^ (0x9e37u + std::uint64_t(i)));
  return w.take();
}

struct CellResult {
  std::string mode;  // "cold" | "snap"
  std::uint64_t records = 0;
  std::uint64_t interval = 0;  // snapshot cadence (0 for cold)
  double recoverMs = 0.0;      // min over repeats: the honest floor
  std::uint64_t replayedRecords = 0;
  std::uint64_t truncatedBytes = 0;
  bool usedSnapshot = false;
  bool hashMatches = false;
  std::uint64_t stateHash = 0;
};

/// Builds an N-record history (with periodic snapshots when
/// interval > 0, and a torn final record so recovery always exercises
/// the truncation path), then times recover() min-of-`repeats`.
CellResult runCell(const std::string& mode, std::uint64_t records,
                   std::uint64_t interval, int repeats) {
  CellResult r;
  r.mode = mode;
  r.records = records;
  r.interval = interval;

  Changelog log;
  DurableStateMachine machine{log, DurableStateMachine::Options{}};
  ToyAutomaton toy;
  machine.setHooks(toyHooks(toy));

  Rng rng{0xe17beec4ull + records};
  ToyAutomaton clean;
  double now = 0.0;
  for (std::uint64_t i = 0; i < records; ++i) {
    const std::uint64_t v = rng.nextU64();
    log.append(recordPayload(v));
    toy.apply(v);
    clean.apply(v);
    if (interval > 0 && (i + 1) % interval == 0) {
      now += 1.0;
      machine.takeSnapshot(/*term=*/1, now);
    }
  }
  // A crash mid-append: the torn record must be detected and truncated
  // on the first recovery, after which the log is clean again.
  log.append(recordPayload(rng.nextU64()));
  log.tearTail(rng.nextU64());

  // One-recovery windows: the kept (lowest-p50) window is the fastest
  // repeat.
  DurableStateMachine::RecoveryStats stats;
  r.recoverMs = bench::bestOfWindows(repeats, 1, [&](std::size_t) {
                  stats = machine.recover(now);
                }).p50Ms;
  r.replayedRecords = stats.replayedRecords;
  r.truncatedBytes = stats.truncatedBytes;
  r.usedSnapshot = stats.usedSnapshot;
  r.stateHash = stats.stateHash;

  // Determinism contract: both recovery paths reproduce the clean run.
  ByteWriter w;
  w.u64(clean.acc);
  w.u64(clean.applied);
  r.hashMatches = stats.stateHash == fnv1a64(w.bytes());
  return r;
}

bench::Json runJson(const CellResult& r) {
  return {{"mode", r.mode}, {"records", r.records},
          {"snapshot_interval", r.interval}, {"recover_ms", r.recoverMs},
          {"replayed_records", r.replayedRecords},
          {"truncated_bytes", r.truncatedBytes},
          {"used_snapshot", r.usedSnapshot}, {"hash_matches", r.hashMatches},
          {"state_hash", r.stateHash}};
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parseArgs(argc, argv, {"BENCH_E17.json", {}, {}});
  if (!args) return 2;
  const bool smoke = args->smoke;

  constexpr std::uint64_t kInterval = 512;  // snapshot cadence (records)
  const int repeats = smoke ? 3 : 5;
  std::vector<std::uint64_t> sizes = smoke
                                         ? std::vector<std::uint64_t>{2'000,
                                                                      10'000}
                                         : std::vector<std::uint64_t>{
                                               2'000, 10'000, 50'000};

  std::vector<CellResult> results;
  Table table{"E17: recovery cost, cold replay vs snapshot+tail",
              {"mode", "records", "interval", "recover ms", "replayed",
               "snapshot", "hash ok"}};
  const auto record = [&](const CellResult& r) {
    results.push_back(r);
    table.addRow({r.mode, static_cast<long long>(r.records),
                  static_cast<long long>(r.interval), r.recoverMs,
                  static_cast<long long>(r.replayedRecords),
                  std::string(r.usedSnapshot ? "yes" : "no"),
                  std::string(r.hashMatches ? "yes" : "NO")});
  };

  for (std::uint64_t n : sizes) {
    record(runCell("cold", n, 0, repeats));
    record(runCell("snap", n, kInterval, repeats));
  }

  table.print(std::cout);
  std::cout << "expected shape: cold recover ms grows linearly with the"
               " journal; snapshot+tail stays flat (replay bounded by the"
               " snapshot interval) and wins from 10k records on; both"
               " paths land on the clean-run hash\n";

  int status = 0;  // 1 once any gate failed
  double speedup10k = 0.0;
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const CellResult& cold = results[i];
    const CellResult& snap = results[i + 1];
    if (!cold.hashMatches || !snap.hashMatches) {
      status = bench::fail("recovery hash mismatch at ", cold.records,
                           " records");
    }
    if (cold.stateHash != snap.stateHash) {
      status = bench::fail("cold and snapshot recovery disagree at ",
                           cold.records, " records");
    }
    // Replay boundedness: the tail is at most one interval (plus the
    // torn record the crash cost).
    if (snap.replayedRecords > kInterval) {
      status = bench::fail("snapshot recovery replayed ",
                           snap.replayedRecords, " > interval ", kInterval);
    }
    if (cold.records >= 10'000) {
      if (speedup10k == 0.0) speedup10k = cold.recoverMs / snap.recoverMs;
      if (snap.recoverMs >= cold.recoverMs) {
        status = bench::fail("snapshot+tail (", snap.recoverMs,
                             " ms) not beating cold replay (", cold.recoverMs,
                             " ms) at ", cold.records, " records");
      }
    }
  }

  bench::Json doc = bench::report("e17_recovery", smoke);
  doc.add("snapshot_interval", kInterval)
      .add("runs", bench::Json::array(results, runJson))
      .add("checks", {{"speedup_at_10k", speedup10k},
                      {"deterministic", status == 0}});
  bench::writeReport(args->out, doc);
  if (status != 0) return status;

  return bench::baselineGates(*args, [&](const bench::Baseline& base) {
    return base.requireAtLeast("speedup_at_10k", speedup10k, 0.7,
                               "recovery speedup_at_10k");
  });
}
