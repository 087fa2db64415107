// Durable deterministic state machine (E17): checksummed changelog,
// whole-DC snapshots with write-then-swap, corruption-tolerant recovery,
// and the determinism contract "same snapshot + same tail => identical
// state hash" — exercised at the codec/changelog/snapshot layer, with a
// toy automaton under randomized kill points, and end-to-end through the
// VipRipManager's journal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "mdc/core/epoch_report.hpp"
#include "mdc/ctrl/command_sender.hpp"
#include "mdc/ctrl/intent.hpp"
#include "mdc/scenario/megadc.hpp"
#include "mdc/sim/rng.hpp"
#include "mdc/state/changelog.hpp"
#include "mdc/state/codec.hpp"
#include "mdc/state/snapshot.hpp"
#include "mdc/state/state_machine.hpp"

namespace mdc {
namespace {

using state::ByteReader;
using state::ByteWriter;
using state::Changelog;
using state::DurableStateMachine;
using state::SnapshotImage;
using state::SnapshotMeta;
using state::SnapshotStore;

// --- codec ----------------------------------------------------------------

TEST(StateCodec, RoundtripsEveryTypeBitIdentically) {
  ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.f64(-0.0);
  w.f64(3.141592653589793);
  w.b(true);
  w.str("vip/rip");
  w.id(VipId{42});
  w.id(VipId{});  // invalid sentinel must roundtrip too

  ByteReader r{w.bytes()};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  const double z = r.f64();
  EXPECT_EQ(z, 0.0);
  EXPECT_TRUE(std::signbit(z));
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.str(), "vip/rip");
  EXPECT_EQ(r.id<VipId>(), VipId{42});
  EXPECT_FALSE(r.id<VipId>().valid());
  EXPECT_TRUE(r.exhausted());
}

TEST(StateCodec, ReaderFailsSoftPastEnd) {
  ByteWriter w;
  w.u32(7);
  ByteReader r{w.bytes()};
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.u64(), 0u);  // past the end: zero, not UB
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // sticky failure
  EXPECT_FALSE(r.exhausted());
}

TEST(StateCodec, Crc32MatchesKnownVector) {
  // CRC-32("123456789") is the classic check value.
  const std::string s = "123456789";
  std::vector<std::uint8_t> bytes(s.begin(), s.end());
  EXPECT_EQ(state::crc32(bytes), 0xcbf43926u);
}

// --- changelog ------------------------------------------------------------

std::vector<std::uint8_t> payload(std::uint64_t v) {
  ByteWriter w;
  w.u64(v);
  return w.take();
}

TEST(StateChangelog, AppendReplayPreservesRecordsAndIndices) {
  Changelog log;
  EXPECT_EQ(log.append(payload(10)), 0u);
  EXPECT_EQ(log.append(payload(11)), 1u);
  EXPECT_EQ(log.append(payload(12)), 2u);

  const auto replay = log.replay();
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.firstIndex, 0u);
  EXPECT_FALSE(replay.truncatedTail);
  EXPECT_EQ(replay.trailingBytes, 0u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    ByteReader r{replay.records[i]};
    EXPECT_EQ(r.u64(), 10u + i);
  }
}

TEST(StateChangelog, TornTailIsDetectedAndTruncated) {
  Changelog log;
  for (std::uint64_t i = 0; i < 5; ++i) log.append(payload(i));
  ASSERT_TRUE(log.tearTail(/*entropy=*/3));

  // Replay trusts the bytes: the torn frame is cut off, not parsed.
  const auto replay = log.replay();
  EXPECT_EQ(replay.records.size(), 4u);
  EXPECT_TRUE(replay.truncatedTail);
  EXPECT_GT(replay.trailingBytes, 0u);

  // Bookkeeping still claims 5 until recovery resyncs it.
  EXPECT_EQ(log.size(), 5u);
  const std::uint64_t cut = log.truncateToValidPrefix();
  EXPECT_GT(cut, 0u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.endIndex(), 4u);

  // Post-truncation appends land after the good prefix.
  EXPECT_EQ(log.append(payload(99)), 4u);
  EXPECT_EQ(log.replay().records.size(), 5u);
}

TEST(StateChangelog, CorruptRecordStopsReplayAtValidPrefix) {
  Changelog log;
  for (std::uint64_t i = 0; i < 4; ++i) log.append(payload(i));
  ASSERT_TRUE(log.corruptTail(/*entropy=*/0x51u));

  const auto replay = log.replay();
  EXPECT_EQ(replay.records.size(), 3u);
  EXPECT_TRUE(replay.truncatedTail);

  log.truncateToValidPrefix();
  EXPECT_EQ(log.size(), 3u);
}

TEST(StateChangelog, CompactionPreservesGlobalIndices) {
  Changelog log;
  for (std::uint64_t i = 0; i < 10; ++i) log.append(payload(i));
  EXPECT_EQ(log.compactTo(6), 6u);
  EXPECT_EQ(log.baseIndex(), 6u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.compactedRecords(), 6u);

  const auto replay = log.replay();
  ASSERT_EQ(replay.records.size(), 4u);
  EXPECT_EQ(replay.firstIndex, 6u);
  ByteReader r{replay.records.front()};
  EXPECT_EQ(r.u64(), 6u);

  // New records keep counting from the global end.
  EXPECT_EQ(log.append(payload(10)), 10u);
}

// --- snapshot store -------------------------------------------------------

SnapshotMeta meta(std::uint64_t index, std::uint64_t term, double at,
                  std::span<const std::uint8_t> det) {
  return SnapshotMeta{index, term, at, state::fnv1a64(det)};
}

TEST(StateSnapshot, InstallLoadRoundtripsSections) {
  SnapshotStore store{SnapshotStore::Options{2}};
  const auto det = payload(7);
  const auto adv = payload(8);
  store.install(meta(12, 3, 36.0, det), det, adv);

  std::uint64_t rejected = 0;
  const auto images = store.loadAllValid(&rejected);
  ASSERT_EQ(images.size(), 1u);
  EXPECT_EQ(rejected, 0u);
  EXPECT_EQ(images[0].meta.index, 12u);
  EXPECT_EQ(images[0].meta.term, 3u);
  EXPECT_EQ(images[0].meta.takenAt, 36.0);
  EXPECT_EQ(images[0].deterministic, det);
  EXPECT_EQ(images[0].advisory, adv);
}

TEST(StateSnapshot, TornWritePublishesInvalidImageAndOlderSurvives) {
  SnapshotStore store{SnapshotStore::Options{2}};
  const auto det1 = payload(1);
  store.install(meta(5, 1, 10.0, det1), det1, {});

  store.armTornWrite();
  const auto det2 = payload(2);
  store.install(meta(9, 1, 20.0, det2), det2, {});
  EXPECT_FALSE(store.tornWriteArmed());  // one-shot
  EXPECT_EQ(store.count(), 2u);

  std::uint64_t rejected = 0;
  const auto images = store.loadAllValid(&rejected);
  ASSERT_EQ(images.size(), 1u);  // torn image dropped, fallback intact
  EXPECT_EQ(rejected, 1u);
  EXPECT_EQ(images[0].meta.index, 5u);
}

TEST(StateSnapshot, CorruptionIsRejectedOnLoad) {
  SnapshotStore store{SnapshotStore::Options{2}};
  const auto det = payload(1);
  store.install(meta(5, 1, 10.0, det), det, {});
  ASSERT_TRUE(store.corruptLatest(/*entropy=*/0xf00du));

  std::uint64_t rejected = 0;
  EXPECT_TRUE(store.loadAllValid(&rejected).empty());
  EXPECT_EQ(rejected, 1u);
}

TEST(StateSnapshot, RetentionNeverPrunesLastValidFallback) {
  SnapshotStore store{SnapshotStore::Options{1}};
  const auto det1 = payload(1);
  store.install(meta(1, 1, 1.0, det1), det1, {});
  // Two consecutive torn installs: with keep=1, naive pruning would
  // rotate the only valid image out.  Retention counts valid images.
  store.armTornWrite();
  const auto det2 = payload(2);
  store.install(meta(2, 1, 2.0, det2), det2, {});
  store.armTornWrite();
  const auto det3 = payload(3);
  store.install(meta(3, 1, 3.0, det3), det3, {});

  const auto images = store.loadAllValid();
  ASSERT_EQ(images.size(), 1u);
  EXPECT_EQ(images[0].meta.index, 1u);

  // A new valid install finally displaces the old fallback.
  const auto det4 = payload(4);
  store.install(meta(4, 1, 4.0, det4), det4, {});
  const auto after = store.loadAllValid();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].meta.index, 4u);
}

// --- the machine under randomized kill points -----------------------------

// A toy deterministic automaton: the state is an order-sensitive digest
// of every applied record.  Its hooks mirror exactly what VipRipManager
// does — serialize/install/reset/apply — so the kill-point schedule can
// hammer the generic recovery policy cheaply.
struct ToyAutomaton {
  std::uint64_t acc = 0;
  std::uint64_t applied = 0;

  void apply(std::uint64_t v) {
    acc = acc * 6364136223846793005ull + v;
    ++applied;
  }
  void serialize(ByteWriter& w) const {
    w.u64(acc);
    w.u64(applied);
  }
  [[nodiscard]] std::uint64_t hash() const {
    ByteWriter w;
    serialize(w);
    return state::fnv1a64(w.bytes());
  }
};

DurableStateMachine::Hooks toyHooks(ToyAutomaton& toy) {
  DurableStateMachine::Hooks hooks;
  hooks.buildDeterministic = [&toy](ByteWriter& w) { toy.serialize(w); };
  hooks.installDeterministic = [&toy](ByteReader& r) {
    toy.acc = r.u64();
    toy.applied = r.u64();
    return r.ok();
  };
  hooks.reset = [&toy] { toy = ToyAutomaton{}; };
  hooks.applyMutation = [&toy](std::span<const std::uint8_t> bytes) {
    ByteReader r{bytes};
    const std::uint64_t v = r.u64();
    if (!r.exhausted()) return false;
    toy.apply(v);
    return true;
  };
  return hooks;
}

// Crash at a random point of the append/snapshot schedule — including
// mid-record and mid-snapshot writes and latent snapshot bit rot — then
// recover, and assert the machine's contract: the recovered state is
// bit-identical (by hash) to a clean run over the surviving history
// prefix, and the replay tail stays bounded by the snapshot cadence.
TEST(StateMachineKillPoint, RecoveryMatchesCleanRunHashAcrossSeeds) {
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng{0xe17c0ffeeull * seed};

    Changelog log;
    DurableStateMachine machine{log, DurableStateMachine::Options{}};
    ToyAutomaton toy;
    machine.setHooks(toyHooks(toy));

    // history holds the records with global indices
    // [historyBase, historyBase + history.size()).  historyBase only
    // moves when a recovery provably loses the compacted prefix: every
    // snapshot damaged AND the changelog already compacted past zero —
    // the one case where durable state legitimately cannot reach back
    // to index 0.
    std::vector<std::uint64_t> history;
    std::uint64_t historyBase = 0;
    // Shadow of the store's VALID images (indexes, oldest..newest),
    // mirroring the retention rule, so the test states the replay bound
    // independently: recovery replays at most the records after the
    // newest valid snapshot.
    constexpr std::size_t kKeep = 2;  // SnapshotStore::Options default
    std::vector<std::uint64_t> validSnaps;
    bool newestRawValid = false;
    double now = 0.0;
    std::uint64_t recoveriesWithSnapshot = 0;

    const auto recoverAndCheck = [&] {
      const auto stats = machine.recover(now);
      const std::uint64_t totalEnd = historyBase + history.size();
      if (!validSnaps.empty()) {
        EXPECT_TRUE(stats.usedSnapshot);
        EXPECT_EQ(stats.snapshotIndex, validSnaps.back());
        EXPECT_LE(stats.replayedRecords, totalEnd - validSnaps.back())
            << "replay not bounded by snapshot interval";
      } else {
        EXPECT_FALSE(stats.usedSnapshot);
      }
      // The crash may have cost the torn/corrupt suffix, never more.
      ASSERT_LE(stats.recoveredIndex, totalEnd);
      ASSERT_GE(stats.recoveredIndex, historyBase);
      history.resize(stats.recoveredIndex - historyBase);
      if (!stats.usedSnapshot && log.baseIndex() > historyBase) {
        // No snapshot survived and the log was compacted: the prefix is
        // genuinely unrecoverable, and the machine restarts the stream
        // at the compaction point.
        history.erase(history.begin(),
                      history.begin() + static_cast<std::ptrdiff_t>(
                                            log.baseIndex() - historyBase));
        historyBase = log.baseIndex();
      }

      // Determinism: recovered state == clean run over the surviving
      // stream, asserted by hash.
      ToyAutomaton clean;
      for (const std::uint64_t v : history) clean.apply(v);
      EXPECT_EQ(machine.stateHash(), clean.hash());
      EXPECT_EQ(toy.hash(), clean.hash());
      if (stats.usedSnapshot) ++recoveriesWithSnapshot;
      // A fast-forward (snapshot outran a torn tail) strands images
      // older than the new base: mirror their rejection.
      while (!validSnaps.empty() && validSnaps.front() < log.baseIndex()) {
        validSnaps.erase(validSnaps.begin());
      }
    };

    for (int step = 0; step < 600; ++step) {
      now += 1.0;
      const std::uint64_t action = rng.uniformInt(100);
      if (action < 68) {
        const std::uint64_t v = rng.nextU64();
        log.append(payload(v));
        toy.apply(v);
        history.push_back(v);
      } else if (action < 78) {
        if (rng.uniformInt(4) == 0) machine.snapshots().armTornWrite();
        const bool willTear = machine.snapshots().tornWriteArmed();
        const auto res = machine.takeSnapshot(/*term=*/1, now);
        if (res.taken) {
          newestRawValid = !willTear;
          if (!willTear) {
            validSnaps.push_back(res.index);
            // Mirror retention: oldest valid images beyond `keep` go.
            while (validSnaps.size() > kKeep) {
              validSnaps.erase(validSnaps.begin());
            }
          }
        }
      } else if (action < 86) {
        log.tearTail(rng.nextU64());  // crash mid-append
        recoverAndCheck();
      } else if (action < 93) {
        log.corruptTail(rng.nextU64());  // bit rot in the tail record
        recoverAndCheck();
      } else if (action < 97) {
        // Latent bit rot in the newest image (valid or already torn).
        if (machine.snapshots().corruptLatest(rng.nextU64()) &&
            newestRawValid) {
          validSnaps.pop_back();
          newestRawValid = false;
        }
        recoverAndCheck();
      } else {
        recoverAndCheck();  // clean restart: nothing may be lost
      }
    }
    // The schedule actually exercised the snapshot fallback path.
    EXPECT_GT(machine.snapshotsTaken(), 0u);
    EXPECT_GT(recoveriesWithSnapshot, 0u);
    EXPECT_GT(machine.recoveries(), 0u);
    EXPECT_GT(machine.compactedRecordsTotal(), 0u);
  }
}

// --- intent journal (crash-mid-write regression) --------------------------

IntentRecord addVip(std::uint32_t vip) {
  IntentRecord rec;
  rec.op = IntentOp::AddVip;
  rec.vip = VipId{vip};
  rec.app = AppId{0};
  rec.sw = SwitchId{0};
  rec.router = AccessRouterId{0};
  return rec;
}

TEST(IntentJournalDurability, ReplayStopsAtFirstMalformedRecord) {
  IntentJournal journal;
  for (std::uint32_t v = 1; v <= 4; ++v) journal.append(addVip(v));

  // Crash mid-write: the last record's frame is half on "disk".
  ASSERT_TRUE(journal.changelog().tearTail(/*entropy=*/5));

  // Replay must stop at the valid prefix — the torn record is cut off,
  // records before it all land.
  const IntentStore replayed = journal.replay();
  EXPECT_EQ(replayed.vipCount(), 3u);
  EXPECT_NE(replayed.find(VipId{3}), nullptr);
  EXPECT_EQ(replayed.find(VipId{4}), nullptr);

  // A CRC-valid prefix followed by a corrupt record: same contract.
  IntentJournal journal2;
  for (std::uint32_t v = 1; v <= 4; ++v) journal2.append(addVip(v));
  ASSERT_TRUE(journal2.changelog().corruptTail(/*entropy=*/0x3cu));
  EXPECT_EQ(journal2.replay().vipCount(), 3u);
}

TEST(IntentJournalDurability, ResyncAfterTruncationDropsDeadRecords) {
  IntentJournal journal;
  for (std::uint32_t v = 1; v <= 4; ++v) journal.append(addVip(v));
  journal.appendTermChange(7);
  // Five durable records, but term changes are not intent records.
  ASSERT_EQ(journal.changelog().size(), 5u);
  ASSERT_EQ(journal.replay().vipCount(), 4u);
  ASSERT_EQ(journal.lastTerm(), 7u);

  ASSERT_TRUE(journal.changelog().tearTail(/*entropy=*/9));
  journal.changelog().truncateToValidPrefix();
  journal.resyncFromDurable();
  // The term record was the torn tail: all four intent records survive
  // but the journaled term is gone.
  EXPECT_EQ(journal.changelog().size(), 4u);
  EXPECT_EQ(journal.replay().vipCount(), 4u);
  EXPECT_EQ(journal.lastTerm(), 0u);
}

TEST(IntentJournalDurability, SemanticallyMalformedRecordStopsReplay) {
  IntentJournal journal;
  journal.append(addVip(1));
  // A CRC-valid record the store must refuse: AddRip to a VIP that does
  // not exist.  Replay treats the refusal as end-of-trustworthy-prefix.
  IntentRecord bad;
  bad.op = IntentOp::AddRip;
  bad.vip = VipId{77};
  bad.rip = RipEntry{RipId{1}, VmId{1}, VipId{}, 1.0};
  journal.append(bad);
  journal.append(addVip(2));  // after the stop: never replayed

  const IntentStore replayed = journal.replay();
  EXPECT_EQ(replayed.vipCount(), 1u);
  EXPECT_NE(replayed.find(VipId{1}), nullptr);
  EXPECT_EQ(replayed.find(VipId{2}), nullptr);
}

// --- whole-DC snapshot + recovery through the manager ---------------------

TEST(DurableManagerState, CrashWithTornTailRecoversFromSnapshotPlusTail) {
  MegaDcConfig cfg = testScaleConfig();
  MegaDc dc{cfg};
  dc.bootstrap();

  // Past the first periodic snapshot (period 60s, first at ~36s).
  dc.runUntil(100.0);
  auto& machine = dc.manager->viprip().stateMachine();
  ASSERT_GT(machine.snapshotsTaken(), 0u);
  const std::uint64_t termBefore = dc.manager->term();

  // Leader crashes mid-append; the standby recovers snapshot + tail.
  dc.faults->tornJournalWrite(105.0, /*repairAfter=*/30.0);
  dc.runUntil(120.0);
  ASSERT_TRUE(dc.manager->leaderUp());
  EXPECT_GT(dc.manager->term(), termBefore);
  EXPECT_EQ(machine.recoveries(), 1u);
  const auto& rec = machine.lastRecovery();
  EXPECT_TRUE(rec.usedSnapshot);
  EXPECT_GT(rec.truncatedBytes, 0u);
  // Fencing survived durably: the recovered term floor forced the new
  // leader strictly above everything the dead one journaled.
  EXPECT_GT(dc.manager->term(), rec.snapshotTerm);
  EXPECT_EQ(dc.manager->viprip().durableTerm(), dc.manager->term());

  // The recovered world converges and serves; later snapshots build up
  // a fallback pair and compaction finally reclaims the bootstrap tail.
  dc.runUntil(240.0);
  EXPECT_EQ(dc.manager->reconciler().divergenceLastRound(), 0u);
  EXPECT_GT(machine.compactedRecordsTotal(), 0u);
  const EpochReport& r = dc.engine->latest();
  EXPECT_GT(r.totalServedRps() / r.totalDemandRps(), 0.9);
  EXPECT_EQ(r.stateRecoveries, 1u);
  EXPECT_GT(r.stateSnapshotsTaken, 0u);
  EXPECT_GT(r.stateTruncatedBytes, 0u);
  EXPECT_GT(r.stateChangelogRecords, 0u);
}

TEST(DurableManagerState, CorruptSnapshotFallsBackWithoutLosingState) {
  MegaDcConfig cfg = testScaleConfig();
  MegaDc dc{cfg};
  dc.bootstrap();
  dc.runUntil(100.0);
  auto& machine = dc.manager->viprip().stateMachine();
  ASSERT_GT(machine.snapshotsTaken(), 0u);
  const std::size_t vipsBefore = dc.manager->viprip().intent().vipCount();
  ASSERT_GT(vipsBefore, 0u);

  // Latent bit rot in the newest image, then a leader crash: recovery
  // must reject the image and fall back (older snapshot or replay)
  // without losing any acknowledged state.
  dc.faults->corruptSnapshot(101.0);
  dc.faults->crashGlobalManager(102.0, /*repairAfter=*/30.0);
  dc.runUntil(130.0);
  ASSERT_TRUE(dc.manager->leaderUp());
  EXPECT_GE(machine.snapshotsRejectedTotal(), 1u);
  EXPECT_EQ(dc.manager->viprip().intent().vipCount(), vipsBefore);

  dc.runUntil(240.0);
  EXPECT_EQ(dc.manager->reconciler().divergenceLastRound(), 0u);
  const EpochReport& r = dc.engine->latest();
  EXPECT_GT(r.totalServedRps() / r.totalDemandRps(), 0.9);
  EXPECT_GE(r.stateSnapshotsRejected, 1u);
}

// --- seeded retransmit jitter ---------------------------------------------

// Two switches behind a dead channel retry the same command schedule;
// with jitter their timers must diverge (no retry storm lockstep), yet
// each schedule is a pure function of (jitterSeed, switch id).
TEST(CommandSenderJitter, RetrySchedulesDivergeAcrossSwitchesButReplay) {
  const auto transmitTimes = [](std::uint64_t jitterSeed, double jitter,
                                SwitchId::value_type swIndex) {
    Simulation sim;
    SwitchFleet fleet;
    // Create both switches in every run so ids and streams line up.
    const SwitchId s0 = fleet.addSwitch(SwitchLimits{});
    const SwitchId s1 = fleet.addSwitch(SwitchLimits{});
    const SwitchId sw = swIndex == 0 ? s0 : s1;
    ControlChannel channel{sim, 1};
    channel.setPartitioned(s0, true);
    channel.setPartitioned(s1, true);
    CommandSender::Options opt;
    opt.ackTimeoutSeconds = 1.0;
    opt.maxBackoffSeconds = 8.0;
    opt.maxAttempts = 0;  // retry forever; we sample the schedule
    opt.backoffJitter = jitter;
    opt.jitterSeed = jitterSeed;
    CommandSender sender{sim, channel, fleet, opt};

    std::vector<SimTime> times;
    Tracer tracer{sim, Tracer::Options{1u << 10, true}};
    sender.setTracer(&tracer);
    SwitchCommand cfg;
    cfg.kind = CmdKind::ConfigureVip;
    cfg.vip = VipId{1};
    cfg.app = AppId{0};
    cfg.trace = tracer.begin();
    sender.send(sw, cfg, [](Status) {});
    sim.runUntil(200.0);
    for (const TraceEvent& e : tracer.ring().snapshot()) {
      if (e.hop == HopKind::CmdTransmit) times.push_back(e.at);
    }
    return times;
  };

  const auto a = transmitTimes(0xfeedu, 0.1, 0);
  const auto b = transmitTimes(0xfeedu, 0.1, 1);
  ASSERT_GT(a.size(), 8u);
  ASSERT_GT(b.size(), 8u);
  // The schedules must not resynchronize — even after the deterministic
  // backoff saturates at maxBackoff, jitter keeps the links apart.
  std::size_t equal = 0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 1; i < n; ++i) {
    if (a[i] == b[i]) ++equal;
  }
  EXPECT_LT(equal, n / 4) << "retry schedules locked in step";

  // Determinism: the same (seed, switch) reproduces the exact schedule.
  EXPECT_EQ(a, transmitTimes(0xfeedu, 0.1, 0));
  // A different base seed moves it.
  EXPECT_NE(a, transmitTimes(0xbeefu, 0.1, 0));
  // Jitter off: both switches collapse to the same deterministic
  // schedule — the pre-jitter behavior, byte for byte.
  const auto plainA = transmitTimes(0xfeedu, 0.0, 0);
  const auto plainB = transmitTimes(0xfeedu, 0.0, 1);
  EXPECT_EQ(std::vector<SimTime>(plainA.begin() + 1, plainA.end()),
            std::vector<SimTime>(plainB.begin() + 1, plainB.end()));
}

// --- epoch report canonical encoding --------------------------------------

TEST(EpochReportCodec, EncodeDecodeHashRoundtrip) {
  EpochReport rep;
  rep.time = 82.0;
  rep.stateChangelogRecords = 123;
  rep.stateSnapshotsTaken = 2;
  rep.stateRecordsSinceSnapshot = 17;
  rep.stateRecoveries = 1;
  rep.stateReplayedRecords = 9;
  rep.stateTruncatedBytes = 13;
  rep.stateSnapshotsRejected = 1;
  rep.stateCompactedRecords = 106;
  rep.appDemandRps[AppId{3}] = 1000.0;
  rep.appServedRps[AppId{3}] = 990.0;

  ByteWriter w;
  encodeEpochReport(rep, w);
  ByteReader r{w.bytes()};
  const EpochReport back = decodeEpochReport(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.time, rep.time);
  EXPECT_EQ(back.stateChangelogRecords, 123u);
  EXPECT_EQ(back.stateCompactedRecords, 106u);
  EXPECT_EQ(hashEpochReport(back), hashEpochReport(rep));

  // The hash is sensitive to every durable-state field.
  EpochReport changed = rep;
  changed.stateReplayedRecords = 10;
  EXPECT_NE(hashEpochReport(changed), hashEpochReport(rep));
}

// Golden guard for the wire format: every field set to a distinct
// non-default value, so a reordered, retyped, dropped or swapped field
// changes the bytes.  The pinned hash was taken from the hand-written
// codec; any refactor of the codec must reproduce it.
TEST(EpochReportCodec, GoldenHashWithEveryFieldSet) {
  EpochReport rep;
  rep.time = 82.5;
  rep.accessLinkUtil = {0.25, 0.5};
  rep.switchUtil = {0.75, 1.25, 0.125};
  rep.appDemandRps[AppId{1}] = 1000.0;
  rep.appDemandRps[AppId{4}] = 400.0;
  rep.appServedRps[AppId{1}] = 990.0;
  rep.vipDemandGbps[VipId{3}] = 1.5;
  rep.externalOfferedGbps = 2.5;
  rep.externalServedGbps = 2.25;
  rep.unroutedRps = 10.0;
  rep.unroutedByCause["dead_vm"] = 4.0;
  rep.unroutedByCause["no_dns"] = 6.0;
  rep.degradedRoutedRps = 3.5;
  rep.engineAppsRecomputed = 11;
  rep.engineAppsCached = 12;
  rep.downSwitches = 13;
  rep.downServers = 14;
  rep.orphanedVips = 15;
  rep.ctrlMessagesDropped = 16;
  rep.ctrlRetransmits = 17;
  rep.ctrlTimeouts = 18;
  rep.ctrlInflightCommands = 19;
  rep.ctrlPartitionedLinks = 20;
  rep.ctrlDriftLastAudit = 21;
  rep.ctrlRepairsIssued = 22;
  rep.managerTerm = 23;
  rep.managerLeaderUp = false;
  rep.managerAlive = 24;
  rep.managerFailovers = 25;
  rep.podManagerRestarts = 26;
  rep.ctrlStaleTermRejections = 27;
  rep.ctrlCancelledCommands = 28;
  rep.faultPlanSeed = (std::uint64_t{1} << 53) + 29;  // not a double
  rep.faultsInjected = 30;
  rep.faultRepairsApplied = 31;
  rep.stateChangelogRecords = 32;
  rep.stateSnapshotsTaken = 33;
  rep.stateRecordsSinceSnapshot = 34;
  rep.stateRecoveries = 35;
  rep.stateReplayedRecords = 36;
  rep.stateTruncatedBytes = 37;
  rep.stateSnapshotsRejected = 38;
  rep.stateCompactedRecords = 39;
  rep.sessionArrivals = 40;
  rep.sessionActive = 41;
  rep.sessionCompleted = 42;
  rep.sessionBroken = 43;
  rep.sessionRejected = 44;
  rep.sessionDrainsCompleted = 45;
  rep.sessionDrainP99Seconds = 46.5;

  EXPECT_EQ(hashEpochReport(rep), 12156063936487718876u);

  // Round trip.  With all values distinct, re-encoding the decoded report
  // to the same bytes shows every field came back into its own slot.
  ByteWriter w;
  encodeEpochReport(rep, w);
  ByteReader r{w.bytes()};
  const EpochReport back = decodeEpochReport(r);
  EXPECT_TRUE(r.exhausted());
  ByteWriter again;
  encodeEpochReport(back, again);
  EXPECT_EQ(again.bytes(), w.bytes());
  EXPECT_EQ(back.faultPlanSeed, (std::uint64_t{1} << 53) + 29);
  EXPECT_FALSE(back.managerLeaderUp);
  EXPECT_EQ(back.unroutedByCause.at("no_dns"), 6.0);
}

}  // namespace
}  // namespace mdc
