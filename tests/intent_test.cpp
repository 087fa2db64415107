// IntentStore's derived indexes — intended VIPs and RIPs per switch,
// VIPs per access router, and each VM's RIP refs — are maintained inside
// apply().  These property tests drive random mutation sequences and
// check, after every apply, that each index equals a recomputation from
// forEach(); then that journal replay and snapshot install rebuild the
// same indexes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mdc/ctrl/intent.hpp"

namespace mdc {
namespace {

constexpr std::uint32_t kSwitches = 5;
constexpr std::uint32_t kRouters = 4;
constexpr std::uint32_t kVms = 12;

using RefSet = std::set<std::pair<std::uint32_t, std::uint32_t>>;  // vip, rip

void expectIndexesMatchIntent(const IntentStore& store) {
  std::map<std::uint32_t, std::uint32_t> vipsOn;
  std::map<std::uint32_t, std::uint32_t> ripsOn;
  std::map<std::uint32_t, std::uint32_t> vipsAt;
  std::map<std::uint32_t, RefSet> refs;
  store.forEach([&](VipId vip, const VipIntent& in) {
    ++vipsOn[in.sw.value()];
    ripsOn[in.sw.value()] += static_cast<std::uint32_t>(in.rips.size());
    if (in.router.valid()) ++vipsAt[in.router.value()];
    for (const RipEntry& r : in.rips) {
      if (r.targetsVm()) refs[r.vm.value()].emplace(vip.value(), r.rip.value());
    }
  });
  for (std::uint32_t sw = 0; sw < kSwitches; ++sw) {
    EXPECT_EQ(store.vipsOn(SwitchId{sw}), vipsOn[sw]) << "switch " << sw;
    EXPECT_EQ(store.ripsOn(SwitchId{sw}), ripsOn[sw]) << "switch " << sw;
  }
  for (std::uint32_t ar = 0; ar < kRouters; ++ar) {
    EXPECT_EQ(store.vipsAt(AccessRouterId{ar}), vipsAt[ar]) << "router " << ar;
  }
  for (std::uint32_t vm = 0; vm < kVms; ++vm) {
    RefSet indexed;
    for (const RipRef& ref : store.ripsOf(VmId{vm})) {
      EXPECT_TRUE(indexed.emplace(ref.vip.value(), ref.rip.value()).second)
          << "duplicate ref on vm " << vm;
    }
    EXPECT_EQ(indexed, refs[vm]) << "vm " << vm;
  }
}

/// A random mutation over a small id space, so VIPs and RIPs collide on
/// switches, routers and VMs; callers skip what canApply() refuses.
IntentRecord randomRecord(std::mt19937_64& rng) {
  const auto pick = [&](std::uint32_t n) {
    return static_cast<std::uint32_t>(rng() % n);
  };
  IntentRecord rec;
  rec.op = static_cast<IntentOp>(pick(7));
  rec.vip = VipId{pick(16)};
  rec.app = AppId{pick(3)};
  rec.sw = SwitchId{pick(kSwitches)};
  rec.router = pick(5) == 0 ? AccessRouterId{} : AccessRouterId{pick(kRouters)};
  // Mostly VM-backed RIPs; some target another VIP (two-layer LB), which
  // the VM index must ignore.
  rec.rip.rip = RipId{pick(40)};
  if (pick(6) == 0) {
    rec.rip.mvip = VipId{pick(16)};
  } else {
    rec.rip.vm = VmId{pick(kVms)};
  }
  rec.weight = 0.5 * pick(10);
  return rec;
}

std::vector<std::uint8_t> snapshotBytes(const IntentStore& store) {
  state::ByteWriter w;
  store.serialize(w);
  return w.bytes();
}

TEST(IntentStoreIndexes, MatchRecomputationThroughApplyReplayAndInstall) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    IntentStore live;
    IntentJournal journal;
    for (int applied = 1; applied <= 600;) {
      const IntentRecord rec = randomRecord(rng);
      if (!live.canApply(rec)) continue;
      journal.append(rec);
      live.apply(rec);
      expectIndexesMatchIntent(live);
      if (::testing::Test::HasFailure()) {
        FAIL() << "indexes diverged at record " << applied;
      }
      if (applied++ % 100 != 0) continue;

      // Replay applies the same records in the same order, so even the
      // per-VM ref order matches the live store.
      const IntentStore replayed = journal.replay();
      expectIndexesMatchIntent(replayed);
      for (std::uint32_t vm = 0; vm < kVms; ++vm) {
        const auto a = live.ripsOf(VmId{vm});
        const auto b = replayed.ripsOf(VmId{vm});
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].vip, b[i].vip);
          EXPECT_EQ(a[i].rip, b[i].rip);
        }
      }

      // Snapshot install rebuilds the indexes through apply() too, and
      // re-serializes to the same canonical bytes.
      const std::vector<std::uint8_t> bytes = snapshotBytes(live);
      IntentStore installed;
      state::ByteReader r(bytes);
      ASSERT_TRUE(installed.install(r));
      expectIndexesMatchIntent(installed);
      EXPECT_EQ(snapshotBytes(installed), bytes);
    }
    EXPECT_GT(live.vipCount(), 0u);
  }
}

TEST(IntentStoreIndexes, RefusesIdsThatWouldSizeADenseIndex) {
  IntentStore store;
  IntentRecord add;
  add.op = IntentOp::AddVip;
  add.vip = VipId{1};
  add.app = AppId{0};
  add.router = AccessRouterId{0};
  add.sw = SwitchId{};  // the invalid sentinel: ~4e9
  EXPECT_FALSE(store.canApply(add));
  add.sw = SwitchId{0};
  add.router = AccessRouterId{1u << 30};
  EXPECT_FALSE(store.canApply(add));
  add.router = AccessRouterId{};  // no route is fine
  ASSERT_TRUE(store.canApply(add));
  store.apply(add);

  IntentRecord bind;
  bind.op = IntentOp::AddRip;
  bind.vip = VipId{1};
  bind.rip = RipEntry{RipId{1}, VmId{1u << 30}, VipId{}, 1.0};
  EXPECT_FALSE(store.canApply(bind));
  bind.rip.vm = VmId{3};
  EXPECT_TRUE(store.canApply(bind));

  IntentRecord move;
  move.op = IntentOp::MoveVip;
  move.vip = VipId{1};
  move.sw = SwitchId{1u << 30};
  EXPECT_FALSE(store.canApply(move));
}

}  // namespace
}  // namespace mdc
