// Unit tests for the command-plane admission layer (E18): footprint
// conflict detection, batched rounds, priority-class shedding, deadline
// budgets, brownout hysteresis, and the durability of the journaled
// admission aggregates.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mdc/core/viprip_manager.hpp"
#include "mdc/ctrl/admission.hpp"
#include "mdc/obs/trace.hpp"

namespace mdc {
namespace {

using Kind = FootprintSet::Kind;

// --- FootprintSet ---------------------------------------------------------

TEST(FootprintSet, ReadsCommute) {
  FootprintSet a, b;
  a.read(Kind::App, 1);
  b.read(Kind::App, 1);
  EXPECT_FALSE(a.conflictsWith(b));
}

TEST(FootprintSet, WriteConflictsWithRead) {
  FootprintSet a, b;
  a.write(Kind::Vm, 7);
  b.read(Kind::Vm, 7);
  EXPECT_TRUE(a.conflictsWith(b));
  EXPECT_TRUE(b.conflictsWith(a));
}

TEST(FootprintSet, WritesOnDistinctKeysCommute) {
  FootprintSet a, b;
  a.write(Kind::Vm, 1);
  b.write(Kind::Vm, 2);
  b.write(Kind::Vip, 1);  // same id, different kind
  EXPECT_FALSE(a.conflictsWith(b));
}

TEST(FootprintSet, MergeClaimsKeys) {
  FootprintSet claimed, late;
  FootprintSet fp;
  fp.write(Kind::App, 3);
  claimed.merge(fp);
  late.read(Kind::App, 3);
  EXPECT_TRUE(claimed.conflictsWith(late));
}

// --- AdmissionController ---------------------------------------------------

VipRipRequest makeReq(VipRipOp op, int priority = 0, std::uint32_t vm = 0) {
  VipRipRequest r;
  r.op = op;
  r.priority = priority;
  r.vm = VmId{vm};
  return r;
}

AdmissionController::ShedFn nopShed() {
  return [](AdmissionController::Entry&&, SimTime) {};
}

TEST(AdmissionController, ClassifiesByOpAndPriority) {
  AdmissionController adm{AdmissionController::Options{}};
  EXPECT_EQ(adm.classify(makeReq(VipRipOp::SetWeight)), AdmissionClass::Bulk);
  EXPECT_EQ(adm.classify(makeReq(VipRipOp::NewVip)), AdmissionClass::Capacity);
  EXPECT_EQ(adm.classify(makeReq(VipRipOp::RestoreVip)),
            AdmissionClass::Critical);
  // The health monitor's cleanup DeleteRips ride at restore priority.
  EXPECT_EQ(adm.classify(makeReq(VipRipOp::DeleteRip, 10)),
            AdmissionClass::Critical);
}

TEST(AdmissionController, UnboundedQueueNeverSheds) {
  AdmissionController adm{AdmissionController::Options{}};
  for (int i = 0; i < 100; ++i) {
    const auto res = adm.offer(makeReq(VipRipOp::SetWeight), 0.0, nopShed());
    EXPECT_TRUE(res.accepted);
  }
  EXPECT_EQ(adm.depth(), 100u);
  EXPECT_EQ(adm.shed(), 0u);
}

TEST(AdmissionController, BulkShedsBeforeCapacity) {
  AdmissionController::Options opt;
  opt.maxQueueDepth = 4;
  opt.bulkShare = 0.5;  // at most 2 bulk entries queued
  AdmissionController adm{opt};

  EXPECT_TRUE(adm.offer(makeReq(VipRipOp::SetWeight), 0.0, nopShed()).accepted);
  EXPECT_TRUE(adm.offer(makeReq(VipRipOp::SetWeight, 0, 1), 0.0, nopShed())
                  .accepted);
  // Third bulk entry exceeds bulk's share while capacity work still fits.
  const auto bulk3 = adm.offer(makeReq(VipRipOp::SetWeight, 0, 2), 0.0,
                               nopShed());
  EXPECT_FALSE(bulk3.accepted);
  EXPECT_TRUE(bulk3.overloaded);
  EXPECT_STREQ(bulk3.code, "overloaded");
  EXPECT_GT(bulk3.retryAfterSeconds, 0.0);
  EXPECT_TRUE(adm.offer(makeReq(VipRipOp::NewVip), 0.0, nopShed()).accepted);
  EXPECT_TRUE(adm.offer(makeReq(VipRipOp::NewRip), 0.0, nopShed()).accepted);
  // Queue full: capacity sheds too now.
  EXPECT_FALSE(adm.offer(makeReq(VipRipOp::NewVip), 0.0, nopShed()).accepted);
  EXPECT_EQ(adm.shedOf(AdmissionClass::Bulk), 1u);
  EXPECT_EQ(adm.shedOf(AdmissionClass::Capacity), 1u);
  EXPECT_EQ(adm.shedOf(AdmissionClass::Critical), 0u);
}

TEST(AdmissionController, CriticalEvictsNewestBulkWhenFull) {
  AdmissionController::Options opt;
  opt.maxQueueDepth = 2;
  opt.bulkShare = 1.0;
  AdmissionController adm{opt};

  std::vector<std::uint64_t> evicted;
  auto onShed = [&](AdmissionController::Entry&& e, SimTime) {
    evicted.push_back(e.req.vm.value());
  };
  EXPECT_TRUE(adm.offer(makeReq(VipRipOp::SetWeight, 0, 1), 0.0, onShed)
                  .accepted);
  EXPECT_TRUE(adm.offer(makeReq(VipRipOp::SetWeight, 0, 2), 0.0, onShed)
                  .accepted);
  // A restore arrives into the full queue: admitted, newest bulk evicted.
  const auto res = adm.offer(makeReq(VipRipOp::RestoreVip), 0.0, onShed);
  EXPECT_TRUE(res.accepted);
  EXPECT_EQ(adm.depth(), 2u);
  EXPECT_EQ(adm.evictions(), 1u);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted.front(), 2u);  // newest bulk went, oldest stayed
  EXPECT_EQ(adm.shedOf(AdmissionClass::Critical), 0u);
}

TEST(AdmissionController, FormRoundAdmitsDisjointDefersConflicting) {
  AdmissionController::Options opt;
  opt.batchSize = 8;
  AdmissionController adm{opt};
  // Three requests: two touch distinct VMs, the third collides with the
  // first.
  (void)adm.offer(makeReq(VipRipOp::SetWeight, 0, 1), 0.0, nopShed());
  (void)adm.offer(makeReq(VipRipOp::SetWeight, 0, 2), 0.0, nopShed());
  (void)adm.offer(makeReq(VipRipOp::DeleteRip, 0, 1), 0.0, nopShed());

  auto footprint = [](const VipRipRequest& r, FootprintSet& fp) {
    fp.write(Kind::Vm, r.vm.value());
  };
  const auto round = adm.formRound(0.0, footprint);
  ASSERT_EQ(round.batch.size(), 2u);
  EXPECT_EQ(round.batch[0].req.vm.value(), 1u);
  EXPECT_EQ(round.batch[1].req.vm.value(), 2u);
  EXPECT_EQ(round.deferred, 1u);
  EXPECT_EQ(adm.depth(), 1u);  // the conflicting one stays queued

  const auto next = adm.formRound(0.0, footprint);
  ASSERT_EQ(next.batch.size(), 1u);
  EXPECT_EQ(next.batch[0].req.op, VipRipOp::DeleteRip);
}

TEST(AdmissionController, DeferredFootprintBlocksLaterRequests) {
  // Per-key FIFO: once a request is deferred, later requests touching its
  // keys must not overtake it — even if they would fit the batch.
  AdmissionController adm{AdmissionController::Options{}};
  (void)adm.offer(makeReq(VipRipOp::SetWeight, 0, 1), 0.0, nopShed());
  (void)adm.offer(makeReq(VipRipOp::DeleteRip, 0, 1), 0.0, nopShed());
  (void)adm.offer(makeReq(VipRipOp::NewRip, 0, 1), 0.0, nopShed());

  auto footprint = [](const VipRipRequest& r, FootprintSet& fp) {
    fp.write(Kind::Vm, r.vm.value());
  };
  auto r1 = adm.formRound(0.0, footprint);
  ASSERT_EQ(r1.batch.size(), 1u);
  EXPECT_EQ(r1.batch[0].req.op, VipRipOp::SetWeight);
  EXPECT_EQ(r1.deferred, 2u);
  auto r2 = adm.formRound(0.0, footprint);
  ASSERT_EQ(r2.batch.size(), 1u);
  EXPECT_EQ(r2.batch[0].req.op, VipRipOp::DeleteRip);
  auto r3 = adm.formRound(0.0, footprint);
  ASSERT_EQ(r3.batch.size(), 1u);
  EXPECT_EQ(r3.batch[0].req.op, VipRipOp::NewRip);
}

TEST(AdmissionController, SerializedModeBatchesOfOne) {
  AdmissionController::Options opt;
  opt.pipelined = false;
  AdmissionController adm{opt};
  (void)adm.offer(makeReq(VipRipOp::SetWeight, 0, 1), 0.0, nopShed());
  (void)adm.offer(makeReq(VipRipOp::SetWeight, 0, 2), 0.0, nopShed());
  auto footprint = [](const VipRipRequest& r, FootprintSet& fp) {
    fp.write(Kind::Vm, r.vm.value());
  };
  EXPECT_EQ(adm.effectiveBatchSize(), 1u);
  EXPECT_EQ(adm.formRound(0.0, footprint).batch.size(), 1u);
  EXPECT_EQ(adm.formRound(0.0, footprint).batch.size(), 1u);
}

TEST(AdmissionController, DeadlineExpiryRespectsClassBudgets) {
  AdmissionController::Options opt;
  opt.capacityDeadlineSeconds = 0.5;
  AdmissionController adm{opt};
  (void)adm.offer(makeReq(VipRipOp::NewVip), 0.0, nopShed());
  (void)adm.offer(makeReq(VipRipOp::RestoreVip), 0.0, nopShed());

  auto footprint = [](const VipRipRequest&, FootprintSet& fp) {
    fp.write(Kind::App, 1);  // everything conflicts: nothing admitted twice
  };
  // Well past the capacity budget: the NewVip expires, the critical
  // restore never does (it is still valid until it lands).
  const auto round = adm.formRound(1.0, footprint);
  ASSERT_EQ(round.expired.size(), 1u);
  EXPECT_EQ(round.expired[0].req.op, VipRipOp::NewVip);
  ASSERT_EQ(round.batch.size(), 1u);
  EXPECT_EQ(round.batch[0].req.op, VipRipOp::RestoreVip);
  EXPECT_EQ(adm.deadlineExpired(), 1u);
}

TEST(AdmissionController, BrownoutHalvesBatchWithHysteresis) {
  AdmissionController::Options opt;
  opt.batchSize = 8;
  opt.brownoutWindowSeconds = 10.0;
  opt.brownoutEnterTimeoutRate = 0.25;
  opt.brownoutExitTimeoutRate = 0.05;
  AdmissionController adm{opt};

  adm.observeSender(100, 0, 0.0);  // anchors the window
  EXPECT_FALSE(adm.brownoutActive());
  EXPECT_EQ(adm.effectiveBatchSize(), 8u);

  adm.observeSender(200, 40, 11.0);  // 40% of the window's sends timed out
  EXPECT_TRUE(adm.brownoutActive());
  EXPECT_EQ(adm.effectiveBatchSize(), 4u);
  EXPECT_EQ(adm.brownoutEntries(), 1u);

  // A mid-band rate (10%) holds the current state (hysteresis)...
  adm.observeSender(300, 50, 22.0);
  EXPECT_TRUE(adm.brownoutActive());
  // ...and a calm window exits.
  adm.observeSender(400, 51, 33.0);
  EXPECT_FALSE(adm.brownoutActive());
  EXPECT_EQ(adm.effectiveBatchSize(), 8u);
}

TEST(AdmissionController, CoalescesQueuedSetWeight) {
  AdmissionController adm{AdmissionController::Options{}};
  (void)adm.offer(makeReq(VipRipOp::SetWeight, 0, 5), 0.0, nopShed());
  EXPECT_TRUE(adm.coalesceSetWeight(VmId{5}, 9.0));
  EXPECT_FALSE(adm.coalesceSetWeight(VmId{6}, 9.0));
  EXPECT_EQ(adm.depth(), 1u);
  auto footprint = [](const VipRipRequest&, FootprintSet&) {};
  const auto round = adm.formRound(0.0, footprint);
  ASSERT_EQ(round.batch.size(), 1u);
  EXPECT_DOUBLE_EQ(round.batch[0].req.weight, 9.0);
  EXPECT_EQ(adm.coalesced(), 1u);
}

// --- VipRipManager integration ---------------------------------------------

struct Fixture {
  Simulation sim;
  Topology topo;
  SwitchFleet fleet;
  AuthoritativeDns dns;
  RouteRegistry routes{2.0};
  AppRegistry apps;
  VipRipManager viprip;

  static TopologyConfig topoConfig() {
    TopologyConfig cfg;
    cfg.numServers = 8;
    cfg.numIsps = 2;
    cfg.accessLinksPerIsp = 1;
    cfg.numSwitches = 3;
    return cfg;
  }

  static SwitchLimits bigSwitch() {
    SwitchLimits lim;
    lim.maxVips = 32;
    lim.maxRips = 64;
    return lim;
  }

  explicit Fixture(VipRipManager::Options o = options())
      : topo(topoConfig()),
        viprip(sim, fleet, dns, routes, apps, topo, o) {
    for (int i = 0; i < 3; ++i) fleet.addSwitch(bigSwitch());
  }

  static VipRipManager::Options options() {
    VipRipManager::Options o;
    o.processSeconds = 0.1;
    o.reconfigSeconds = 1.0;
    return o;
  }
};

TEST(AdmissionIntegration, DisjointRequestsCommitInOneRound) {
  Fixture f;
  std::vector<double> doneAt;
  for (int i = 0; i < 3; ++i) {
    const AppId app = f.apps.create(std::string{"a"} + std::to_string(i), AppSla{}, 100.0);
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    req.done = [&f, &doneAt](Status s) {
      ASSERT_TRUE(s.ok());
      doneAt.push_back(f.sim.now());
    };
    EXPECT_TRUE(f.viprip.submit(std::move(req)).accepted);
  }
  f.sim.runUntil(1e6);
  // Different apps have disjoint footprints: one round, one decision
  // cost, all three land together at process + reconfig.
  ASSERT_EQ(doneAt.size(), 3u);
  for (const double t : doneAt) EXPECT_NEAR(t, 1.1, 1e-9);
  EXPECT_EQ(f.viprip.admissionTotals().rounds, 1u);
  EXPECT_EQ(f.viprip.admissionTotals().admitted, 3u);
}

TEST(AdmissionIntegration, ConflictingRequestsKeepSerializedTimeline) {
  Fixture f;
  const AppId app = f.apps.create("a", AppSla{}, 100.0);
  std::vector<double> doneAt;
  for (int i = 0; i < 3; ++i) {
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    req.done = [&f, &doneAt](Status s) {
      ASSERT_TRUE(s.ok());
      doneAt.push_back(f.sim.now());
    };
    EXPECT_TRUE(f.viprip.submit(std::move(req)).accepted);
  }
  f.sim.runUntil(1e6);
  // Same app: every footprint collides, so rounds degenerate to batches
  // of one — the exact timeline of the fully serialized seed queue.
  ASSERT_EQ(doneAt.size(), 3u);
  EXPECT_NEAR(doneAt[0], 1.1, 1e-9);
  EXPECT_NEAR(doneAt[1], 1.2, 1e-9);
  EXPECT_NEAR(doneAt[2], 1.3, 1e-9);
  EXPECT_GE(f.viprip.admissionTotals().deferred, 2u);
}

TEST(AdmissionIntegration, ShedRequestSettlesWithOverloaded) {
  auto o = Fixture::options();
  o.admission.maxQueueDepth = 2;
  o.admission.bulkShare = 1.0;
  Fixture f(o);
  const AppId app = f.apps.create("a", AppSla{}, 100.0);

  int ok = 0, overloaded = 0;
  auto submitOne = [&] {
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    req.done = [&](Status s) {
      if (s.ok()) {
        ++ok;
      } else if (s.error().code == "overloaded") {
        ++overloaded;
      }
    };
    return f.viprip.submit(std::move(req));
  };
  EXPECT_TRUE(submitOne().accepted);
  EXPECT_TRUE(submitOne().accepted);
  const auto third = submitOne();
  EXPECT_FALSE(third.accepted);
  EXPECT_TRUE(third.overloaded);
  EXPECT_GT(third.retryAfterSeconds, 0.0);
  EXPECT_EQ(overloaded, 1);  // settled synchronously at submit

  f.sim.runUntil(1e6);
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(f.viprip.admissionTotals().shed, 1u);
}

TEST(AdmissionIntegration, DeadlineExpiredSettlesAsRejection) {
  auto o = Fixture::options();
  o.admission.capacityDeadlineSeconds = 0.45;
  Fixture f(o);
  const AppId app = f.apps.create("a", AppSla{}, 100.0);

  int ok = 0, expired = 0;
  for (int i = 0; i < 8; ++i) {
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    req.done = [&](Status s) {
      if (s.ok()) {
        ++ok;
      } else if (s.error().code == "deadline_expired") {
        ++expired;
      }
    };
    EXPECT_TRUE(f.viprip.submit(std::move(req)).accepted);
  }
  f.sim.runUntil(1e6);
  // Conflicting NewVips drain one per 0.1s round; entries older than the
  // 0.45s budget at round formation are rejected instead of applied.
  EXPECT_GT(expired, 0);
  EXPECT_EQ(ok + expired, 8);
  EXPECT_EQ(f.viprip.admissionTotals().expired,
            static_cast<std::uint64_t>(expired));
  const auto& byCode = f.viprip.rejectionsByCode();
  ASSERT_TRUE(byCode.contains("deadline_expired"));
  EXPECT_EQ(byCode.at("deadline_expired"),
            static_cast<std::uint64_t>(expired));
}

TEST(AdmissionIntegration, TracedDeadlineExpiryKeepsFullStatusCode) {
  auto o = Fixture::options();
  o.admission.capacityDeadlineSeconds = 0.45;
  Fixture f(o);
  Tracer tracer(f.sim, Tracer::Options{.enabled = true});
  f.viprip.attachTracer(&tracer);
  const AppId app = f.apps.create("a", AppSla{}, 100.0);
  for (int i = 0; i < 8; ++i) {
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    EXPECT_TRUE(f.viprip.submit(std::move(req)).accepted);
  }
  f.sim.runUntil(1e6);
  ASSERT_GT(f.viprip.admissionTotals().expired, 0u);
  // The RequestDone hop carries the code the Status carried, untruncated.
  std::uint64_t tracedExpiries = 0;
  for (const TraceEvent& e : tracer.ring().snapshot()) {
    if (e.hop == HopKind::RequestDone &&
        std::string(e.code) == "deadline_expired") {
      ++tracedExpiries;
    }
  }
  EXPECT_EQ(tracedExpiries, f.viprip.admissionTotals().expired);
}

TEST(AdmissionIntegration, AdmissionTotalsReplayBitIdentical) {
  Fixture f;
  for (int i = 0; i < 4; ++i) {
    const AppId app = f.apps.create(std::string{"a"} + std::to_string(i), AppSla{}, 100.0);
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    EXPECT_TRUE(f.viprip.submit(std::move(req)).accepted);
  }
  f.sim.runUntil(1e6);

  const auto before = f.viprip.admissionTotals();
  EXPECT_GT(before.rounds, 0u);
  EXPECT_EQ(before.admitted, 4u);
  const std::uint64_t hashBefore = f.viprip.stateMachine().stateHash();

  // Replay the write-ahead journal from scratch: the durable admission
  // aggregates — part of the hashed state — must come back bit-identical.
  f.viprip.rebuildIntentFromJournal();
  const auto after = f.viprip.admissionTotals();
  EXPECT_EQ(after.rounds, before.rounds);
  EXPECT_EQ(after.admitted, before.admitted);
  EXPECT_EQ(after.shed, before.shed);
  EXPECT_EQ(after.expired, before.expired);
  EXPECT_EQ(after.deferred, before.deferred);
  EXPECT_EQ(f.viprip.stateMachine().stateHash(), hashBefore);
}

TEST(AdmissionIntegration, CrashCancelsQueuedAndTotalsSurvive) {
  Fixture f;
  const AppId app = f.apps.create("a", AppSla{}, 100.0);
  int cancelled = 0;
  for (int i = 0; i < 3; ++i) {
    VipRipRequest req;
    req.op = VipRipOp::NewVip;
    req.app = app;
    req.done = [&](Status s) {
      if (!s.ok() && s.error().code == "cancelled") ++cancelled;
    };
    EXPECT_TRUE(f.viprip.submit(std::move(req)).accepted);
  }
  f.viprip.crash();
  EXPECT_EQ(cancelled, 3);
  EXPECT_EQ(f.viprip.queueLength(), 0u);
  // A submission into the dead manager is refused, not queued.
  VipRipRequest req;
  req.op = VipRipOp::NewVip;
  req.app = app;
  bool refused = false;
  req.done = [&](Status s) {
    refused = !s.ok() && s.error().code == "manager_down";
  };
  const auto res = f.viprip.submit(std::move(req));
  EXPECT_FALSE(res.accepted);
  EXPECT_TRUE(refused);

  f.viprip.recoverAsLeader(2);
  EXPECT_TRUE(f.viprip.online());
  f.sim.runUntil(1e6);
}

}  // namespace
}  // namespace mdc
