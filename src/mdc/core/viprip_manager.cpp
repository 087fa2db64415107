#include "mdc/core/viprip_manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_set>
#include <utility>

#include "mdc/util/expect.hpp"

namespace mdc {

namespace {

/// Joins several command completions into one: fires `done` with the
/// first error (or ok) once every added command settled AND seal() was
/// called.  With `ignoreErrors` individual failures are best-effort and
/// the joined outcome stays ok.
struct CmdBarrier {
  DoneGuard done;
  Status result = Status::okStatus();
  int outstanding = 0;
  bool sealed = false;
  bool ignoreErrors = false;

  CmdBarrier(DoneGuard d, bool ignore)
      : done(std::move(d)), ignoreErrors(ignore) {}

  void add() { ++outstanding; }
  void complete(const Status& s) {
    if (!s.ok() && result.ok() && !ignoreErrors) result = s;
    if (--outstanding == 0 && sealed) done.fire(result);
  }
  void seal() {
    sealed = true;
    if (outstanding == 0) done.fire(result);
  }
};

/// A "cancelled" outcome means the issuing manager died, not that the
/// switch rejected the command: the continuation must NOT unwind intent
/// (the write-ahead journal is the durable truth the next leader replays)
/// — it only forwards the outcome.
bool isCancelled(const Status& s) {
  return !s.ok() && s.error().code == "cancelled";
}

const char* opName(VipRipOp op) noexcept {
  switch (op) {
    case VipRipOp::NewVip:
      return "NewVip";
    case VipRipOp::DeleteVip:
      return "DeleteVip";
    case VipRipOp::NewRip:
      return "NewRip";
    case VipRipOp::DeleteRip:
      return "DeleteRip";
    case VipRipOp::SetWeight:
      return "SetWeight";
    case VipRipOp::RestoreVip:
      return "RestoreVip";
  }
  return "?";
}

/// The retry-after hint is sized to the queue's drain rate, which is the
/// manager's per-round decision cost.
AdmissionController::Options admissionOptionsFor(
    const VipRipManager::Options& o) {
  AdmissionController::Options a = o.admission;
  if (o.processSeconds > 0.0) a.roundSeconds = o.processSeconds;
  return a;
}

}  // namespace

VipRipManager::VipRipManager(Simulation& sim, SwitchFleet& fleet,
                             AuthoritativeDns& dns, RouteRegistry& routes,
                             AppRegistry& apps, const Topology& topo,
                             Options options)
    : sim_(sim),
      fleet_(fleet),
      dns_(dns),
      routes_(routes),
      apps_(apps),
      topo_(topo),
      options_(options),
      channel_(sim, options.channelSeed),
      sender_(sim, channel_, fleet, options.ctrl),
      machine_(journal_.changelog(), state::DurableStateMachine::Options{}),
      admission_(admissionOptionsFor(options)) {
  MDC_EXPECT(options.processSeconds >= 0.0, "negative process time");
  setupStateMachine();
  // Balancers move VIPs directly (SwitchFleet::transferVip); the journal
  // learns those placements here so intent tracks reality synchronously.
  fleet_.setTransferListener([this](VipId vip, SwitchId /*from*/,
                                    SwitchId to) {
    if (intent_.find(vip) == nullptr) return;
    IntentRecord rec;
    rec.op = IntentOp::MoveVip;
    rec.vip = vip;
    rec.sw = to;
    intend(rec);
  });
}

VipRipManager::~VipRipManager() {
  // The fleet outlives the manager; drop the this-capturing listener.
  fleet_.setTransferListener({});
  // Destruction is a process death: reuse the crash path so the queue
  // and every command awaiting its ack complete exactly once with
  // "cancelled" while the whole object is still alive.
  crash();
  // A cancellation callback may reentrantly send compensating commands;
  // on a lossy channel those stay outstanding, so sweep until quiet —
  // ~CommandSender must never be the one to fire a completion.
  for (int i = 0; i < 8 && sender_.inflight() > 0; ++i) {
    sender_.cancelInflight();
  }
}

void VipRipManager::intend(IntentRecord record) {
  record.at = sim_.now();
  journal_.append(record);
  intent_.apply(record);
}

void VipRipManager::attachTracer(Tracer* tracer) {
  tracer_ = tracer;
  channel_.setTracer(tracer);
  sender_.setTracer(tracer);
}

SubmitResult VipRipManager::submit(VipRipRequest request) {
  if (tracer_ != nullptr && tracer_->enabled() && request.trace == 0) {
    request.trace = tracer_->begin();
    request.traceSpan = tracer_->newSpan();
  }
  if (!online_) {
    // The manager process is down; callers see the failure immediately
    // and retry against the recovered leader (with their own backoff).
    if (tracer_ != nullptr) {
      tracer_->record(request.trace, request.traceSpan, 0,
                      HopKind::RequestRefused, "manager_down", 0,
                      static_cast<std::uint64_t>(request.op));
    }
    if (request.done) request.done(Status::fail("manager_down"));
    return SubmitResult{false, false, 0.0, "manager_down"};
  }
  if (tracer_ != nullptr) {
    tracer_->record(request.trace, request.traceSpan, 0,
                    HopKind::RequestSubmitted, opName(request.op),
                    request.vip.valid() ? request.vip.index() : 0,
                    static_cast<std::uint64_t>(request.priority));
  }
  // Coalesce weight updates: a newer SetWeight for the same VM supersedes
  // a queued one — pods re-decide every period and only the latest weight
  // matters, so this keeps the admission queue from ballooning.
  if (request.op == VipRipOp::SetWeight &&
      admission_.coalesceSetWeight(request.vm, request.weight)) {
    if (tracer_ != nullptr) {
      tracer_->record(request.trace, request.traceSpan, 0,
                      HopKind::RequestDone, "coalesced");
    }
    if (request.done) request.done(Status::okStatus());
    return SubmitResult{true, false, 0.0, "coalesced"};
  }
  const SubmitResult res = admission_.offer(
      std::move(request), sim_.now(),
      [this](AdmissionController::Entry&& e, SimTime retryAfter) {
        shedEntry(std::move(e), retryAfter);
      });
  if (res.accepted && !pumping_) {
    pumping_ = true;
    sim_.after(0.0, [this] { pump(); });
  }
  return res;
}

void VipRipManager::cancelPending(AdmissionController::Entry p) {
  ++cancelledRequests_;
  if (tracer_ != nullptr) {
    tracer_->record(p.req.trace, p.req.traceSpan, 0, HopKind::RequestDone,
                    "cancelled");
  }
  if (p.req.done) p.req.done(Status::fail("cancelled"));
}

void VipRipManager::shedEntry(AdmissionController::Entry e,
                              SimTime retryAfter) {
  // Terminal for the request span: a shed request fans out into no
  // command spans, so the exactly-one-terminal invariant over command
  // spans is untouched.
  if (tracer_ != nullptr) {
    tracer_->record(e.req.trace, e.req.traceSpan, 0, HopKind::RequestShed,
                    "overloaded", static_cast<std::uint64_t>(e.cls),
                    static_cast<std::uint64_t>(retryAfter));
  }
  if (e.req.done) e.req.done(Status::fail("overloaded"));
}

void VipRipManager::expireEntry(AdmissionController::Entry e) {
  // The request spent its whole deadline budget queued; applying it now
  // would reconfigure a world that has moved on.  Expiry counts as a
  // processed rejection (it was admitted, unlike a shed).
  ++processed_;
  ++rejected_;
  ++rejectionsByCode_["deadline_expired"];
  latency_.record(std::max(1e-3, sim_.now() - e.submitted));
  if (tracer_ != nullptr) {
    tracer_->record(e.req.trace, e.req.traceSpan, 0, HopKind::RequestDone,
                    "deadline_expired");
  }
  if (e.req.done) e.req.done(Status::fail("deadline_expired"));
}

void VipRipManager::intendAdmission(const AdmissionRoundRecord& rec) {
  journal_.appendAdmission(rec);
  ++admissionTotals_.rounds;
  admissionTotals_.admitted += rec.admitted;
  admissionTotals_.shed += rec.shed;
  admissionTotals_.expired += rec.expired;
  admissionTotals_.deferred += rec.deferred;
}

void VipRipManager::computeFootprint(const VipRipRequest& req,
                                     FootprintSet& fp) const {
  using K = FootprintSet::Kind;
  switch (req.op) {
    case VipRipOp::NewVip:
      // Grows the app's VIP set, which NewRip placement reads.
      fp.write(K::App, req.app.index());
      break;
    case VipRipOp::DeleteVip: {
      fp.write(K::Vip, req.vip.index());
      const VipIntent* in = intent_.find(req.vip);
      if (in != nullptr) {
        fp.write(K::App, in->app.index());
        fp.write(K::Switch, in->sw.index());
      }
      break;
    }
    case VipRipOp::NewRip:
      fp.read(K::App, req.app.index());
      fp.write(K::Vm, req.vm.index());
      break;
    case VipRipOp::DeleteRip: {
      fp.write(K::Vm, req.vm.index());
      for (const RipRef& ref : intent_.ripsOf(req.vm)) {
        fp.write(K::Vip, ref.vip.index());
        // The refill path reads the app's instance list.
        fp.read(K::App, intent_.find(ref.vip)->app.index());
      }
      break;
    }
    case VipRipOp::SetWeight: {
      fp.write(K::Vm, req.vm.index());
      // Weight changes on distinct RIPs of a shared VIP commute (each
      // recomputes the VIP's DNS weight from the full intent), so the
      // bound VIPs are read keys: SetWeights batch with each other but
      // serialize against DeleteVip/RestoreVip on the same VIP.
      for (const RipRef& ref : intent_.ripsOf(req.vm)) {
        fp.read(K::Vip, ref.vip.index());
      }
      break;
    }
    case VipRipOp::RestoreVip: {
      fp.write(K::Vip, req.vip.index());
      fp.write(K::App, req.app.index());
      for (const RipEntry& r : req.rips) {
        if (r.targetsVm()) fp.write(K::Vm, r.vm.index());
      }
      break;
    }
  }
}

void VipRipManager::pump() {
  if (!online_) {
    pumping_ = false;
    return;
  }
  admission_.observeSender(sender_.commandsSent(), sender_.timeouts(),
                           sim_.now());
  AdmissionController::Round round = admission_.formRound(
      sim_.now(), [this](const VipRipRequest& r, FootprintSet& fp) {
        computeFootprint(r, fp);
      });
  for (AdmissionController::Entry& e : round.expired) {
    expireEntry(std::move(e));
  }
  // Write-ahead journal the round's admission decisions before anything
  // commits, so a recovered manager replays the same admission history
  // into its deterministic state hash.
  const std::uint32_t shedDelta = admission_.takeShedDelta();
  if (!round.batch.empty() || !round.expired.empty() || shedDelta > 0) {
    AdmissionRoundRecord rec;
    rec.admitted = static_cast<std::uint32_t>(round.batch.size());
    rec.shed = shedDelta;
    rec.expired = static_cast<std::uint32_t>(round.expired.size());
    rec.deferred = round.deferred;
    intendAdmission(rec);
  }
  if (round.batch.empty()) {
    // An empty batch means the queue drained (the first live entry always
    // fits an empty footprint set).
    pumping_ = false;
    return;
  }

  // Only the manager's *decision* is serialized (§III-C) — one bounded
  // round cost, amortized over the batch; the switch-side programmatic
  // reconfigurations of the whole batch then proceed on their target
  // switches while the manager forms the next round.  The batch waits in
  // staged_; a crash() settles it there, so a timer whose round is gone
  // belongs to a dead process and commits nothing.
  const std::uint64_t id = nextRoundId_++;
  staged_.emplace(id, std::move(round.batch));
  sim_.after(options_.processSeconds, [this, id] {
    if (staged_.contains(id)) {
      SimTime reconfig = options_.reconfigSeconds;
      if (reconfig < 0.0) {
        // Every switch in the fleet shares one limits profile in
        // practice; use the first switch's value (3 s by default).
        reconfig = fleet_.size() > 0
                       ? fleet_.at(SwitchId{0}).limits().reconfigSeconds
                       : 0.0;
      }
      sim_.after(reconfig, [this, id] { commitRound(id); });
    }
    pump();
  });
}

void VipRipManager::commitRound(std::uint64_t id) {
  auto staged = staged_.extract(id);
  if (staged.empty()) return;
  // Commit the batch in admission order (priority desc, FIFO ties) — the
  // same order the fully serialized seed would have applied, so the
  // intent mutation history is identical for conflicting work.
  for (AdmissionController::Entry& p : staged.mapped()) {
    // The guard travels through every asynchronous command flow; no
    // matter which path settles the request — ack, rejection, channel
    // timeout, or a dropped continuation — the accounting and the
    // submitter's callback run exactly once.
    DoneGuard done([this, submitted = p.submitted, trace = p.req.trace,
                    span = p.req.traceSpan,
                    user = std::move(p.req.done)](Status s) {
      ++processed_;
      if (!s.ok()) {
        ++rejected_;
        ++rejectionsByCode_[s.error().code];
      }
      latency_.record(std::max(1e-3, sim_.now() - submitted));
      if (tracer_ != nullptr) {
        tracer_->record(trace, span, 0, HopKind::RequestDone,
                        s.ok() ? "ok" : s.error().code.c_str());
      }
      if (user) user(std::move(s));
    });
    if (tracer_ != nullptr) {
      tracer_->record(p.req.trace, p.req.traceSpan, 0,
                      HopKind::RequestApplied, opName(p.req.op));
    }
    apply(p.req, std::move(done));
  }
}

void VipRipManager::apply(const VipRipRequest& req, DoneGuard done) {
  switch (req.op) {
    case VipRipOp::NewVip:
      return applyNewVip(req, std::move(done));
    case VipRipOp::NewRip:
      return applyNewRip(req, std::move(done));
    case VipRipOp::DeleteVip:
      return applyDeleteVip(req, std::move(done));
    case VipRipOp::DeleteRip:
      return applyDeleteRip(req, std::move(done));
    case VipRipOp::SetWeight:
      return applySetWeight(req, std::move(done));
    case VipRipOp::RestoreVip:
      return applyRestoreVip(req, std::move(done));
  }
  done.fire(Status::fail("bad_op"));
}

std::optional<SwitchId> VipRipManager::pickSwitchForVip(VipId ignoring) const {
  MDC_EXPECT(fleet_.size() > 0, "no switches");
  const VipIntent* ignored =
      ignoring.valid() ? intent_.find(ignoring) : nullptr;
  std::optional<SwitchId> best;
  double bestScore = std::numeric_limits<double>::infinity();
  for (std::uint32_t i = 0; i < fleet_.size(); ++i) {
    const SwitchId id{i};
    const LbSwitch& sw = fleet_.at(id);
    if (!sw.up()) continue;
    std::uint32_t intended = intent_.vipsOn(id);
    if (ignored != nullptr && ignored->sw == id && intended > 0) --intended;
    if (intended >= sw.limits().maxVips) continue;
    // Primary: intended VIP occupancy; secondary: offered throughput.
    const double score =
        static_cast<double>(intended) /
            static_cast<double>(sw.limits().maxVips) +
        sw.utilization();
    if (score < bestScore) {
      bestScore = score;
      best = id;
    }
  }
  return best;
}

AccessRouterId VipRipManager::pickAccessRouter() const {
  MDC_EXPECT(topo_.accessLinkCount() > 0, "no access routers");
  AccessRouterId best{0};
  for (std::uint32_t i = 1; i < topo_.accessLinkCount(); ++i) {
    const AccessRouterId ar{i};
    if (intent_.vipsAt(ar) < intent_.vipsAt(best)) best = ar;
  }
  return best;
}

void VipRipManager::applyNewVip(const VipRipRequest& req, DoneGuard done) {
  MDC_EXPECT(req.app.valid(), "NewVip needs an app");
  const std::optional<SwitchId> sw = pickSwitchForVip();
  if (!sw.has_value()) return done.fire(Status::fail("vip_table_full"));
  const VipId vip = vipIds_.next();
  const AccessRouterId ar = pickAccessRouter();

  IntentRecord rec;
  rec.op = IntentOp::AddVip;
  rec.vip = vip;
  rec.app = req.app;
  rec.sw = *sw;
  rec.router = ar;
  intend(rec);

  apps_.addVip(req.app, vip);
  if (!dns_.hasApp(req.app)) dns_.registerApp(req.app);
  // A VIP is not exposed until it has at least one RIP behind it —
  // answering queries with it would black-hole clients.
  dns_.addVip(req.app, vip, 0.0);

  // Selective exposure: advertise at (typically) exactly one router.
  routes_.advertise(vip, ar, sim_.now());

  SwitchCommand cmd;
  cmd.kind = CmdKind::ConfigureVip;
  cmd.vip = vip;
  cmd.app = req.app;
  cmd.trace = req.trace;
  cmd.parentSpan = req.traceSpan;
  sender_.send(*sw, cmd,
               [this, vip, app = req.app, ar, done](Status s) mutable {
                 if (s.ok()) return done.fire(Status::okStatus());
                 if (isCancelled(s)) {
                   // Manager died mid-placement: the journaled intent
                   // survives for the next leader; don't unwind.
                   return done.fire(std::move(s));
                 }
                 // The switch rejected (or the channel gave up on) the
                 // placement: unwind the directories and the intent so
                 // the submitter can simply retry.
                 apps_.removeVip(app, vip);
                 dns_.removeVip(app, vip);
                 routes_.withdraw(vip, ar, sim_.now());
                 IntentRecord undo;
                 undo.op = IntentOp::RemoveVip;
                 undo.vip = vip;
                 intend(undo);
                 done.fire(std::move(s));
               });
}

void VipRipManager::applyNewRip(const VipRipRequest& req, DoneGuard done) {
  MDC_EXPECT(req.app.valid() && req.vm.valid(), "NewRip needs app and vm");
  if (vmAlive_ && !vmAlive_(req.vm)) {
    return done.fire(Status::fail("vm_dead"));
  }
  if (req.weight < 0.0) return done.fire(Status::fail("bad_weight"));
  const Application& app = apps_.app(req.app);
  if (app.vips.empty()) return done.fire(Status::fail("app_has_no_vips"));

  // Choose among switches intended to host one of the app's VIPs.  A VIP
  // with no RIPs at all is strongly preferred: every exposed VIP must
  // stay backed or TTL-lingering clients black-hole (§IV-A/B).
  VipId bestVip;
  double bestScore = std::numeric_limits<double>::infinity();
  for (VipId vip : app.vips) {
    const VipIntent* in = intent_.find(vip);
    if (in == nullptr) continue;
    const LbSwitch& sw = fleet_.at(in->sw);
    if (!sw.up()) continue;
    const std::uint32_t intended = intent_.ripsOn(in->sw);
    if (intended >= sw.limits().maxRips) continue;
    double score =
        static_cast<double>(intended) /
            static_cast<double>(sw.limits().maxRips) +
        sw.utilization();
    if (in->rips.empty()) score -= 1000.0;
    if (score < bestScore) {
      bestScore = score;
      bestVip = vip;
    }
  }
  if (!bestVip.valid()) return done.fire(Status::fail("no_rip_capacity"));
  bindRip(bestVip, req.vm, req.weight, req.trace, req.traceSpan,
          std::move(done));
}

void VipRipManager::bindRip(VipId vip, VmId vm, double weight, TraceId trace,
                            SpanId parentSpan, DoneGuard done) {
  RipEntry entry;
  entry.rip = ripIds_.next();
  entry.vm = vm;
  entry.weight = weight;
  IntentRecord rec;
  rec.op = IntentOp::AddRip;
  rec.vip = vip;
  rec.rip = entry;
  intend(rec);

  SwitchCommand cmd;
  cmd.kind = CmdKind::AddRip;
  cmd.vip = vip;
  cmd.rip = entry;
  cmd.trace = trace;
  cmd.parentSpan = parentSpan;
  sender_.send(intent_.find(vip)->sw, cmd,
               [this, vip, rip = entry.rip, done](Status s) mutable {
                 if (!s.ok()) {
                   if (!isCancelled(s)) dropRipIntent(vip, rip);
                   return done.fire(std::move(s));
                 }
                 syncVipDnsWeight(vip);
                 done.fire(Status::okStatus());
               });
}

void VipRipManager::syncVipDnsWeight(VipId vip) {
  const VipEntry* entry = fleet_.findVip(vip);
  if (entry == nullptr) return;
  bool exposed = false;
  for (const VipWeight& vw : dns_.vips(entry->app)) {
    if (vw.vip == vip) exposed = true;
  }
  if (!exposed) return;
  const auto f = exposureFactor_.find(vip);
  const double factor = f == exposureFactor_.end() ? 1.0 : f->second;
  dns_.setWeight(entry->app, vip, entry->totalWeight() * factor);
}

void VipRipManager::setVipExposureFactor(VipId vip, double factor) {
  MDC_EXPECT(factor >= 0.0, "negative exposure factor");
  exposureFactor_[vip] = factor;
  syncVipDnsWeight(vip);
}

double VipRipManager::vipExposureFactor(VipId vip) const {
  const auto f = exposureFactor_.find(vip);
  return f == exposureFactor_.end() ? 1.0 : f->second;
}

void VipRipManager::applyDeleteVip(const VipRipRequest& req, DoneGuard done) {
  MDC_EXPECT(req.vip.valid(), "DeleteVip needs a vip");
  const VipIntent* in = intent_.find(req.vip);
  if (in == nullptr) return done.fire(Status::fail("vip_unowned"));
  const AppId app = in->app;
  const SwitchId sw = in->sw;
  const AccessRouterId router = in->router;
  if (fleet_.at(sw).up() && fleet_.at(sw).activeConnections(req.vip) > 0) {
    return done.fire(Status::fail("vip_has_connections"));
  }

  IntentRecord rec;
  rec.op = IntentOp::RemoveVip;
  rec.vip = req.vip;
  intend(rec);  // `in` is dangling from here on

  apps_.removeVip(app, req.vip);
  dns_.removeVip(app, req.vip);
  exposureFactor_.erase(req.vip);
  if (router.valid()) routes_.withdraw(req.vip, router, sim_.now());

  SwitchCommand cmd;
  cmd.kind = CmdKind::RemoveVip;
  cmd.vip = req.vip;
  cmd.trace = req.trace;
  cmd.parentSpan = req.traceSpan;
  sender_.send(sw, cmd, [done](Status s) mutable {
    // The goal is "entry gone": an unknown VIP or a crashed switch
    // (tables wiped) already satisfies it.
    if (s.ok() || s.error().code == "vip_unknown" ||
        s.error().code == "switch_down") {
      return done.fire(Status::okStatus());
    }
    done.fire(std::move(s));
  });
}

void VipRipManager::applyDeleteRip(const VipRipRequest& req, DoneGuard done) {
  MDC_EXPECT(req.vm.valid(), "DeleteRip needs a vm");
  // A copy: the loop below removes these refs from the store.
  const std::span<const RipRef> bound = intent_.ripsOf(req.vm);
  const std::vector<RipRef> refs(bound.begin(), bound.end());
  if (refs.empty()) {
    return done.fire(Status::okStatus());  // idempotent: nothing bound
  }
  // Removal is best effort per ref, so the joined outcome stays ok.
  const auto barrier = std::make_shared<CmdBarrier>(std::move(done), true);
  for (const RipRef& ref : refs) {
    const VipIntent* in = intent_.find(ref.vip);
    const SwitchId sw = in->sw;
    const AppId app = in->app;
    dropRipIntent(ref.vip, ref.rip);
    const bool nowEmpty = intent_.find(ref.vip)->rips.empty();
    SwitchCommand cmd;
    cmd.kind = CmdKind::RemoveRip;
    cmd.vip = ref.vip;
    cmd.rip.rip = ref.rip;
    cmd.trace = req.trace;
    cmd.parentSpan = req.traceSpan;
    barrier->add();
    sender_.send(sw, cmd, [this, vip = ref.vip, barrier](Status s) {
      if (s.ok()) syncVipDnsWeight(vip);
      barrier->complete(s);
    });
    if (nowEmpty) {
      // The VIP just lost its last intended RIP.  Clients may keep
      // resolving to it for a TTL (or much longer, [18]), so try to
      // re-back it with another live instance of the application; with no
      // backing its capacity term — and hence its DNS weight — drops to
      // zero.
      (void)refillVip(ref.vip, app, req.vm, req.trace, req.traceSpan);
    }
  }
  barrier->seal();
}

bool VipRipManager::refillVip(VipId vip, AppId app, VmId excluding,
                              TraceId trace, SpanId parentSpan) {
  if (!online_) return false;  // a dead manager issues no new commands
  const VipIntent* in = intent_.find(vip);
  if (in == nullptr) return false;
  const SwitchId sw = in->sw;
  if (!fleet_.at(sw).up()) return false;
  if (intent_.ripsOn(sw) >= fleet_.at(sw).limits().maxRips) return false;
  for (VmId vm : apps_.app(app).instances) {
    if (vm == excluding) continue;
    if (vmAlive_ && !vmAlive_(vm)) continue;
    // Reuse the VM's current intended weight so traffic shares stay
    // consistent.
    const std::span<const RipRef> existing = intent_.ripsOf(vm);
    const double weight =
        existing.empty() ? 1.0
                         : intent_.find(existing.front().vip)
                               ->findRip(existing.front().rip)
                               ->weight;
    bindRip(vip, vm, weight, trace, parentSpan, DoneGuard{});
    return true;
  }
  return false;
}

void VipRipManager::dropRipIntent(VipId vip, RipId rip) {
  if (intent_.find(vip) == nullptr) return;
  IntentRecord rec;
  rec.op = IntentOp::RemoveRip;
  rec.vip = vip;
  rec.rip.rip = rip;
  intend(rec);
}

void VipRipManager::applySetWeight(const VipRipRequest& req, DoneGuard done) {
  MDC_EXPECT(req.vm.valid(), "SetWeight needs a vm");
  const std::span<const RipRef> refs = intent_.ripsOf(req.vm);
  if (refs.empty()) return done.fire(Status::fail("vm_has_no_rips"));
  if (req.weight < 0.0) return done.fire(Status::fail("bad_weight"));
  // `weight` is the VM's total serving weight; split it across the VM's
  // RIPs so a VM reachable through k VIPs is not handed k shares.
  const double perRip = req.weight / static_cast<double>(refs.size());
  const auto barrier = std::make_shared<CmdBarrier>(std::move(done), false);
  for (const RipRef& ref : refs) {
    const VipIntent* in = intent_.find(ref.vip);
    IntentRecord rec;
    rec.op = IntentOp::SetRipWeight;
    rec.vip = ref.vip;
    rec.rip.rip = ref.rip;
    rec.weight = perRip;
    intend(rec);
    SwitchCommand cmd;
    cmd.kind = CmdKind::SetRipWeight;
    cmd.vip = ref.vip;
    cmd.rip.rip = ref.rip;
    cmd.weight = perRip;
    cmd.trace = req.trace;
    cmd.parentSpan = req.traceSpan;
    barrier->add();
    sender_.send(in->sw, cmd, [this, vip = ref.vip, barrier](Status s) {
      if (s.ok()) syncVipDnsWeight(vip);
      barrier->complete(s);
    });
  }
  barrier->seal();
}

void VipRipManager::applyRestoreVip(const VipRipRequest& req, DoneGuard done) {
  MDC_EXPECT(req.vip.valid() && req.app.valid(), "RestoreVip needs vip + app");
  if (fleet_.ownerOf(req.vip).has_value()) {
    // Already re-hosted (retry raced recovery).
    return done.fire(Status::okStatus());
  }
  if (sender_.vipBusy(req.vip)) {
    // A previous restore's commands are still awaiting acks; the health
    // monitor retries with backoff, so just report busy.
    return done.fire(Status::fail("ctrl_busy"));
  }
  const std::optional<SwitchId> sw = pickSwitchForVip(req.vip);
  if (!sw.has_value()) return done.fire(Status::fail("vip_table_full"));

  // The orphan's RIP set, minus entries whose VM died with the switch
  // (the squaring below drops them from intent, or later weight updates
  // would chase a ghost).
  std::vector<RipEntry> desired;
  for (const RipEntry& r : req.rips) {
    if (r.targetsVm() && vmAlive_ && !vmAlive_(r.vm)) continue;
    desired.push_back(r);
  }

  // Point the intent at the new home; a VIP this manager has no record of
  // (a journal predating it) is adopted fresh, with no route.
  if (intent_.find(req.vip) == nullptr) {
    IntentRecord rec;
    rec.op = IntentOp::AddVip;
    rec.vip = req.vip;
    rec.app = req.app;
    rec.sw = *sw;
    intend(rec);
  } else {
    IntentRecord rec;
    rec.op = IntentOp::MoveVip;
    rec.vip = req.vip;
    rec.sw = *sw;
    intend(rec);
  }
  // Square the intended RIP set with the desired one (normally identical;
  // they diverge when commands were lost around the crash).
  std::unordered_set<RipId> want;
  for (const RipEntry& r : desired) want.insert(r.rip);
  std::vector<RipId> toDrop;
  const VipIntent* cur = intent_.find(req.vip);
  for (const RipEntry& r : cur->rips) {
    if (!want.contains(r.rip)) toDrop.push_back(r.rip);
  }
  for (RipId rip : toDrop) dropRipIntent(req.vip, rip);
  for (const RipEntry& r : desired) {
    if (intent_.find(req.vip)->findRip(r.rip) != nullptr) continue;
    IntentRecord rec;
    rec.op = IntentOp::AddRip;
    rec.vip = req.vip;
    rec.rip = r;
    intend(rec);
  }

  SwitchCommand cfg;
  cfg.kind = CmdKind::ConfigureVip;
  cfg.vip = req.vip;
  cfg.app = req.app;
  cfg.trace = req.trace;
  cfg.parentSpan = req.traceSpan;
  sender_.send(
      *sw, cfg,
      [this, vip = req.vip, app = req.app, target = *sw, desired,
       trace = req.trace, span = req.traceSpan, done](Status s) mutable {
        if (!s.ok()) {
          // No rollback: the intent keeps naming the new home and the
          // health monitor's retry (or the reconciler) finishes the job.
          return done.fire(std::move(s));
        }
        // Re-add the RIP set under the original ids (best effort per
        // entry, like the seed); then, if nothing could back the VIP,
        // re-back it with any live instance so TTL-lingering clients
        // stop black-holing.
        DoneGuard epilogue([this, vip, app, trace, span, done](
                               Status) mutable {
          if (!online_) {
            // The manager died between the ConfigureVip ack and the RIP
            // fan-out settling; the health monitor's retry finishes the
            // restore against the recovered leader.
            return done.fire(Status::fail("cancelled"));
          }
          const VipIntent* in = intent_.find(vip);
          if (in != nullptr && in->rips.empty()) {
            (void)refillVip(vip, app, VmId{}, trace, span);
          }
          syncVipDnsWeight(vip);
          done.fire(Status::okStatus());
        });
        const auto barrier =
            std::make_shared<CmdBarrier>(std::move(epilogue), true);
        for (const RipEntry& r : desired) {
          SwitchCommand cmd;
          cmd.kind = CmdKind::AddRip;
          cmd.vip = vip;
          cmd.rip = r;
          cmd.trace = trace;
          cmd.parentSpan = span;
          barrier->add();
          sender_.send(target, cmd, [this, vip, r, barrier](Status rs) {
            if (!rs.ok() && !isCancelled(rs)) dropRipIntent(vip, r.rip);
            barrier->complete(rs);
          });
        }
        barrier->seal();
      });
}

Result<VipId> VipRipManager::createVipNow(AppId app) {
  VipRipRequest req;
  req.op = VipRipOp::NewVip;
  req.app = app;
  std::optional<Status> outcome;
  applyNewVip(req, DoneGuard([&outcome](Status s) { outcome = std::move(s); }));
  MDC_ENSURE(outcome.has_value(), "createVipNow needs a reliable channel");
  if (!outcome->ok()) return outcome->error();
  return apps_.app(app).vips.back();
}

Status VipRipManager::createRipNow(AppId app, VmId vm, double weight) {
  VipRipRequest req;
  req.op = VipRipOp::NewRip;
  req.app = app;
  req.vm = vm;
  req.weight = weight;
  std::optional<Status> outcome;
  applyNewRip(req, DoneGuard([&outcome](Status s) { outcome = std::move(s); }));
  MDC_ENSURE(outcome.has_value(), "createRipNow needs a reliable channel");
  return *outcome;
}

void VipRipManager::adoptPlacement(VipId vip, SwitchId actual) {
  const VipIntent* in = intent_.find(vip);
  if (in == nullptr || in->sw == actual) return;
  IntentRecord rec;
  rec.op = IntentOp::MoveVip;
  rec.vip = vip;
  rec.sw = actual;
  intend(rec);
}

void VipRipManager::adoptRipWeight(VipId vip, RipId rip, double actual) {
  const VipIntent* in = intent_.find(vip);
  if (in == nullptr || in->findRip(rip) == nullptr) return;
  IntentRecord rec;
  rec.op = IntentOp::SetRipWeight;
  rec.vip = vip;
  rec.rip.rip = rip;
  rec.weight = actual;
  intend(rec);
}

void VipRipManager::crash() {
  online_ = false;
  // Staged and queued requests die with the process; each submitter's
  // callback sees Cancelled exactly once, in admission order.  Take both
  // before cancelling anything: a cancellation callback that reentrantly
  // submits must find the queue closed ("manager_down"), not append to a
  // dead manager's queue.
  auto staged = std::exchange(staged_, {});
  std::vector<AdmissionController::Entry> queued = admission_.drain();
  for (auto& [id, batch] : staged) {
    for (AdmissionController::Entry& p : batch) cancelPending(std::move(p));
  }
  for (AdmissionController::Entry& p : queued) cancelPending(std::move(p));
  sender_.cancelInflight();
}

void VipRipManager::recoverAsLeader(std::uint64_t term) {
  sender_.beginTerm(term);
  recoverFromDurable();
  // Fencing across restarts: the durable state remembers the highest
  // term that ever wrote to it, and a new leader must exceed it — a
  // deposed leader recovering under its old term would un-fence every
  // switch agent that already rejected it.
  MDC_EXPECT(term > durableTerm_,
             "recoverAsLeader: term must exceed recovered durable term");
  durableTerm_ = term;
  journal_.appendTermChange(term);
  online_ = true;
}

void VipRipManager::rebuildIntentFromJournal() { recoverFromDurable(); }

void VipRipManager::setupStateMachine() {
  state::DurableStateMachine::Hooks hooks;
  hooks.buildDeterministic = [this](state::ByteWriter& w) {
    serializeDurable(w);
  };
  hooks.reset = [this] {
    intent_ = IntentStore{};
    durableTerm_ = 0;
    admissionTotals_ = AdmissionTotals{};
    vipIds_ = IdAllocator<VipId>{};
    ripIds_ = IdAllocator<RipId>{};
  };
  hooks.installDeterministic = [this](state::ByteReader& r) {
    durableTerm_ = r.u64();
    admissionTotals_.rounds = r.u64();
    admissionTotals_.admitted = r.u64();
    admissionTotals_.shed = r.u64();
    admissionTotals_.expired = r.u64();
    admissionTotals_.deferred = r.u64();
    const std::uint32_t vipNext = r.u32();
    const std::uint32_t ripNext = r.u32();
    if (!r.ok()) return false;
    if (vipNext > 0) vipIds_.ensureBeyond(VipId{vipNext - 1});
    if (ripNext > 0) ripIds_.ensureBeyond(RipId{ripNext - 1});
    // The intent store is rebuilt through the same apply() the live
    // path and replay use, so snapshot-install can never diverge from
    // a from-scratch replay of the same state.
    return intent_.install(r);
  };
  hooks.applyMutation = [this](std::span<const std::uint8_t> payload) {
    JournalEntry entry;
    if (!decodeJournalEntry(payload, entry)) return false;
    if (entry.tag == kJournalTagTermChange) {
      durableTerm_ = std::max(durableTerm_, entry.term);
      return true;
    }
    if (entry.tag == kJournalTagAdmission) {
      ++admissionTotals_.rounds;
      admissionTotals_.admitted += entry.admission.admitted;
      admissionTotals_.shed += entry.admission.shed;
      admissionTotals_.expired += entry.admission.expired;
      admissionTotals_.deferred += entry.admission.deferred;
      return true;
    }
    // A CRC-valid record the store cannot legally apply marks the end
    // of the trustworthy prefix (it can only arise from data damage).
    if (!intent_.canApply(entry.record)) return false;
    intent_.apply(entry.record);
    vipIds_.ensureBeyond(entry.record.vip);
    ripIds_.ensureBeyond(entry.record.rip.rip);
    return true;
  };
  hooks.buildAdvisory = [this](state::ByteWriter& w) {
    if (advisoryBuild_) advisoryBuild_(w);
  };
  hooks.installAdvisory = [this](state::ByteReader& r) {
    if (advisoryInstall_) advisoryInstall_(r);
  };
  machine_.setHooks(std::move(hooks));
}

void VipRipManager::serializeDurable(state::ByteWriter& w) const {
  w.u64(durableTerm_);
  // Admission history is part of the deterministic section: the same
  // submission sequence must recover to the same totals bit-for-bit.
  w.u64(admissionTotals_.rounds);
  w.u64(admissionTotals_.admitted);
  w.u64(admissionTotals_.shed);
  w.u64(admissionTotals_.expired);
  w.u64(admissionTotals_.deferred);
  w.u32(vipIds_.allocated());
  w.u32(ripIds_.allocated());
  // Canonical (id-sorted) order, so equal states serialize identically.
  intent_.serialize(w);
}

void VipRipManager::setSnapshotAdvisoryHooks(
    std::function<void(state::ByteWriter&)> build,
    std::function<void(state::ByteReader&)> install) {
  advisoryBuild_ = std::move(build);
  advisoryInstall_ = std::move(install);
}

state::DurableStateMachine::SnapshotResult VipRipManager::snapshotNow(
    std::uint64_t term) {
  const auto res = machine_.takeSnapshot(term, sim_.now());
  if (res.taken && tracer_ != nullptr) {
    tracer_->record(tracer_->begin(), tracer_->newSpan(), 0,
                    HopKind::SnapshotTaken, "snapshot", res.index,
                    res.compactedRecords);
  }
  return res;
}

void VipRipManager::recoverFromDurable() {
  const state::DurableStateMachine::RecoveryStats stats =
      machine_.recover(sim_.now());
  journal_.resyncFromDurable();
  admission_.clearSilently();  // queued requests die with the crashed manager
  exposureFactor_.clear();
  // The mirror of the lost-AddVip repair below: a RemoveRip whose switch
  // acks landed (so the caller destroyed the VM) but whose journal tail
  // did not survive the crash is resurrected by replay.  Left alone, the
  // reconciler would faithfully re-program the dead VM's RIP onto the
  // switch and both sides would agree on a permanently dangling entry.
  // Re-remove it here, write-ahead, so the repair itself is durable.
  if (vmAlive_) {
    std::vector<RipRef> dead;
    intent_.forEach([&](VipId vip, const VipIntent& in) {
      for (const RipEntry& r : in.rips) {
        if (r.targetsVm() && !vmAlive_(r.vm)) dead.push_back({vip, r.rip});
      }
    });
    for (const RipRef& ref : dead) dropRipIntent(ref.vip, ref.rip);
  }
  resyncExternalFromIntent();
  if (tracer_ != nullptr) {
    const TraceId trace = tracer_->begin();
    tracer_->record(trace, tracer_->newSpan(), 0, HopKind::StateRecovered,
                    stats.usedSnapshot ? "snapshot_tail" : "full_replay",
                    stats.replayedRecords, stats.truncatedBytes);
    if (stats.snapshotsRejected > 0) {
      tracer_->record(trace, tracer_->newSpan(), 0,
                      HopKind::SnapshotRejected, "invalid",
                      stats.snapshotsRejected, 0);
    }
  }
}

void VipRipManager::resyncExternalFromIntent() {
  const SimTime now = sim_.now();
  // Retract VIPs the world still shows but the recovered intent does
  // not know (an AddVip lost with the journal tail): an exposed VIP no
  // manager intends is a black hole the reconciler can only half-heal —
  // it removes the switch-table entry but will not touch DNS for a VIP
  // it has no intent for.
  for (const Application& a : apps_.all()) {
    const std::vector<VipId> attached = a.vips;  // copy: we mutate below
    for (VipId vip : attached) {
      if (intent_.find(vip) != nullptr) continue;
      apps_.removeVip(a.id, vip);
      for (const VipWeight& vw : dns_.vips(a.id)) {
        if (vw.vip == vip) {
          dns_.removeVip(a.id, vip);
          break;
        }
      }
      for (AccessRouterId router : routes_.advertisedRouters(vip)) {
        routes_.withdraw(vip, router, now);
      }
    }
  }
  // Restore the exposure of VIPs the recovered intent knows but the
  // world lost (a RemoveVip lost with the tail): in the recovered
  // history the VIP was never deleted, so its DNS record and route
  // must come back too.
  intent_.forEach([&](VipId vip, const VipIntent& in) {
    const auto& attached = apps_.app(in.app).vips;
    if (std::find(attached.begin(), attached.end(), vip) ==
        attached.end()) {
      apps_.addVip(in.app, vip);
    }
    if (!dns_.hasApp(in.app)) dns_.registerApp(in.app);
    bool exposed = false;
    for (const VipWeight& vw : dns_.vips(in.app)) {
      if (vw.vip == vip) {
        exposed = true;
        break;
      }
    }
    if (!exposed) {
      dns_.addVip(in.app, vip, 0.0);
      syncVipDnsWeight(vip);
    }
    if (in.router.valid() && !routes_.isActive(vip, in.router)) {
      routes_.advertise(vip, in.router, now);
    }
  });
}

void VipRipManager::moveVipRoute(VipId vip, AccessRouterId to) {
  const AccessRouterId from = routerOf(vip);
  if (from == to) return;
  IntentRecord rec;
  rec.op = IntentOp::MoveRoute;
  rec.vip = vip;
  rec.router = to;
  intend(rec);
  // Pad the old route (drains but stays reachable), announce the new one,
  // and withdraw the old once the padded path has had time to drain.
  routes_.pad(vip, from, sim_.now());
  routes_.advertise(vip, to, sim_.now());
  const SimTime drain = 2.0 * routes_.propagationDelay() + 60.0;
  sim_.after(drain, [this, vip, from] {
    if (routes_.isReachable(vip, from) && !routes_.isActive(vip, from)) {
      routes_.withdraw(vip, from, sim_.now());
    }
  });
}

AccessRouterId VipRipManager::routerOf(VipId vip) const {
  const VipIntent* in = intent_.find(vip);
  MDC_EXPECT(in != nullptr && in->router.valid(),
             "vip has no advertised router");
  return in->router;
}

}  // namespace mdc
