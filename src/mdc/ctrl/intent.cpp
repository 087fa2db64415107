#include "mdc/ctrl/intent.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "mdc/util/expect.hpp"

namespace mdc {

const RipEntry* VipIntent::findRip(RipId rip) const {
  for (const RipEntry& r : rips) {
    if (r.rip == rip) return &r;
  }
  return nullptr;
}

double VipIntent::totalWeight() const {
  double w = 0.0;
  for (const RipEntry& r : rips) w += r.weight;
  return w;
}

void encodeIntentRecord(const IntentRecord& record, state::ByteWriter& w) {
  w.u8(kJournalTagIntent);
  w.u8(static_cast<std::uint8_t>(record.op));
  w.id(record.vip);
  w.id(record.app);
  w.id(record.sw);
  w.id(record.router);
  w.id(record.rip.rip);
  w.id(record.rip.vm);
  w.id(record.rip.mvip);
  w.f64(record.rip.weight);
  w.f64(record.weight);
  w.f64(record.at);
}

bool decodeJournalEntry(std::span<const std::uint8_t> payload,
                        JournalEntry& out) {
  state::ByteReader r(payload);
  out.tag = r.u8();
  if (!r.ok()) return false;
  switch (out.tag) {
    case kJournalTagIntent: {
      const std::uint8_t op = r.u8();
      if (op > static_cast<std::uint8_t>(IntentOp::SetRipWeight)) {
        return false;
      }
      out.record.op = static_cast<IntentOp>(op);
      out.record.vip = r.id<VipId>();
      out.record.app = r.id<AppId>();
      out.record.sw = r.id<SwitchId>();
      out.record.router = r.id<AccessRouterId>();
      out.record.rip.rip = r.id<RipId>();
      out.record.rip.vm = r.id<VmId>();
      out.record.rip.mvip = r.id<VipId>();
      out.record.rip.weight = r.f64();
      out.record.weight = r.f64();
      out.record.at = r.f64();
      return r.exhausted() && std::isfinite(out.record.rip.weight) &&
             std::isfinite(out.record.weight) &&
             std::isfinite(out.record.at);
    }
    case kJournalTagTermChange:
      out.term = r.u64();
      return r.exhausted();
    case kJournalTagAdmission:
      out.admission.admitted = r.u32();
      out.admission.shed = r.u32();
      out.admission.expired = r.u32();
      out.admission.deferred = r.u32();
      return r.exhausted();
    default:
      return false;
  }
}

namespace {

/// The dense slot for `index`, grown on first touch.
template <typename T>
T& slot(std::vector<T>& v, std::size_t index) {
  if (index >= v.size()) v.resize(index + 1);
  return v[index];
}

std::uint32_t countAt(const std::vector<std::uint32_t>& v, std::size_t index) {
  return index < v.size() ? v[index] : 0;
}

}  // namespace

const VipIntent* IntentStore::find(VipId vip) const {
  const auto it = vips_.find(vip);
  return it == vips_.end() ? nullptr : &it->second;
}

std::uint32_t IntentStore::vipsOn(SwitchId sw) const {
  return countAt(vipCount_, sw.index());
}

std::uint32_t IntentStore::ripsOn(SwitchId sw) const {
  return countAt(ripCount_, sw.index());
}

std::uint32_t IntentStore::vipsAt(AccessRouterId router) const {
  return countAt(routerVipCount_, router.index());
}

std::span<const RipRef> IntentStore::ripsOf(VmId vm) const {
  if (!vm.valid() || vm.index() >= vmRips_.size()) return {};
  return vmRips_[vm.index()];
}

bool IntentStore::canApply(const IntentRecord& record) const {
  // The derived indexes are dense vectors keyed by id: an id no allocator
  // could have handed out (only damaged bytes carry one) must not size
  // them.
  constexpr std::size_t kMaxIndex = std::size_t{1} << 26;
  const bool routerFits =
      !record.router.valid() || record.router.index() < kMaxIndex;
  switch (record.op) {
    case IntentOp::AddVip:
      return !vips_.contains(record.vip) && record.sw.index() < kMaxIndex &&
             routerFits;
    case IntentOp::AddRip: {
      const VipIntent* in = find(record.vip);
      return in != nullptr && in->findRip(record.rip.rip) == nullptr &&
             (!record.rip.targetsVm() || record.rip.vm.index() < kMaxIndex);
    }
    case IntentOp::MoveVip:
      return vips_.contains(record.vip) && record.sw.index() < kMaxIndex;
    case IntentOp::MoveRoute:
      return vips_.contains(record.vip) && routerFits;
    case IntentOp::RemoveVip:
    case IntentOp::RemoveRip:
    case IntentOp::SetRipWeight:
      return vips_.contains(record.vip);
  }
  return false;
}

void IntentStore::unbindVm(const RipEntry& r, VipId vip) {
  if (!r.targetsVm()) return;
  std::vector<RipRef>& refs = vmRips_[r.vm.index()];
  const auto it =
      std::find_if(refs.begin(), refs.end(), [&](const RipRef& ref) {
        return ref.vip == vip && ref.rip == r.rip;
      });
  if (it != refs.end()) refs.erase(it);
}

void IntentStore::apply(const IntentRecord& record) {
  switch (record.op) {
    case IntentOp::AddVip: {
      MDC_EXPECT(!vips_.contains(record.vip), "AddVip: vip already intended");
      vips_.emplace(record.vip,
                    VipIntent{record.app, record.sw, record.router, {}});
      ++slot(vipCount_, record.sw.index());
      if (record.router.valid()) ++slot(routerVipCount_, record.router.index());
      return;
    }
    case IntentOp::RemoveVip: {
      const auto it = vips_.find(record.vip);
      MDC_EXPECT(it != vips_.end(), "RemoveVip: vip not intended");
      const VipIntent& in = it->second;
      for (const RipEntry& r : in.rips) unbindVm(r, record.vip);
      slot(ripCount_, in.sw.index()) -=
          static_cast<std::uint32_t>(in.rips.size());
      --slot(vipCount_, in.sw.index());
      if (in.router.valid()) --routerVipCount_[in.router.index()];
      vips_.erase(it);
      return;
    }
    case IntentOp::MoveVip: {
      const auto it = vips_.find(record.vip);
      MDC_EXPECT(it != vips_.end(), "MoveVip: vip not intended");
      VipIntent& in = it->second;
      if (in.sw == record.sw) return;
      const auto nRips = static_cast<std::uint32_t>(in.rips.size());
      slot(ripCount_, in.sw.index()) -= nRips;
      --slot(vipCount_, in.sw.index());
      in.sw = record.sw;
      slot(ripCount_, in.sw.index()) += nRips;
      ++slot(vipCount_, in.sw.index());
      return;
    }
    case IntentOp::MoveRoute: {
      const auto it = vips_.find(record.vip);
      MDC_EXPECT(it != vips_.end(), "MoveRoute: vip not intended");
      VipIntent& in = it->second;
      if (in.router.valid()) --routerVipCount_[in.router.index()];
      in.router = record.router;
      if (in.router.valid()) ++slot(routerVipCount_, in.router.index());
      return;
    }
    case IntentOp::AddRip: {
      const auto it = vips_.find(record.vip);
      MDC_EXPECT(it != vips_.end(), "AddRip: vip not intended");
      MDC_EXPECT(it->second.findRip(record.rip.rip) == nullptr,
                 "AddRip: rip already intended");
      it->second.rips.push_back(record.rip);
      ++slot(ripCount_, it->second.sw.index());
      if (record.rip.targetsVm()) {
        slot(vmRips_, record.rip.vm.index())
            .push_back(RipRef{record.vip, record.rip.rip});
      }
      return;
    }
    case IntentOp::RemoveRip: {
      const auto it = vips_.find(record.vip);
      MDC_EXPECT(it != vips_.end(), "RemoveRip: vip not intended");
      auto& rips = it->second.rips;
      const auto r =
          std::find_if(rips.begin(), rips.end(), [&](const RipEntry& e) {
            return e.rip == record.rip.rip;
          });
      if (r == rips.end()) return;
      unbindVm(*r, record.vip);
      rips.erase(r);
      --slot(ripCount_, it->second.sw.index());
      return;
    }
    case IntentOp::SetRipWeight: {
      const auto it = vips_.find(record.vip);
      MDC_EXPECT(it != vips_.end(), "SetRipWeight: vip not intended");
      for (RipEntry& r : it->second.rips) {
        if (r.rip == record.rip.rip) {
          r.weight = record.weight;
          return;
        }
      }
      return;  // rip gone meanwhile: a no-op, like the switch's own error
    }
  }
}

void IntentStore::forEach(
    const std::function<void(VipId, const VipIntent&)>& fn) const {
  for (const auto& [vip, intent] : vips_) fn(vip, intent);
}

void IntentStore::serialize(state::ByteWriter& w) const {
  std::map<VipId, const VipIntent*> sorted;
  for (const auto& [vip, in] : vips_) sorted.emplace(vip, &in);
  w.u64(sorted.size());
  for (const auto& [vip, in] : sorted) {
    w.id(vip);
    w.id(in->app);
    w.id(in->sw);
    w.id(in->router);
    w.u64(in->rips.size());
    for (const RipEntry& r : in->rips) {
      w.id(r.rip);
      w.id(r.vm);
      w.id(r.mvip);
      w.f64(r.weight);
    }
  }
}

bool IntentStore::install(state::ByteReader& r) {
  const std::uint64_t nVips = r.u64();
  for (std::uint64_t i = 0; i < nVips; ++i) {
    IntentRecord add;
    add.op = IntentOp::AddVip;
    add.vip = r.id<VipId>();
    add.app = r.id<AppId>();
    add.sw = r.id<SwitchId>();
    add.router = r.id<AccessRouterId>();
    const std::uint64_t nRips = r.u64();
    if (!r.ok() || !canApply(add)) return false;
    apply(add);
    for (std::uint64_t j = 0; j < nRips; ++j) {
      IntentRecord bind;
      bind.op = IntentOp::AddRip;
      bind.vip = add.vip;
      bind.rip.rip = r.id<RipId>();
      bind.rip.vm = r.id<VmId>();
      bind.rip.mvip = r.id<VipId>();
      bind.rip.weight = r.f64();
      if (!r.ok() || !canApply(bind)) return false;
      apply(bind);
    }
  }
  return r.ok();
}

void IntentJournal::append(const IntentRecord& record) {
  state::ByteWriter w;
  encodeIntentRecord(record, w);
  log_.append(w.bytes());
}

void IntentJournal::appendTermChange(std::uint64_t term) {
  state::ByteWriter w;
  w.u8(kJournalTagTermChange);
  w.u64(term);
  log_.append(w.bytes());
  lastTerm_ = term;
}

void IntentJournal::appendAdmission(const AdmissionRoundRecord& round) {
  state::ByteWriter w;
  w.u8(kJournalTagAdmission);
  w.u32(round.admitted);
  w.u32(round.shed);
  w.u32(round.expired);
  w.u32(round.deferred);
  log_.append(w.bytes());
}

IntentStore IntentJournal::replay() const {
  IntentStore store;
  const state::Changelog::Replay rep = log_.replay();
  for (const auto& payload : rep.records) {
    JournalEntry entry;
    if (!decodeJournalEntry(payload, entry)) break;
    if (entry.tag != kJournalTagIntent) continue;
    if (!store.canApply(entry.record)) break;
    store.apply(entry.record);
  }
  return store;
}

void IntentJournal::resyncFromDurable() {
  lastTerm_ = 0;
  const state::Changelog::Replay rep = log_.replay();
  for (const auto& payload : rep.records) {
    JournalEntry entry;
    if (!decodeJournalEntry(payload, entry)) break;
    if (entry.tag == kJournalTagTermChange) lastTerm_ = entry.term;
  }
}

}  // namespace mdc
