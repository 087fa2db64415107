#include "mdc/ctrl/intent.hpp"

#include <algorithm>
#include <cmath>

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

const VipIntent* IntentStore::find(VipId vip) const {
  const auto it = vips_.find(vip);
  return it == vips_.end() ? nullptr : &it->second;
}

std::uint32_t IntentStore::vipsOn(SwitchId sw) const {
  const auto it = vipCount_.find(sw);
  return it == vipCount_.end() ? 0 : it->second;
}

std::uint32_t IntentStore::ripsOn(SwitchId sw) const {
  const auto it = ripCount_.find(sw);
  return it == ripCount_.end() ? 0 : it->second;
}

bool IntentStore::canApply(const IntentRecord& record) const {
  switch (record.op) {
    case IntentOp::AddVip:
      return !vips_.contains(record.vip);
    case IntentOp::AddRip: {
      const VipIntent* in = find(record.vip);
      return in != nullptr && in->findRip(record.rip.rip) == nullptr;
    }
    case IntentOp::RemoveVip:
    case IntentOp::MoveVip:
    case IntentOp::MoveRoute:
    case IntentOp::RemoveRip:
    case IntentOp::SetRipWeight:
      return vips_.contains(record.vip);
  }
  return false;
}

void IntentStore::apply(const IntentRecord& record) {
  switch (record.op) {
    case IntentOp::AddVip: {
      MDC_EXPECT(!vips_.contains(record.vip), "AddVip: vip already intended");
      vips_.emplace(record.vip,
                    VipIntent{record.app, record.sw, record.router, {}});
      ++vipCount_[record.sw];
      return;
    }
    case IntentOp::RemoveVip: {
      const auto it = vips_.find(record.vip);
      MDC_EXPECT(it != vips_.end(), "RemoveVip: vip not intended");
      ripCount_[it->second.sw] -=
          static_cast<std::uint32_t>(it->second.rips.size());
      --vipCount_[it->second.sw];
      vips_.erase(it);
      return;
    }
    case IntentOp::MoveVip: {
      const auto it = vips_.find(record.vip);
      MDC_EXPECT(it != vips_.end(), "MoveVip: vip not intended");
      VipIntent& in = it->second;
      if (in.sw == record.sw) return;
      const auto nRips = static_cast<std::uint32_t>(in.rips.size());
      ripCount_[in.sw] -= nRips;
      --vipCount_[in.sw];
      in.sw = record.sw;
      ripCount_[in.sw] += nRips;
      ++vipCount_[in.sw];
      return;
    }
    case IntentOp::MoveRoute: {
      const auto it = vips_.find(record.vip);
      MDC_EXPECT(it != vips_.end(), "MoveRoute: vip not intended");
      it->second.router = record.router;
      return;
    }
    case IntentOp::AddRip: {
      const auto it = vips_.find(record.vip);
      MDC_EXPECT(it != vips_.end(), "AddRip: vip not intended");
      MDC_EXPECT(it->second.findRip(record.rip.rip) == nullptr,
                 "AddRip: rip already intended");
      it->second.rips.push_back(record.rip);
      ++ripCount_[it->second.sw];
      return;
    }
    case IntentOp::RemoveRip: {
      const auto it = vips_.find(record.vip);
      MDC_EXPECT(it != vips_.end(), "RemoveRip: vip not intended");
      auto& rips = it->second.rips;
      const auto sizeBefore = rips.size();
      std::erase_if(rips,
                    [&](const RipEntry& r) { return r.rip == record.rip.rip; });
      if (rips.size() < sizeBefore) --ripCount_[it->second.sw];
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
