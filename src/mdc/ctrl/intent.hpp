// Intended VIP/RIP state, and the write-ahead journal that makes it
// crash-recoverable.
//
// With an unreliable channel the manager can no longer treat the switch
// tables as its own bookkeeping: a command may be lost, may land late, or
// may land twice on the wrong side of a retry.  The IntentStore is the
// manager's *authoritative* picture — which switch each VIP should live
// on, with which RIP set and weights — kept separate from the fleet's
// actual tables; the anti-entropy reconciler compares the two and heals
// the difference.
//
// Every intent mutation is a small IntentRecord appended to the journal
// *before* it is applied to the store (write-ahead).  The journal's
// durable form is a checksummed state::Changelog: each record is framed
// with a length prefix and CRC32, so replay after a simulated crash
// trusts only the longest valid prefix of the bytes — a torn tail or a
// corrupted record is cut off, never replayed as garbage.  Fencing-term
// changes are journaled too (as their own record tag), so the recovered
// state knows the highest term that ever wrote to it.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "mdc/lb/lb_switch.hpp"
#include "mdc/state/changelog.hpp"
#include "mdc/util/ids.hpp"
#include "mdc/util/units.hpp"

namespace mdc {

/// Where one VIP should live and what should be behind it.
struct VipIntent {
  AppId app;
  SwitchId sw;
  AccessRouterId router;
  std::vector<RipEntry> rips;

  [[nodiscard]] const RipEntry* findRip(RipId rip) const;
  [[nodiscard]] double totalWeight() const;
};

enum class IntentOp : std::uint8_t {
  AddVip,       // vip, app, sw, router
  RemoveVip,    // vip
  MoveVip,      // vip, sw (placement change; RIP set travels along)
  MoveRoute,    // vip, router
  AddRip,       // vip, rip
  RemoveRip,    // vip, rip.rip
  SetRipWeight  // vip, rip.rip, weight
};

struct IntentRecord {
  IntentOp op = IntentOp::AddVip;
  VipId vip;
  AppId app;
  SwitchId sw;
  AccessRouterId router;
  RipEntry rip;
  double weight = 0.0;
  SimTime at = 0.0;
};

// Changelog payload tags: first byte of every journal record.
inline constexpr std::uint8_t kJournalTagIntent = 0;
inline constexpr std::uint8_t kJournalTagTermChange = 1;
inline constexpr std::uint8_t kJournalTagAdmission = 2;

/// One scheduling round's admission decisions (E18): how many requests
/// were admitted to the batch, shed for overload since the previous
/// round, expired on their deadline budget, and deferred on a footprint
/// conflict.  Journaled write-ahead like intent mutations, so the
/// recovered state hash covers the admission history bit-identically.
struct AdmissionRoundRecord {
  std::uint32_t admitted = 0;
  std::uint32_t shed = 0;
  std::uint32_t expired = 0;
  std::uint32_t deferred = 0;
};

/// One decoded changelog payload: an intent mutation, a term change, or
/// an admission round.
struct JournalEntry {
  std::uint8_t tag = kJournalTagIntent;
  IntentRecord record;    // valid when tag == kJournalTagIntent
  std::uint64_t term = 0; // valid when tag == kJournalTagTermChange
  AdmissionRoundRecord admission;  // valid when tag == kJournalTagAdmission
};

void encodeIntentRecord(const IntentRecord& record, state::ByteWriter& w);

/// Strict decode of one changelog payload: unknown tag, out-of-range op,
/// non-finite weight, or leftover bytes all fail — a CRC-valid but
/// semantically malformed record must stop replay, not corrupt state.
[[nodiscard]] bool decodeJournalEntry(std::span<const std::uint8_t> payload,
                                      JournalEntry& out);

/// One intended RIP that targets a VM: the VIP it backs and its id.
struct RipRef {
  VipId vip;
  RipId rip;
};

/// The intended VIP/RIP state plus the indexes derived from it.  Every
/// index is maintained inside apply(), so live mutation, journal replay
/// and snapshot install keep them in step by construction; no caller
/// keeps a copy of its own.
class IntentStore {
 public:
  [[nodiscard]] const VipIntent* find(VipId vip) const;
  [[nodiscard]] std::size_t vipCount() const noexcept { return vips_.size(); }

  /// Intended occupancy per switch (placement scoring under in-flight
  /// commands, where actual tables lag intent).
  [[nodiscard]] std::uint32_t vipsOn(SwitchId sw) const;
  [[nodiscard]] std::uint32_t ripsOn(SwitchId sw) const;
  /// Intended VIPs advertised at an access router.
  [[nodiscard]] std::uint32_t vipsAt(AccessRouterId router) const;
  /// Every intended RIP that targets `vm`, in AddRip-apply order.  The
  /// span is valid until the next apply().
  [[nodiscard]] std::span<const RipRef> ripsOf(VmId vm) const;

  /// Whether apply() would accept the record.  The live path asserts on
  /// the same conditions (a malformed live mutation is a bug); replay
  /// checks first and treats a refusal as end-of-valid-journal.
  [[nodiscard]] bool canApply(const IntentRecord& record) const;

  /// Applies one mutation.  The same function serves live updates and
  /// journal replay, so the two can never diverge.
  void apply(const IntentRecord& record);

  void forEach(
      const std::function<void(VipId, const VipIntent&)>& fn) const;

  /// Canonical snapshot form: VIPs sorted by id, each VIP's RIPs in
  /// intent (append) order, so equal states serialize to equal bytes.
  void serialize(state::ByteWriter& w) const;
  /// Applies a serialize()d section to this (empty) store through
  /// apply(); false on malformed or inapplicable bytes.
  [[nodiscard]] bool install(state::ByteReader& r);

 private:
  void unbindVm(const RipEntry& r, VipId vip);

  std::unordered_map<VipId, VipIntent> vips_;
  // Dense indexes keyed by id index.
  std::vector<std::uint32_t> vipCount_;        // per switch
  std::vector<std::uint32_t> ripCount_;        // per switch
  std::vector<std::uint32_t> routerVipCount_;  // per access router
  std::vector<std::vector<RipRef>> vmRips_;    // per VM
};

/// Write-ahead journal over a checksummed changelog.  The durable bytes
/// are the only copy: replay and recovery always parse them.
class IntentJournal {
 public:
  void append(const IntentRecord& record);
  /// Journals a fencing-term change (not an intent mutation: replay
  /// skips term records).
  void appendTermChange(std::uint64_t term);
  /// Journals one scheduling round's admission counts (skipped by
  /// replay, like term changes).
  void appendAdmission(const AdmissionRoundRecord& round);

  /// Rebuilds the intended state by replaying the longest valid prefix
  /// of the durable bytes — stops at the first malformed record instead
  /// of asserting or propagating garbage.
  [[nodiscard]] IntentStore replay() const;

  /// Re-derives the highest journaled term from the durable valid
  /// prefix.  Called after recovery truncated the changelog, so
  /// lastTerm() never reports a term whose record was cut off.
  void resyncFromDurable();

  /// Highest term ever journaled (0 before the first term change).
  [[nodiscard]] std::uint64_t lastTerm() const noexcept { return lastTerm_; }

  [[nodiscard]] state::Changelog& changelog() noexcept { return log_; }
  [[nodiscard]] const state::Changelog& changelog() const noexcept {
    return log_;
  }

 private:
  state::Changelog log_;
  std::uint64_t lastTerm_ = 0;
};

}  // namespace mdc
