#include "mdc/core/epoch_report.hpp"

#include "mdc/state/codec.hpp"

namespace mdc {

namespace {

// FlatMaps iterate in key order, so the canonical (key-sorted) encoding
// is a plain walk — no sort copy.
template <typename Id>
void encodeIdDoubleMap(const FlatMap<Id, double>& m, state::ByteWriter& w) {
  w.u64(m.size());
  for (const auto& [k, v] : m) {
    w.id(k);
    w.f64(v);
  }
}

template <typename Id>
void decodeIdDoubleMap(FlatMap<Id, double>& m, state::ByteReader& r) {
  m.clear();
  const std::uint64_t n = r.u64();
  m.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    const Id k = r.template id<Id>();
    m[k] = r.f64();
  }
}

void encodeDoubleVec(const std::vector<double>& v, state::ByteWriter& w) {
  w.u64(v.size());
  for (double x : v) w.f64(x);
}

void decodeDoubleVec(std::vector<double>& v, state::ByteReader& r) {
  v.clear();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) v.push_back(r.f64());
}

}  // namespace

void encodeEpochReport(const EpochReport& rep, state::ByteWriter& w) {
  w.f64(rep.time);
  encodeDoubleVec(rep.accessLinkUtil, w);
  encodeDoubleVec(rep.switchUtil, w);
  encodeIdDoubleMap(rep.appDemandRps, w);
  encodeIdDoubleMap(rep.appServedRps, w);
  encodeIdDoubleMap(rep.vipDemandGbps, w);
  w.f64(rep.externalOfferedGbps);
  w.f64(rep.externalServedGbps);
  w.f64(rep.unroutedRps);
  w.u64(rep.unroutedByCause.size());
  for (const auto& [cause, rps] : rep.unroutedByCause) {
    w.str(cause);
    w.f64(rps);
  }
#define MDC_ENCODE_GAUGE(field, type, wire, ...) w.wire(rep.field);
  MDC_EPOCH_REPORT_GAUGES(MDC_ENCODE_GAUGE, MDC_ENCODE_GAUGE)
#undef MDC_ENCODE_GAUGE
}

EpochReport decodeEpochReport(state::ByteReader& r) {
  EpochReport rep;
  rep.time = r.f64();
  decodeDoubleVec(rep.accessLinkUtil, r);
  decodeDoubleVec(rep.switchUtil, r);
  decodeIdDoubleMap(rep.appDemandRps, r);
  decodeIdDoubleMap(rep.appServedRps, r);
  decodeIdDoubleMap(rep.vipDemandGbps, r);
  rep.externalOfferedGbps = r.f64();
  rep.externalServedGbps = r.f64();
  rep.unroutedRps = r.f64();
  const std::uint64_t nCauses = r.u64();
  for (std::uint64_t i = 0; i < nCauses && r.ok(); ++i) {
    std::string cause = r.str();
    rep.unroutedByCause[std::move(cause)] = r.f64();
  }
#define MDC_DECODE_GAUGE(field, type, wire, ...) rep.field = r.wire();
  MDC_EPOCH_REPORT_GAUGES(MDC_DECODE_GAUGE, MDC_DECODE_GAUGE)
#undef MDC_DECODE_GAUGE
  return rep;
}

std::uint64_t hashEpochReport(const EpochReport& rep) {
  state::ByteWriter w;
  encodeEpochReport(rep, w);
  return state::fnv1a64(w.bytes());
}

}  // namespace mdc
