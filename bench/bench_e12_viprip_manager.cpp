// E12 — the serialized VIP/RIP manager under churn (§III-C).
//
// All VIP/RIP reconfiguration funnels through one serialized queue whose
// per-request cost is manager decision time + the switch's multi-second
// programmatic reconfiguration.  We measure sustained throughput, queue
// growth, and request latency percentiles across offered request rates,
// plus the effect of priorities.
//
// This bench pins admission.pipelined = false to keep measuring the
// paper's serialized baseline; the serialized-vs-pipelined comparison
// (and the E12a headline number) now lives in bench_e18_command_plane.
#include <iostream>

#include "common/viprip_world.hpp"
#include "mdc/metrics/table.hpp"

namespace {

/// The paper's serialized queue (batching moved to E18): a 0.5 s
/// decision per request plus `reconfigSeconds` of switch reconfiguration.
mdc::VipRipManager::Options serialized(mdc::SimTime reconfigSeconds) {
  mdc::VipRipManager::Options o;
  o.processSeconds = 0.5;
  o.reconfigSeconds = reconfigSeconds;
  o.admission.pipelined = false;
  return o;
}

}  // namespace

int main() {
  using namespace mdc;

  Table t{"E12a: serialized queue vs offered weight-update rate "
          "(0.5 s serialized decision, 3 s parallel switch reconfig)",
          {"offered req/s", "sustained req/s", "final queue", "p50 latency s",
           "p99 latency s"}};
  for (double rate : {0.5, 1.0, 1.5, 2.0, 3.0, 5.0}) {
    bench::VipRipWorld w{serialized(3.0), SwitchLimits{}};
    const AppId app = w.apps.create("a", AppSla{}, 1.0);
    (void)w.viprip.createVipNow(app);
    for (std::uint32_t v = 0; v < 200; ++v) {
      (void)w.viprip.createRipNow(app, VmId{v}, 1.0);
    }
    // Offered load: weight updates on distinct VMs (no coalescing).
    const double duration = 600.0;
    const auto total = static_cast<std::uint32_t>(rate * duration);
    for (std::uint32_t i = 0; i < total; ++i) {
      w.sim.at(static_cast<double>(i) / rate, [&w, i, total] {
        VipRipRequest req;
        req.op = VipRipOp::SetWeight;
        req.vm = VmId{i % 200};
        req.weight = 1.0 + (static_cast<double>(i) /
                            static_cast<double>(total));
        w.viprip.submit(std::move(req));
      });
    }
    w.sim.runUntil(duration);
    const auto& lat = w.viprip.requestLatency();
    t.addRow({rate,
              static_cast<double>(w.viprip.processedRequests()) / duration,
              static_cast<long long>(w.viprip.queueLength()),
              lat.count() ? lat.quantile(0.5) : 0.0,
              lat.count() ? lat.quantile(0.99) : 0.0});
  }
  t.print(std::cout);
  std::cout << "expected shape: throughput caps near 1/decision = 2 req/s"
               " (switch reconfig adds latency but parallelizes across"
               " switches); beyond the cap the queue and latency grow"
               " without bound -> the global manager's serialized decision"
               " loop is the scarce resource (§III-C, §V-A)\n\n";

  Table c{"E12b: SetWeight coalescing keeps pod churn bounded",
          {"distinct VMs", "updates submitted", "requests applied",
           "final queue"}};
  for (std::uint32_t vms : {10u, 50u, 200u}) {
    bench::VipRipWorld w{serialized(1.0), SwitchLimits{}};
    const AppId app = w.apps.create("a", AppSla{}, 1.0);
    (void)w.viprip.createVipNow(app);
    for (std::uint32_t v = 0; v < vms; ++v) {
      (void)w.viprip.createRipNow(app, VmId{v}, 1.0);
    }
    // Pods re-decide every 5 s for 600 s: 120 updates per VM offered.
    std::uint64_t submitted = 0;
    for (int round = 0; round < 120; ++round) {
      w.sim.at(5.0 * round, [&w, vms, &submitted] {
        for (std::uint32_t v = 0; v < vms; ++v) {
          VipRipRequest req;
          req.op = VipRipOp::SetWeight;
          req.vm = VmId{v};
          req.weight = 1.0;
          w.viprip.submit(std::move(req));
          ++submitted;
        }
      });
    }
    w.sim.runUntil(600.0);
    c.addRow({static_cast<long long>(vms),
              static_cast<long long>(submitted),
              static_cast<long long>(w.viprip.processedRequests()),
              static_cast<long long>(w.viprip.queueLength())});
  }
  c.print(std::cout);
  std::cout << "expected shape: applied requests track queue drain rate,"
               " not the much larger submitted count — newer weights"
               " supersede queued ones\n\n";

  Table p{"E12c: priorities under backlog",
          {"priority", "mean latency s"}};
  {
    bench::VipRipWorld w{serialized(1.0), SwitchLimits{}};
    const AppId app = w.apps.create("a", AppSla{}, 1.0);
    (void)w.viprip.createVipNow(app);
    for (std::uint32_t v = 0; v < 100; ++v) {
      (void)w.viprip.createRipNow(app, VmId{v}, 1.0);
    }
    double hiTotal = 0.0, loTotal = 0.0;
    int hiCount = 0, loCount = 0;
    for (std::uint32_t i = 0; i < 100; ++i) {
      w.sim.at(0.1 * i, [&w, i, &hiTotal, &loTotal, &hiCount, &loCount] {
        VipRipRequest req;
        req.op = VipRipOp::NewRip;  // not coalesced
        req.app = AppId{0};
        req.vm = VmId{100 + i};
        req.priority = (i % 4 == 0) ? 5 : 0;
        const double submitted = w.sim.now();
        const bool hi = req.priority > 0;
        req.done = [&w, submitted, hi, &hiTotal, &loTotal, &hiCount,
                    &loCount](Status) {
          const double lat = w.sim.now() - submitted;
          if (hi) {
            hiTotal += lat;
            ++hiCount;
          } else {
            loTotal += lat;
            ++loCount;
          }
        };
        w.viprip.submit(std::move(req));
      });
    }
    w.sim.runUntil(600.0);
    p.addRow({std::string{"high (5)"},
              hiCount ? hiTotal / hiCount : 0.0});
    p.addRow({std::string{"normal (0)"},
              loCount ? loTotal / loCount : 0.0});
  }
  p.print(std::cout);
  std::cout << "expected shape: high-priority (capacity-bringing) requests"
               " see far lower queueing latency\n";
  return 0;
}
