// Causal tracing of a VIP transfer, end to end.
//
// Crashes a switch with tracing enabled and dumps everything the
// observability layer saw: the JSONL span trace of every RestoreVip
// command (submit -> send -> channel -> agent -> ack -> terminal), a
// JSONL snapshot of the metrics registry, and a CSV of the engine's
// recovery timeseries.  Inspect the artifacts with standard tools:
//
//   $ ./example_trace_vip_transfer
//   $ jq 'select(.hop == "cmd_acked")' trace_vip_transfer.spans.jsonl
//   $ jq 'select(.name | startswith("mdc.health"))' trace_vip_transfer.metrics.jsonl
#include <fstream>
#include <iostream>

#include "mdc/obs/export.hpp"
#include "mdc/scenario/megadc.hpp"

int main() {
  using namespace mdc;

  MegaDcConfig cfg = testScaleConfig();
  cfg.tracing.enabled = true;
  cfg.tracing.ringCapacity = 1u << 16;
  // A lossy command channel makes the trace interesting: drops show up
  // as chan_drop hops and the retries that survive them as repeated
  // cmd_transmit events on the same span.
  cfg.ctrlFaults.dropRate = 0.1;
  cfg.ctrlFaults.delaySeconds = 0.05;

  MegaDc dc{cfg};
  dc.bootstrap();
  dc.runUntil(100.0);

  const SwitchId victim{0};
  std::cout << "t=100s: crashing switch 0 ("
            << dc.fleet.at(victim).vipCount()
            << " VIPs hosted) with tracing on; repair at t=160s\n";
  dc.faults->crashSwitch(victim, 100.0, /*repairAfter=*/60.0);
  dc.runUntil(220.0);

  const TraceRing& ring = dc.tracer->ring();
  std::cout << "trace ring: " << ring.total() << " events recorded, "
            << ring.overwritten() << " overwritten\n";

  {
    std::ofstream out("trace_vip_transfer.spans.jsonl");
    const std::size_t lines = exportSpansJsonl(ring, out);
    std::cout << "wrote trace_vip_transfer.spans.jsonl (" << lines
              << " events)\n";
  }
  {
    std::ofstream out("trace_vip_transfer.metrics.jsonl");
    const std::size_t lines = exportMetricsJsonl(dc.metrics, out);
    std::cout << "wrote trace_vip_transfer.metrics.jsonl (" << lines
              << " samples)\n";
  }
  {
    const TimeSeries* series[] = {&dc.engine->satisfaction(),
                                  &dc.engine->unroutedRps(),
                                  &dc.engine->maxSwitchUtil()};
    std::ofstream out("trace_vip_transfer.timeseries.csv");
    const std::size_t rows = exportTimeSeriesCsv(series, out);
    std::cout << "wrote trace_vip_transfer.timeseries.csv (" << rows
              << " rows)\n";
  }

  std::cout << "\nrecovery summary: " << dc.health->vipsRestored()
            << " VIPs restored, " << dc.health->pendingVipRestores()
            << " still pending; "
            << dc.manager->viprip().ctrlSender().retransmits()
            << " control retransmits survived the lossy channel\n";
  return 0;
}
