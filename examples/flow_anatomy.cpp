// Flow anatomy: use the flight recorder to watch one TCP flow's first
// few hundred microseconds through the stack — deliveries, copies, ACKs
// — annotated for reading.  Demonstrates Metrics::trace and the
// per-event view behind the aggregate numbers.
//
//   $ ./flow_anatomy [events]     (default 40)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "hostsim.h"


int main(int argc, char** argv) {
  using namespace hostsim;
  const int show = argc > 1 ? std::atoi(argv[1]) : 40;

  ExperimentConfig config;
  config.obs.trace_capacity = 1 << 16;
  config.warmup = 0;
  config.duration = 2 * kMillisecond;
  const Metrics metrics = run_experiment(config);

  std::printf("first %d flight-recorder events of a single 100Gbps flow\n",
              show);
  std::printf("%-10s %-6s %-12s %s\n", "t (us)", "host", "event", "detail");
  int printed = 0;
  for (const TraceRecord& record : metrics.trace) {
    if (printed++ >= show) break;
    const char* host = record.host == 0 ? "snd" : "rcv";
    char detail[128];
    switch (record.kind) {
      case TraceKind::skb_deliver:
        std::snprintf(detail, sizeof detail, "seq=%lld len=%lld",
                      static_cast<long long>(record.a),
                      static_cast<long long>(record.b));
        break;
      case TraceKind::data_copy:
        std::snprintf(detail, sizeof detail, "copied %lld bytes to userspace",
                      static_cast<long long>(record.b));
        break;
      case TraceKind::ack_tx:
        std::snprintf(detail, sizeof detail, "ack=%lld window=%lld",
                      static_cast<long long>(record.a),
                      static_cast<long long>(record.b));
        break;
      case TraceKind::ack_rx:
        std::snprintf(detail, sizeof detail, "ack=%lld newly=%lld",
                      static_cast<long long>(record.a),
                      static_cast<long long>(record.b));
        break;
      default:
        std::snprintf(detail, sizeof detail, "a=%lld b=%lld",
                      static_cast<long long>(record.a),
                      static_cast<long long>(record.b));
    }
    std::printf("%-10.2f %-6s %-12s %s\n",
                static_cast<double>(record.at) / 1000.0, host,
                std::string(to_string(record.kind)).c_str(), detail);
  }
  std::printf(
      "\n(%zu events recorded in 2ms; rerun with a larger argument or use\n"
      " hostsim_cli --trace=N for other workloads)\n",
      metrics.trace.size());
  return 0;
}
