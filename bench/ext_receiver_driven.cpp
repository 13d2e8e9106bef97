// Extension (paper §3.3): "the sender-driven nature of TCP precludes
// the receiver to control the number of active flows per core ... We
// believe receiver-driven protocols can provide such control, thus
// enabling CPU-efficient transport designs."
//
// This bench tests the claim with a real transport, not a bolt-on
// credit scheduler: net::HomaTransport carries whole messages under
// receiver grants (blind unscheduled first window, SRPT grant ordering,
// per-core active-message caps, no per-connection buffers).  The
// headline experiment is the paper's worst case — short-message incast —
// comparing RPC tail latency against stock TCP on identical hardware.
//
// --gate exits nonzero unless Homa's 8:1 incast short-message p99 beats
// TCP's (the §3.3 claim as an executable assertion; ctest runs this).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace {

using namespace hostsim;

Metrics run_incast(TransportKind kind, int flows, bool quick) {
  ExperimentConfig config;
  config.traffic.pattern = Pattern::rpc_incast;
  config.traffic.flows = flows;
  config.traffic.rpc_size = 16 * kKiB;
  config.stack.transport.kind = kind;
  config.warmup = 5 * kMillisecond;
  config.duration = 20 * kMillisecond;
  return run_experiment(bench::quick_adjust(config, quick));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hostsim;
  const bool quick = bench::quick_mode(argc, argv);
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--gate") gate = true;
  }

  print_section(
      "§3.3 projection: receiver-driven message transport vs TCP, "
      "16KB RPC incast");
  Table table({"transport", "fan-in", "rpc/s", "p50 (us)", "p99 (us)",
               "tput/core (Gbps)", "rx miss"});
  Nanos tcp_p99_8 = 0;
  Nanos homa_p99_8 = 0;
  for (TransportKind kind : {TransportKind::tcp, TransportKind::homa}) {
    for (int flows : {4, 8, 16}) {
      const Metrics metrics = run_incast(kind, flows, quick);
      if (flows == 8) {
        (kind == TransportKind::tcp ? tcp_p99_8 : homa_p99_8) =
            metrics.rpc_latency_p99;
      }
      table.add_row({std::string(to_string(kind)), std::to_string(flows),
                     Table::num(metrics.rpc_transactions_per_sec, 0),
                     Table::num(metrics.rpc_latency_p50 / 1000.0),
                     Table::num(metrics.rpc_latency_p99 / 1000.0),
                     Table::num(metrics.throughput_per_core_gbps),
                     Table::percent(metrics.rx_copy_miss_rate)});
    }
  }
  table.print();
  std::printf(
      "  (TCP queues every sender's burst through one shared receive\n"
      "   pipeline; Homa's per-core active-message cap admits few\n"
      "   messages at a time and SRPT grants finish them in order)\n");

  // 256KB messages: 4x the unscheduled window, so most bytes move under
  // grants and the active-message cap actually schedules (16KB RPCs are
  // all-unscheduled and never touch the grant path).
  print_section("Grant policy sweep (8:1 incast, Homa, 256KB RPCs)");
  Table policy({"max active msgs/core", "rpc/s", "p99 (us)", "rx miss"});
  for (int active : {1, 2, 4, 8}) {
    ExperimentConfig config;
    config.traffic.pattern = Pattern::rpc_incast;
    config.traffic.flows = 8;
    config.traffic.rpc_size = 256 * kKiB;
    config.stack.transport.kind = TransportKind::homa;
    config.stack.transport.homa_max_active = active;
    config.warmup = 5 * kMillisecond;
    config.duration = 20 * kMillisecond;
    const Metrics metrics = run_experiment(bench::quick_adjust(config, quick));
    policy.add_row({std::to_string(active),
                    Table::num(metrics.rpc_transactions_per_sec, 0),
                    Table::num(metrics.rpc_latency_p99 / 1000.0),
                    Table::percent(metrics.rx_copy_miss_rate)});
  }
  policy.print();
  std::printf(
      "  (limiting concurrent grant holders keeps the aggregate standing\n"
      "   queue within the DDIO slice: the incast miss-rate penalty of\n"
      "   fig. 6 is a flow-control artifact, not a fundamental cost)\n");

  if (gate) {
    std::printf("\ngate: homa p99 %.1fus vs tcp p99 %.1fus at 8:1 -> %s\n",
                homa_p99_8 / 1000.0, tcp_p99_8 / 1000.0,
                homa_p99_8 < tcp_p99_8 ? "PASS" : "FAIL");
    if (homa_p99_8 <= 0 || tcp_p99_8 <= 0) return 1;
    if (homa_p99_8 >= tcp_p99_8) return 1;
  }
  return 0;
}
