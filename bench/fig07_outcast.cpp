// Reproduces paper fig. 7: outcast (1 sender core -> n receiver cores),
// focusing on throughput-per-SENDER-core.  Paper: the sender-side
// pipeline reaches ~89Gbps per core at 8 flows (~2.1x the incast
// receiver), TSO stays effective with flow count, the sender L3 stays
// warm (~11% misses at 24 flows), and data copy dominates sender cycles.
#include <cstdio>

#include "hostsim.h"

#include "bench_common.h"

int main() {
  using namespace hostsim;
  print_section("Fig 7(a,c): outcast throughput per sender core");
  const auto [flows, results] = bench::flows_sweep("fig07_outcast");
  print_paper_line("peak throughput-per-sender-core",
                   results[1].throughput_per_sender_core_gbps, "Gbps", "~89");
  print_paper_line("sender copy-destination miss at 24 flows",
                   results.back().tx_copy_miss_rate * 100, "%", "~11%");

  print_section("Fig 7(b): sender CPU breakdown");
  bench::breakdown_table(flows, results, /*sender_side=*/true);
  std::printf(
      "  (paper: data copy is the dominant sender-side consumer even when\n"
      "   the sender core is the bottleneck)\n");
  return 0;
}
