// Reproduces paper fig. 6: incast (n sender cores -> 1 receiver core).
// Paper: throughput-per-core falls ~19% by 8 flows; the receiver-side
// LLC miss rate climbs from 48% to 78% as flows compete for the same L3,
// raising per-byte copy cost; the CPU breakdown barely shifts.
#include <cstdio>

#include "hostsim.h"

#include "bench_common.h"

int main() {
  using namespace hostsim;
  print_section("Fig 6(a,c): incast throughput per core & miss rate");
  const auto [flows, results] = bench::flows_sweep("fig06_incast");
  print_paper_line(
      "throughput-per-core drop 1 -> 8 flows",
      (1.0 - results[1].throughput_per_core_gbps /
                 results[0].throughput_per_core_gbps) *
          100,
      "%", "~19%");
  print_paper_line("miss rate at 8 flows", results[1].rx_copy_miss_rate * 100,
                   "%", "78% (48% at 1 flow)");

  print_section("Fig 6(b): receiver CPU breakdown");
  bench::breakdown_table(flows, results, /*sender_side=*/false);
  std::printf(
      "  (paper: the fractional breakdown does not change significantly\n"
      "   with flow count; the degradation is per-byte copy cost)\n");
  return 0;
}
