// Reproduces paper fig. 5: one-to-one traffic (n sender cores -> n
// receiver cores, one flow each), n in {1, 8, 16, 24}.  Paper: the
// network saturates at 8 flows; throughput-per-core then degrades (to
// ~15Gbps at 24 flows, -64%) as optimizations lose effectiveness; memory
// overhead falls (page recycling) while scheduling overhead rises.
//
// Thin wrapper over the built-in `fig05_one_to_one` campaign — the same
// grid `hostsim_sweep run fig05_one_to_one` executes (with caching and
// artifacts); this binary just prints the paper-style tables.
#include <cstdio>

#include "hostsim.h"

#include "bench_common.h"

int main() {
  using namespace hostsim;
  print_section("Fig 5(a): one-to-one throughput per core");
  const auto [flows, results] = bench::flows_sweep("fig05_one_to_one");
  print_paper_line(
      "throughput-per-core drop 1 -> 24 flows",
      (1.0 - results.back().throughput_per_core_gbps /
                 results.front().throughput_per_core_gbps) *
          100,
      "%", "~64% (42 -> ~15 Gbps)");
  print_paper_line("receiver cores used at 24 flows",
                   results.back().receiver_cores_used, "cores", "6.58");

  print_section("Fig 5(b): sender CPU breakdown");
  bench::breakdown_table(flows, results, /*sender_side=*/true);

  print_section("Fig 5(c): receiver CPU breakdown");
  bench::breakdown_table(flows, results, /*sender_side=*/false);
  std::printf(
      "  (paper: with more flows, data-copy share falls; memory overhead\n"
      "   falls via better page recycling; scheduling overhead rises)\n");
  return 0;
}
