// Reproduces paper fig. 8: all-to-all (n x n flows).  Paper: throughput
// per core falls ~67% from 1x1 to 24x24; per-flow rates are so low that
// GRO loses its batching opportunities, shrinking post-GRO skbs (8(c))
// and raising per-byte protocol costs.
#include <cstdio>

#include "hostsim.h"

#include "bench_common.h"

int main() {
  using namespace hostsim;
  print_section("Fig 8(a): all-to-all throughput per core (n x n flows)");
  const auto [flows, results] = bench::flows_sweep("fig08_all_to_all");
  print_paper_line(
      "throughput-per-core drop 1x1 -> 24x24",
      (1.0 - results.back().throughput_per_core_gbps /
                 results.front().throughput_per_core_gbps) *
          100,
      "%", "~67%");
  print_paper_line("receiver cores used at 24x24",
                   results.back().receiver_cores_used, "cores", "6.98");

  print_section("Fig 8(b): receiver CPU breakdown");
  bench::breakdown_table(flows, results, /*sender_side=*/false);

  print_section("Fig 8(c): post-GRO skb sizes");
  Table table({"flows", "mean skb (KB)", "fraction >= 60KB"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    table.add_row({std::to_string(flows[i]) + "x" + std::to_string(flows[i]),
                   Table::num(results[i].mean_skb_bytes / 1024.0),
                   Table::percent(results[i].skb_64kb_fraction)});
  }
  table.print();
  std::printf(
      "  (paper: the fraction of 64KB skbs collapses as flow count grows;\n"
      "   most skbs are single frames at 24x24)\n");
  return 0;
}
