// Chaos laboratory: a single flow run under the full fault-injection
// arsenal — bursty (Gilbert–Elliott) wire loss plus a mid-run link flap —
// with the stall watchdog armed and an end-of-run invariant sweep.
// Demonstrates three robustness claims:
//
//  1. chaos is deterministic: the same seed reproduces the same run,
//     byte for byte;
//  2. TCP recovers: post-flap throughput returns to within 10% of the
//     pre-flap rate after a grace period; and
//  3. the invariant checker works: --leak drops one delivered skb on the
//     floor (without releasing its pages) and the page-leak check names
//     the leaked pages.
//
//   $ ./chaos_lab [--seed=N] [--leak]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "hostsim.h"


namespace {

using namespace hostsim;

constexpr Nanos kPreStart = 5 * kMillisecond;    // warm-up ends
constexpr Nanos kFlapAt = 20 * kMillisecond;     // link goes down
constexpr Nanos kFlapFor = 2 * kMillisecond;     // outage length
constexpr Nanos kGraceEnd = 35 * kMillisecond;   // recovery grace ends
constexpr Nanos kRunEnd = 50 * kMillisecond;

struct ChaosResult {
  Bytes total = 0;            // delivered to the receiver app, whole run
  double pre_flap_gbps = 0;   // [kPreStart, kFlapAt)
  double post_flap_gbps = 0;  // [kGraceEnd, kRunEnd)
  FaultCounters faults;
  std::vector<InvariantViolation> violations;
};

ChaosResult run_chaos(std::uint64_t seed, bool leak) {
  ExperimentConfig config;
  config.seed = seed;
  config.faults.gilbert_elliott =
      GilbertElliottConfig::for_average_loss(1e-3);
  config.faults.link_flaps.push_back({kFlapAt, kFlapFor});

  Testbed testbed(config);
  Workload workload = build_workload(testbed, config.traffic);
  workload.start();
  if (leak) testbed.receiver().stack().leak_next_skb();

  Watchdog watchdog(WatchdogConfig::for_duration(kRunEnd));
  watchdog.set_progress_probe([&testbed] { return testbed.app_progress(); });
  watchdog.set_activity_probe(
      [&testbed] { return testbed.transfers_outstanding(); });
  watchdog.arm(testbed.executor(), kRunEnd);

  Stack& rx = testbed.receiver().stack();
  testbed.run_until(kPreStart);
  const Bytes at_pre_start = rx.total_delivered_to_app();
  testbed.run_until(kFlapAt);
  const Bytes at_flap = rx.total_delivered_to_app();
  testbed.run_until(kGraceEnd);
  const Bytes at_grace_end = rx.total_delivered_to_app();
  testbed.run_until(kRunEnd);
  const Bytes at_end = rx.total_delivered_to_app();

  ChaosResult result;
  result.total = at_end;
  result.pre_flap_gbps = to_gbps(at_flap - at_pre_start, kFlapAt - kPreStart);
  result.post_flap_gbps = to_gbps(at_end - at_grace_end, kRunEnd - kGraceEnd);
  result.faults = testbed.faults()->counters();
  result.faults.watchdog_trips += watchdog.trips();

  InvariantChecker checker;
  testbed.register_invariants(checker);
  result.violations = checker.run();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hostsim;
  std::uint64_t seed = 1;
  bool leak = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--leak") leak = true;
    else if (arg.substr(0, 7) == "--seed=") {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: chaos_lab [--seed=N] [--leak]\n");
      return 2;
    }
  }

  std::printf("chaos run: GE bursty loss (avg 1e-3) + %lldms link flap at "
              "%lldms, seed %llu%s\n",
              static_cast<long long>(kFlapFor / kMillisecond),
              static_cast<long long>(kFlapAt / kMillisecond),
              static_cast<unsigned long long>(seed),
              leak ? ", one skb deliberately leaked" : "");

  const ChaosResult run = run_chaos(seed, leak);
  Metrics fault_report;
  fault_report.faults = run.faults;
  print_fault_summary(fault_report);
  std::printf("  delivered:        %8.1f MB\n",
              static_cast<double>(run.total) / 1e6);
  std::printf("  pre-flap rate:    %8.1f Gbps   [%lld, %lld) ms\n",
              run.pre_flap_gbps,
              static_cast<long long>(kPreStart / kMillisecond),
              static_cast<long long>(kFlapAt / kMillisecond));
  std::printf("  post-flap rate:   %8.1f Gbps   [%lld, %lld) ms\n",
              run.post_flap_gbps,
              static_cast<long long>(kGraceEnd / kMillisecond),
              static_cast<long long>(kRunEnd / kMillisecond));

  bool ok = true;

  const double recovery = run.post_flap_gbps / run.pre_flap_gbps;
  const bool recovered = recovery > 0.9;
  std::printf("  recovery:         %8.1f %% of pre-flap rate -> %s\n",
              recovery * 100, recovered ? "OK (within 10%)" : "FAILED");
  ok = ok && recovered;

  const ChaosResult rerun = run_chaos(seed, leak);
  const bool deterministic = rerun.total == run.total &&
                             rerun.faults.wire_faults() ==
                                 run.faults.wire_faults();
  std::printf("  determinism:      rerun delivered %.1f MB with %llu wire "
              "faults -> %s\n",
              static_cast<double>(rerun.total) / 1e6,
              static_cast<unsigned long long>(rerun.faults.wire_faults()),
              deterministic ? "identical" : "MISMATCH");
  ok = ok && deterministic;

  if (leak) {
    // The deliberate leak must be caught, and the diagnostic must name
    // the leaked page(s).
    if (run.violations.empty()) {
      std::printf("  invariants:       leak NOT detected -> FAILED\n");
      ok = false;
    } else {
      std::printf("  invariants:       leak detected, as intended:\n%s",
                  InvariantChecker::format(run.violations).c_str());
    }
  } else if (run.violations.empty()) {
    std::printf("  invariants:       all checks passed\n");
  } else {
    std::printf("  invariants:       FAILED\n%s",
                InvariantChecker::format(run.violations).c_str());
    ok = false;
  }
  return ok ? 0 : 1;
}
