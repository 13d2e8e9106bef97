// The end-of-run page-leak sweep: its use-after-free branch, the host
// order of its verdict when every shard checks its own hosts, and a seeded
// property test holding its verdict to a reference computed the way the
// sweep used to work — hash sets over the public collectors and the
// allocator's live pages.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/experiment.h"
#include "core/patterns.h"
#include "sim/invariant_checker.h"
#include "sim/rng.h"

namespace hostsim {
namespace {

/// The page-leak violation's text, or nullopt when that check passed.
std::optional<std::string> page_leak_verdict(Cluster& cluster) {
  InvariantChecker checker;
  cluster.register_invariants(checker);
  for (const InvariantViolation& violation : checker.run()) {
    if (violation.check == "page-leak") return violation.detail;
  }
  return std::nullopt;
}

/// The verdict as the hash-set sweep computed it: the first 8 leaked
/// pages in arena (id) order, the live count and the distinct held count.
std::optional<std::string> reference_verdict(Cluster& cluster) {
  for (int h = 0; h < cluster.num_hosts(); ++h) {
    Host& host = cluster.host(h);
    std::vector<const Page*> collected;
    host.nic().collect_held_pages(collected);
    host.stack().collect_held_pages(collected);
    const std::unordered_set<const Page*> held(collected.begin(),
                                               collected.end());
    const PageAllocator& allocator = host.allocator();
    std::vector<const Page*> live;
    for (PageId id = 1; id <= allocator.pages_created(); ++id) {
      if (allocator.page(id)->refs > 0) live.push_back(allocator.page(id));
    }
    const std::unordered_set<const Page*> live_set(live.begin(), live.end());
    for (const Page* page : held) {
      if (live_set.count(page) == 0) {
        return host.name() + ": holds a reference to freed page id " +
               std::to_string(page->id) + " — use after free";
      }
    }
    std::string detail;
    int leaked = 0;
    for (const Page* page : live) {
      if (held.count(page) != 0 || ++leaked > 8) continue;
      detail += (detail.empty() ? "page id " : ", ") +
                std::to_string(page->id) + " (refs=" +
                std::to_string(page->refs) + ")";
    }
    if (leaked > 0) {
      return host.name() + ": " + std::to_string(leaked) +
             " leaked page(s): " + detail + (leaked > 8 ? ", ..." : "") +
             " (live=" + std::to_string(live.size()) +
             ", held=" + std::to_string(held.size()) + ")";
    }
  }
  return std::nullopt;
}

TEST(PageSweepTest, FreedPageStillHeldIsAUseAfterFree) {
  ExperimentConfig config;
  Testbed testbed(config);
  Workload workload = build_workload(testbed, config.traffic);
  workload.start();
  testbed.run_until(3 * kMillisecond);

  // Two pages the receiver's NIC holds, each by one reference only: the
  // first such page collected, and a later one with a lower id.  Naming
  // the first in collection order is then neither naming the lowest id
  // nor the last one collected.
  Host& receiver = testbed.receiver();
  std::vector<const Page*> nic_held;
  receiver.nic().collect_held_pages(nic_held);
  const Page* first = nullptr;
  const Page* second = nullptr;
  for (const Page* page : nic_held) {
    if (page->refs != 1) continue;
    if (first == nullptr) {
      first = page;
    } else if (page->id < first->id) {
      second = page;
      break;
    }
  }
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);

  // Drop every reference to both on an idle receiver core: the task runs
  // inside post(), and nothing simulates after it.
  Core* idle = nullptr;
  for (int c = 0; c < receiver.num_cores() && idle == nullptr; ++c) {
    if (receiver.core(c).idle()) idle = &receiver.core(c);
  }
  ASSERT_NE(idle, nullptr);
  Context context{"test", false};
  idle->post(context, [&](Core& core) {
    for (const Page* page : {first, second}) {
      // The collectors hand out const pages; this test frees them on
      // purpose while the NIC still holds them.
      Page* freed = const_cast<Page*>(page);
      while (freed->refs > 0) receiver.allocator().release(core, freed);
    }
  });
  ASSERT_EQ(first->refs, 0);
  ASSERT_EQ(second->refs, 0);

  InvariantChecker checker;
  testbed.register_invariants(checker);
  const std::vector<InvariantViolation> violations = checker.run();
  ASSERT_EQ(violations.size(), 1u) << InvariantChecker::format(violations);
  EXPECT_EQ(violations[0].check, "page-leak");
  EXPECT_EQ(violations[0].detail,
            "receiver: holds a reference to freed page id " +
                std::to_string(first->id) + " — use after free");
}

/// A 9-host RPC incast run for 2 ms at `shards` shards, leaking one skb
/// at each host in `leak_hosts`.  Hosts 2 and 7 sit on different shards
/// at K = 2, 3 and 4.
std::unique_ptr<Testbed> leaky_rpc_incast(int shards,
                                          std::vector<int> leak_hosts) {
  ExperimentConfig config;
  config.topology.num_hosts = 9;
  config.topology.use_switch = true;
  config.traffic.pattern = Pattern::rpc_incast;
  config.traffic.flows = 8;
  config.shards = shards;
  auto testbed = std::make_unique<Testbed>(config);
  Workload workload = build_workload(*testbed, config.traffic);
  workload.start();
  for (int h : leak_hosts) testbed->host(h).stack().leak_next_skb();
  testbed->run_until(2 * kMillisecond);
  return testbed;
}

/// Frees, on an idle core, a page that `host`'s NIC holds by one
/// reference, so the sweep finds a use after free there.
void free_a_nic_page(Host& host) {
  std::vector<const Page*> held;
  host.nic().collect_held_pages(held);
  Page* victim = nullptr;
  for (const Page* page : held) {
    if (page->refs == 1) victim = const_cast<Page*>(page);
  }
  ASSERT_NE(victim, nullptr);
  Core* idle = nullptr;
  for (int c = 0; c < host.num_cores() && idle == nullptr; ++c) {
    if (host.core(c).idle()) idle = &host.core(c);
  }
  ASSERT_NE(idle, nullptr);
  Context context{"test", false};
  idle->post(context, [&](Core& core) {
    host.allocator().release(core, victim);
  });
  ASSERT_EQ(victim->refs, 0);
}

// Each shard checks its own hosts; the verdict is still the first failing
// host in host order, so it reads the same at any shard count.
TEST(PageSweepTest, LeaksAtTwoShardsReportTheFirstHostAtAnyShardCount) {
  const std::optional<std::string> serial =
      page_leak_verdict(*leaky_rpc_incast(1, {2, 7}));
  ASSERT_TRUE(serial.has_value());
  EXPECT_EQ(serial->rfind("host2: ", 0), 0u) << *serial;
  // Host 7 fails the check on its own too.
  EXPECT_EQ(page_leak_verdict(*leaky_rpc_incast(1, {7}))
                .value_or("clean")
                .rfind("host7: ", 0),
            0u);
  for (int shards = 2; shards <= 4; ++shards) {
    EXPECT_EQ(page_leak_verdict(*leaky_rpc_incast(shards, {2, 7})).value_or(
                  "clean"),
              *serial)
        << shards << " shards";
  }
}

// A use after free at host 7 is found first on its own shard, yet host 2's
// leak comes first in host order and is the one reported.
TEST(PageSweepTest, LeakAtAnEarlierHostOutranksALaterUseAfterFree) {
  const std::optional<std::string> leak_only =
      page_leak_verdict(*leaky_rpc_incast(1, {2}));
  ASSERT_TRUE(leak_only.has_value());
  EXPECT_EQ(leak_only->rfind("host2: ", 0), 0u) << *leak_only;
  {
    std::unique_ptr<Testbed> testbed = leaky_rpc_incast(1, {});
    free_a_nic_page(testbed->host(7));
    EXPECT_EQ(page_leak_verdict(*testbed).value_or("clean").rfind(
                  "host7: holds a reference to freed page id ", 0),
              0u);
  }
  for (int shards = 1; shards <= 4; ++shards) {
    std::unique_ptr<Testbed> testbed = leaky_rpc_incast(shards, {2});
    free_a_nic_page(testbed->host(7));
    EXPECT_EQ(page_leak_verdict(*testbed).value_or("clean"), *leak_only)
        << shards << " shards";
  }
}

TEST(PageSweepProperty, RandomRunsMatchTheHashSetReference) {
  constexpr int kHostChoices[] = {2, 3, 9};
  constexpr int kRingChoices[] = {64, 256, 1024};
  Rng rng(1);
  int leaks_found = 0;
  for (int run = 0; run < 12; ++run) {
    ExperimentConfig config;
    const int hosts = kHostChoices[rng.next_below(3)];
    config.topology.num_hosts = hosts;
    config.topology.use_switch = hosts > 2;
    const bool rpc = rng.chance(0.5);
    config.traffic.pattern = rpc ? Pattern::rpc_incast : Pattern::incast;
    config.traffic.flows = hosts - 1;
    config.stack.nic_ring_size = kRingChoices[rng.next_below(3)];
    config.shards = 1 + static_cast<int>(rng.next_below(2));
    const Nanos run_for =
        static_cast<Nanos>(1 + rng.next_below(3)) * kMillisecond;
    // Every other run leaks one skb at a TCP host that receives data:
    // with RPCs any host, with long flows the incast receiver.
    const bool leak = run % 2 == 1;
    config.stack.transport.kind = leak || rng.chance(0.5)
                                      ? TransportKind::tcp
                                      : TransportKind::homa;
    const int leak_host =
        rpc ? static_cast<int>(rng.next_below(hosts)) : hosts - 1;
    SCOPED_TRACE("run " + std::to_string(run) + ": " +
                 std::to_string(hosts) + " hosts, " +
                 std::string(to_string(config.traffic.pattern)) + ", " +
                 std::string(to_string(config.stack.transport.kind)) +
                 ", ring " + std::to_string(config.stack.nic_ring_size) +
                 ", " + std::to_string(run_for / kMillisecond) + " ms, " +
                 std::to_string(config.shards) + " shard(s)" +
                 (leak ? ", leak at host " + std::to_string(leak_host) : ""));

    Testbed testbed(config);
    Workload workload = build_workload(testbed, config.traffic);
    workload.start();
    if (leak) testbed.host(leak_host).stack().leak_next_skb();
    testbed.run_until(run_for);

    const std::optional<std::string> verdict = page_leak_verdict(testbed);
    EXPECT_EQ(verdict.value_or("clean"),
              reference_verdict(testbed).value_or("clean"));
    EXPECT_EQ(verdict.has_value(), leak);
    leaks_found += verdict.has_value() ? 1 : 0;
  }
  EXPECT_EQ(leaks_found, 6);
}

}  // namespace
}  // namespace hostsim
