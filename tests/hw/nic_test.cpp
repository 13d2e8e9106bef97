#include "hw/nic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/fault_injector.h"
#include "sim/rng.h"

namespace hostsim {
namespace {

struct NicFixture : ::testing::Test {
  void SetUp() override { build({}); }

  void build(Nic::Config config) {
    topo.num_nodes = 2;
    topo.cores_per_node = 2;
    loop = std::make_unique<EventLoop>(1);
    cores.clear();
    core_ptrs.clear();
    for (int id = 0; id < topo.num_cores(); ++id) {
      cores.push_back(std::make_unique<Core>(*loop, cost, id,
                                             topo.node_of_core(id)));
      core_ptrs.push_back(cores.back().get());
    }
    llcs.clear();
    llc_ptrs.clear();
    for (int node = 0; node < topo.num_nodes; ++node) {
      llcs.push_back(std::make_unique<LlcModel>());
      llc_ptrs.push_back(llcs.back().get());
    }
    allocator = std::make_unique<PageAllocator>(topo.num_cores(),
                                                topo.num_nodes);
    iommu = std::make_unique<Iommu>(false);
    wire = std::make_unique<Link>(*loop, Link::Config{});
    nic = std::make_unique<Nic>(*loop, config, topo, core_ptrs, llc_ptrs,
                                *allocator, *iommu, *wire, Link::Side::b);
    nic->set_rx_handler([this](Core& core, int queue) {
      ++polls;
      while (auto polled = nic->poll_one(core, queue)) {
        frames.push_back(std::move(*polled));
      }
      nic->napi_complete(core, queue);
    });
    loop->run_to_completion();  // initial descriptor pre-posting
  }

  void deliver(int flow, std::int64_t seq, Bytes payload, bool ack = false) {
    Frame frame;
    frame.flow = flow;
    frame.seq = seq;
    frame.payload = ack ? 0 : payload;
    frame.is_ack = ack;
    wire->transmit(Link::Side::a, frame);
  }

  NumaTopology topo;
  CostModel cost;
  std::unique_ptr<EventLoop> loop;
  std::vector<std::unique_ptr<Core>> cores;
  std::vector<Core*> core_ptrs;
  std::vector<std::unique_ptr<LlcModel>> llcs;
  std::vector<LlcModel*> llc_ptrs;
  std::unique_ptr<PageAllocator> allocator;
  std::unique_ptr<Iommu> iommu;
  std::unique_ptr<Link> wire;
  std::unique_ptr<Nic> nic;
  std::vector<Nic::PolledFrame> frames;
  int polls = 0;
};

TEST_F(NicFixture, RingIsPrePostedAtInit) {
  for (int q = 0; q < topo.num_cores(); ++q) {
    EXPECT_EQ(nic->posted_descriptors(q), nic->config().ring_size);
  }
}

TEST_F(NicFixture, SteeringDirectsFlowToQueue) {
  nic->steer_flow(5, 3);
  EXPECT_EQ(nic->queue_for_flow(5), 3);
}

TEST_F(NicFixture, UnsteeredFlowHashesToAValidQueue) {
  for (int flow = 0; flow < 100; ++flow) {
    const int queue = nic->queue_for_flow(flow);
    EXPECT_GE(queue, 0);
    EXPECT_LT(queue, topo.num_cores());
  }
}

TEST_F(NicFixture, FrameFlowsThroughNapiToHandler) {
  nic->steer_flow(0, 0);
  deliver(0, 0, 1400);
  loop->run_to_completion();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].frame.payload, 1400);
  EXPECT_FALSE(frames[0].fragments.empty());
  EXPECT_EQ(nic->rx_frames(), 1u);
}

TEST_F(NicFixture, DataFrameConsumesOneDescriptor) {
  nic->steer_flow(0, 0);
  deliver(0, 0, 1400);
  // Check before NAPI replenishes: run only until the wire delivered.
  loop->run_until(loop->now() + 2000);
  EXPECT_EQ(nic->posted_descriptors(0), nic->config().ring_size - 1);
  loop->run_to_completion();
  EXPECT_EQ(nic->posted_descriptors(0), nic->config().ring_size);
}

TEST_F(NicFixture, PureAckTakesCopybreakPathWithoutDescriptor) {
  nic->steer_flow(0, 0);
  deliver(0, 0, 0, /*ack=*/true);
  loop->run_until(loop->now() + 2000);
  EXPECT_EQ(nic->posted_descriptors(0), nic->config().ring_size);
  loop->run_to_completion();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(frames[0].fragments.empty());
}

TEST_F(NicFixture, RingExhaustionDropsFrames) {
  Nic::Config config;
  config.ring_size = 4;
  build(config);
  nic->steer_flow(0, 0);
  for (int i = 0; i < 10; ++i) deliver(0, i * 1400, 1400);
  loop->run_to_completion();
  EXPECT_GT(nic->ring_drops(), 0u);
  EXPECT_EQ(frames.size() + nic->ring_drops(), 10u);
}

TEST_F(NicFixture, IrqModerationBatchesArrivalsIntoOneIrq) {
  nic->steer_flow(0, 0);
  for (int i = 0; i < 5; ++i) deliver(0, i * 1400, 1400);
  loop->run_to_completion();
  EXPECT_EQ(frames.size(), 5u);
  EXPECT_EQ(nic->irqs(), 1u);
}

TEST_F(NicFixture, IdleQueueRaisesFreshIrqPerBurst) {
  nic->steer_flow(0, 0);
  deliver(0, 0, 1400);
  loop->run_to_completion();
  deliver(0, 1400, 1400);
  loop->run_to_completion();
  EXPECT_EQ(nic->irqs(), 2u);
}

TEST_F(NicFixture, DcaInsertsNicLocalPagesIntoLlc) {
  nic->steer_flow(0, 0);  // queue 0 = core 0 = NIC-local node 0
  deliver(0, 0, 1400);
  loop->run_to_completion();
  ASSERT_FALSE(frames[0].fragments.empty());
  EXPECT_TRUE(llc_ptrs[0]->contains(frames[0].fragments[0].page->id));
}

TEST_F(NicFixture, NicRemoteQueueBypassesDca) {
  nic->steer_flow(0, 2);  // core 2 = node 1 = NIC-remote
  deliver(0, 0, 1400);
  loop->run_to_completion();
  ASSERT_FALSE(frames[0].fragments.empty());
  EXPECT_FALSE(llc_ptrs[0]->contains(frames[0].fragments[0].page->id));
  EXPECT_FALSE(llc_ptrs[1]->contains(frames[0].fragments[0].page->id));
}

TEST_F(NicFixture, DcaDisabledInvalidatesInsteadOfInserting) {
  Nic::Config config;
  config.dca = false;
  build(config);
  nic->steer_flow(0, 0);
  deliver(0, 0, 1400);
  loop->run_to_completion();
  EXPECT_FALSE(llc_ptrs[0]->contains(frames[0].fragments[0].page->id));
}

TEST_F(NicFixture, LroMergesContiguousTrain) {
  Nic::Config config;
  config.lro = true;
  config.mtu_payload = 9000;
  build(config);
  nic->steer_flow(0, 0);
  for (int i = 0; i < 4; ++i) deliver(0, i * 9000, 9000);
  loop->run_to_completion();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].frame.payload, 36000);
  EXPECT_EQ(frames[0].segments, 4);
}

TEST_F(NicFixture, LroDoesNotMergeAcrossFlowsOrGaps) {
  Nic::Config config;
  config.lro = true;
  config.mtu_payload = 9000;
  build(config);
  nic->steer_flow(0, 0);
  nic->steer_flow(1, 0);
  deliver(0, 0, 9000);
  deliver(1, 0, 9000);       // different flow
  deliver(0, 18000, 9000);   // gap in flow 0
  loop->run_to_completion();
  EXPECT_EQ(frames.size(), 3u);
}

TEST_F(NicFixture, DescriptorAccountingInvariantHolds) {
  Nic::Config config;
  config.ring_size = 16;
  build(config);
  nic->steer_flow(0, 0);
  for (int i = 0; i < 200; ++i) {
    deliver(0, i * 1400, 1400);
    if (i % 7 == 0) loop->run_until(loop->now() + 500);
    EXPECT_LE(nic->posted_descriptors(0) +
                  static_cast<int>(nic->backlog(0)),
              16);
  }
  loop->run_to_completion();
}

// A posted descriptor is stored as the page ids of its span and rebuilt
// on DMA.  Seeded random traffic over all four queues, at both MTUs and
// three ring sizes (1000 is not a power of two), with and without a
// page-pool pressure window that makes spans fail mid-carve.  Every
// polled data frame must carry a whole descriptor: its bytes sum to
// descriptor_bytes(), only its first and last fragments are partial
// pages, it spans at most 2 pages at MTU 1500 and 4 at 9000, and each
// page is the allocator's and still referenced.  Without pool faults
// the spans are consecutive carves: a descriptor that ends mid-page is
// followed, on its queue, by one that starts there.
TEST_F(NicFixture, PolledFramesCarryWholeDescriptorsProperty) {
  struct Carve {
    const Page* page = nullptr;  ///< last page of the previous descriptor
    Bytes end = 0;               ///< where its span ended in that page
  };
  for (const Bytes mtu : {Bytes{1500}, Bytes{9000}}) {
    for (const int ring : {4, 64, 1000}) {
      for (const bool pressure : {false, true}) {
        SCOPED_TRACE(testing::Message() << "mtu=" << mtu << " ring=" << ring
                                        << " pressure=" << pressure);
        Nic::Config config;
        config.mtu_payload = mtu;
        config.ring_size = ring;
        build(config);
        FaultPlan plan;
        plan.pool_pressure.push_back(
            {loop->now() + 200'000, 400'000, /*deny_prob=*/0.5});
        FaultInjector faults(*loop, plan, loop->rng().fork(),
                             /*host_uplinks=*/{0, 0},
                             /*count_global_windows=*/true);
        if (pressure) nic->set_fault_injector(&faults);

        Rng rng(static_cast<std::uint64_t>(mtu + ring) * 2 + pressure);
        std::vector<Carve> last(static_cast<std::size_t>(topo.num_cores()));
        std::size_t data_frames = 0;
        const std::size_t max_pages = mtu == 1500 ? 2 : 4;
        const auto check = [&](int queue, const Nic::PolledFrame& polled) {
          const FragmentVec& fragments = polled.fragments;
          if (polled.frame.is_ack) {
            EXPECT_TRUE(fragments.empty());
            return;
          }
          ++data_frames;
          ASSERT_FALSE(fragments.empty());
          EXPECT_LE(fragments.size(), max_pages);
          Bytes sum = 0;
          for (std::size_t i = 0; i < fragments.size(); ++i) {
            const Fragment& fragment = fragments[i];
            EXPECT_EQ(allocator->page(fragment.page->id), fragment.page);
            EXPECT_GT(fragment.page->refs, 0);
            EXPECT_GT(fragment.bytes, 0);
            EXPECT_LE(fragment.bytes, kPageBytes);
            if (i > 0 && i + 1 < fragments.size()) {
              EXPECT_EQ(fragment.bytes, kPageBytes);
            }
            sum += fragment.bytes;
          }
          EXPECT_EQ(sum, nic->descriptor_bytes());
          if (pressure) return;
          Carve& carve = last[static_cast<std::size_t>(queue)];
          Bytes start = 0;
          if (carve.page != nullptr && carve.end < kPageBytes) {
            EXPECT_EQ(fragments[0].page, carve.page);
            start = carve.end;
            EXPECT_EQ(fragments[0].bytes,
                      std::min(nic->descriptor_bytes(), kPageBytes - start));
          }
          carve.page = fragments.back().page;
          carve.end = fragments.size() > 1 ? fragments.back().bytes
                                           : start + fragments[0].bytes;
        };
        nic->set_rx_handler([&](Core& core, int queue) {
          // A random budget leaves backlog for the ksoftirqd path.
          for (auto budget = 1 + rng.next_below(8); budget > 0; --budget) {
            auto polled = nic->poll_one(core, queue);
            if (!polled) break;
            check(queue, *polled);
            allocator->release(core, polled->fragments);
          }
          nic->napi_complete(core, queue);
        });

        std::vector<std::int64_t> seq(8, 0);
        for (int flow = 0; flow < 8; ++flow) {
          nic->steer_flow(flow, flow % topo.num_cores());
        }
        for (int burst = 0; burst < 300; ++burst) {
          for (auto n = rng.next_below(12); n > 0; --n) {
            const int flow = static_cast<int>(rng.next_below(8));
            const bool ack = rng.chance(0.2);
            deliver(flow, seq[static_cast<std::size_t>(flow)], mtu, ack);
            if (!ack) seq[static_cast<std::size_t>(flow)] += mtu;
          }
          loop->run_until(loop->now() +
                          static_cast<Nanos>(rng.next_below(6'000)));
        }
        loop->run_to_completion();
        nic->set_fault_injector(nullptr);
        EXPECT_GT(data_frames, 500u);
        if (pressure) {
          EXPECT_GT(faults.counters().pool_denials, 0u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace hostsim
