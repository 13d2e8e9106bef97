// EventFifo must be invisible to the schedule: an item queued on a FIFO
// fires exactly when, and in the order, it would have fired as an event
// of its own.  Seeded random programs run twice in lockstep — once with
// items on FIFOs, once with every item scheduled separately — mixing
// FIFO pushes under local and delivery keys (same-instant items
// included) with plain schedule_at/schedule_delivery events and
// cancels.  After every step() the two loops must agree on the firing
// order, executed(), pending(), next_event_at() and now().
#include "sim/event_fifo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "sim/contract.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "sim/timer.h"

namespace hostsim {
namespace {

constexpr int kLocalFifos = 3;
constexpr int kDeliveryFifos = 2;
constexpr std::uint64_t kPlainSubTag = std::uint64_t{7} << 40;

/// A loop plus a seeded program: every fired event draws its follow-up
/// operations from the world's RNG, so two worlds that fire in the same
/// order run the same program.
class World {
 public:
  explicit World(std::uint64_t seed) : rng_(seed) {}
  virtual ~World() = default;

  void start(int budget) {
    budget_ = budget;
    spawn(16);
  }

  EventLoop loop;
  std::vector<int> fired;
  int same_instant_pushes = 0;

 protected:
  virtual void push_local(int fifo, Nanos at, int id) = 0;
  virtual void push_delivery(int fifo, Nanos at, Nanos sent,
                             std::uint64_t sub, int id) = 0;

  void on_fire(int id) {
    fired.push_back(id);
    spawn(static_cast<int>(rng_.next_below(3)));
    if (!plain_.empty() && rng_.chance(0.2)) {
      plain_[rng_.next_below(plain_.size())].cancel();
    }
  }

 private:
  void spawn(int count) {
    for (int k = 0; k < count && budget_ > 0; ++k, --budget_) {
      const int id = next_id_++;
      const Nanos now = loop.now();
      switch (rng_.next_below(5)) {
        case 0:  // plain local event, possibly due at now
          plain_.emplace_back(
              loop, loop.schedule_at(now + static_cast<Nanos>(
                                               rng_.next_below(4)),
                                     [this, id] { on_fire(id); }));
          break;
        case 1:  // plain delivery, sent at any earlier instant
          plain_.emplace_back(
              loop, loop.schedule_delivery(
                        now + 1 + static_cast<Nanos>(rng_.next_below(4)),
                        static_cast<Nanos>(rng_.next_below(
                            static_cast<std::uint64_t>(now) + 1)),
                        kPlainSubTag | plain_sub_++,
                        [this, id] { on_fire(id); }));
          break;
        case 2:
        case 3: {  // local-key FIFO item, possibly due at now
          const auto f = static_cast<std::size_t>(
              rng_.next_below(kLocalFifos));
          const Nanos at = std::max(local_at_[f], now) +
                           static_cast<Nanos>(rng_.next_below(4));
          local_at_[f] = at;
          if (at == now) ++same_instant_pushes;
          push_local(static_cast<int>(f), at, id);
          break;
        }
        default: {  // delivery-key FIFO item: (at, sent, sub) nondecreasing
          const auto f = static_cast<std::size_t>(
              rng_.next_below(kDeliveryFifos));
          const Nanos at = std::max(delivery_at_[f], now + 1) +
                           static_cast<Nanos>(rng_.next_below(3));
          delivery_at_[f] = at;
          push_delivery(static_cast<int>(f), at, now,
                        (static_cast<std::uint64_t>(f) << 40) |
                            delivery_sub_[f]++,
                        id);
          break;
        }
      }
    }
  }

  Rng rng_;
  int budget_ = 0;
  int next_id_ = 0;
  std::vector<TimerHandle> plain_;
  std::uint64_t plain_sub_ = 0;
  std::array<Nanos, kLocalFifos> local_at_{};
  std::array<Nanos, kDeliveryFifos> delivery_at_{};
  std::array<std::uint64_t, kDeliveryFifos> delivery_sub_{};
};

/// Every item is an event of its own.
class ReferenceWorld : public World {
 public:
  using World::World;

 protected:
  void push_local(int, Nanos at, int id) override {
    loop.schedule_at(at, [this, id] { on_fire(id); });
  }
  void push_delivery(int, Nanos at, Nanos sent, std::uint64_t sub,
                     int id) override {
    loop.schedule_delivery(at, sent, sub, [this, id] { on_fire(id); });
  }
};

/// Items queue on FIFOs; only each FIFO's head is in the heap.
class FifoWorld : public World {
 public:
  explicit FifoWorld(std::uint64_t seed) : World(seed) {
    for (EventFifo<int>& fifo : fifos_) {
      fifo.bind(loop, [this](int& id) { on_fire(id); });
    }
  }

  std::size_t parked() const {
    std::size_t total = 0;
    for (const EventFifo<int>& fifo : fifos_) {
      if (fifo.size() > 0) total += fifo.size() - 1;
    }
    return total;
  }

 protected:
  void push_local(int fifo, Nanos at, int id) override {
    fifos_[static_cast<std::size_t>(fifo)].push_at(at, id);
  }
  void push_delivery(int fifo, Nanos at, Nanos sent, std::uint64_t sub,
                     int id) override {
    fifos_[static_cast<std::size_t>(kLocalFifos + fifo)].push_delivery(
        at, sent, sub, id);
  }

 private:
  std::array<EventFifo<int>, kLocalFifos + kDeliveryFifos> fifos_;
};

TEST(EventFifoProperty, FiresExactlyLikeOneEventPerItem) {
  int same_instant = 0;
  std::size_t max_parked = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    ReferenceWorld ref(seed);
    FifoWorld fifo(seed);
    ref.start(2000);
    fifo.start(2000);
    for (;;) {
      ASSERT_EQ(ref.loop.pending(), fifo.loop.pending()) << "seed " << seed;
      ASSERT_EQ(ref.loop.next_event_at(), fifo.loop.next_event_at())
          << "seed " << seed;
      const bool ran = ref.loop.step();
      ASSERT_EQ(fifo.loop.step(), ran) << "seed " << seed;
      if (!ran) break;
      ASSERT_EQ(ref.fired.back(), fifo.fired.back())
          << "seed " << seed << ", event " << ref.fired.size();
      ASSERT_EQ(ref.loop.executed(), fifo.loop.executed());
      ASSERT_EQ(ref.loop.now(), fifo.loop.now());
      max_parked = std::max(max_parked, fifo.parked());
    }
    EXPECT_EQ(ref.fired, fifo.fired);
    EXPECT_EQ(fifo.loop.pending(), 0u);
    same_instant += fifo.same_instant_pushes;
  }
  // The programs reach the paths under test.
  EXPECT_GT(same_instant, 500);
  EXPECT_GT(max_parked, 20u);
}

TEST(EventFifo, RejectsDecreasingKeys) {
  ScopedContractMode mode(ContractMode::throwing);
  EventLoop loop;
  EventFifo<int> fifo;
  fifo.bind(loop, [](int&) {});
  fifo.push_at(10, 1);
  EXPECT_THROW(fifo.push_at(9, 2), ContractViolation);
  fifo.push_delivery(20, 5, 1, 3);
  EXPECT_THROW(fifo.push_delivery(20, 4, 2, 4), ContractViolation);
  EXPECT_THROW(fifo.bind(loop, [](int&) {}), ContractViolation);
}

}  // namespace
}  // namespace hostsim
