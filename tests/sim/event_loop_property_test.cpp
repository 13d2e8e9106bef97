// Every event, zero-delay ones included, goes through the loop's heap;
// the order must still be the historical two-queue rule.  At time T the
// events queued before the clock reached T fire first, in (at, hi, lo)
// order; then the events scheduled at T fire, in scheduling order.  A
// small model of that rule, kept here, is the reference.  Seeded random
// programs run twice in lockstep — once on an EventLoop with EventFifos,
// once on the model, where a FIFO item is an event of its own — mixing
// schedule_at with delays 0-3, schedule_delivery with sent < at, FIFO
// pushes under local and delivery keys (same-instant items included)
// and cancels.  After every step() the two must agree on the firing
// order, executed(), pending(), next_event_at() and now().
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <tuple>
#include <vector>

#include "sim/event_fifo.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "sim/timer.h"

namespace hostsim {
namespace {

constexpr int kLocalFifos = 3;
constexpr int kDeliveryFifos = 2;
constexpr std::uint64_t kPlainSubTag = std::uint64_t{7} << 40;
constexpr std::uint64_t kDeliveryBit = std::uint64_t{1} << 63;

/// The two-queue rule: a keyed queue for events due later than the
/// instant they were scheduled at, and a FIFO for events due at it.
class TwoQueueModel {
 public:
  using Action = std::function<void()>;

  Nanos now() const { return now_; }
  std::uint64_t executed() const { return executed_; }
  std::size_t pending() const { return queued_.size() + immediate_.size(); }
  Nanos next_event_at() const {
    if (!immediate_.empty()) return now_;
    return queued_.empty() ? EventLoop::kNoEvent
                           : std::get<0>(queued_.begin()->first);
  }

  int schedule_at(Nanos at, Action action) {
    if (at == now_) {
      immediate_.push_back({next_handle_, std::move(action)});
    } else {
      queued_[{at, static_cast<std::uint64_t>(now_), next_seq_++}] = {
          next_handle_, std::move(action)};
    }
    return next_handle_++;
  }

  int schedule_delivery(Nanos at, Nanos sent, std::uint64_t sub,
                        Action action) {
    queued_[{at, static_cast<std::uint64_t>(sent), kDeliveryBit | sub}] = {
        next_handle_, std::move(action)};
    return next_handle_++;
  }

  /// Removes the event if it is still queued; a no-op otherwise.
  void cancel(int handle) {
    for (auto it = queued_.begin(); it != queued_.end(); ++it) {
      if (it->second.handle == handle) {
        queued_.erase(it);
        return;
      }
    }
    for (auto it = immediate_.begin(); it != immediate_.end(); ++it) {
      if (it->handle == handle) {
        immediate_.erase(it);
        return;
      }
    }
  }

  bool step() {
    Event event;
    if (!queued_.empty() &&
        (std::get<0>(queued_.begin()->first) == now_ || immediate_.empty())) {
      now_ = std::get<0>(queued_.begin()->first);
      event = std::move(queued_.begin()->second);
      queued_.erase(queued_.begin());
    } else if (!immediate_.empty()) {
      event = std::move(immediate_.front());
      immediate_.pop_front();
    } else {
      return false;
    }
    ++executed_;
    event.action();
    return true;
  }

 private:
  struct Event {
    int handle = 0;
    Action action;
  };

  Nanos now_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t next_seq_ = 1;
  int next_handle_ = 1;
  std::map<std::tuple<Nanos, std::uint64_t, std::uint64_t>, Event> queued_;
  std::deque<Event> immediate_;
};

/// A seeded program: every fired event draws its follow-up operations
/// from the program's RNG, so two programs that fire in the same order
/// issue the same operations.
class Program {
 public:
  explicit Program(std::uint64_t seed) : rng_(seed) {}
  virtual ~Program() = default;

  void start(int budget) {
    budget_ = budget;
    spawn(16);
  }

  std::vector<int> fired;
  int zero_delay = 0;
  int cancels = 0;

 protected:
  virtual Nanos now() const = 0;
  virtual void schedule_at(Nanos at, int id) = 0;
  virtual void schedule_delivery(Nanos at, Nanos sent, std::uint64_t sub,
                                 int id) = 0;
  /// Cancels the `index`-th plain event, whether or not it has fired.
  virtual void cancel(std::size_t index) = 0;
  virtual void push_local(int fifo, Nanos at, int id) = 0;
  virtual void push_delivery(int fifo, Nanos at, Nanos sent,
                             std::uint64_t sub, int id) = 0;

  void on_fire(int id) {
    fired.push_back(id);
    spawn(static_cast<int>(rng_.next_below(3)));
    if (plain_ > 0 && rng_.chance(0.25)) {
      ++cancels;
      cancel(rng_.next_below(plain_));
    }
  }

 private:
  void spawn(int count) {
    for (int k = 0; k < count && budget_ > 0; ++k, --budget_) {
      const int id = next_id_++;
      const Nanos now = this->now();
      switch (rng_.next_below(5)) {
        case 0: {  // plain local event, zero delay a quarter of the time
          const auto delay = static_cast<Nanos>(rng_.next_below(4));
          if (delay == 0) ++zero_delay;
          ++plain_;
          schedule_at(now + delay, id);
          break;
        }
        case 1:  // plain delivery, sent at any instant up to now
          ++plain_;
          schedule_delivery(
              now + 1 + static_cast<Nanos>(rng_.next_below(4)),
              static_cast<Nanos>(
                  rng_.next_below(static_cast<std::uint64_t>(now) + 1)),
              kPlainSubTag | plain_sub_++, id);
          break;
        case 2: {  // local-key FIFO item, possibly due at now
          const auto f = static_cast<std::size_t>(
              rng_.next_below(kLocalFifos));
          const Nanos at = std::max(local_at_[f], now) +
                           static_cast<Nanos>(rng_.next_below(4));
          local_at_[f] = at;
          if (at == now) ++zero_delay;
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
  std::uint64_t plain_ = 0;
  std::uint64_t plain_sub_ = 0;
  std::array<Nanos, kLocalFifos> local_at_{};
  std::array<Nanos, kDeliveryFifos> delivery_at_{};
  std::array<std::uint64_t, kDeliveryFifos> delivery_sub_{};
};

/// The program on the model: a FIFO item is an event of its own.
class ModelProgram : public Program {
 public:
  using Program::Program;

  TwoQueueModel model;

 protected:
  Nanos now() const override { return model.now(); }
  void schedule_at(Nanos at, int id) override {
    plain_.push_back(model.schedule_at(at, [this, id] { on_fire(id); }));
  }
  void schedule_delivery(Nanos at, Nanos sent, std::uint64_t sub,
                         int id) override {
    plain_.push_back(
        model.schedule_delivery(at, sent, sub, [this, id] { on_fire(id); }));
  }
  void cancel(std::size_t index) override { model.cancel(plain_[index]); }
  void push_local(int, Nanos at, int id) override {
    model.schedule_at(at, [this, id] { on_fire(id); });
  }
  void push_delivery(int, Nanos at, Nanos sent, std::uint64_t sub,
                     int id) override {
    model.schedule_delivery(at, sent, sub, [this, id] { on_fire(id); });
  }

 private:
  std::vector<int> plain_;
};

/// The program on an EventLoop, FIFO items on EventFifos.
class LoopProgram : public Program {
 public:
  explicit LoopProgram(std::uint64_t seed) : Program(seed) {
    for (EventFifo<int>& fifo : fifos_) {
      fifo.bind(loop, [this](int& id) { on_fire(id); });
    }
  }

  EventLoop loop;

 protected:
  Nanos now() const override { return loop.now(); }
  void schedule_at(Nanos at, int id) override {
    plain_.emplace_back(loop,
                        loop.schedule_at(at, [this, id] { on_fire(id); }));
  }
  void schedule_delivery(Nanos at, Nanos sent, std::uint64_t sub,
                         int id) override {
    plain_.emplace_back(loop, loop.schedule_delivery(
                                  at, sent, sub, [this, id] { on_fire(id); }));
  }
  void cancel(std::size_t index) override { plain_[index].cancel(); }
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
  std::vector<TimerHandle> plain_;
};

TEST(EventLoopProperty, MatchesTwoQueueReference) {
  int zero_delay = 0;
  int cancels = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    ModelProgram ref(seed);
    LoopProgram run(seed);
    ref.start(2000);
    run.start(2000);
    for (;;) {
      ASSERT_EQ(ref.model.pending(), run.loop.pending()) << "seed " << seed;
      ASSERT_EQ(ref.model.next_event_at(), run.loop.next_event_at())
          << "seed " << seed;
      const bool ran = ref.model.step();
      ASSERT_EQ(run.loop.step(), ran) << "seed " << seed;
      if (!ran) break;
      ASSERT_EQ(ref.fired.back(), run.fired.back())
          << "seed " << seed << ", event " << ref.fired.size();
      ASSERT_EQ(ref.model.executed(), run.loop.executed());
      ASSERT_EQ(ref.model.now(), run.loop.now());
    }
    EXPECT_EQ(ref.fired, run.fired);
    EXPECT_EQ(run.loop.pending(), 0u);
    zero_delay += run.zero_delay;
    cancels += run.cancels;
  }
  // The programs reach the paths under test.
  EXPECT_GT(zero_delay, 5000);
  EXPECT_GT(cancels, 10000);
}

}  // namespace
}  // namespace hostsim
