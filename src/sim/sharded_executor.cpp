#include "sim/sharded_executor.h"

#include <algorithm>

namespace hostsim {
namespace {

/// Thrown out of a shard's run by its storm guard; carries the
/// diagnostic to the calling thread with the round's other exceptions.
struct EventStorm {
  std::string diagnostic;
};

}  // namespace

ShardedExecutor::ShardedExecutor(std::vector<EventLoop*> loops,
                                 Nanos lookahead)
    : loops_(std::move(loops)), lookahead_(lookahead) {
  require(!loops_.empty(), "sharded executor needs at least one loop");
  for (EventLoop* loop : loops_) {
    require(loop != nullptr, "sharded executor loop must be non-null");
  }
  require(loops_.size() == 1 || lookahead_ > 0,
          "sharded execution needs positive link lookahead");
  storm_.resize(loops_.size());
  errors_.resize(loops_.size());
  workers_.reserve(loops_.size() - 1);
  for (std::size_t shard = 1; shard < loops_.size(); ++shard) {
    workers_.emplace_back([this, shard] { worker_main(shard); });
  }
}

ShardedExecutor::~ShardedExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  round_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ShardedExecutor::set_storm_budget(
    std::uint64_t budget, std::function<void(const std::string&)> on_storm) {
  if (budget == 0) return;
  on_storm_ = on_storm ? std::move(on_storm)
                       : [](const std::string& d) { ensure(false, d.c_str()); };
  // Sample twice per budget so a frozen clock is flagged within at most
  // one budget of extra events.
  const std::uint64_t every = std::max<std::uint64_t>(1, budget / 2);
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    StormState* state = &storm_[i];
    loops_[i]->set_watchdog(every, [state, every](EventLoop& loop) {
      if (loop.now() != state->last_now) {
        state->last_now = loop.now();
        state->frozen_calls = 0;
        return;
      }
      // Two samples in a row with the clock frozen: a zero-delay event
      // storm inside this shard.
      if (++state->frozen_calls >= 2) {
        throw EventStorm{"event-loop livelock: " +
                         std::to_string(state->frozen_calls * every) +
                         " events executed with simulated time frozen at " +
                         std::to_string(state->last_now) + "ns"};
      }
    });
  }
}

Nanos ShardedExecutor::min_next_event() const {
  Nanos earliest = EventLoop::kNoEvent;
  for (const EventLoop* loop : loops_) {
    earliest = std::min(earliest, loop->next_event_at());
  }
  return earliest;
}

Nanos ShardedExecutor::horizon() const {
  if (workers_.empty()) return EventLoop::kNoEvent;
  const Nanos earliest = min_next_event();
  if (earliest == EventLoop::kNoEvent) return earliest;
  // Conservative window: every event executed this round fires at
  // t >= earliest, so its cross-shard deliveries land at
  // t + lookahead > window.  The -1 keeps this strict even for
  // zero-serialization frames.
  return std::max(now_ + 1, earliest + lookahead_ - 1);
}

void ShardedExecutor::barrier() {
  if (barrier_hook_) barrier_hook_();
}

Nanos ShardedExecutor::clamp_to_heartbeat(Nanos window) const {
  if (heartbeat_period_ <= 0) return window;
  const Nanos next_tick = (now_ / heartbeat_period_ + 1) * heartbeat_period_;
  return std::min(window, next_tick);
}

void ShardedExecutor::run_shard(std::size_t shard, Nanos window,
                                const ShardTask* task) {
  try {
    if (task != nullptr) {
      (*task)(static_cast<int>(shard));
    } else if (window == EventLoop::kNoEvent) {
      loops_[shard]->run_to_completion();
    } else {
      loops_[shard]->run_until(window);
    }
  } catch (...) {
    errors_[shard] = std::current_exception();
  }
}

std::exception_ptr ShardedExecutor::run_round(Nanos window,
                                              const ShardTask* task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    round_deadline_ = window;
    round_task_ = task;
    pending_ = workers_.size();
    ++round_;
  }
  round_cv_.notify_all();
  run_shard(0, window, task);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
  std::exception_ptr first;
  for (std::exception_ptr& error : errors_) {
    if (!first) first = error;
    error = nullptr;
  }
  return first;
}

bool ShardedExecutor::execute_round(Nanos window) {
  const std::exception_ptr error = run_round(window, nullptr);
  now_ = window == EventLoop::kNoEvent ? loops_[0]->now() : window;
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const EventStorm& storm) {
      on_storm_(storm.diagnostic);
      return false;
    }
  }
  if (heartbeat_period_ > 0 && now_ % heartbeat_period_ == 0) {
    heartbeat_(now_);
  }
  return true;
}

void ShardedExecutor::for_each_shard(const ShardTask& task) {
  if (const std::exception_ptr error = run_round(round_deadline_, &task)) {
    std::rethrow_exception(error);
  }
}

void ShardedExecutor::worker_main(std::size_t shard) {
  std::uint64_t seen = 0;
  for (;;) {
    Nanos window;
    const ShardTask* task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      round_cv_.wait(lock, [this, seen] { return stop_ || round_ != seen; });
      if (stop_) return;
      seen = round_;
      window = round_deadline_;
      task = round_task_;
    }
    run_shard(shard, window, task);
    bool last;
    {
      std::lock_guard<std::mutex> lock(mu_);
      last = --pending_ == 0;
    }
    if (last) done_cv_.notify_one();
  }
}

void ShardedExecutor::run_until(Nanos deadline) {
  require(deadline >= now_, "deadline is in the past");
  for (;;) {
    barrier();
    if (now_ >= deadline) break;
    // Loops still run_until(deadline) when nothing is pending before
    // it, so their clocks land exactly on the deadline.
    if (!execute_round(clamp_to_heartbeat(std::min(deadline, horizon())))) {
      return;
    }
  }
}

void ShardedExecutor::run_to_completion() {
  for (;;) {
    barrier();
    if (min_next_event() == EventLoop::kNoEvent) break;
    if (!execute_round(clamp_to_heartbeat(horizon()))) return;
  }
}

}  // namespace hostsim
