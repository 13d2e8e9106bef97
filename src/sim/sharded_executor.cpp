#include "sim/sharded_executor.h"

#include <algorithm>

namespace hostsim {

ShardedExecutor::ShardedExecutor(std::vector<EventLoop*> loops,
                                 Nanos lookahead)
    : loops_(std::move(loops)), lookahead_(lookahead) {
  require(!loops_.empty(), "sharded executor needs at least one loop");
  for (EventLoop* loop : loops_) {
    require(loop != nullptr, "sharded executor loop must be non-null");
  }
  require(lookahead_ > 0, "sharded execution needs positive link lookahead");
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

void ShardedExecutor::set_storm_budget(std::uint64_t budget) {
  if (budget == 0) return;
  const std::uint64_t every = std::max<std::uint64_t>(1, budget / 2);
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    StormState* state = &storm_[i];
    loops_[i]->set_watchdog(every, [state](EventLoop& loop) {
      if (loop.now() == state->last_now) {
        // `every` events executed without the clock moving, several
        // times in a row: a zero-delay event storm inside this shard.
        if (++state->frozen_calls >= 4) {
          ensure(false, "watchdog: shard event storm (clock frozen)");
        }
      } else {
        state->last_now = loop.now();
        state->frozen_calls = 0;
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

void ShardedExecutor::barrier() {
  if (barrier_hook_) barrier_hook_();
}

Nanos ShardedExecutor::clamp_to_heartbeat(Nanos window) const {
  if (heartbeat_period_ <= 0) return window;
  const Nanos next_tick = (now_ / heartbeat_period_ + 1) * heartbeat_period_;
  return std::min(window, next_tick);
}

void ShardedExecutor::execute_round(Nanos window) {
  if (workers_.empty()) {
    round_deadline_ = window;
    loops_[0]->run_until(window);
    now_ = window;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    round_deadline_ = window;
    pending_ = workers_.size();
    ++round_;
  }
  round_cv_.notify_all();
  try {
    loops_[0]->run_until(window);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }
  now_ = window;
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    if (errors_[i]) {
      std::exception_ptr error = errors_[i];
      for (std::exception_ptr& e : errors_) e = nullptr;
      std::rethrow_exception(error);
    }
  }
}

void ShardedExecutor::worker_main(std::size_t shard) {
  std::uint64_t seen = 0;
  for (;;) {
    Nanos window;
    {
      std::unique_lock<std::mutex> lock(mu_);
      round_cv_.wait(lock, [this, seen] { return stop_ || round_ != seen; });
      if (stop_) return;
      seen = round_;
      window = round_deadline_;
    }
    try {
      loops_[shard]->run_until(window);
    } catch (...) {
      errors_[shard] = std::current_exception();
    }
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
    const Nanos earliest = min_next_event();
    Nanos window;
    if (earliest >= deadline) {
      // Nothing (relevant) pending before the deadline: jump straight
      // to it.  Loops still run_until(deadline) so their clocks land
      // exactly where the serial engine's would.
      window = deadline;
    } else {
      // Conservative window: every event executed this round fires at
      // t >= earliest, so its cross-shard deliveries land at
      // t + lookahead > window.  The -1 keeps this strict even for
      // zero-serialization frames.
      window = std::min(
          deadline, std::max(now_ + 1, earliest + lookahead_ - 1));
    }
    window = clamp_to_heartbeat(window);
    execute_round(window);
    if (heartbeat_period_ > 0 && now_ % heartbeat_period_ == 0) {
      heartbeat_(now_);
    }
  }
}

void ShardedExecutor::run_to_completion() {
  for (;;) {
    barrier();
    const Nanos earliest = min_next_event();
    if (earliest == EventLoop::kNoEvent) break;
    Nanos window = std::max(now_ + 1, earliest + lookahead_ - 1);
    window = std::max(window, earliest);
    window = clamp_to_heartbeat(window);
    execute_round(window);
    if (heartbeat_period_ > 0 && now_ % heartbeat_period_ == 0) {
      heartbeat_(now_);
    }
  }
}

}  // namespace hostsim
