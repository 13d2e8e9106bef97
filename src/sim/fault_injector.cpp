#include "sim/fault_injector.h"

#include <algorithm>
#include <utility>

#include "sim/contract.h"

namespace hostsim {

GilbertElliottConfig GilbertElliottConfig::for_average_loss(
    double avg_loss, double burst_frames, double loss_bad) {
  require(avg_loss >= 0 && avg_loss < loss_bad,
          "average loss must be below the bad-state drop probability");
  require(burst_frames >= 1.0, "mean burst must cover at least one frame");
  GilbertElliottConfig config;
  config.enabled = avg_loss > 0;
  config.loss_bad = loss_bad;
  config.loss_good = 0.0;
  config.p_exit_bad = 1.0 / burst_frames;
  // avg = pi_bad * loss_bad  =>  pi_bad = avg / loss_bad, and
  // pi_bad = p_enter / (p_enter + p_exit).
  const double pi_bad = avg_loss / loss_bad;
  config.p_enter_bad =
      pi_bad < 1.0 ? config.p_exit_bad * pi_bad / (1.0 - pi_bad) : 1.0;
  return config;
}

FaultInjector::FaultInjector(EventLoop& loop, FaultPlan plan, Rng rng,
                             std::vector<int> host_uplinks,
                             bool count_global_windows)
    : loop_(&loop),
      plan_(std::move(plan)),
      host_uplinks_(std::move(host_uplinks)),
      count_global_windows_(count_global_windows) {
  require(!host_uplinks_.empty(), "the injector needs the hosts' uplinks");
  const int num_links =
      *std::max_element(host_uplinks_.begin(), host_uplinks_.end()) + 1;
  links_.push_back({rng});
  for (int i = 1; i < num_links; ++i) links_.push_back({rng.fork()});

  const GilbertElliottConfig& ge = plan_.gilbert_elliott;
  require(ge.p_enter_bad >= 0 && ge.p_enter_bad <= 1 && ge.p_exit_bad >= 0 &&
              ge.p_exit_bad <= 1,
          "GE transition probabilities must be in [0, 1]");
  require(ge.loss_good >= 0 && ge.loss_good <= 1 && ge.loss_bad >= 0 &&
              ge.loss_bad <= 1,
          "GE loss probabilities must be in [0, 1]");
  require(plan_.corrupt_rate >= 0 && plan_.corrupt_rate <= 1,
          "corruption rate must be a probability");

  for (const LinkFlap& flap : plan_.link_flaps) {
    require(flap.at >= loop.now() && flap.duration > 0,
            "link flap window must be in the future and nonempty");
    const int link = flap.link;
    loop_->schedule_at(flap.at, [this, link] {
      if (link < 0) {
        // A global flap is replicated into every shard's injector; only
        // one of them owns the entry count, so the merged total matches
        // the serial run's.
        if (link_down_depth_++ == 0 && count_global_windows_) {
          ++counters_.flaps;
        }
      } else {
        if (std::find(down_links_.begin(), down_links_.end(), link) ==
            down_links_.end()) {
          ++counters_.flaps;
        }
        down_links_.push_back(link);
      }
    });
    loop_->schedule_at(flap.at + flap.duration, [this, link] {
      if (link < 0) {
        --link_down_depth_;
      } else {
        auto it = std::find(down_links_.begin(), down_links_.end(), link);
        if (it != down_links_.end()) down_links_.erase(it);
      }
    });
  }
  for (const RingStall& stall : plan_.ring_stalls) {
    require(stall.at >= loop.now() && stall.duration > 0,
            "ring stall window must be in the future and nonempty");
    const int host = stall.host;
    const int queue = stall.queue;
    loop_->schedule_at(stall.at, [this, host, queue] {
      if (host < 0 && queue < 0) {
        ++stall_all_depth_;
      } else {
        stalled_.emplace_back(host, queue);
      }
    });
    loop_->schedule_at(stall.at + stall.duration, [this, host, queue] {
      if (host < 0 && queue < 0) {
        --stall_all_depth_;
      } else {
        auto it = std::find(stalled_.begin(), stalled_.end(),
                            std::make_pair(host, queue));
        if (it != stalled_.end()) stalled_.erase(it);
      }
    });
  }
  for (const HostCrash& crash : plan_.host_crashes) {
    require(crash.at >= loop.now() && crash.down_for > 0,
            "host crash window must be in the future and nonempty");
    require(crash.host >= 0, "host crash must target a host");
    const int host = crash.host;
    loop_->schedule_at(crash.at, [this, host] {
      if (std::find(down_hosts_.begin(), down_hosts_.end(), host) ==
          down_hosts_.end()) {
        ++counters_.host_crashes;
      }
      down_hosts_.push_back(host);
      if (crash_handler_) crash_handler_(host, /*up=*/false);
    });
    loop_->schedule_at(crash.at + crash.down_for, [this, host] {
      auto it = std::find(down_hosts_.begin(), down_hosts_.end(), host);
      if (it != down_hosts_.end()) down_hosts_.erase(it);
      if (crash_handler_) crash_handler_(host, /*up=*/true);
    });
  }
  for (const PortBlackhole& hole : plan_.port_blackholes) {
    require(hole.at >= loop.now() && hole.duration > 0,
            "port blackhole window must be in the future and nonempty");
    require(hole.port >= 0, "port blackhole must target a port");
    const int port = hole.port;
    loop_->schedule_at(hole.at,
                       [this, port] { blackholed_ports_.push_back(port); });
    loop_->schedule_at(hole.at + hole.duration, [this, port] {
      auto it = std::find(blackholed_ports_.begin(), blackholed_ports_.end(),
                          port);
      if (it != blackholed_ports_.end()) blackholed_ports_.erase(it);
    });
  }
  for (const PoolPressure& pressure : plan_.pool_pressure) {
    require(pressure.at >= loop.now() && pressure.duration > 0,
            "pool pressure window must be in the future and nonempty");
    require(pressure.deny_prob >= 0 && pressure.deny_prob <= 1,
            "pool pressure denial must be a probability");
    const double deny = pressure.deny_prob;
    loop_->schedule_at(pressure.at, [this, deny] {
      ++pressure_depth_;
      pressure_deny_ = deny;
    });
    loop_->schedule_at(pressure.at + pressure.duration,
                       [this] { --pressure_depth_; });
  }
}

FaultInjector::WireFault FaultInjector::on_frame(int link, int direction) {
  if (!link_up(link)) {
    ++counters_.flap_drops;
    return WireFault::drop_flap;
  }
  LinkStream& stream = links_.at(static_cast<std::size_t>(link));
  const GilbertElliottConfig& ge = plan_.gilbert_elliott;
  if (ge.enabled) {
    bool& bad = stream.ge_bad.at(static_cast<std::size_t>(direction));
    // Advance the chain first, then draw the state's loss probability:
    // this makes the *first* frame of a bad period eligible to drop, so
    // short windows still produce bursts.
    if (bad) {
      if (stream.rng.chance(ge.p_exit_bad)) bad = false;
    } else {
      if (stream.rng.chance(ge.p_enter_bad)) bad = true;
    }
    if (bad) {
      if (stream.rng.chance(ge.loss_bad)) {
        ++counters_.bursty_drops;
        return WireFault::drop_bursty;
      }
    } else if (ge.loss_good > 0 && stream.rng.chance(ge.loss_good)) {
      ++counters_.random_drops;
      return WireFault::drop_random;
    }
  }
  if (plan_.corrupt_rate > 0 && stream.rng.chance(plan_.corrupt_rate)) {
    ++counters_.corrupt_frames;
    return WireFault::corrupt;
  }
  return WireFault::none;
}

bool FaultInjector::link_up(int link) const {
  if (link_down_depth_ > 0) return false;
  return std::find(down_links_.begin(), down_links_.end(), link) ==
         down_links_.end();
}

bool FaultInjector::ring_stalled(int host, int queue) const {
  if (stall_all_depth_ > 0) return true;
  for (const auto& [h, q] : stalled_) {
    if ((h < 0 || h == host) && (q < 0 || q == queue)) return true;
  }
  return false;
}

bool FaultInjector::host_up(int host) const {
  return std::find(down_hosts_.begin(), down_hosts_.end(), host) ==
         down_hosts_.end();
}

bool FaultInjector::port_blackholed(int port) const {
  return std::find(blackholed_ports_.begin(), blackholed_ports_.end(), port) !=
         blackholed_ports_.end();
}

bool FaultInjector::pool_alloc_allowed(int host) {
  if (pressure_depth_ <= 0) return true;
  const int link = host_uplinks_.at(static_cast<std::size_t>(host));
  if (!links_[static_cast<std::size_t>(link)].rng.chance(pressure_deny_)) {
    return true;
  }
  ++counters_.pool_denials;
  return false;
}

}  // namespace hostsim
