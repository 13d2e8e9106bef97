#include "hw/link.h"

#include <algorithm>
#include <utility>

#include "sim/contract.h"

namespace hostsim {

Link::Link(EventLoop& loop, const Config& config)
    : Link(loop, config, loop.rng().fork()) {}

Link::Link(EventLoop& loop, const Config& config, Rng rng)
    : loop_(&loop), config_(config), rng_(rng) {
  require(config.gbps > 0, "link rate must be positive");
  require(config.loss_rate >= 0 && config.loss_rate <= 1,
          "loss rate must be a probability");
  for (std::size_t to = 0; to < 2; ++to) {
    in_flight_[to].bind(loop, [this, to](Frame& frame) {
      sinks_[to](std::move(frame));
    });
  }
}

void Link::attach(Side side, std::function<void(Frame)> deliver) {
  sinks_[static_cast<std::size_t>(side)] = std::move(deliver);
}

Nanos Link::egress_delay(Side from) const {
  const Nanos busy = busy_until_[static_cast<std::size_t>(from)];
  return std::max<Nanos>(0, busy - loop_->now());
}

void Link::transmit(Side from, Frame frame) {
  const auto dir = static_cast<std::size_t>(from);
  const std::size_t to = 1 - dir;
  require(static_cast<bool>(sinks_[to]) || static_cast<bool>(forwards_[to]),
          "destination side not attached");

  const Nanos start = std::max(loop_->now(), busy_until_[dir]);
  const Nanos tx_end =
      start + serialization_delay(frame.wire_bytes(), config_.gbps);
  busy_until_[dir] = tx_end;

  if (config_.ecn_threshold > 0 && start - loop_->now() > config_.ecn_threshold) {
    frame.ecn = true;
    ++ecn_marked_;
  }
  if (faults_ != nullptr) {
    switch (faults_->on_frame(id_, static_cast<int>(dir))) {
      case FaultInjector::WireFault::none:
        break;
      case FaultInjector::WireFault::drop_random:
      case FaultInjector::WireFault::drop_bursty:
        ++dropped_;  // in-network loss, same as the Bernoulli path
        return;
      case FaultInjector::WireFault::drop_flap:
        return;  // link down: not a switch drop, counted by the injector
      case FaultInjector::WireFault::corrupt:
        frame.corrupt = true;  // delivered; the receiver's checksum fails
        break;
    }
  }
  if (config_.loss_rate > 0 && rng_.chance(config_.loss_rate)) {
    ++dropped_;
    return;
  }

  ++delivered_;
  if (forwards_[to]) {
    forwards_[to](tx_end + config_.propagation, loop_->now(),
                  std::move(frame));
    return;
  }
  in_flight_[to].push_at(tx_end + config_.propagation, std::move(frame));
}

}  // namespace hostsim
