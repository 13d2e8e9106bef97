#include "obs/sampler.h"

#include "sim/contract.h"

namespace hostsim::obs {

namespace {

/// Delivery-band subkey for sampler ticks.  Real deliveries carry
/// (link << 40 | seq) subkeys far below this, and their `sent` time is
/// strictly before arrival (positive propagation), so a tick keyed
/// (at, sent = at, kSamplerSub) ranks after every datapath event at the
/// same instant — one canonical position at every shard count.
constexpr std::uint64_t kSamplerSub = std::uint64_t{1} << 62;

}  // namespace

void TimeSeriesSampler::start() {
  if (period_ <= 0) return;
  const Nanos at = loop_->now() + period_;
  loop_->schedule_delivery(at, at, kSamplerSub, [this] { tick(); });
}

void TimeSeriesSampler::tick() {
  if (columns_.empty()) {
    frozen_size_ = registry_->size();
    columns_.reserve(indices_.size());
    const std::vector<std::string> names = registry_->names();
    for (std::size_t index : indices_) {
      require(index < names.size(), "sampler index out of range");
      columns_.push_back(names[index]);
    }
  }
  require(frozen_size_ == registry_->size(),
          "instruments must be registered before the sampler starts");
  std::vector<double> row;
  row.reserve(indices_.size());
  for (std::size_t index : indices_) {
    row.push_back(registry_->read(index));
  }
  times_.push_back(loop_->now());
  rows_.push_back(std::move(row));
  const Nanos at = loop_->now() + period_;
  loop_->schedule_delivery(at, at, kSamplerSub, [this] { tick(); });
}

}  // namespace hostsim::obs
