// Periodic time-series sampler.
//
// Rides the event loop: every `period` it reads its Registry instruments
// (in registration order) into one row.  Sampling events are read-only —
// they charge no cycles, consume no RNG, and never reorder existing
// events — so an instrumented run produces bit-identical Metrics to an
// uninstrumented one.
//
// Shard-awareness: a sampler reads the registry entries it is built
// with (the Observer passes the ones whose owner hosts live on its
// shard — every entry when serial), and its ticks are scheduled through
// the cross-shard delivery band with a canonical key (`sent` = the tick
// time, subkey above every real delivery).  That key ranks the tick
// after *every* other event at the same instant regardless of shard
// count or local insertion sequences, so the values a tick observes —
// and therefore every exported artifact — are byte-identical serial vs
// `--shards=N`.
//
// All instruments must be registered before start(); the column set is
// frozen at the first tick so exported CSV/JSON stay rectangular.
#ifndef HOSTSIM_OBS_SAMPLER_H
#define HOSTSIM_OBS_SAMPLER_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "sim/event_loop.h"
#include "sim/units.h"

namespace hostsim::obs {

class TimeSeriesSampler {
 public:
  /// Reads the registry entries at `indices` (global registration
  /// indices, ascending).
  TimeSeriesSampler(EventLoop& loop, Registry& registry, Nanos period,
                    std::vector<std::size_t> indices)
      : loop_(&loop),
        registry_(&registry),
        period_(period),
        indices_(std::move(indices)) {}

  bool enabled() const { return period_ > 0; }

  /// Schedules the first tick at now + period.  Call once, after all
  /// instruments are registered.
  void start();

  /// Global registry indices this sampler reads (registration order).
  const std::vector<std::size_t>& indices() const { return indices_; }

  /// Column names, frozen at the first tick (empty before it).
  const std::vector<std::string>& columns() const { return columns_; }

  const std::vector<Nanos>& times() const { return times_; }
  const std::vector<std::vector<double>>& rows() const { return rows_; }
  std::uint64_t ticks() const { return times_.size(); }
  Nanos period() const { return period_; }

 private:
  void tick();

  EventLoop* loop_;
  Registry* registry_;
  Nanos period_;
  std::size_t frozen_size_ = 0;  ///< registry size at the first tick
  std::vector<std::size_t> indices_;
  std::vector<std::string> columns_;
  std::vector<Nanos> times_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace hostsim::obs

#endif  // HOSTSIM_OBS_SAMPLER_H
