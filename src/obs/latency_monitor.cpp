#include "obs/latency_monitor.h"

#include <algorithm>

namespace hostsim::obs {

void LatencyMonitor::record(std::string_view series, Nanos value, Nanos now) {
  if (window_ <= 0) return;
  const std::int64_t window = now / window_;
  auto series_it = cells_.find(series);
  if (series_it == cells_.end()) {
    series_it = cells_.emplace(std::string(series),
                               std::map<std::int64_t, Histogram>{}).first;
  }
  series_it->second[window].record(value);
}

void LatencyMonitor::merge(const LatencyMonitor& other) {
  if (window_ <= 0) window_ = other.window_;
  for (const auto& [series, windows] : other.cells_) {
    std::map<std::int64_t, Histogram>& mine = cells_[series];
    for (const auto& [window, hist] : windows) {
      mine[window].merge(hist);
    }
  }
}

std::vector<LatencyMonitor::WindowStats> LatencyMonitor::readout() const {
  std::vector<WindowStats> out;
  for (const auto& [series, windows] : cells_) {
    for (const auto& [window, hist] : windows) {
      WindowStats stats;
      stats.series = series;
      stats.window_start = window * window_;
      stats.count = hist.count();
      stats.p50 = hist.percentile(0.50);
      stats.p99 = hist.percentile(0.99);
      out.push_back(std::move(stats));
    }
  }
  return out;  // maps iterate sorted: (series, window) order already
}

std::vector<LatencyMonitor::SloEpisode> LatencyMonitor::episodes(
    Nanos slo_p99) const {
  std::vector<SloEpisode> out;
  if (slo_p99 <= 0) return out;
  for (const auto& [series, windows] : cells_) {
    bool open = false;
    for (const auto& [window, hist] : windows) {
      const Nanos p99 = hist.percentile(0.99);
      if (p99 > slo_p99) {
        if (!open) {
          SloEpisode episode;
          episode.series = series;
          episode.onset = window * window_;
          episode.worst_p99 = p99;
          out.push_back(std::move(episode));
          open = true;
        } else {
          out.back().worst_p99 = std::max(out.back().worst_p99, p99);
        }
      } else if (open) {
        out.back().recover = window * window_;
        open = false;
      }
    }
  }
  return out;
}

}  // namespace hostsim::obs
