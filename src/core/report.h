// Plain-text reporting: aligned tables and CPU-breakdown rows for the
// bench binaries that regenerate the paper's figures.
#ifndef HOSTSIM_CORE_REPORT_H
#define HOSTSIM_CORE_REPORT_H

#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"

namespace hostsim {

/// Minimal fixed-width text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  void print(std::ostream& out) const;
  void print() const;  ///< to stdout

  /// Formats a double with `precision` decimals.
  static std::string num(double value, int precision = 1);
  /// Formats a percentage ("49.3%").
  static std::string percent(double fraction, int precision = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// One row per Table-1 category, as fractions of total cycles.
std::vector<std::string> breakdown_cells(const CycleAccount& account);
std::vector<std::string> breakdown_headers();

/// Prints a titled section separator.
void print_section(const std::string& title);

/// Prints a measured-vs-paper line ("throughput-per-core: 41.8 Gbps
/// (paper ~42)").
void print_paper_line(const std::string& what, double measured,
                      const std::string& unit, const std::string& paper_note);

/// CSV export of Metrics (for spreadsheets / plotting scripts).  Every
/// field passes through obs::CsvWriter::escape().
std::string metrics_csv_header();
std::string metrics_csv_row(const Metrics& metrics);

/// Self-describing `#`-comment preamble for a metrics CSV: seed, config
/// hash, stack label, pattern — so an artifact alone identifies the run.
std::string metrics_csv_comment(const ExperimentConfig& config);

/// Prints the fault-injection counters of a run (a no-op when the run
/// experienced no injected faults or corruption drops).
void print_fault_summary(const Metrics& metrics);

/// Prints the resilience/recovery rollup — retry/failure counters and
/// time-to-recover (a no-op when the run had neither chaos faults nor
/// resilient clients).
void print_recovery_summary(const Metrics& metrics);

/// Prints the cluster sections of a run — per-host throughput/CPU table
/// and the switch-fabric rollup (a no-op for two-host runs, whose
/// metrics carry neither).
void print_cluster_summary(const Metrics& metrics);

/// Prints the per-stage pipeline latency breakdown (Fig. 1 stages,
/// p50/p99) from span tracing (a no-op when spans were off).
void print_obs_summary(const Metrics& metrics);

/// Prints the open-loop workload rollup — offered/completed load, the
/// latency percentile ladder, and churn/handshake counters (a no-op for
/// closed-loop runs, whose metrics carry no workload section).
void print_workload_summary(const Metrics& metrics);

}  // namespace hostsim

#endif  // HOSTSIM_CORE_REPORT_H
