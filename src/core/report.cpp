#include "core/report.h"

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "core/serialize.h"
#include "obs/export.h"
#include "sim/contract.h"

namespace hostsim {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  require(cells.size() == headers_.size(), "row width must match headers");
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    widths[i] = headers_[i].size();
    for (const auto& row : rows_) widths[i] = std::max(widths[i], row[i].size());
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out << "  " << row[i];
      for (std::size_t pad = row[i].size(); pad < widths[i]; ++pad) out << ' ';
    }
    out << '\n';
  };
  print_row(headers_);
  std::string rule;
  for (std::size_t w : widths) rule += "  " + std::string(w, '-');
  out << rule << '\n';
  for (const auto& row : rows_) print_row(row);
}

void Table::print() const { print(std::cout); }

std::string Table::num(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", precision, value);
  return buffer;
}

std::string Table::percent(double fraction, int precision) {
  return num(fraction * 100.0, precision) + "%";
}

std::vector<std::string> breakdown_headers() {
  std::vector<std::string> headers;
  for (std::size_t i = 0; i < kNumCpuCategories; ++i) {
    headers.emplace_back(to_string(static_cast<CpuCategory>(i)));
  }
  return headers;
}

std::vector<std::string> breakdown_cells(const CycleAccount& account) {
  std::vector<std::string> cells;
  for (std::size_t i = 0; i < kNumCpuCategories; ++i) {
    cells.push_back(
        Table::percent(account.fraction(static_cast<CpuCategory>(i))));
  }
  return cells;
}

void print_section(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

void print_paper_line(const std::string& what, double measured,
                      const std::string& unit,
                      const std::string& paper_note) {
  std::cout << "  " << what << ": " << Table::num(measured) << " " << unit
            << "   (paper: " << paper_note << ")\n";
}

std::string metrics_csv_comment(const ExperimentConfig& config) {
  std::string comment = "# hostsim metrics csv";
  comment += " seed=" + std::to_string(config.seed);
  comment += " config_hash=" + hash_hex(config_hash(config));
  comment += " pattern=" + std::string(to_string(config.traffic.pattern));
  comment += " flows=" + std::to_string(config.traffic.flows);
  comment += " stack=" + config.stack.label();
  return comment;
}

std::string metrics_csv_header() {
  std::string header =
      "total_gbps,tput_per_core_gbps,tput_per_sender_core_gbps,"
      "tput_per_receiver_core_gbps,sender_cores,receiver_cores,"
      "rx_miss_rate,tx_miss_rate,napi_to_copy_avg_ns,napi_to_copy_p99_ns,"
      "mean_skb_bytes,skb_64kb_fraction,retransmits,dup_acks,wire_drops,"
      "rpc_tps,fault_random_drops,fault_bursty_drops,fault_flap_drops,"
      "fault_corrupt_frames,fault_flaps,fault_ring_stall_drops,"
      "fault_pool_denials,watchdog_trips,rx_csum_drops";
  for (std::size_t i = 0; i < kNumCpuCategories; ++i) {
    header += ",snd_" + std::string(to_string(static_cast<CpuCategory>(i)));
  }
  for (std::size_t i = 0; i < kNumCpuCategories; ++i) {
    header += ",rcv_" + std::string(to_string(static_cast<CpuCategory>(i)));
  }
  return header;
}

std::string metrics_csv_row(const Metrics& m) {
  std::string row;
  auto add = [&row](const std::string& cell) {
    if (!row.empty()) row += ",";
    row += obs::CsvWriter::escape(cell);
  };
  add(Table::num(m.total_gbps, 3));
  add(Table::num(m.throughput_per_core_gbps, 3));
  add(Table::num(m.throughput_per_sender_core_gbps, 3));
  add(Table::num(m.throughput_per_receiver_core_gbps, 3));
  add(Table::num(m.sender_cores_used, 3));
  add(Table::num(m.receiver_cores_used, 3));
  add(Table::num(m.rx_copy_miss_rate, 4));
  add(Table::num(m.tx_copy_miss_rate, 4));
  add(std::to_string(m.napi_to_copy_avg));
  add(std::to_string(m.napi_to_copy_p99));
  add(Table::num(m.mean_skb_bytes, 1));
  add(Table::num(m.skb_64kb_fraction, 4));
  add(std::to_string(m.retransmits));
  add(std::to_string(m.dup_acks_received));
  add(std::to_string(m.wire_drops));
  add(Table::num(m.rpc_transactions_per_sec, 1));
  add(std::to_string(m.faults.random_drops));
  add(std::to_string(m.faults.bursty_drops));
  add(std::to_string(m.faults.flap_drops));
  add(std::to_string(m.faults.corrupt_frames));
  add(std::to_string(m.faults.flaps));
  add(std::to_string(m.faults.ring_stall_drops));
  add(std::to_string(m.faults.pool_denials));
  add(std::to_string(m.faults.watchdog_trips));
  add(std::to_string(m.rx_csum_drops));
  for (std::size_t i = 0; i < kNumCpuCategories; ++i) {
    add(Table::num(m.sender_fraction(static_cast<CpuCategory>(i)), 4));
  }
  for (std::size_t i = 0; i < kNumCpuCategories; ++i) {
    add(Table::num(m.receiver_fraction(static_cast<CpuCategory>(i)), 4));
  }
  return row;
}

void print_fault_summary(const Metrics& metrics) {
  const FaultCounters& f = metrics.faults;
  const std::uint64_t chaos = f.host_crashes + f.crash_drops +
                              f.blackhole_drops;
  if (f.wire_faults() + f.flaps + f.ring_stall_drops + f.pool_denials +
          f.watchdog_trips + metrics.rx_csum_drops + chaos ==
      0) {
    return;
  }
  std::printf("fault injection: %llu bursty + %llu random wire drops, "
              "%llu flap(s) eating %llu frames, %llu corrupt frames "
              "(%llu dropped at checksum), %llu ring-stall drops, "
              "%llu pool denials, %llu watchdog trip(s)\n",
              static_cast<unsigned long long>(f.bursty_drops),
              static_cast<unsigned long long>(f.random_drops),
              static_cast<unsigned long long>(f.flaps),
              static_cast<unsigned long long>(f.flap_drops),
              static_cast<unsigned long long>(f.corrupt_frames),
              static_cast<unsigned long long>(metrics.rx_csum_drops),
              static_cast<unsigned long long>(f.ring_stall_drops),
              static_cast<unsigned long long>(f.pool_denials),
              static_cast<unsigned long long>(f.watchdog_trips));
  if (chaos > 0) {
    std::printf("chaos faults: %llu host crash(es) eating %llu frames, "
                "%llu blackholed frames\n",
                static_cast<unsigned long long>(f.host_crashes),
                static_cast<unsigned long long>(f.crash_drops),
                static_cast<unsigned long long>(f.blackhole_drops));
  }
}

void print_recovery_summary(const Metrics& metrics) {
  if (!metrics.has_recovery) return;
  const Metrics::RecoveryMetrics& r = metrics.recovery;
  std::printf("resilience: %llu retries, %llu timeouts, %llu resets, "
              "%llu failed, %llu breaker open(s), %llu reconnect(s), "
              "%llu socket(s) killed (%lld rx bytes destroyed)\n",
              static_cast<unsigned long long>(r.rpc_retries),
              static_cast<unsigned long long>(r.rpc_timeouts),
              static_cast<unsigned long long>(r.rpc_resets),
              static_cast<unsigned long long>(r.rpc_failed),
              static_cast<unsigned long long>(r.breaker_opens),
              static_cast<unsigned long long>(r.reconnects),
              static_cast<unsigned long long>(r.sockets_killed),
              static_cast<long long>(r.bytes_destroyed));
  if (r.time_to_recover >= 0) {
    std::printf("  recovered to 90%% of the %.1f Gbps pre-fault rate "
                "%.1f us after the fault window closed\n",
                r.pre_fault_gbps,
                static_cast<double>(r.time_to_recover) / 1000.0);
  } else if (r.pre_fault_gbps > 0) {
    std::printf("  never returned to 90%% of the %.1f Gbps pre-fault rate\n",
                r.pre_fault_gbps);
  }
}

void print_cluster_summary(const Metrics& metrics) {
  if (!metrics.per_host.empty()) {
    Table table({"host", "gbps", "cores_used", "peak_core_util"});
    for (const Metrics::HostMetrics& host : metrics.per_host) {
      table.add_row({"host" + std::to_string(host.host),
                     Table::num(host.gbps, 2), Table::num(host.cores_used, 2),
                     Table::percent(host.peak_core_util)});
    }
    table.print();
  }
  if (metrics.has_fabric) {
    std::printf("switch fabric: %llu frames forwarded, %llu drop-tail "
                "drops, %llu ECN marks, %llu flap drops, peak queue %lld B\n",
                static_cast<unsigned long long>(metrics.fabric.forwarded),
                static_cast<unsigned long long>(metrics.fabric.drops),
                static_cast<unsigned long long>(metrics.fabric.ecn_marks),
                static_cast<unsigned long long>(metrics.fabric.flap_drops),
                static_cast<long long>(metrics.fabric.peak_queue_bytes));
  }
}

void print_workload_summary(const Metrics& metrics) {
  if (!metrics.has_workload) return;
  const Metrics::WorkloadMetrics& w = metrics.workload;
  print_section("open-loop workload");
  std::printf("offered %llu req (%.0f rps), completed %llu (%.0f rps), "
              "%llu incomplete at run end\n",
              static_cast<unsigned long long>(w.offered), w.offered_rps,
              static_cast<unsigned long long>(w.completed), w.completed_rps,
              static_cast<unsigned long long>(w.incomplete));
  Table table({"metric", "p50_us", "p95_us", "p99_us", "p999_us"});
  const auto us = [](Nanos n) {
    return Table::num(static_cast<double>(n) / 1'000.0, 1);
  };
  table.add_row({"request latency", us(w.latency_p50), us(w.latency_p95),
                 us(w.latency_p99), us(w.latency_p999)});
  table.add_row({"queueing delay", us(w.queue_p50), "-", us(w.queue_p99),
                 "-"});
  table.add_row({"first byte", "-", "-", us(w.first_byte_p99), "-"});
  table.add_row({"leaf rpc", "-", "-", us(w.leaf_p99), "-"});
  table.add_row({"connect", "-", "-", us(w.connect_p99), "-"});
  table.print();
  if (w.slo_violations > 0) {
    std::printf("SLO: %llu completed request(s) exceeded the objective\n",
                static_cast<unsigned long long>(w.slo_violations));
  }
  std::printf("connections: %llu opened, %llu closed, %llu redispatched "
              "leaf(s); handshake: %llu SYN (%llu retries), %llu accepts, "
              "%llu backlog overflows, %llu connect failure(s)\n",
              static_cast<unsigned long long>(w.conns_opened),
              static_cast<unsigned long long>(w.conns_closed),
              static_cast<unsigned long long>(w.redispatches),
              static_cast<unsigned long long>(w.syns_sent),
              static_cast<unsigned long long>(w.syn_retries),
              static_cast<unsigned long long>(w.accepts),
              static_cast<unsigned long long>(w.listen_overflows),
              static_cast<unsigned long long>(w.connect_failures));
  if (w.time_wait_entered > 0) {
    std::printf("TIME_WAIT: %llu entered, %llu reaped, peak %llu "
                "(socket table peak %llu)\n",
                static_cast<unsigned long long>(w.time_wait_entered),
                static_cast<unsigned long long>(w.time_wait_reaped),
                static_cast<unsigned long long>(w.time_wait_peak),
                static_cast<unsigned long long>(w.socket_table_peak));
  }
}

void print_obs_summary(const Metrics& metrics) {
  if (!metrics.obs_stages.empty()) {
    print_section("pipeline latency (sampled spans)");
    Table table({"stage", "spans", "p50_us", "p99_us"});
    for (const obs::StageSummary& stage : metrics.obs_stages) {
      table.add_row({stage.stage, std::to_string(stage.count),
                     Table::num(static_cast<double>(stage.p50) / 1'000.0, 2),
                     Table::num(static_cast<double>(stage.p99) / 1'000.0, 2)});
    }
    table.print();
  }
  if (!metrics.obs_classes.empty()) {
    print_section("request tracing (sampled requests)");
    Table table({"class", "requests", "p50_us", "p99_us", "retries",
                 "slowest_hop_us"});
    for (const obs::RequestClassSummary& cls : metrics.obs_classes) {
      table.add_row(
          {cls.cls, std::to_string(cls.requests),
           Table::num(static_cast<double>(cls.p50) / 1'000.0, 2),
           Table::num(static_cast<double>(cls.p99) / 1'000.0, 2),
           std::to_string(cls.retries),
           Table::num(static_cast<double>(cls.slowest_hop) / 1'000.0, 2)});
    }
    table.print();
  }
  for (const obs::LatencyMonitor::SloEpisode& ep : metrics.obs_slo) {
    if (ep.recover >= 0) {
      std::printf("SLO breach: %s p99 exceeded the objective from %.1f us "
                  "to %.1f us (worst windowed p99 %.1f us)\n",
                  ep.series.c_str(), static_cast<double>(ep.onset) / 1'000.0,
                  static_cast<double>(ep.recover) / 1'000.0,
                  static_cast<double>(ep.worst_p99) / 1'000.0);
    } else {
      std::printf("SLO breach: %s p99 exceeded the objective from %.1f us "
                  "through run end (worst windowed p99 %.1f us)\n",
                  ep.series.c_str(), static_cast<double>(ep.onset) / 1'000.0,
                  static_cast<double>(ep.worst_p99) / 1'000.0);
    }
  }
}

}  // namespace hostsim
