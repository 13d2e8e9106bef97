#include "core/serialize.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "sim/contract.h"

namespace hostsim {

// --- JsonWriter -------------------------------------------------------------

void JsonWriter::separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  require(!needs_comma_.empty(), "unbalanced end_object");
  needs_comma_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  require(!needs_comma_.empty(), "unbalanced end_array");
  needs_comma_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  out_ += quote(name);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  separate();
  out_ += quote(text);
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  separate();
  // Inf/NaN are not JSON; metrics never should produce one, but keep the
  // document parseable if a model bug does.
  if (!std::isfinite(number)) {
    out_ += "null";
    return *this;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", number);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  separate();
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%" PRId64, number);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  separate();
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%" PRIu64, number);
  out_ += buffer;
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  separate();
  out_ += flag ? "true" : "false";
  return *this;
}

std::string JsonWriter::quote(std::string_view text) {
  std::string quoted = "\"";
  for (char c : text) {
    switch (c) {
      case '"': quoted += "\\\""; break;
      case '\\': quoted += "\\\\"; break;
      case '\n': quoted += "\\n"; break;
      case '\r': quoted += "\\r"; break;
      case '\t': quoted += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          quoted += buffer;
        } else {
          quoted += c;
        }
    }
  }
  quoted += '"';
  return quoted;
}

// --- JsonValue / parser -----------------------------------------------------

double JsonValue::as_double() const {
  if (kind_ != Kind::number) return 0.0;
  return std::strtod(number_.c_str(), nullptr);
}

std::int64_t JsonValue::as_i64() const {
  if (kind_ != Kind::number) return 0;
  // Integers are emitted without exponent/fraction; fall back through
  // double for anything else.
  if (number_.find_first_of(".eE") == std::string::npos) {
    return std::strtoll(number_.c_str(), nullptr, 10);
  }
  return static_cast<std::int64_t>(as_double());
}

std::uint64_t JsonValue::as_u64() const {
  if (kind_ != Kind::number) return 0;
  if (number_.find_first_of(".eE-") == std::string::npos) {
    return std::strtoull(number_.c_str(), nullptr, 10);
  }
  return static_cast<std::uint64_t>(as_double());
}

const JsonValue* JsonValue::find(std::string_view name) const {
  if (kind_ != Kind::object) return nullptr;
  const auto it = members_.find(std::string(name));
  return it == members_.end() ? nullptr : &it->second;
}

// Named (not anonymous-namespace) so JsonValue's friend declaration
// grants it access to the private members it populates.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse_document() {
    std::optional<JsonValue> value = parse_value(0);
    if (!value) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> parse_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return std::nullopt;
            }
            // We only ever emit \u for control characters; decode the
            // single-byte range and pass anything else through as '?'.
            out += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  /// Deepest array/object nesting accepted.  Our own documents nest
  /// about 5 levels; the cap keeps a hostile file from overflowing the
  /// stack of this recursive parser (and of JsonValue's destructor).
  static constexpr int kMaxDepth = 64;

  std::optional<JsonValue> parse_value(int depth) {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    JsonValue value;
    const char c = text_[pos_];
    if ((c == '{' || c == '[') && depth == kMaxDepth) return std::nullopt;
    if (c == '{') {
      ++pos_;
      value.kind_ = JsonValue::Kind::object;
      skip_ws();
      if (consume('}')) return value;
      while (true) {
        skip_ws();
        std::optional<std::string> name = parse_string();
        if (!name || !consume(':')) return std::nullopt;
        std::optional<JsonValue> member = parse_value(depth + 1);
        if (!member) return std::nullopt;
        value.members_.emplace(std::move(*name), std::move(*member));
        if (consume(',')) continue;
        if (consume('}')) return value;
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos_;
      value.kind_ = JsonValue::Kind::array;
      skip_ws();
      if (consume(']')) return value;
      while (true) {
        std::optional<JsonValue> item = parse_value(depth + 1);
        if (!item) return std::nullopt;
        value.items_.push_back(std::move(*item));
        if (consume(',')) continue;
        if (consume(']')) return value;
        return std::nullopt;
      }
    }
    if (c == '"') {
      std::optional<std::string> text = parse_string();
      if (!text) return std::nullopt;
      value.kind_ = JsonValue::Kind::string;
      value.string_ = std::move(*text);
      return value;
    }
    if (literal("true")) {
      value.kind_ = JsonValue::Kind::boolean;
      value.boolean_ = true;
      return value;
    }
    if (literal("false")) {
      value.kind_ = JsonValue::Kind::boolean;
      value.boolean_ = false;
      return value;
    }
    if (literal("null")) return value;
    // Number token.
    const std::size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    value.kind_ = JsonValue::Kind::number;
    value.number_ = std::string(text_.substr(start, pos_ - start));
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::optional<JsonValue> JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

// --- Config serialization ---------------------------------------------------
//
// Every field of ExperimentConfig except `shards` and `obs` is written on
// every call, whatever its value, so the document describes the run
// completely and nothing in it is implied by a default.

namespace {

std::string_view to_string(SteeringMode mode) {
  switch (mode) {
    case SteeringMode::rss: return "rss";
    case SteeringMode::rps: return "rps";
    case SteeringMode::rfs: return "rfs";
    case SteeringMode::arfs: return "arfs";
  }
  return "?";
}

void write_stack(JsonWriter& w, const StackConfig& s) {
  w.begin_object();
  w.key("tso").value(s.tso);
  w.key("gso").value(s.gso);
  w.key("gro").value(s.gro);
  w.key("jumbo").value(s.jumbo);
  w.key("arfs").value(s.arfs);
  w.key("dca").value(s.dca);
  w.key("iommu").value(s.iommu);
  w.key("lro").value(s.lro);
  w.key("cc").value(to_string(s.cc));
  w.key("fallback_steering").value(to_string(s.fallback_steering));
  w.key("tx_zerocopy").value(s.tx_zerocopy);
  w.key("rx_zerocopy").value(s.rx_zerocopy);
  w.key("delayed_ack").value(s.delayed_ack);
  w.key("receiver_driven").value(s.receiver_driven);
  w.key("nic_ring_size").value(s.nic_ring_size);
  w.key("tcp_rx_buf").value(s.tcp_rx_buf);
  w.key("max_consecutive_rtos").value(s.max_consecutive_rtos);
  const TransportConfig& t = s.transport;
  w.key("transport").begin_object();
  w.key("kind").value(to_string(t.kind));
  w.key("homa_max_active").value(t.homa_max_active);
  w.end_object();
  w.end_object();
}

void write_traffic(JsonWriter& w, const TrafficConfig& t) {
  w.begin_object();
  w.key("pattern").value(to_string(t.pattern));
  w.key("flows").value(t.flows);
  w.key("rpc_size").value(t.rpc_size);
  w.key("receiver_app_remote_numa").value(t.receiver_app_remote_numa);
  w.key("segregate_mixed_cores").value(t.segregate_mixed_cores);
  w.key("app_chunk").value(t.app_chunk);
  w.key("sender_chunk").value(t.sender_chunk);
  const RpcResilienceConfig& r = t.resilience;
  w.key("resilience").begin_object();
  w.key("enabled").value(r.enabled);
  w.key("deadline").value(r.deadline);
  w.key("max_retries").value(r.max_retries);
  w.key("backoff_base").value(r.backoff_base);
  w.key("backoff_cap").value(r.backoff_cap);
  w.key("breaker_threshold").value(r.breaker_threshold);
  w.key("breaker_cooldown").value(r.breaker_cooldown);
  w.end_object();
  const WorkloadConfig& wl = t.workload;
  w.key("workload").begin_object();
  w.key("enabled").value(wl.enabled);
  w.key("arrivals").value(to_string(wl.arrivals));
  w.key("rate_rps").value(wl.rate_rps);
  w.key("diurnal_amplitude").value(wl.diurnal_amplitude);
  w.key("sizes").value(to_string(wl.sizes));
  w.key("pareto_alpha").value(wl.pareto_alpha);
  w.key("size_min").value(wl.size_min);
  w.key("size_max").value(wl.size_max);
  w.key("churn_prob").value(wl.churn_prob);
  w.key("time_wait").value(wl.time_wait);
  w.key("listen_backlog").value(wl.listen_backlog);
  w.key("syn_retry").value(wl.syn_retry);
  w.key("max_syn_retries").value(wl.max_syn_retries);
  w.key("fan_out").value(wl.fan_out);
  w.key("slo").value(wl.slo);
  w.end_object();
  w.end_object();
}

void write_cost(JsonWriter& w, const CostModel& c) {
  w.begin_object();
  w.key("core_ghz").value(c.core_ghz);
  w.key("copy_cyc_per_byte_hit").value(c.copy_cyc_per_byte_hit);
  w.key("copy_cyc_per_byte_miss").value(c.copy_cyc_per_byte_miss);
  w.key("copy_remote_numa_factor").value(c.copy_remote_numa_factor);
  w.key("copy_write_miss_extra").value(c.copy_write_miss_extra);
  w.key("tcpip_tx_per_skb").value(c.tcpip_tx_per_skb);
  w.key("tcpip_rx_per_skb").value(c.tcpip_rx_per_skb);
  w.key("tcpip_cyc_per_byte").value(c.tcpip_cyc_per_byte);
  w.key("tcpip_ack_tx").value(c.tcpip_ack_tx);
  w.key("tcpip_ack_rx").value(c.tcpip_ack_rx);
  w.key("tcpip_retransmit").value(c.tcpip_retransmit);
  w.key("netdev_tx_per_skb").value(c.netdev_tx_per_skb);
  w.key("netdev_rx_per_frame").value(c.netdev_rx_per_frame);
  w.key("gro_per_segment").value(c.gro_per_segment);
  w.key("gso_per_segment").value(c.gso_per_segment);
  w.key("napi_poll_overhead").value(c.napi_poll_overhead);
  w.key("driver_tx_per_skb").value(c.driver_tx_per_skb);
  w.key("skb_alloc").value(c.skb_alloc);
  w.key("skb_free").value(c.skb_free);
  w.key("skb_free_remote_extra").value(c.skb_free_remote_extra);
  w.key("page_alloc_pageset").value(c.page_alloc_pageset);
  w.key("page_alloc_global").value(c.page_alloc_global);
  w.key("page_free_local").value(c.page_free_local);
  w.key("page_free_remote").value(c.page_free_remote);
  w.key("pageset_capacity").value(c.pageset_capacity);
  w.key("pageset_batch").value(c.pageset_batch);
  w.key("iommu_map_per_page").value(c.iommu_map_per_page);
  w.key("iommu_unmap_per_page").value(c.iommu_unmap_per_page);
  w.key("lock_uncontended").value(c.lock_uncontended);
  w.key("lock_contended").value(c.lock_contended);
  w.key("context_switch").value(c.context_switch);
  w.key("thread_wakeup").value(c.thread_wakeup);
  w.key("thread_block").value(c.thread_block);
  w.key("wakeup_latency").value(c.wakeup_latency);
  w.key("pacer_release").value(c.pacer_release);
  w.key("cold_gap").value(c.cold_gap);
  w.key("cold_ramp").value(c.cold_ramp);
  w.key("cold_penalty_max").value(c.cold_penalty_max);
  w.key("zc_tx_completion").value(c.zc_tx_completion);
  w.key("zc_tx_pin_per_page").value(c.zc_tx_pin_per_page);
  w.key("zc_rx_remap_per_page").value(c.zc_rx_remap_per_page);
  w.key("rps_ipi").value(c.rps_ipi);
  w.key("irq_entry").value(c.irq_entry);
  w.key("syscall_overhead").value(c.syscall_overhead);
  w.end_object();
}

void write_faults(JsonWriter& w, const FaultPlan& f) {
  w.begin_object();
  w.key("ge").begin_object();
  w.key("enabled").value(f.gilbert_elliott.enabled);
  w.key("p_enter_bad").value(f.gilbert_elliott.p_enter_bad);
  w.key("p_exit_bad").value(f.gilbert_elliott.p_exit_bad);
  w.key("loss_good").value(f.gilbert_elliott.loss_good);
  w.key("loss_bad").value(f.gilbert_elliott.loss_bad);
  w.end_object();
  w.key("corrupt_rate").value(f.corrupt_rate);
  w.key("link_flaps").begin_array();
  for (const LinkFlap& flap : f.link_flaps) {
    w.begin_object();
    w.key("at").value(flap.at);
    w.key("duration").value(flap.duration);
    w.key("link").value(flap.link);
    w.end_object();
  }
  w.end_array();
  w.key("ring_stalls").begin_array();
  for (const RingStall& stall : f.ring_stalls) {
    w.begin_object();
    w.key("at").value(stall.at);
    w.key("duration").value(stall.duration);
    w.key("queue").value(stall.queue);
    w.key("host").value(stall.host);
    w.end_object();
  }
  w.end_array();
  w.key("pool_pressure").begin_array();
  for (const PoolPressure& window : f.pool_pressure) {
    w.begin_object();
    w.key("at").value(window.at);
    w.key("duration").value(window.duration);
    w.key("deny_prob").value(window.deny_prob);
    w.end_object();
  }
  w.end_array();
  w.key("host_crashes").begin_array();
  for (const HostCrash& crash : f.host_crashes) {
    w.begin_object();
    w.key("at").value(crash.at);
    w.key("down_for").value(crash.down_for);
    w.key("host").value(crash.host);
    w.end_object();
  }
  w.end_array();
  w.key("port_blackholes").begin_array();
  for (const PortBlackhole& hole : f.port_blackholes) {
    w.begin_object();
    w.key("at").value(hole.at);
    w.key("duration").value(hole.duration);
    w.key("port").value(hole.port);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::string config_to_json(const ExperimentConfig& config) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(static_cast<std::uint64_t>(kConfigSchemaVersion));
  w.key("stack");
  write_stack(w, config.stack);
  w.key("traffic");
  write_traffic(w, config.traffic);
  w.key("cost");
  write_cost(w, config.cost);
  w.key("topo").begin_object();
  w.key("num_nodes").value(config.topo.num_nodes);
  w.key("cores_per_node").value(config.topo.cores_per_node);
  w.key("nic_node").value(config.topo.nic_node);
  w.end_object();
  w.key("llc").begin_object();
  w.key("sets").value(config.llc.sets);
  w.key("ways").value(config.llc.ways);
  w.key("ddio_ways").value(config.llc.ddio_ways);
  w.end_object();
  const TopologyConfig& topology = config.topology;
  w.key("topology").begin_object();
  w.key("num_hosts").value(topology.num_hosts);
  w.key("use_switch").value(topology.use_switch);
  w.key("port_gbps").value(topology.port_gbps);
  w.key("switch_buffer").value(topology.switch_buffer);
  w.key("switch_ecn_bytes").value(topology.switch_ecn_bytes);
  w.end_object();
  w.key("link_gbps").value(config.link_gbps);
  w.key("loss_rate").value(config.loss_rate);
  w.key("ecn_threshold").value(config.ecn_threshold);
  w.key("warmup").value(config.warmup);
  w.key("duration").value(config.duration);
  w.key("seed").value(config.seed);
  w.key("faults");
  write_faults(w, config.faults);
  w.key("check_invariants").value(config.check_invariants);
  w.key("watchdog").begin_object();
  w.key("period").value(config.watchdog.period);
  w.key("max_stalled_periods").value(config.watchdog.max_stalled_periods);
  w.key("event_storm_budget").value(config.watchdog.event_storm_budget);
  w.end_object();
  w.end_object();
  return w.str();
}

std::uint64_t config_hash(const ExperimentConfig& config) {
  const std::string canonical = config_to_json(config);
  // FNV-1a 64-bit.
  std::uint64_t hash = 14695981039346656037ull;
  for (char c : canonical) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string hash_hex(std::uint64_t hash) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016" PRIx64, hash);
  return buffer;
}

// --- Metrics serialization --------------------------------------------------

namespace {

/// One member per Table-1 category, named by to_string(CpuCategory).
/// CycleAccount hands out values, not cells, so each count goes through
/// a local that a reader then stores back.
template <typename Account, typename V>
void visit_cycles(std::string_view name, Account& account, V& v) {
  v.object(name, [&] {
    for (std::size_t i = 0; i < kNumCpuCategories; ++i) {
      const auto category = static_cast<CpuCategory>(i);
      Cycles cycles = account.get(category);
      v.num(to_string(category), cycles);
      if constexpr (!std::is_const_v<Account>) {
        account.add(category, cycles - account.get(category));
      }
    }
  });
}

/// Every serialized Metrics field, named once, in document order.  `M` is
/// `const Metrics` when writing and `Metrics` when reading; `v` (a
/// MetricsWriter or MetricsReader) gives each construct its meaning:
///
///   num(name, x)                     a number member
///   object(name, body)               a nested object, always present
///   section(name, has, body)         an object written when `has`; on
///                                    read, `has` is whether it appears
///   optional(written, body)          members written only when
///                                    `written`, optional on read
///   array(name, xs, required, body)  an array of objects; when not
///                                    `required`, written only when
///                                    non-empty and optional on read
///
/// The in-memory-only members (trace, workload_records, obs_*) are not
/// listed: they never enter a document.
template <typename M, typename V>
void visit_metrics(M& m, V& v) {
  v.num("window", m.window);
  v.num("app_bytes", m.app_bytes);
  v.num("total_gbps", m.total_gbps);
  v.num("sender_cores_used", m.sender_cores_used);
  v.num("receiver_cores_used", m.receiver_cores_used);
  v.num("sender_peak_core_util", m.sender_peak_core_util);
  v.num("receiver_peak_core_util", m.receiver_peak_core_util);
  v.num("throughput_per_core_gbps", m.throughput_per_core_gbps);
  v.num("throughput_per_sender_core_gbps", m.throughput_per_sender_core_gbps);
  v.num("throughput_per_receiver_core_gbps",
        m.throughput_per_receiver_core_gbps);
  visit_cycles("sender_cycles", m.sender_cycles, v);
  visit_cycles("receiver_cycles", m.receiver_cycles, v);
  v.num("rx_copy_miss_rate", m.rx_copy_miss_rate);
  v.num("tx_copy_miss_rate", m.tx_copy_miss_rate);
  v.num("napi_to_copy_avg", m.napi_to_copy_avg);
  v.num("napi_to_copy_p99", m.napi_to_copy_p99);
  v.num("mean_skb_bytes", m.mean_skb_bytes);
  v.num("skb_64kb_fraction", m.skb_64kb_fraction);
  v.num("retransmits", m.retransmits);
  v.num("dup_acks_received", m.dup_acks_received);
  v.num("acks_received", m.acks_received);
  v.num("wire_drops", m.wire_drops);
  v.object("faults", [&] {
    auto& f = m.faults;
    v.num("random_drops", f.random_drops);
    v.num("bursty_drops", f.bursty_drops);
    v.num("flap_drops", f.flap_drops);
    v.num("corrupt_frames", f.corrupt_frames);
    v.num("flaps", f.flaps);
    v.num("ring_stall_drops", f.ring_stall_drops);
    v.num("pool_denials", f.pool_denials);
    v.num("watchdog_trips", f.watchdog_trips);
    // The chaos counters ride the recovery section.
    v.optional(m.has_recovery, [&] {
      v.num("host_crashes", f.host_crashes);
      v.num("crash_drops", f.crash_drops);
      v.num("blackhole_drops", f.blackhole_drops);
    });
  });
  v.num("rx_csum_drops", m.rx_csum_drops);
  v.num("invariant_checks", m.invariant_checks);
  v.num("invariant_violations", m.invariant_violations);
  v.num("sender_pageset_miss", m.sender_pageset_miss);
  v.num("receiver_pageset_miss", m.receiver_pageset_miss);
  v.num("rpc_transactions", m.rpc_transactions);
  v.num("rpc_transactions_per_sec", m.rpc_transactions_per_sec);
  v.num("rpc_latency_p50", m.rpc_latency_p50);
  v.num("rpc_latency_p99", m.rpc_latency_p99);
  v.array("flows", m.flows, /*required=*/true, [&](auto& flow) {
    v.num("flow", flow.flow);
    v.num("delivered", flow.delivered);
    v.num("gbps", flow.gbps);
  });
  v.array("per_host", m.per_host, /*required=*/false, [&](auto& host) {
    v.num("host", host.host);
    v.num("cores_used", host.cores_used);
    v.num("peak_core_util", host.peak_core_util);
    v.num("app_bytes", host.app_bytes);
    v.num("gbps", host.gbps);
  });
  v.section("fabric", m.has_fabric, [&] {
    auto& fab = m.fabric;
    v.num("forwarded", fab.forwarded);
    v.num("drops", fab.drops);
    v.num("ecn_marks", fab.ecn_marks);
    v.num("flap_drops", fab.flap_drops);
    v.num("peak_queue_bytes", fab.peak_queue_bytes);
  });
  v.section("recovery", m.has_recovery, [&] {
    auto& rec = m.recovery;
    v.num("time_to_recover", rec.time_to_recover);
    v.num("pre_fault_gbps", rec.pre_fault_gbps);
    v.num("rpc_retries", rec.rpc_retries);
    v.num("rpc_timeouts", rec.rpc_timeouts);
    v.num("rpc_resets", rec.rpc_resets);
    v.num("rpc_failed", rec.rpc_failed);
    v.num("breaker_opens", rec.breaker_opens);
    v.num("reconnects", rec.reconnects);
    v.num("sockets_killed", rec.sockets_killed);
    v.num("bytes_destroyed", rec.bytes_destroyed);
  });
  v.section("workload", m.has_workload, [&] {
    auto& wl = m.workload;
    v.num("offered", wl.offered);
    v.num("completed", wl.completed);
    v.num("incomplete", wl.incomplete);
    v.num("offered_rps", wl.offered_rps);
    v.num("completed_rps", wl.completed_rps);
    v.num("latency_p50", wl.latency_p50);
    v.num("latency_p95", wl.latency_p95);
    v.num("latency_p99", wl.latency_p99);
    v.num("latency_p999", wl.latency_p999);
    v.num("queue_p50", wl.queue_p50);
    v.num("queue_p99", wl.queue_p99);
    v.num("first_byte_p99", wl.first_byte_p99);
    v.num("connect_p99", wl.connect_p99);
    v.num("leaf_p99", wl.leaf_p99);
    v.num("fanout_leaves", wl.fanout_leaves);
    v.num("slo_violations", wl.slo_violations);
    v.num("conns_opened", wl.conns_opened);
    v.num("conns_closed", wl.conns_closed);
    v.num("redispatches", wl.redispatches);
    v.num("syns_sent", wl.syns_sent);
    v.num("syn_retries", wl.syn_retries);
    v.num("syns_received", wl.syns_received);
    v.num("listen_overflows", wl.listen_overflows);
    v.num("accepts", wl.accepts);
    v.num("connect_failures", wl.connect_failures);
    v.num("time_wait_entered", wl.time_wait_entered);
    v.num("time_wait_reaped", wl.time_wait_reaped);
    v.num("time_wait_peak", wl.time_wait_peak);
    v.num("socket_table_peak", wl.socket_table_peak);
  });
}

struct MetricsWriter {
  JsonWriter w;

  template <typename T>
  void num(std::string_view name, const T& value) {
    w.key(name).value(value);
  }

  template <typename Body>
  void object(std::string_view name, Body&& body) {
    w.key(name).begin_object();
    body();
    w.end_object();
  }

  template <typename Body>
  void section(std::string_view name, bool present, Body&& body) {
    if (present) object(name, body);
  }

  template <typename Body>
  void optional(bool written, Body&& body) {
    if (written) body();
  }

  template <typename T, typename Body>
  void array(std::string_view name, const std::vector<T>& items,
             bool required, Body&& body) {
    if (!required && items.empty()) return;
    w.key(name).begin_array();
    for (const T& item : items) {
      w.begin_object();
      body(item);
      w.end_object();
    }
    w.end_array();
  }
};

/// Fails (ok == false) on any missing required member and on any
/// present member of the wrong JSON kind.
class MetricsReader {
 public:
  explicit MetricsReader(const JsonValue& root) : at_(&root) {}

  bool ok() const { return ok_; }

  template <typename T>
  void num(std::string_view name, T& out) {
    const JsonValue* cell = at_->find(name);
    if (cell == nullptr) {
      ok_ = ok_ && optional_;
      return;
    }
    if (!cell->is_number()) {
      ok_ = false;
    } else if constexpr (std::is_floating_point_v<T>) {
      out = cell->as_double();
    } else if constexpr (std::is_unsigned_v<T>) {
      out = static_cast<T>(cell->as_u64());
    } else {
      out = static_cast<T>(cell->as_i64());
    }
  }

  template <typename Body>
  void object(std::string_view name, Body&& body) {
    enter(at_->find(name), body);
  }

  template <typename Body>
  void section(std::string_view name, bool& present, Body&& body) {
    present = at_->find(name) != nullptr;
    if (present) object(name, body);
  }

  template <typename Body>
  void optional(bool /*written*/, Body&& body) {
    const bool outer = optional_;
    optional_ = true;
    body();
    optional_ = outer;
  }

  template <typename T, typename Body>
  void array(std::string_view name, std::vector<T>& items, bool required,
             Body&& body) {
    const JsonValue* list = at_->find(name);
    if (list == nullptr || !list->is_array()) {
      ok_ = ok_ && list == nullptr && !required;
      return;
    }
    for (const JsonValue& item : list->items()) {
      enter(&item, [&] { body(items.emplace_back()); });
    }
  }

 private:
  template <typename Body>
  void enter(const JsonValue* value, Body&& body) {
    if (value == nullptr || !value->is_object()) {
      ok_ = false;
      return;
    }
    const JsonValue* outer = at_;
    at_ = value;
    body();
    at_ = outer;
  }

  const JsonValue* at_;
  bool ok_ = true;
  bool optional_ = false;
};

}  // namespace

std::string metrics_to_json(const Metrics& metrics) {
  MetricsWriter writer;
  writer.w.begin_object();
  visit_metrics(metrics, writer);
  writer.w.end_object();
  return writer.w.str();
}

std::optional<Metrics> metrics_from_json(const JsonValue& value) {
  if (!value.is_object()) return std::nullopt;
  Metrics metrics;
  MetricsReader reader(value);
  visit_metrics(metrics, reader);
  if (!reader.ok()) return std::nullopt;
  return metrics;
}

std::optional<Metrics> metrics_from_json(std::string_view text) {
  const std::optional<JsonValue> value = JsonValue::parse(text);
  if (!value) return std::nullopt;
  return metrics_from_json(*value);
}

}  // namespace hostsim
