// Canonical JSON serialization of configurations and metrics, plus the
// stable configuration hash the sweep subsystem keys its result cache on.
//
// The serialization is *canonical*: fields are emitted in a fixed order
// with fixed formatting (doubles via %.17g, which round-trips binary64
// exactly), so equal values always produce byte-identical JSON and the
// FNV-1a hash of that JSON is a stable identity for a resolved
// ExperimentConfig.  Bump kConfigSchemaVersion whenever a config field
// is added, removed, or changes meaning — it is folded into the hash, so
// stale cache entries from older schemas can never be returned.
//
// Since schema 2, config_to_json writes every field of ExperimentConfig
// except `shards` and `obs`, every time — no field is dropped for being
// at its default.  Schema 3 has no field that no run sets: those values
// are constants next to their readers.  Metrics documents list each
// field once (visit_metrics in serialize.cpp), which drives both
// directions.
#ifndef HOSTSIM_CORE_SERIALIZE_H
#define HOSTSIM_CORE_SERIALIZE_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/metrics.h"

namespace hostsim {

/// Config-serialization schema version (part of every cache key).
inline constexpr std::uint32_t kConfigSchemaVersion = 3;

/// Minimal JSON writer with canonical number formatting.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view name);
  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(double number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(int number) { return value(static_cast<std::int64_t>(number)); }
  JsonWriter& value(bool flag);

  const std::string& str() const { return out_; }

  /// Escapes and quotes a string for JSON.
  static std::string quote(std::string_view text);

 private:
  void separate();

  std::string out_;
  std::vector<bool> needs_comma_;
  bool pending_key_ = false;
};

/// Parsed JSON value (objects keep insertion order is not needed — a map
/// suffices for our flat artifact/cache documents).
class JsonValue {
 public:
  enum class Kind : std::uint8_t { null, boolean, number, string, array, object };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::object; }
  bool is_array() const { return kind_ == Kind::array; }
  bool is_number() const { return kind_ == Kind::number; }
  bool is_string() const { return kind_ == Kind::string; }

  double as_double() const;
  std::int64_t as_i64() const;
  std::uint64_t as_u64() const;
  bool as_bool() const { return boolean_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::map<std::string, JsonValue>& members() const { return members_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view name) const;

  /// Parses a complete JSON document; nullopt on any syntax error and
  /// on arrays/objects nested more than 64 deep.
  static std::optional<JsonValue> parse(std::string_view text);

 private:
  friend class JsonParser;

  Kind kind_ = Kind::null;
  bool boolean_ = false;
  std::string number_;  ///< raw numeric token, reparsed on demand
  std::string string_;
  std::vector<JsonValue> items_;
  std::map<std::string, JsonValue> members_;
};

/// Canonical JSON of every field that influences a run's outcome
/// (stack, traffic, cost model, topology, LLC, network, faults, seed):
/// all of ExperimentConfig but the execution strategy (`shards`) and the
/// read-only lens (`obs`, flight recorder included).
std::string config_to_json(const ExperimentConfig& config);

/// FNV-1a hash of the canonical config JSON + schema version.  Two
/// configs hash equal iff every outcome-relevant field matches.
std::uint64_t config_hash(const ExperimentConfig& config);

/// "0x"-prefixed lower-case hex of a hash, for artifacts and filenames.
std::string hash_hex(std::uint64_t hash);

/// Full Metrics as JSON (everything except the in-memory-only members:
/// flight-recorder trace, request records and obs rollups).
std::string metrics_to_json(const Metrics& metrics);

/// Inverse of metrics_to_json; nullopt on malformed or missing fields.
std::optional<Metrics> metrics_from_json(const JsonValue& value);
std::optional<Metrics> metrics_from_json(std::string_view text);

}  // namespace hostsim

#endif  // HOSTSIM_CORE_SERIALIZE_H
