// hostsim_trace: reads a request-span JSONL log (obs.spans.jsonl, one
// JSON object per line) and prints the critical path of the slowest N
// requests — the chain of child spans that determined each request's
// completion time, from the client root through transmits, switch hops,
// and server service legs.
//
//   hostsim_trace <spans.jsonl> [--top=N]
//   hostsim_trace --demo
//
// --demo runs a small traced incast in-process, writes its artifacts to
// a per-process temp directory, and analyzes its own spans.jsonl — the
// ctest smoke uses it to cover the full pipeline (trace -> export ->
// parse -> path).
//
// A `--top` that is not an integer >= 1, and a trace whose parent links
// loop (a span id repeats on the critical path), exit 2 with one line on
// stderr.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/serialize.h"
#include "flags.h"
#include "sim/units.h"

namespace {

using hostsim::JsonValue;
using hostsim::Nanos;

struct SpanRow {
  std::string trace;
  std::string span;
  std::string parent;
  std::string kind;
  std::string cls;
  std::int64_t host = 0;
  std::int64_t flow = -1;
  std::int64_t attempt = 0;
  Nanos start = 0;
  Nanos end = -1;
  std::int64_t bytes = 0;
  bool ok = true;
};

std::optional<SpanRow> parse_row(std::string_view line) {
  const auto doc = JsonValue::parse(line);
  if (!doc.has_value() || !doc->is_object()) return std::nullopt;
  SpanRow row;
  const auto str = [&](const char* name, std::string* out) {
    const JsonValue* v = doc->find(name);
    if (v == nullptr || !v->is_string()) return false;
    *out = v->as_string();
    return true;
  };
  const auto num = [&](const char* name, std::int64_t* out) {
    const JsonValue* v = doc->find(name);
    if (v == nullptr || !v->is_number()) return false;
    *out = v->as_i64();
    return true;
  };
  if (!str("trace", &row.trace) || !str("span", &row.span) ||
      !str("parent", &row.parent) || !str("kind", &row.kind) ||
      !str("cls", &row.cls) || !num("host", &row.host) ||
      !num("flow", &row.flow) || !num("attempt", &row.attempt) ||
      !num("start_ns", &row.start) || !num("end_ns", &row.end) ||
      !num("bytes", &row.bytes)) {
    return std::nullopt;
  }
  if (const JsonValue* v = doc->find("ok")) row.ok = v->as_bool();
  return row;
}

double us(Nanos n) { return static_cast<double>(n) / 1000.0; }

std::string host_name(std::int64_t host) {
  return host < 0 ? "switch" : "host" + std::to_string(host);
}

/// The chain of spans that determined the request's completion: at each
/// level, the child whose end is latest (ties: earliest start, then
/// span id, so output is deterministic).  Returns false, having printed
/// the path up to that point, when a span id repeats on the path.
bool print_critical_path(const std::vector<const SpanRow*>& trace_spans) {
  std::map<std::string, std::vector<const SpanRow*>> children;
  const SpanRow* root = nullptr;
  for (const SpanRow* span : trace_spans) {
    if (span->kind == "request") root = span;
    children[span->parent].push_back(span);
  }
  std::set<std::string> on_path;
  int depth = 0;
  for (const SpanRow* current = root; current != nullptr; ++depth) {
    if (!on_path.insert(current->span).second) return false;
    std::printf("  %*s%-8s %-7s %10.1f ..%10.1f us  (%8.1f us)%s%s\n",
                depth * 2, "", current->kind.c_str(),
                host_name(current->host).c_str(), us(current->start),
                us(current->end), us(current->end - current->start),
                current->attempt > 0
                    ? ("  attempt=" + std::to_string(current->attempt)).c_str()
                    : "",
                current->ok ? "" : "  FAILED");
    const auto it = children.find(current->span);
    const SpanRow* next = nullptr;
    if (it != children.end()) {
      for (const SpanRow* child : it->second) {
        if (child->end < 0) continue;
        if (next == nullptr || child->end > next->end ||
            (child->end == next->end &&
             (child->start < next->start ||
              (child->start == next->start && child->span < next->span)))) {
          next = child;
        }
      }
    }
    current = next;
  }
  return true;
}

int analyze(const std::string& path, std::size_t top) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "hostsim_trace: cannot open %s\n", path.c_str());
    return 2;
  }
  std::vector<SpanRow> rows;
  std::size_t bad_lines = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    if (auto row = parse_row(line)) {
      rows.push_back(std::move(*row));
    } else {
      ++bad_lines;
    }
  }
  if (bad_lines > 0) {
    std::fprintf(stderr, "hostsim_trace: %zu malformed line(s) in %s\n",
                 bad_lines, path.c_str());
    return 2;
  }

  std::map<std::string, std::vector<const SpanRow*>> by_trace;
  for (const SpanRow& row : rows) by_trace[row.trace].push_back(&row);

  struct TraceRef {
    const std::string* trace;
    const SpanRow* root;
    Nanos duration;
  };
  std::vector<TraceRef> traces;
  for (const auto& [trace, spans] : by_trace) {
    for (const SpanRow* span : spans) {
      if (span->kind == "request" && span->end >= 0) {
        traces.push_back({&trace, span, span->end - span->start});
        break;
      }
    }
  }
  std::sort(traces.begin(), traces.end(),
            [](const TraceRef& a, const TraceRef& b) {
              return a.duration != b.duration ? a.duration > b.duration
                                              : *a.trace < *b.trace;
            });

  std::printf("%zu span(s), %zu trace(s), %zu completed request(s)\n",
              rows.size(), by_trace.size(), traces.size());
  const std::size_t n = std::min(top, traces.size());
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRef& ref = traces[i];
    std::printf("\n#%zu trace %s cls=%s: %.1f us, %zu span(s)\n", i + 1,
                ref.trace->c_str(), ref.root->cls.c_str(), us(ref.duration),
                by_trace[*ref.trace].size());
    if (!print_critical_path(by_trace[*ref.trace])) {
      std::fprintf(stderr,
                   "hostsim_trace: trace %s in %s: a span id repeats on its "
                   "critical path (parent links form a cycle)\n",
                   ref.trace->c_str(), path.c_str());
      return 2;
    }
  }
  if (traces.empty()) {
    std::fprintf(stderr, "hostsim_trace: no completed requests in %s\n",
                 path.c_str());
    return 1;
  }
  return 0;
}

int run_demo() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("hostsim-trace-demo-" + std::to_string(::getpid()));
  fs::remove_all(dir);

  hostsim::ExperimentConfig config;
  config.topology.num_hosts = 4;
  config.topology.use_switch = true;
  config.traffic.pattern = hostsim::Pattern::rpc_incast;
  config.traffic.flows = 3;
  config.traffic.rpc_size = 16 * hostsim::kKiB;
  config.warmup = 1 * hostsim::kMillisecond;
  config.duration = 3 * hostsim::kMillisecond;
  config.obs.trace_rate = 1.0;
  config.obs.out_dir = dir.string();
  hostsim::run_experiment(config);

  const int rc = analyze((dir / "obs.spans.jsonl").string(), 3);
  fs::remove_all(dir);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::size_t top = 5;
  bool demo = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (const auto value = hostsim::tools::flag_value(arg, "--top")) {
      top = static_cast<std::size_t>(
          hostsim::tools::int_flag(*value, "--top", 1));
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: hostsim_trace <spans.jsonl> [--top=N] | --demo\n");
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      path = std::string(arg);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  if (demo) return run_demo();
  if (path.empty()) {
    std::fprintf(stderr, "usage: hostsim_trace <spans.jsonl> [--top=N]\n");
    return 2;
  }
  return analyze(path, top);
}
