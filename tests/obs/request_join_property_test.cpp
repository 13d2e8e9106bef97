// join_request_spans indexes the client attempts in one vector sorted
// by (flow, start) and scans a hop's flow from its earliest attempt,
// stopping at the first that starts after the hop.  The reference below
// is the join as first written, with each flow's attempts in a std::map
// of vectors scanned to the end.  Seeded span sets must join to the same
// output: attempt windows that touch (the earlier attempt wins) or
// overlap, open attempts, attempts with key -1 or a repeated key,
// unsampled attempts, hops on flows with no attempt, and service spans
// with and without a matching (flow, key).  Starts are distinct on each
// flow, since the reference's std::sort leaves tied attempts in an
// unspecified order; the tie rule is checked on its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/request_trace.h"
#include "sim/rng.h"

namespace hostsim::obs {
namespace {

/// The map-based join, kept as the reference.
void reference_join(std::vector<RequestSpan>& spans) {
  struct AttemptRef {
    std::uint64_t trace_id;
    std::uint64_t span_id;
    Nanos start;
    Nanos end;
  };
  std::map<std::pair<int, std::int64_t>, AttemptRef> by_key;
  std::map<int, std::vector<AttemptRef>> by_flow;
  for (const RequestSpan& span : spans) {
    if (span.kind != ReqKind::attempt || span.trace_id == 0) continue;
    const AttemptRef ref{span.trace_id, span.span_id, span.start,
                         span.closed() ? span.end : span.start};
    if (span.key >= 0) by_key.emplace(std::make_pair(span.flow, span.key), ref);
    by_flow[span.flow].push_back(ref);
  }
  for (auto& [flow, refs] : by_flow) {
    (void)flow;
    std::sort(refs.begin(), refs.end(),
              [](const AttemptRef& a, const AttemptRef& b) {
                return a.start < b.start;
              });
  }

  for (RequestSpan& span : spans) {
    if (span.trace_id != 0) continue;
    if (span.kind == ReqKind::service) {
      const auto it = by_key.find({span.flow, span.key});
      if (it == by_key.end()) continue;
      span.trace_id = it->second.trace_id;
      span.parent_id = it->second.span_id;
    } else if (span.kind == ReqKind::hop) {
      const auto it = by_flow.find(span.flow);
      if (it == by_flow.end()) continue;
      for (const AttemptRef& ref : it->second) {
        if (ref.start <= span.start && span.start <= ref.end) {
          span.trace_id = ref.trace_id;
          span.parent_id = ref.span_id;
          break;
        }
      }
    }
  }

  spans.erase(std::remove_if(spans.begin(), spans.end(),
                             [](const RequestSpan& span) {
                               return span.trace_id == 0;
                             }),
              spans.end());
  std::sort(spans.begin(), spans.end(),
            [](const RequestSpan& a, const RequestSpan& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
              return a.span_id < b.span_id;
            });
}

auto fields(const RequestSpan& s) {
  return std::tie(s.trace_id, s.span_id, s.parent_id, s.key, s.start, s.end,
                  s.bytes, s.host, s.flow, s.attempt, s.kind, s.cls, s.ok);
}

void expect_same(const std::vector<RequestSpan>& got,
                 const std::vector<RequestSpan>& want, std::uint64_t seed) {
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(fields(got[i]) == fields(want[i]))
        << "seed " << seed << ", span " << i << " of " << got.size();
  }
}

constexpr int kFlowsWithAttempts = 6;
constexpr int kFlows = 8;  // flows 6 and 7 carry hops and services only

/// A seeded span set; `touching` counts hops enqueued exactly where one
/// attempt's window ends and the next one's begins.
std::vector<RequestSpan> random_spans(Rng& rng, int* touching) {
  std::vector<RequestSpan> spans;
  std::uint64_t next_id = 1;
  const auto add = [&](ReqKind kind, int flow, Nanos start, Nanos end) {
    RequestSpan span;
    span.span_id = next_id++ * 0x9e3779b97f4a7c15ULL;  // distinct, unordered
    span.kind = kind;
    span.host = static_cast<int>(rng.next_below(4));
    span.flow = flow;
    span.start = start;
    span.end = end;
    span.bytes = static_cast<Bytes>(rng.next_below(4096));
    spans.push_back(span);
    return spans.size() - 1;
  };

  // Client side: a root per flow and a run of attempts with strictly
  // increasing starts.  Windows touch, overlap, leave gaps, or stay
  // open; keys repeat or are -1; some attempts are unsampled.
  std::vector<std::vector<std::size_t>> attempts(kFlowsWithAttempts);
  for (int flow = 0; flow < kFlowsWithAttempts; ++flow) {
    const std::uint64_t trace = rng.next_u64() | 1;
    const std::size_t root = add(ReqKind::request, -1, 0, 0);
    spans[root].trace_id = trace;
    spans[root].cls = ReqClass::rpc;
    Nanos start = static_cast<Nanos>(rng.next_below(50));
    const int n = static_cast<int>(rng.next_below(25));
    for (int k = 0; k < n; ++k) {
      const std::size_t i = add(ReqKind::attempt, flow, start, -1);
      RequestSpan& attempt = spans[i];
      attempt.trace_id = rng.chance(0.1) ? 0 : trace;
      attempt.parent_id = spans[root].span_id;
      attempt.cls = ReqClass::rpc;
      attempt.attempt = k;
      attempt.key = rng.chance(0.2)   ? -1
                    : rng.chance(0.1) ? static_cast<std::int64_t>(k / 2)
                                      : static_cast<std::int64_t>(k);
      const Nanos next = start + 1 + static_cast<Nanos>(rng.next_below(60));
      if (rng.chance(0.4)) {
        attempt.end = next;  // touches the next attempt
      } else if (!rng.chance(0.1)) {
        attempt.end = start + static_cast<Nanos>(rng.next_below(120));
      }
      attempts[static_cast<std::size_t>(flow)].push_back(i);
      start = next;
    }
  }

  // Switch hops: at attempt boundaries, or anywhere, on every flow.
  const int hops = 50 + static_cast<int>(rng.next_below(150));
  for (int h = 0; h < hops; ++h) {
    const int flow = static_cast<int>(rng.next_below(kFlows));
    Nanos at = static_cast<Nanos>(rng.next_below(1600));
    if (flow < kFlowsWithAttempts && rng.chance(0.5)) {
      const auto& mine = attempts[static_cast<std::size_t>(flow)];
      if (!mine.empty()) {
        const std::size_t k = rng.next_below(mine.size());
        const RequestSpan& attempt = spans[mine[k]];
        at = rng.chance(0.5) || !attempt.closed() ? attempt.start
                                                  : attempt.end;
        if (k + 1 < mine.size() && attempt.end == spans[mine[k + 1]].start &&
            at == attempt.end) {
          ++*touching;
        }
      }
    }
    const Nanos end = at + static_cast<Nanos>(rng.next_below(90));
    const std::size_t i = add(ReqKind::hop, flow, at, end);
    spans[i].host = -1;
    spans[i].key = static_cast<std::int64_t>(rng.next_below(9));
  }

  // Server side: service spans whose (flow, key) an attempt carries, or
  // does not.
  const int services = 20 + static_cast<int>(rng.next_below(60));
  for (int s = 0; s < services; ++s) {
    const int flow = static_cast<int>(rng.next_below(kFlows));
    const Nanos at = static_cast<Nanos>(rng.next_below(1600));
    const std::size_t i = add(ReqKind::service, flow, at, at + 10);
    spans[i].key = static_cast<std::int64_t>(rng.next_below(30));
  }

  // Record order is per host, not per flow: shuffle.
  for (std::size_t i = spans.size(); i > 1; --i) {
    std::swap(spans[i - 1], spans[rng.next_below(i)]);
  }
  return spans;
}

TEST(JoinRequestSpansProperty, MatchesMapReference) {
  int touching = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    std::vector<RequestSpan> got = random_spans(rng, &touching);
    std::vector<RequestSpan> want = got;
    join_request_spans(got);
    reference_join(want);
    expect_same(got, want, seed);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(touching, 0) << "no hop landed where two attempts touch";
}

// Tied attempts on one flow (the first closed at the instant the next
// began) keep their recorded order: a hop at that instant joins the
// first recorded one.
TEST(JoinRequestSpansProperty, TiedAttemptsKeepRecordedOrder) {
  std::vector<RequestSpan> spans(3);
  for (std::size_t i = 0; i < 2; ++i) {
    spans[i].kind = ReqKind::attempt;
    spans[i].trace_id = 7;
    spans[i].span_id = 10 + i;
    spans[i].flow = 3;
    spans[i].start = 100;
    spans[i].end = i == 0 ? 100 : 150;
  }
  spans[2].kind = ReqKind::hop;
  spans[2].span_id = 20;
  spans[2].flow = 3;
  spans[2].start = 100;
  spans[2].end = 110;
  join_request_spans(spans);
  ASSERT_EQ(spans.size(), 3u);
  for (const RequestSpan& span : spans) {
    if (span.kind == ReqKind::hop) {
      EXPECT_EQ(span.parent_id, 10u);
    }
  }
}

}  // namespace
}  // namespace hostsim::obs
