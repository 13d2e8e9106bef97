// Ring must behave as a std::deque restricted to push_back, pop_front,
// front/back and indexing, through every growth, and must move its
// items rather than copy them.
#include "mem/ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>

#include "mem/page.h"
#include "sim/rng.h"

namespace hostsim {
namespace {

bool same(const FragmentVec& a, const FragmentVec& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Fragment& x, const Fragment& y) {
                      return x.page == y.page && x.bytes == y.bytes;
                    });
}

/// A fresh payload: 1-6 fragments, so some spill past FragmentVec's four
/// inline slots onto the heap.
FragmentVec make_payload(Rng& rng, Page* pages, Bytes& next) {
  FragmentVec vec;
  const int count = 1 + static_cast<int>(rng.next_below(6));
  for (int i = 0; i < count; ++i) {
    vec.push_back(Fragment{&pages[rng.next_below(8)], next++});
  }
  return vec;
}

// Each seeded program opens with 8 pushes, 5 pops and 12 pushes, which
// wrap the ring before it first grows, then runs random phases of
// mostly-push and mostly-pop traffic, so the ring grows while wrapped at
// several sizes and drains to empty.  Heap payloads must come out with
// the buffer they went in with: moved through every push and growth,
// never copied.
TEST(RingProperty, MatchesDeque) {
  Page pages[8];
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Ring<FragmentVec> ring;
    std::deque<FragmentVec> model;       // copies of the pushed payloads
    std::deque<const Fragment*> buffer;  // heap buffer pushed, or null
    Bytes next = 0;
    for (int step = 0; step < 2400; ++step) {
      const double push = (step / 200) % 2 == 0 ? 0.7 : 0.3;
      const bool opening_pop = step >= 8 && step < 13;
      if (step < 25 ? !opening_pop : model.empty() || rng.chance(push)) {
        FragmentVec payload = make_payload(rng, pages, next);
        model.push_back(payload);
        buffer.push_back(payload.is_inline() ? nullptr : payload.begin());
        ring.push_back(std::move(payload));
      } else {
        FragmentVec popped = ring.pop_front();
        EXPECT_TRUE(same(popped, model.front()));
        if (buffer.front() != nullptr) {
          EXPECT_EQ(popped.begin(), buffer.front());
        }
        model.pop_front();
        buffer.pop_front();
      }
      ASSERT_EQ(ring.size(), model.size());
      ASSERT_EQ(ring.empty(), model.empty());
      if (model.empty()) continue;
      EXPECT_TRUE(same(ring.front(), model.front()));
      EXPECT_TRUE(same(ring.back(), model.back()));
      const Ring<FragmentVec>& view = ring;
      const std::size_t i = rng.next_below(model.size());
      EXPECT_TRUE(same(view[i], model[i]));
    }
  }
}

}  // namespace
}  // namespace hostsim
