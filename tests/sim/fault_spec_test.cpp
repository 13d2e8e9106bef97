// Strict CLI fault-spec parsing: well-formed specs land in the plan,
// malformed ones (wrong field counts, empty fields, non-numeric text,
// trailing garbage) come back as one-line actionable errors that name
// the expected format, and a failed parse leaves the plan untouched.
#include "sim/fault_spec.h"

#include <gtest/gtest.h>

namespace hostsim {
namespace {

TEST(FaultSpecTest, ParsesEveryWellFormedSpec) {
  FaultPlan plan;
  EXPECT_FALSE(parse_ge_spec("0.001", plan));
  EXPECT_TRUE(plan.gilbert_elliott.enabled);

  EXPECT_FALSE(parse_flap_spec("10,2", plan));
  ASSERT_EQ(plan.link_flaps.size(), 1u);
  EXPECT_EQ(plan.link_flaps[0].at, 10 * kMillisecond);
  EXPECT_EQ(plan.link_flaps[0].duration, 2 * kMillisecond);
  EXPECT_EQ(plan.link_flaps[0].link, -1);
  EXPECT_FALSE(parse_flap_spec("10,2,3", plan));
  ASSERT_EQ(plan.link_flaps.size(), 2u);
  EXPECT_EQ(plan.link_flaps[1].link, 3);

  EXPECT_FALSE(parse_stall_spec("5,1,0,2", plan));
  ASSERT_EQ(plan.ring_stalls.size(), 1u);
  EXPECT_EQ(plan.ring_stalls[0].queue, 0);
  EXPECT_EQ(plan.ring_stalls[0].host, 2);

  EXPECT_FALSE(parse_pressure_spec("5,1,0.25", plan));
  ASSERT_EQ(plan.pool_pressure.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.pool_pressure[0].deny_prob, 0.25);

  EXPECT_FALSE(parse_crash_spec("1,20,5", plan));
  ASSERT_EQ(plan.host_crashes.size(), 1u);
  EXPECT_EQ(plan.host_crashes[0].host, 1);
  EXPECT_EQ(plan.host_crashes[0].at, 20 * kMillisecond);
  EXPECT_EQ(plan.host_crashes[0].down_for, 5 * kMillisecond);

  EXPECT_FALSE(parse_blackhole_spec("2,20,5", plan));
  ASSERT_EQ(plan.port_blackholes.size(), 1u);
  EXPECT_EQ(plan.port_blackholes[0].port, 2);
  EXPECT_EQ(plan.port_blackholes[0].duration, 5 * kMillisecond);
}

TEST(FaultSpecTest, RejectsTrailingGarbageAfterANumber) {
  FaultPlan plan;
  const auto error = parse_flap_spec("10,2x", plan);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("'2x' is not a number"), std::string::npos);
  EXPECT_NE(error->find("expected --flap=AT_MS,DUR_MS[,LINK]"),
            std::string::npos);
  EXPECT_TRUE(plan.link_flaps.empty());
}

TEST(FaultSpecTest, RejectsEmptyFields) {
  FaultPlan plan;
  const auto error = parse_crash_spec("0,,5", plan);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("is not a number"), std::string::npos);
  EXPECT_TRUE(plan.host_crashes.empty());
}

TEST(FaultSpecTest, RejectsWrongFieldCounts) {
  FaultPlan plan;
  for (const char* bad : {"0", "0,10", "0,10,5,7"}) {
    const auto error = parse_crash_spec(bad, plan);
    ASSERT_TRUE(error.has_value()) << bad;
    EXPECT_NE(error->find("comma-separated fields"), std::string::npos);
    EXPECT_NE(error->find("expected --crash=HOST,AT_MS,DOWN_MS"),
              std::string::npos);
  }
  EXPECT_TRUE(plan.host_crashes.empty());
}

TEST(FaultSpecTest, RejectsOutOfRangeValues) {
  FaultPlan plan;
  EXPECT_TRUE(parse_crash_spec("-1,10,5", plan).has_value());   // host < 0
  EXPECT_TRUE(parse_crash_spec("0,10,0", plan).has_value());    // no window
  EXPECT_TRUE(parse_blackhole_spec("-2,10,5", plan).has_value());
  EXPECT_TRUE(parse_pressure_spec("5,1,1.5", plan).has_value());  // p > 1
  EXPECT_TRUE(parse_ge_spec("0.9,10,0.5", plan).has_value());  // avg >= bad
  EXPECT_TRUE(plan.host_crashes.empty());
  EXPECT_TRUE(plan.port_blackholes.empty());
  EXPECT_TRUE(plan.pool_pressure.empty());
  EXPECT_FALSE(plan.gilbert_elliott.enabled);
}

TEST(FaultSpecTest, ErrorNamesTheFlagAndOffendingValue) {
  FaultPlan plan;
  const auto error = parse_blackhole_spec("abc,10,5", plan);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->rfind("--blackhole=abc,10,5: ", 0), 0u) << *error;
}

TEST(FaultSpecTest, TargetsMustExistInTheRun) {
  FaultPlan plan;
  ASSERT_FALSE(parse_flap_spec("1,1", plan));       // every link
  ASSERT_FALSE(parse_stall_spec("1,1,0", plan));    // queue 0 everywhere
  ASSERT_FALSE(parse_flap_spec("1,1,8", plan));
  ASSERT_FALSE(parse_stall_spec("1,1,0,8", plan));
  ASSERT_FALSE(parse_crash_spec("8,1,1", plan));
  ASSERT_FALSE(parse_blackhole_spec("8,1,1", plan));
  EXPECT_FALSE(check_fault_targets(plan, 9));

  const auto error = check_fault_targets(plan, 8);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(*error, "--flap: link 8 is outside this 8-host run (ids 0..7)");
  plan.link_flaps.pop_back();
  EXPECT_EQ(check_fault_targets(plan, 8)->rfind("--stall: host 8 ", 0), 0u);
  plan.ring_stalls.pop_back();
  EXPECT_EQ(check_fault_targets(plan, 8)->rfind("--crash: host 8 ", 0), 0u);
  plan.host_crashes.clear();
  EXPECT_EQ(check_fault_targets(plan, 8)->rfind("--blackhole: port 8 ", 0),
            0u);
  plan.port_blackholes.clear();
  EXPECT_FALSE(check_fault_targets(plan, 2));  // only global windows left
}

}  // namespace
}  // namespace hostsim
