// Unit tests for the host GC scheduling policies and the shared zone reclaimer's victim pick.

#include <gtest/gtest.h>

#include <vector>

#include "src/sched/gc_scheduler.h"
#include "src/sched/zone_reclaimer.h"

namespace blockhead {
namespace {

GcSchedulerConfig Config(GcSchedPolicy policy) {
  GcSchedulerConfig c;
  c.policy = policy;
  c.critical_free_fraction = 0.05;
  c.low_free_fraction = 0.25;
  c.min_gc_interval = 100;
  return c;
}

TEST(GcSchedulerTest, PolicyNames) {
  EXPECT_STREQ(GcSchedPolicyName(GcSchedPolicy::kInline), "inline");
  EXPECT_STREQ(GcSchedPolicyName(GcSchedPolicy::kBackground), "background");
  EXPECT_STREQ(GcSchedPolicyName(GcSchedPolicy::kReadPriority), "read-priority");
  EXPECT_STREQ(GcSchedPolicyName(GcSchedPolicy::kRateLimited), "rate-limited");
}

TEST(GcSchedulerTest, NoPolicyRunsWithAmpleSpace) {
  for (const auto policy : {GcSchedPolicy::kInline, GcSchedPolicy::kBackground,
                            GcSchedPolicy::kReadPriority, GcSchedPolicy::kRateLimited}) {
    GcScheduler sched(Config(policy));
    EXPECT_FALSE(sched.ShouldRun(0.9, false, 0)) << GcSchedPolicyName(policy);
    EXPECT_FALSE(sched.ShouldRun(0.26, true, 0)) << GcSchedPolicyName(policy);
  }
}

TEST(GcSchedulerTest, EveryPolicyRunsWhenCritical) {
  for (const auto policy : {GcSchedPolicy::kInline, GcSchedPolicy::kBackground,
                            GcSchedPolicy::kReadPriority, GcSchedPolicy::kRateLimited}) {
    GcScheduler sched(Config(policy));
    EXPECT_TRUE(sched.ShouldRun(0.04, true, 0)) << GcSchedPolicyName(policy);
    EXPECT_TRUE(sched.Critical(0.04));
    EXPECT_FALSE(sched.Critical(0.06));
  }
}

TEST(GcSchedulerTest, InlineNeverRunsEarly) {
  GcScheduler sched(Config(GcSchedPolicy::kInline));
  EXPECT_FALSE(sched.ShouldRun(0.10, false, 0));
  EXPECT_FALSE(sched.ShouldRun(0.10, true, 0));
}

TEST(GcSchedulerTest, BackgroundRunsBelowLowWatermark) {
  GcScheduler sched(Config(GcSchedPolicy::kBackground));
  EXPECT_TRUE(sched.ShouldRun(0.20, false, 0));
  EXPECT_TRUE(sched.ShouldRun(0.20, true, 0));
}

TEST(GcSchedulerTest, ReadPriorityDefersWhileReadsPending) {
  GcScheduler sched(Config(GcSchedPolicy::kReadPriority));
  EXPECT_TRUE(sched.ShouldRun(0.20, false, 0));
  EXPECT_FALSE(sched.ShouldRun(0.20, true, 0));
  // ...but not when space is critical.
  EXPECT_TRUE(sched.ShouldRun(0.04, true, 0));
}

TEST(GcSchedulerTest, RateLimiterSpacesRuns) {
  GcScheduler sched(Config(GcSchedPolicy::kRateLimited));
  EXPECT_TRUE(sched.ShouldRun(0.20, false, 0));
  sched.NoteRun(0);
  EXPECT_FALSE(sched.ShouldRun(0.20, false, 50));
  EXPECT_TRUE(sched.ShouldRun(0.20, false, 100));
  // Criticality overrides the rate limit.
  sched.NoteRun(100);
  EXPECT_TRUE(sched.ShouldRun(0.01, false, 101));
}

// The victim-pick contract both zone layers rely on, one row per rule. Each row sets up zones
// 0..3 of a fresh device (kFull zones are finished, kOpen zones hold one written page, the
// rest stay empty) with the given live-page counts, then picks once.
struct PickCase {
  const char* name;
  enum Kind { kEmpty, kOpen, kFull };
  Kind kinds[4];
  // Live pages per zone, as a fraction of the zone's capacity.
  double live[4];
  std::vector<std::uint32_t> frontiers;
  std::uint32_t first_data_zone;
  bool critical;
  std::uint32_t want;
};

TEST(ZoneReclaimerTest, PickVictimContract) {
  using K = PickCase::Kind;
  constexpr std::uint32_t kNone = ZoneReclaimer::kNoZone;
  const PickCase cases[] = {
      {"least live wins", {K::kFull, K::kFull, K::kFull, K::kEmpty}, {0.4, 0.1, 0.2, 0},
       {}, 0, false, 1},
      {"frontier excluded", {K::kFull, K::kFull, K::kFull, K::kEmpty}, {0.4, 0.1, 0.2, 0},
       {1, 7}, 0, false, 2},
      {"zone that is not full excluded", {K::kFull, K::kOpen, K::kEmpty, K::kEmpty},
       {0.4, 0.0, 0.0, 0}, {}, 0, false, 0},
      {"fully-live zone excluded", {K::kFull, K::kFull, K::kEmpty, K::kEmpty},
       {1.0, 1.0, 0, 0}, {}, 0, true, kNone},
      {"live gate applies when not critical", {K::kFull, K::kFull, K::kEmpty, K::kEmpty},
       {0.9, 0.8, 0, 0}, {}, 0, false, kNone},
      {"live gate lifted when critical", {K::kFull, K::kFull, K::kEmpty, K::kEmpty},
       {0.9, 0.8, 0, 0}, {}, 0, true, 1},
      {"lowest id wins a tie", {K::kEmpty, K::kFull, K::kFull, K::kFull}, {0, 0.3, 0.2, 0.2},
       {}, 0, false, 2},
      {"zones below the first data zone excluded", {K::kFull, K::kFull, K::kEmpty, K::kEmpty},
       {0.1, 0.3, 0, 0}, {}, 1, false, 1},
  };
  for (const PickCase& c : cases) {
    SCOPED_TRACE(c.name);
    FlashConfig flash;
    flash.geometry = FlashGeometry::Small();
    flash.timing = FlashTiming::FastForTests();
    flash.store_data = false;
    ZnsDevice dev(flash, ZnsConfig{});
    ASSERT_GE(dev.num_zones(), 4u);
    ZoneReclaimStats stats;
    GcSchedulerConfig sched;
    ZoneReclaimer reclaimer(&dev, c.first_data_zone, /*max_live_fraction=*/0.5,
                            /*step_pages=*/4, sched,
                            ReclaimAttribution{ProfSubsystem::kSched, ProfOp::kGc,
                                               WriteCause::kDeviceGC, StackLayer::kHost},
                            &stats);
    for (std::uint32_t z = 0; z < 4; ++z) {
      if (c.kinds[z] == K::kOpen) {
        ASSERT_TRUE(dev.Write(ZoneId{z}, 0, 1, 0).ok());
      } else if (c.kinds[z] == K::kFull) {
        ASSERT_TRUE(dev.FinishZone(ZoneId{z}, 0).ok());
      }
      const double capacity = static_cast<double>(dev.zone(ZoneId{z}).capacity_pages);
      reclaimer.AddLive(ZoneId{z}, static_cast<std::uint32_t>(c.live[z] * capacity));
    }
    EXPECT_EQ(reclaimer.PickVictim(c.critical, c.frontiers), c.want);
  }
}

}  // namespace
}  // namespace blockhead
