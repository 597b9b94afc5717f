// Tests for the host-side self-profiler (src/telemetry/selfprof/): scope nesting and the
// exclusive-time attribution identity, sharding-stats determinism, the dual-clock Chrome
// trace schema, and the bench harness helpers that ride on the profiler (median publication,
// wall-clock-row stripping for the repeat determinism assert).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_main.h"
#include "src/ftl/conventional_ssd.h"
#include "src/telemetry/metric_registry.h"
#include "src/telemetry/selfprof/self_profiler.h"
#include "src/telemetry/selfprof/sharding_stats.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/timeline.h"
#include "src/util/rng.h"

namespace blockhead {
namespace {

// Busy-waits long enough for the monotonic clock to visibly advance (scopes in these tests
// must have nonzero width without depending on timer resolution).
void SpinAtLeast(std::uint64_t ns) {
  const std::uint64_t until = SelfProfiler::WallNowNs() + ns;
  while (SelfProfiler::WallNowNs() < until) {
  }
}

std::uint64_t SumSelfNs(const SelfProfiler& prof) {
  std::uint64_t sum = 0;
  for (std::size_t sub = 0; sub < static_cast<std::size_t>(ProfSubsystem::kCount); ++sub) {
    for (std::size_t op = 0; op < static_cast<std::size_t>(ProfOp::kCount); ++op) {
      sum += prof.cell(static_cast<ProfSubsystem>(sub), static_cast<ProfOp>(op)).self_ns;
    }
  }
  return sum;
}

TEST(SelfProfilerTest, DisabledScopesAreFreeAndRecordNothing) {
  SelfProfiler prof;
  {
    SelfProfiler::Scope outer(&prof, ProfSubsystem::kFlash, ProfOp::kRead);
    SelfProfiler::Scope inner(nullptr, ProfSubsystem::kFtl, ProfOp::kGc);
  }
  EXPECT_EQ(prof.cell(ProfSubsystem::kFlash, ProfOp::kRead).count, 0u);
  EXPECT_TRUE(prof.host_slices().empty());
  const SelfProfSample s = prof.Sample();
  EXPECT_EQ(s.total_events, 0u);
  EXPECT_EQ(s.flash_events, 0u);
}

TEST(SelfProfilerTest, NestedScopesAttributeExclusiveTime) {
  SelfProfiler prof;
  SelfProfConfig config;
  config.min_slice_ns = 0;
  prof.Enable(config);
  {
    SelfProfiler::Scope outer(&prof, ProfSubsystem::kBench, ProfOp::kOther);
    SpinAtLeast(200'000);
    {
      SelfProfiler::Scope inner(&prof, ProfSubsystem::kFlash, ProfOp::kRead);
      SpinAtLeast(200'000);
    }
    SpinAtLeast(200'000);
  }
  const ProfCell& outer_cell = prof.cell(ProfSubsystem::kBench, ProfOp::kOther);
  const ProfCell& inner_cell = prof.cell(ProfSubsystem::kFlash, ProfOp::kRead);
  ASSERT_EQ(outer_cell.count, 1u);
  ASSERT_EQ(inner_cell.count, 1u);
  // The child's full time nests inside the parent's total; the parent's self time excludes
  // exactly the child's total. Both are measured by one clock, so the identity is exact.
  EXPECT_GE(inner_cell.total_ns, 200'000u);
  EXPECT_EQ(inner_cell.total_ns, inner_cell.self_ns);
  EXPECT_GE(outer_cell.total_ns, inner_cell.total_ns + 400'000u);
  EXPECT_EQ(outer_cell.self_ns, outer_cell.total_ns - inner_cell.total_ns);
}

TEST(SelfProfilerTest, SelfTimesSumToRootTotalAcrossSubsystems) {
  SelfProfiler prof;
  SelfProfConfig config;
  config.min_slice_ns = 0;
  prof.Enable(config);
  {
    SelfProfiler::Scope root(&prof, ProfSubsystem::kBench, ProfOp::kOther);
    for (int i = 0; i < 3; ++i) {
      SelfProfiler::Scope ftl(&prof, ProfSubsystem::kFtl, ProfOp::kWrite);
      SpinAtLeast(50'000);
      {
        SelfProfiler::Scope flash(&prof, ProfSubsystem::kFlash, ProfOp::kWrite);
        SpinAtLeast(50'000);
      }
    }
    SpinAtLeast(50'000);
  }
  // The attribution identity: summing exclusive time over every cell reproduces the root
  // scope's inclusive total, exactly — no double counting, nothing unattributed.
  EXPECT_EQ(SumSelfNs(prof), prof.cell(ProfSubsystem::kBench, ProfOp::kOther).total_ns);
  EXPECT_EQ(prof.Sample().total_events, 7u);
  EXPECT_EQ(prof.Sample().flash_events, 3u);
}

TEST(SelfProfilerTest, DelegatedScopesCreditTheRootProfiler) {
  // Fleet devices own sub-bundles whose profilers delegate to the bench-level one: scopes
  // opened through the sub-profiler must land in the root's cells, nested in the root's
  // scope stack, and sim-time notes must reach the root frontier.
  SelfProfiler root;
  SelfProfiler device;
  SelfProfConfig config;
  config.min_slice_ns = 0;
  root.Enable(config);
  device.DelegateTo(&root);
  {
    SelfProfiler::Scope fleet(&root, ProfSubsystem::kFleet, ProfOp::kDispatch);
    SpinAtLeast(50'000);
    {
      SelfProfiler::Scope flash(&device, ProfSubsystem::kFlash, ProfOp::kRead);
      SpinAtLeast(50'000);
    }
  }
  device.NoteSimTime(12'345);
  EXPECT_EQ(device.cell(ProfSubsystem::kFlash, ProfOp::kRead).count, 0u);
  const ProfCell& flash_cell = root.cell(ProfSubsystem::kFlash, ProfOp::kRead);
  const ProfCell& fleet_cell = root.cell(ProfSubsystem::kFleet, ProfOp::kDispatch);
  ASSERT_EQ(flash_cell.count, 1u);
  // Proper nesting: the delegated child subtracts from the fleet scope's self time.
  EXPECT_EQ(fleet_cell.self_ns, fleet_cell.total_ns - flash_cell.total_ns);
  EXPECT_EQ(root.max_sim_time(), 12'345u);
  EXPECT_EQ(root.Sample().flash_events, 1u);
  device.DelegateTo(nullptr);  // Restored independence: scopes stay local (and disabled).
  { SelfProfiler::Scope local(&device, ProfSubsystem::kFlash, ProfOp::kRead); }
  EXPECT_EQ(root.cell(ProfSubsystem::kFlash, ProfOp::kRead).count, 1u);
}

TEST(SelfProfilerTest, SampleDerivesRatesSpeedupAndMemory) {
  SelfProfiler prof;
  prof.Enable();
  {
    SelfProfiler::Scope s(&prof, ProfSubsystem::kFlash, ProfOp::kWrite);
    SpinAtLeast(100'000);
  }
  prof.NoteSimTime(SimTime{50'000'000});
  prof.NoteSimTime(SimTime{10'000});  // Frontier keeps the max, not the last.
  const SelfProfSample s = prof.Sample();
  EXPECT_GE(s.wall_elapsed_ns, 100'000u);
  EXPECT_EQ(s.flash_events, 1u);
  EXPECT_GT(s.events_per_sec, 0.0);
  EXPECT_GT(s.ns_per_simulated_op, 0.0);
  EXPECT_DOUBLE_EQ(
      s.sim_speedup,
      50'000'000.0 / static_cast<double>(s.wall_elapsed_ns));
  EXPECT_GT(s.rss_bytes, 0u);       // Linux CI: /proc/self/statm is present.
  EXPECT_GT(s.peak_rss_bytes, 0u);  // getrusage.
}

TEST(SelfProfilerTest, SpinHookInflatesFlashScopesOnly) {
  SelfProfiler prof;
  SelfProfConfig config;
  config.spin_flash_ns = 300'000;
  prof.Enable(config);
  { SelfProfiler::Scope s(&prof, ProfSubsystem::kFlash, ProfOp::kRead); }
  { SelfProfiler::Scope s(&prof, ProfSubsystem::kFtl, ProfOp::kRead); }
  EXPECT_GE(prof.cell(ProfSubsystem::kFlash, ProfOp::kRead).total_ns, 300'000u);
  EXPECT_LT(prof.cell(ProfSubsystem::kFtl, ProfOp::kRead).total_ns, 300'000u);
}

TEST(SelfProfilerTest, SliceRingDropsOldestBeyondBound) {
  SelfProfiler prof;
  SelfProfConfig config;
  config.min_slice_ns = 0;
  config.max_slices = 4;
  prof.Enable(config);
  for (int i = 0; i < 10; ++i) {
    SelfProfiler::Scope s(&prof, ProfSubsystem::kKv, ProfOp::kRead);
  }
  EXPECT_EQ(prof.host_slices().size(), 4u);
  EXPECT_EQ(prof.slices_dropped(), 6u);
  // Re-enabling starts a fresh profile.
  prof.Enable(config);
  EXPECT_TRUE(prof.host_slices().empty());
  EXPECT_EQ(prof.slices_dropped(), 0u);
}

TEST(SelfProfilerTest, PublishToEmitsHostPrefixedBreakdown) {
  SelfProfiler prof;
  SelfProfConfig config;
  config.min_slice_ns = 0;
  prof.Enable(config);
  {
    SelfProfiler::Scope s(&prof, ProfSubsystem::kFlash, ProfOp::kWrite);
    SpinAtLeast(50'000);
  }
  MetricRegistry registry;
  prof.PublishTo(registry);
  EXPECT_EQ(registry.GetCounter("selfprof.host.flash_events")->value(), 1u);
  EXPECT_GT(registry.GetCounter("selfprof.host.flash.write.count")->value(), 0u);
  EXPECT_GT(registry.GetCounter("selfprof.host.flash.self_ns")->value(), 0u);
  EXPECT_GT(registry.GetGauge("selfprof.host.ns_per_simulated_op")->value(), 0.0);
}

// The FTL opens one GC scope per GC cycle and none on writes that only check the free pool,
// so selfprof's GC count is the cycle count and the inclusive GC time (no nested same-cell
// scopes) fits inside the profiled wall time.
TEST(SelfProfilerTest, FtlGcCountIsTheGcCycleCount) {
  FlashConfig fc;
  fc.geometry = FlashGeometry::Small();
  fc.timing = FlashTiming::FastForTests();
  fc.store_data = false;
  FtlConfig ftl;
  ftl.op_fraction = 0.15;
  Telemetry tel;
  tel.selfprof.Enable();
  ConventionalSsd ssd(fc, ftl);
  ssd.AttachTelemetry(&tel);
  Rng rng(3);
  SimTime t = 0;
  const std::uint64_t n = ssd.num_blocks();
  for (std::uint64_t i = 0; i < 3 * n; ++i) {
    auto w = ssd.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
    if (i % 16 == 0) {
      ssd.RunBackgroundGc(t, 2);  // Also a no-op check when the pool is above target.
    }
  }
  MetricRegistry registry;
  tel.selfprof.PublishTo(registry);
  const std::uint64_t gc_runs = ssd.ftl_stats().gc_runs;
  ASSERT_GT(gc_runs, 0u);
  ASSERT_LT(gc_runs, ssd.ftl_stats().host_pages_written);  // Most writes run no GC cycle.
  EXPECT_EQ(registry.GetCounter("selfprof.host.ftl.gc.count")->value(), gc_runs);
  EXPECT_LE(registry.GetCounter("selfprof.host.ftl.gc.wall_ns")->value(),
            registry.GetCounter("selfprof.host.wall_elapsed_ns")->value());
}

TEST(ShardingStatsTest, OccupancyAndCrossChannelDepsAreDeterministic) {
  ShardingStats stats;
  stats.Init(2, 4);
  // Channel sequence 0,1,0,0: two consecutive-op channel switches, one stay.
  stats.RecordOp(0, 0);
  stats.RecordOp(1, 2);
  stats.RecordOp(0, 1);
  stats.RecordOp(0, 1);
  EXPECT_DOUBLE_EQ(stats.CrossDepFraction(), 2.0 / 3.0);
  // Channel 0 carried 3 of 4 events: the serial-channel bound on parallel speedup is 4/3.
  EXPECT_DOUBLE_EQ(stats.ParallelSpeedupBound(), 4.0 / 3.0);

  // Publishing is idempotent and the histograms rebuild identically each time: the snapshots
  // must be byte-identical (the property that lets sharding rows live in BENCH_baseline.json).
  MetricRegistry registry;
  stats.PublishTo(registry, "dev");
  auto render = [&registry] {
    std::string out;
    JsonLinesSink().Render("t", registry.Snapshot(), &out);
    return out;
  };
  const std::string first = render();
  stats.PublishTo(registry, "dev");
  EXPECT_EQ(render(), first);
  EXPECT_EQ(registry.GetCounter("dev.sharding.events")->value(), 4u);
  EXPECT_EQ(registry.GetCounter("dev.sharding.cross_channel_deps")->value(), 2u);
  EXPECT_EQ(registry.GetCounter("dev.sharding.same_channel_deps")->value(), 1u);
  EXPECT_EQ(registry.GetHistogram("dev.sharding.channel_occupancy")->count(), 2u);
  EXPECT_EQ(registry.GetHistogram("dev.sharding.plane_occupancy")->count(), 4u);
}

TEST(DualClockTraceTest, HostSlicesExportAsFourthProcess) {
  Telemetry telemetry;
  telemetry.timeline.Enable();
  telemetry.timeline.RecordSpan("read", 100, 200);
  SelfProfConfig config;
  config.min_slice_ns = 0;
  telemetry.selfprof.Enable(config);
  {
    SelfProfiler::Scope s(&telemetry.selfprof, ProfSubsystem::kFlash, ProfOp::kWrite);
    SpinAtLeast(10'000);
  }
  {
    SelfProfiler::Scope s(&telemetry.selfprof, ProfSubsystem::kKv, ProfOp::kCompaction);
    SpinAtLeast(10'000);
  }

  const std::string dual = telemetry.timeline.ExportChromeTrace(&telemetry.selfprof);
  EXPECT_NE(dual.find("\"self-profile (host clock)\""), std::string::npos);
  EXPECT_NE(dual.find("\"host.flash\""), std::string::npos);
  EXPECT_NE(dual.find("\"host.kv\""), std::string::npos);
  EXPECT_NE(dual.find("\"cat\":\"selfprof\""), std::string::npos);
  EXPECT_NE(dual.find("\"pid\":" + std::to_string(Timeline::kSelfProfilePid)),
            std::string::npos);
  // The SimTime-domain content is still there alongside.
  EXPECT_NE(dual.find("\"cat\":\"span\""), std::string::npos);

  // Without the profiler the export is unchanged single-clock output: no pid-3 track.
  const std::string single = telemetry.timeline.ExportChromeTrace();
  EXPECT_EQ(single.find("self-profile"), std::string::npos);
  EXPECT_EQ(single.find("\"cat\":\"selfprof\""), std::string::npos);
}

TEST(BenchHarnessTest, StripHostMetricRowsRemovesOnlyWallClockRows) {
  const std::string dump =
      "{\"metric\":\"flash.reads\",\"value\":7}\n"
      "{\"metric\":\"selfprof.host.ns_per_simulated_op\",\"value\":123.4}\n"
      "{\"metric\":\"dev.sharding.events\",\"value\":9}\n"
      "{\"metric\":\"selfprof.host.flash.read.count\",\"value\":7}\n";
  EXPECT_EQ(StripHostMetricRows(dump),
            "{\"metric\":\"flash.reads\",\"value\":7}\n"
            "{\"metric\":\"dev.sharding.events\",\"value\":9}\n");
}

TEST(BenchHarnessTest, MedianPerfSampleOverwritesDerivedGauges) {
  MetricRegistry registry;
  std::vector<SelfProfSample> samples(3);
  samples[0].wall_elapsed_ns = 100;
  samples[1].wall_elapsed_ns = 900;  // Noisy outlier the median must suppress.
  samples[2].wall_elapsed_ns = 120;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].ns_per_simulated_op = static_cast<double>(samples[i].wall_elapsed_ns) / 10.0;
    samples[i].events_per_sec = 1e9 / samples[i].ns_per_simulated_op;
    samples[i].sim_speedup = static_cast<double>(i + 1);
  }
  PublishMedianPerfSample(registry, samples);
  EXPECT_EQ(registry.GetCounter("selfprof.host.wall_elapsed_ns")->value(), 120u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("selfprof.host.ns_per_simulated_op")->value(), 12.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("selfprof.host.sim_speedup")->value(), 2.0);
  EXPECT_EQ(registry.GetCounter("selfprof.host.repeats")->value(), 3u);
}

}  // namespace
}  // namespace blockhead
