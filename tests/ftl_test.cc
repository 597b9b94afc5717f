// Unit + property tests for the conventional (page-mapped, garbage-collecting) SSD.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <map>
#include <numeric>
#include <vector>

#include "src/ftl/conventional_ssd.h"
#include "src/ftl/victim_index.h"
#include "src/util/rng.h"

namespace blockhead {
namespace {

FlashConfig SmallFlash() {
  FlashConfig c;
  c.geometry = FlashGeometry::Small();
  c.timing = FlashTiming::FastForTests();
  return c;
}

FtlConfig DefaultFtl() {
  FtlConfig f;
  f.op_fraction = 0.15;
  return f;
}

std::vector<std::uint8_t> Pattern(std::uint32_t page_size, std::uint8_t tag) {
  std::vector<std::uint8_t> v(page_size);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(tag + i);
  }
  return v;
}

TEST(ConventionalSsdTest, ExportsReducedLogicalCapacity) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  const std::uint64_t physical = ssd.flash().geometry().total_pages();
  EXPECT_LT(ssd.num_blocks(), physical);
  EXPECT_GT(ssd.num_blocks(), physical / 2);
  EXPECT_EQ(ssd.block_size(), 4096u);
}

TEST(ConventionalSsdTest, ZeroOpStillLeavesHardReserve) {
  FtlConfig f = DefaultFtl();
  f.op_fraction = 0.0;
  ConventionalSsd ssd(SmallFlash(), f);
  const FlashGeometry& g = ssd.flash().geometry();
  EXPECT_EQ(ssd.num_blocks(),
            g.total_pages() - static_cast<std::uint64_t>(f.min_reserve_blocks_per_plane) *
                                  g.total_planes() * g.pages_per_block);
}

TEST(ConventionalSsdTest, ReadYourWrite) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  const auto data = Pattern(4096, 7);
  auto w = ssd.WriteBlocks(Lba{42}, 1, 0, data);
  ASSERT_TRUE(w.ok());
  std::vector<std::uint8_t> out(4096);
  auto r = ssd.ReadBlocks(Lba{42}, 1, w.value(), out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
}

TEST(ConventionalSsdTest, OverwriteReturnsNewestData) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  SimTime t = 0;
  for (std::uint8_t tag = 0; tag < 5; ++tag) {
    auto w = ssd.WriteBlocks(Lba{10}, 1, t, Pattern(4096, tag));
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  std::vector<std::uint8_t> out(4096);
  ASSERT_TRUE(ssd.ReadBlocks(Lba{10}, 1, t, out).ok());
  EXPECT_EQ(out, Pattern(4096, 4));
}

TEST(ConventionalSsdTest, UnwrittenLbaReadsZeros) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  std::vector<std::uint8_t> out(4096, 0xEE);
  auto r = ssd.ReadBlocks(Lba{100}, 1, 0, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, std::vector<std::uint8_t>(4096, 0));
}

TEST(ConventionalSsdTest, OutOfRangeRejected) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  const std::uint64_t n = ssd.num_blocks();
  EXPECT_EQ(ssd.WriteBlocks(Lba{n}, 1, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(ssd.ReadBlocks(Lba{n - 1}, 2, 0).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(ssd.TrimBlocks(Lba{n}, 1, 0).code(), ErrorCode::kOutOfRange);
}

TEST(ConventionalSsdTest, MultiPageWriteAndRead) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  std::vector<std::uint8_t> data(4 * 4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  auto w = ssd.WriteBlocks(Lba{5}, 4, 0, data);
  ASSERT_TRUE(w.ok());
  std::vector<std::uint8_t> out(4 * 4096);
  ASSERT_TRUE(ssd.ReadBlocks(Lba{5}, 4, w.value(), out).ok());
  EXPECT_EQ(out, data);
}

TEST(ConventionalSsdTest, SequentialFillHasUnitWriteAmplification) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  SimTime t = 0;
  // One sequential pass over the logical space: no overwrites, no GC needed.
  for (std::uint64_t lba = 0; lba < ssd.num_blocks(); lba += 8) {
    const std::uint32_t n = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        8, ssd.num_blocks() - lba));
    auto w = ssd.WriteBlocks(Lba{lba}, n, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  EXPECT_DOUBLE_EQ(ssd.WriteAmplification(), 1.0);
  EXPECT_EQ(ssd.ftl_stats().gc_pages_copied, 0u);
}

TEST(ConventionalSsdTest, RandomOverwritesTriggerGcAndAmplify) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  ConventionalSsd ssd(fc, DefaultFtl());
  Rng rng(1);
  SimTime t = 0;
  const std::uint64_t n = ssd.num_blocks();
  // Write 3x the logical capacity randomly: device must GC.
  for (std::uint64_t i = 0; i < 3 * n; ++i) {
    auto w = ssd.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  EXPECT_GT(ssd.ftl_stats().gc_runs, 0u);
  EXPECT_GT(ssd.ftl_stats().gc_pages_copied, 0u);
  EXPECT_GT(ssd.WriteAmplification(), 1.2);
  EXPECT_TRUE(ssd.CheckConsistency().ok());
}

TEST(ConventionalSsdTest, MoreOverprovisioningMeansLessWriteAmplification) {
  double wa_low_op = 0.0;
  double wa_high_op = 0.0;
  for (const double op : {0.0, 0.28}) {
    FlashConfig fc = SmallFlash();
    fc.store_data = false;
    FtlConfig f;
    f.op_fraction = op;
    ConventionalSsd ssd(fc, f);
    Rng rng(2);
    SimTime t = 0;
    const std::uint64_t n = ssd.num_blocks();
    for (std::uint64_t i = 0; i < 4 * n; ++i) {
      auto w = ssd.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
      ASSERT_TRUE(w.ok());
      t = w.value();
    }
    (op == 0.0 ? wa_low_op : wa_high_op) = ssd.WriteAmplification();
  }
  EXPECT_GT(wa_low_op, wa_high_op * 1.5) << "0% OP should amplify much more than 28% OP";
}

TEST(ConventionalSsdTest, TrimReducesGcWork) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  FtlConfig f = DefaultFtl();

  auto run = [&](bool trim_between_rounds) {
    ConventionalSsd ssd(fc, f);
    Rng rng(3);
    SimTime t = 0;
    const std::uint64_t n = ssd.num_blocks();
    for (int round = 0; round < 4; ++round) {
      for (std::uint64_t i = 0; i < n; ++i) {
        auto w = ssd.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
        EXPECT_TRUE(w.ok());
        t = w.value();
      }
      if (trim_between_rounds) {
        EXPECT_TRUE(ssd.TrimBlocks(Lba{0}, static_cast<std::uint32_t>(n / 2), t).ok());
      }
    }
    return ssd.WriteAmplification();
  };

  EXPECT_LT(run(true), run(false));
}

TEST(ConventionalSsdTest, GcPreservesAllLiveData) {
  // Small device, heavy churn, real data: after many random overwrites every LBA must still
  // read back its most recent value.
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  Rng rng(4);
  SimTime t = 0;
  const std::uint64_t n = ssd.num_blocks();
  std::map<std::uint64_t, std::uint8_t> truth;
  for (std::uint64_t i = 0; i < 2 * n; ++i) {
    const std::uint64_t lba = rng.NextBelow(n);
    const std::uint8_t tag = static_cast<std::uint8_t>(rng.Next());
    auto w = ssd.WriteBlocks(Lba{lba}, 1, t, Pattern(4096, tag));
    ASSERT_TRUE(w.ok());
    t = w.value();
    truth[lba] = tag;
  }
  ASSERT_GT(ssd.ftl_stats().gc_runs, 0u) << "test needs GC to actually run";
  std::vector<std::uint8_t> out(4096);
  for (const auto& [lba, tag] : truth) {
    ASSERT_TRUE(ssd.ReadBlocks(Lba{lba}, 1, t, out).ok());
    ASSERT_EQ(out, Pattern(4096, tag)) << "lba " << lba;
  }
  EXPECT_TRUE(ssd.CheckConsistency().ok());
}

TEST(ConventionalSsdTest, ForegroundGcDelaysColocatedReads) {
  // Fill the device, then overwrite to force foreground GC; a read issued right after a
  // GC-triggering write should see inflated latency vs an idle-device read.
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  fc.timing = FlashTiming::Tlc();
  FtlConfig f;
  f.op_fraction = 0.07;
  ConventionalSsd ssd(fc, f);
  Rng rng(5);
  SimTime t = 0;
  const std::uint64_t n = ssd.num_blocks();

  auto idle_read = ssd.ReadBlocks(Lba{0}, 1, 0);
  ASSERT_TRUE(idle_read.ok());
  const SimTime idle_latency = idle_read.value();

  SimTime max_read_latency = 0;
  for (std::uint64_t i = 0; i < 3 * n; ++i) {
    auto w = ssd.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
    ASSERT_TRUE(w.ok());
    if (i % 16 == 0) {
      auto r = ssd.ReadBlocks(Lba{rng.NextBelow(n)}, 1, t);
      ASSERT_TRUE(r.ok());
      max_read_latency = std::max(max_read_latency, r.value() - t);
    }
    t = std::max(t, w.value());
  }
  ASSERT_GT(ssd.ftl_stats().foreground_gc_stalls, 0u);
  EXPECT_GT(max_read_latency, 4 * idle_latency)
      << "device GC should visibly inflate read tail latency";
}

TEST(ConventionalSsdTest, BackgroundGcReducesForegroundStalls) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;

  auto stalls = [&](bool background) {
    ConventionalSsd ssd(fc, DefaultFtl());
    Rng rng(6);
    SimTime t = 0;
    const std::uint64_t n = ssd.num_blocks();
    for (std::uint64_t i = 0; i < 3 * n; ++i) {
      auto w = ssd.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
      EXPECT_TRUE(w.ok());
      t = w.value();
      if (background && i % 8 == 0) {
        ssd.RunBackgroundGc(t, 2);
      }
    }
    return ssd.ftl_stats().foreground_gc_stalls;
  };

  EXPECT_LT(stalls(true), stalls(false));
}

TEST(ConventionalSsdTest, WearLevelingNarrowsEraseSpread) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;

  auto spread = [&](bool wl) {
    FtlConfig f = DefaultFtl();
    f.wear_leveling = wl;
    ConventionalSsd ssd(fc, f);
    // Skewed workload: hammer 10% of the logical space.
    const std::uint64_t n = ssd.num_blocks();
    Rng rng(7);
    SimTime t = 0;
    // Fill everything once (cold data), then hammer the hot set.
    for (std::uint64_t lba = 0; lba < n; ++lba) {
      auto w = ssd.WriteBlocks(Lba{lba}, 1, t);
      EXPECT_TRUE(w.ok());
      t = w.value();
    }
    for (std::uint64_t i = 0; i < 6 * n; ++i) {
      auto w = ssd.WriteBlocks(Lba{rng.NextBelow(n / 10)}, 1, t);
      EXPECT_TRUE(w.ok());
      t = w.value();
    }
    const WearSummary w = ssd.flash().ComputeWear();
    return w.stddev_erase_count / std::max(1.0, w.mean_erase_count);
  };

  EXPECT_LT(spread(true), spread(false));
}

TEST(ConventionalSsdTest, DramUsageMatchesPaperModel) {
  ConventionalSsd ssd(SmallFlash(), DefaultFtl());
  const DramUsage u = ssd.ComputeDramUsage();
  EXPECT_EQ(u.mapping_bytes, ssd.num_blocks() * 4);
  EXPECT_GT(u.gc_metadata_bytes, 0u);
  EXPECT_GT(u.total(), u.mapping_bytes);
}

TEST(ConventionalSsdTest, WriteBufferAcksBeforeProgramCompletes) {
  FlashConfig fc = SmallFlash();
  fc.timing = FlashTiming::Tlc();
  FtlConfig f = DefaultFtl();
  f.write_buffer_pages = 64;
  ConventionalSsd ssd(fc, f);
  auto w = ssd.WriteBlocks(Lba{0}, 1, 0);
  ASSERT_TRUE(w.ok());
  // Ack at data-in (channel transfer), long before the ~660us cell program.
  EXPECT_LT(w.value(), fc.timing.page_program);
}

TEST(ConventionalSsdTest, WriteBufferBackpressuresWhenFull) {
  FlashConfig fc = SmallFlash();
  fc.timing = FlashTiming::Tlc();
  FtlConfig f = DefaultFtl();
  f.write_buffer_pages = 2;
  ConventionalSsd ssd(fc, f);
  SimTime last_ack = 0;
  for (int i = 0; i < 16; ++i) {
    auto w = ssd.WriteBlocks(Lba{static_cast<std::uint64_t>(i)}, 1, 0);
    ASSERT_TRUE(w.ok());
    last_ack = std::max(last_ack, w.value());
  }
  // With a 2-page buffer, the 16th ack must wait for earlier programs.
  EXPECT_GT(last_ack, fc.timing.page_program);
}

TEST(ConventionalSsdTest, CostBenefitPolicyAlsoPreservesData) {
  FlashConfig fc = SmallFlash();
  FtlConfig f = DefaultFtl();
  f.victim_policy = GcVictimPolicy::kCostBenefit;
  ConventionalSsd ssd(fc, f);
  Rng rng(8);
  SimTime t = 0;
  const std::uint64_t n = ssd.num_blocks();
  std::map<std::uint64_t, std::uint8_t> truth;
  for (std::uint64_t i = 0; i < 2 * n; ++i) {
    const std::uint64_t lba = rng.NextBelow(n);
    const std::uint8_t tag = static_cast<std::uint8_t>(rng.Next());
    auto w = ssd.WriteBlocks(Lba{lba}, 1, t, Pattern(4096, tag));
    ASSERT_TRUE(w.ok());
    t = w.value();
    truth[lba] = tag;
  }
  EXPECT_GT(ssd.ftl_stats().gc_runs, 0u);
  std::vector<std::uint8_t> out(4096);
  for (const auto& [lba, tag] : truth) {
    ASSERT_TRUE(ssd.ReadBlocks(Lba{lba}, 1, t, out).ok());
    ASSERT_EQ(out, Pattern(4096, tag));
  }
  EXPECT_TRUE(ssd.CheckConsistency().ok());
}

// Property sweep: for several OP fractions, random churn never corrupts the L2P state and WA
// stays within sane bounds (>= 1, finite).
class OpSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(OpSweepTest, ChurnKeepsInvariants) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  FtlConfig f;
  f.op_fraction = GetParam();
  ConventionalSsd ssd(fc, f);
  Rng rng(10);
  SimTime t = 0;
  const std::uint64_t n = ssd.num_blocks();
  for (std::uint64_t i = 0; i < 3 * n; ++i) {
    const std::uint64_t lba = rng.NextBelow(n);
    if (rng.NextBool(0.05)) {
      ASSERT_TRUE(ssd.TrimBlocks(Lba{lba}, 1, t).ok());
      continue;
    }
    auto w = ssd.WriteBlocks(Lba{lba}, 1, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
  }
  EXPECT_GE(ssd.WriteAmplification(), 1.0);
  EXPECT_LT(ssd.WriteAmplification(), 100.0);
  EXPECT_TRUE(ssd.CheckConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(OpFractions, OpSweepTest,
                         ::testing::Values(0.0, 0.07, 0.125, 0.25, 0.28));

TEST(ConventionalSsdTest, CostBenefitAndWearMigrationKeepIndexConsistent) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  FtlConfig f = DefaultFtl();
  f.victim_policy = GcVictimPolicy::kCostBenefit;
  f.wear_migrate_interval = 4;  // Many wear-migration cycles, which bypass the index pick.
  ConventionalSsd ssd(fc, f);
  Rng rng(14);
  SimTime t = 0;
  const std::uint64_t n = ssd.num_blocks();
  for (std::uint64_t i = 0; i < 3 * n; ++i) {
    auto w = ssd.WriteBlocks(Lba{rng.NextBelow(n)}, 1, t);
    ASSERT_TRUE(w.ok());
    t = w.value();
    if (i % 512 == 0) {
      ASSERT_TRUE(ssd.CheckConsistency().ok()) << "after write " << i;
    }
  }
  EXPECT_GT(ssd.ftl_stats().wear_migrations, 0u);
  EXPECT_TRUE(ssd.CheckConsistency().ok());
}

// The mapping tables hold 32-bit page numbers, ~0 meaning unmapped, so a geometry with
// 2^32 - 1 pages or more must stop the process before anything is allocated. The address
// space cap turns an allocation made before the guard into a different death (bad_alloc),
// which the message match then rejects. Sanitizer runtimes need the address space, so they
// run without the cap.
TEST(ConventionalSsdDeathTest, GeometryBeyond32BitPageNumbersAborts) {
  FlashConfig fc = SmallFlash();
  fc.store_data = false;
  fc.geometry.channels = 1;
  fc.geometry.planes_per_channel = 1;
  fc.geometry.blocks_per_plane = 65535;  // 65535 * 65537 = 2^32 - 1 pages: the first refused.
  fc.geometry.pages_per_block = 65537;
  auto construct = [&fc] {
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    const rlimit cap{256u << 20, 256u << 20};
    setrlimit(RLIMIT_AS, &cap);
#endif
    ConventionalSsd ssd(fc, DefaultFtl());
  };
  EXPECT_DEATH(construct(), "32-bit mapping tables");
  fc.geometry.blocks_per_plane = 65536;  // 2^32 pages.
  fc.geometry.pages_per_block = 65536;
  EXPECT_DEATH(construct(), "32-bit mapping tables");
}

// Reference for VictimIndex::PickGreedy: the rotating scan ConventionalSsd::PickVictim ran
// over every block before the index existed. It keeps the first strict minimum of valid pages
// in scan order from `start`, wrapping; `valid[b] < 0` marks a non-member.
VictimIndex::Pick ScanPick(const std::vector<int>& valid, std::uint64_t start) {
  VictimIndex::Pick best;
  for (std::uint64_t i = 0; i < valid.size(); ++i) {
    const std::uint64_t b = (start + i) % valid.size();
    if (valid[b] < 0) {
      continue;
    }
    if (best.block == VictimIndex::kNone || static_cast<std::uint32_t>(valid[b]) < best.valid) {
      best = VictimIndex::Pick{b, static_cast<std::uint32_t>(valid[b])};
    }
  }
  return best;
}

TEST(VictimIndexTest, TiesBreakFromTheStartAndWrapAround) {
  VictimIndex index(10, 4);
  EXPECT_EQ(index.PickGreedy(0).block, VictimIndex::kNone);
  index.Insert(2, 1);
  index.Insert(7, 1);
  index.Insert(5, 3);
  EXPECT_EQ(index.PickGreedy(0).block, 2u);
  EXPECT_EQ(index.PickGreedy(2).block, 2u);
  EXPECT_EQ(index.PickGreedy(3).block, 7u);
  EXPECT_EQ(index.PickGreedy(8).block, 2u);  // Wraps past block 9.
  EXPECT_EQ(index.PickGreedy(8).valid, 1u);
  for (std::uint32_t v = 3; v > 0; --v) {
    index.Decrement(5, v);
  }
  EXPECT_TRUE(index.InBucket(5, 0));
  EXPECT_EQ(index.PickGreedy(8).block, 5u);  // A dead block beats every tie.
  index.Remove(5, 0);
  index.Remove(2, 1);
  index.Remove(7, 1);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.PickGreedy(4).block, VictimIndex::kNone);
}

TEST(VictimIndexTest, RandomStreamMatchesRotatingScan) {
  constexpr std::uint64_t kBlocks = 150;  // Not a multiple of 64: the last word is partial.
  constexpr std::uint32_t kMaxValid = 6;  // Few buckets, so ties are the common case.
  VictimIndex index(kBlocks, kMaxValid);
  std::vector<int> valid(kBlocks, -1);
  Rng rng(2024);
  std::uint64_t empty = 0, all_full = 0, wrapped = 0, tied = 0;
  for (int op = 0; op < 45000; ++op) {
    // Cycles of fill, churn and drain phases, so the empty and crowded states both recur.
    // Fills in even cycles insert fully valid blocks only: the all-full-valid state.
    const int phase = (op / 1500) % 3;
    const bool all_full_fill = (op / 4500) % 2 == 0;
    const std::uint64_t b = rng.NextBelow(kBlocks);
    if (valid[b] < 0) {
      if (phase == 0 || (phase == 1 && rng.NextBool(0.3))) {
        const int v = phase == 0 && all_full_fill
                          ? static_cast<int>(kMaxValid)
                          : static_cast<int>(rng.NextBelow(kMaxValid + 1));
        index.Insert(b, static_cast<std::uint32_t>(v));
        valid[b] = v;
      }
    } else if (phase == 2 || (phase == 1 && rng.NextBool(0.3))) {
      index.Remove(b, static_cast<std::uint32_t>(valid[b]));
      valid[b] = -1;
    } else if (phase == 1 && valid[b] > 0) {
      index.Decrement(b, static_cast<std::uint32_t>(valid[b]));
      valid[b]--;
    }

    std::uint64_t members = 0;
    for (int v : valid) {
      members += v >= 0 ? 1 : 0;
    }
    ASSERT_EQ(index.size(), members) << "op " << op;
    for (const std::uint64_t start : {std::uint64_t{0}, kBlocks - 1, rng.NextBelow(kBlocks)}) {
      const VictimIndex::Pick want = ScanPick(valid, start);
      const VictimIndex::Pick got = index.PickGreedy(start);
      ASSERT_EQ(got.block, want.block) << "op " << op << " start " << start;
      if (want.block == VictimIndex::kNone) {
        ++empty;
        continue;
      }
      ASSERT_EQ(got.valid, want.valid) << "op " << op << " start " << start;
      all_full += want.valid == kMaxValid ? 1 : 0;
      wrapped += want.block < start ? 1 : 0;
      tied += index.bucket_size(want.valid) > 1 ? 1 : 0;
    }
  }
  // The stream reaches every case the scan distinguishes.
  EXPECT_GT(empty, 0u);
  EXPECT_GT(all_full, 0u);
  EXPECT_GT(wrapped, 0u);
  EXPECT_GT(tied, 0u);
}

}  // namespace
}  // namespace blockhead
