// Heap-allocation budgets for the hot data paths: SSTable point lookups and the table builder,
// the conventional FTL's steady state (reads, and writes with GC running) with telemetry off
// and on, and the host FTL's steady state (writes with zone reclamation pumped alongside).
// The counter (tests/heap_counter.h, which replaces the global operator new) sees every
// allocation the code under test makes. The SSTables live in an in-memory Env whose reads and
// appends never allocate, so there it sees only what the SSTable code allocates.

#include "tests/heap_counter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/ftl/conventional_ssd.h"
#include "src/hostftl/host_ftl.h"
#include "src/kv/env.h"
#include "src/kv/sstable.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"

namespace blockhead {
namespace {

// In-memory Env. Files are reserved at creation, so appends up to that size and all reads are
// allocation-free.
class MemEnv final : public Env {
 public:
  static constexpr std::size_t kFileReserve = 4 * kMiB;

  Result<SimTime> CreateFile(std::string_view name, Lifetime /*hint*/, SimTime now) override {
    std::vector<std::uint8_t>& file = files_[std::string(name)];
    file.clear();
    file.reserve(kFileReserve);
    return now;
  }
  Result<SimTime> Append(std::string_view name, std::span<const std::uint8_t> data,
                         SimTime now) override {
    auto it = files_.find(name);
    if (it == files_.end()) {
      return Status(ErrorCode::kNotFound);
    }
    it->second.insert(it->second.end(), data.begin(), data.end());
    return now + 1;
  }
  Result<SimTime> Read(std::string_view name, std::uint64_t offset, std::span<std::uint8_t> out,
                       SimTime now) override {
    auto it = files_.find(name);
    if (it == files_.end()) {
      return Status(ErrorCode::kNotFound);
    }
    if (offset > it->second.size() || out.size() > it->second.size() - offset) {
      return Status(ErrorCode::kOutOfRange);
    }
    if (!out.empty()) {
      std::memcpy(out.data(), it->second.data() + offset, out.size());
    }
    return now + 1;
  }
  Result<SimTime> Sync(std::string_view /*name*/, SimTime now) override { return now; }
  Result<SimTime> DeleteFile(std::string_view name, SimTime now) override {
    auto it = files_.find(name);
    if (it == files_.end()) {
      return Status(ErrorCode::kNotFound);
    }
    files_.erase(it);
    return now;
  }
  Result<std::uint64_t> FileSize(std::string_view name) const override {
    auto it = files_.find(name);
    if (it == files_.end()) {
      return Status(ErrorCode::kNotFound);
    }
    return static_cast<std::uint64_t>(it->second.size());
  }
  bool Exists(std::string_view name) const override { return files_.contains(name); }
  std::vector<std::string> ListFiles() const override {
    std::vector<std::string> names;
    for (const auto& [name, file] : files_) {
      names.push_back(name);
    }
    return names;
  }

 private:
  std::map<std::string, std::vector<std::uint8_t>, std::less<>> files_;
};

std::string KeyOf(std::uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu", static_cast<unsigned long long>(n));
  return buf;  // 16 bytes: too long for the small-string buffer.
}

std::string ValueOf(std::uint64_t n) { return std::string(64, static_cast<char>('a' + n % 26)); }

class SSTableHeapBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SSTableBuilder builder(&env_, "t.sst", SSTableBuilderOptions{});
    ASSERT_TRUE(builder.Start(0).ok());
    for (std::uint64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(builder.Add(KeyOf(2 * i), KvEntryType::kValue, ValueOf(i), 0).ok());
    }
    ASSERT_TRUE(builder.Finish(0).ok());
    auto reader = SSTableReader::Open(&env_, "t.sst", 0);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    reader_ = std::move(reader).value();
  }

  MemEnv env_;
  std::unique_ptr<SSTableReader> reader_;
};

TEST_F(SSTableHeapBudgetTest, BloomSkippedGetDoesNotAllocate) {
  // Odd keys are absent; pick one inside the table's key range that the filter rejects.
  std::string absent;
  for (std::uint64_t i = 1; i < 4000 && absent.empty(); i += 2) {
    auto probe = reader_->Get(KeyOf(i), 0);
    ASSERT_TRUE(probe.ok());
    if (probe->bloom_skipped) {
      absent = KeyOf(i);
    }
  }
  ASSERT_FALSE(absent.empty());
  HeapCounter counter;
  auto got = reader_->Get(absent, 0);
  const std::uint64_t allocations = counter.allocations();
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->bloom_skipped);
  EXPECT_EQ(allocations, 0u);
}

TEST_F(SSTableHeapBudgetTest, GetHitAllocatesOnlyTheBlockAndTheValue) {
  const std::string key = KeyOf(2 * 777);
  HeapCounter counter;
  auto got = reader_->Get(key, 0);
  const std::uint64_t allocations = counter.allocations();
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->found);
  EXPECT_EQ(got->value, ValueOf(777));
  EXPECT_LE(allocations, 2u) << "one block buffer and one value copy";
}

TEST(SSTableBuilderHeapBudgetTest, AddIsAllocationFreeAmortised) {
  // After the first block, Add allocates only when one of its two geometric buffers (the bloom
  // hashes and the serialized index) doubles, so the count grows with log2 of the entries,
  // not with the entries. Copying keys per Add would cost thousands of allocations here.
  MemEnv env;
  SSTableBuilder builder(&env, "t.sst", SSTableBuilderOptions{});
  ASSERT_TRUE(builder.Start(0).ok());
  constexpr std::uint64_t kWarmup = 100;  // Two blocks.
  constexpr std::uint64_t kMeasured = 20000;
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < kWarmup + kMeasured; ++i) {
    keys.push_back(KeyOf(i));
  }
  const std::string value = ValueOf(0);
  for (std::uint64_t i = 0; i < kWarmup; ++i) {
    ASSERT_TRUE(builder.Add(keys[i], KvEntryType::kValue, value, 0).ok());
  }
  const std::uint64_t bytes_before = builder.file_bytes();
  HeapCounter counter;
  for (std::uint64_t i = kWarmup; i < kWarmup + kMeasured; ++i) {
    if (!builder.Add(keys[i], KvEntryType::kValue, value, 0).ok()) {
      FAIL() << "Add failed at entry " << i;
    }
  }
  const std::uint64_t allocations = counter.allocations();
  const std::uint64_t blocks = (builder.file_bytes() - bytes_before) / 4096;
  ASSERT_GT(blocks, 300u);
  const auto doublings = static_cast<std::uint64_t>(std::ceil(std::log2(kMeasured))) + 1;
  EXPECT_LE(allocations, 2 * doublings) << "over " << blocks << " blocks";
  ASSERT_TRUE(builder.Finish(0).ok());
}

// A conventional SSD (Small geometry, 7% OP, greedy GC) driven to steady state: a random
// overwrite of three times its logical space, so every measured write runs with GC active.
class ConventionalSsdHeapBudgetTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kMeasuredOps = 20000;

  void SetUp() override {
    FlashConfig flash;
    flash.geometry = FlashGeometry::Small();
    flash.timing = FlashTiming::FastForTests();
    FtlConfig ftl;
    ftl.op_fraction = 0.07;
    ssd_ = std::make_unique<ConventionalSsd>(flash, ftl);
    page_.assign(flash.geometry.page_size, 0x5a);
    for (std::uint64_t i = 0; i < 3 * ssd_->num_blocks(); ++i) {
      ASSERT_TRUE(Write());
    }
    ASSERT_GT(ssd_->ftl_stats().gc_runs, 0u);
  }

  bool Write() {
    auto done = ssd_->WriteBlocks(Lba{rng_.NextBelow(ssd_->num_blocks())}, 1, now_, page_);
    if (!done.ok()) {
      return false;
    }
    now_ = done.value();
    return true;
  }

  bool Read() {
    auto done = ssd_->ReadBlocks(Lba{rng_.NextBelow(ssd_->num_blocks())}, 1, now_, page_);
    if (!done.ok()) {
      return false;
    }
    now_ = done.value();
    return true;
  }

  std::unique_ptr<ConventionalSsd> ssd_;
  std::vector<std::uint8_t> page_;
  Rng rng_{7};
  SimTime now_ = 0;
};

TEST_F(ConventionalSsdHeapBudgetTest, SteadyStateWritesWithGcDoNotAllocate) {
  const std::uint64_t gc_runs_before = ssd_->ftl_stats().gc_runs;
  HeapCounter counter;
  for (std::uint64_t i = 0; i < kMeasuredOps; ++i) {
    if (!Write()) {
      FAIL() << "write failed at op " << i;
    }
  }
  const std::uint64_t allocations = counter.allocations();
  EXPECT_GT(ssd_->ftl_stats().gc_runs, gc_runs_before) << "GC must run inside the measured writes";
  EXPECT_EQ(allocations, 0u);
}

TEST_F(ConventionalSsdHeapBudgetTest, SteadyStateReadsDoNotAllocate) {
  HeapCounter counter;
  for (std::uint64_t i = 0; i < kMeasuredOps; ++i) {
    if (!Read()) {
      FAIL() << "read failed at op " << i;
    }
  }
  EXPECT_EQ(counter.allocations(), 0u);
}

// With telemetry attached every read opens and ends a span and charges it from the flash
// device. After a warm-up pass (first-use registrations, container capacity), the span path
// must not allocate.
TEST_F(ConventionalSsdHeapBudgetTest, SteadyStateReadsWithTelemetryDoNotAllocate) {
  Telemetry telemetry;
  ssd_->AttachTelemetry(&telemetry, "conv");
  for (std::uint64_t i = 0; i < kMeasuredOps; ++i) {
    ASSERT_TRUE(Read());
  }
  const std::uint64_t spans_before =
      telemetry.registry.GetHistogram("span.conv.ftl.read.total_ns")->count();
  HeapCounter counter;
  for (std::uint64_t i = 0; i < kMeasuredOps; ++i) {
    if (!Read()) {
      FAIL() << "read failed at op " << i;
    }
  }
  const std::uint64_t allocations = counter.allocations();
  EXPECT_EQ(telemetry.registry.GetHistogram("span.conv.ftl.read.total_ns")->count(),
            spans_before + kMeasuredOps);
  EXPECT_EQ(allocations, 0u);
  ssd_->AttachTelemetry(nullptr);
}

// The block interface emulated on a ZNS device (Small geometry, default host FTL) at steady
// state: random overwrites with Pump every 16 writes, as the I/O drivers call it, so every
// measured write runs with zone reclamation in progress. The warm-up programs every block once
// (flash page storage is allocated on a block's first program) and then overwrites three times
// the logical space.
TEST(HostFtlHeapBudgetTest, SteadyStateWritesWithGcDoNotAllocate) {
  constexpr std::uint64_t kMeasuredOps = 20000;
  constexpr std::uint64_t kPumpInterval = 16;
  FlashConfig flash;
  flash.geometry = FlashGeometry::Small();
  flash.timing = FlashTiming::FastForTests();
  ZnsDevice device(flash, ZnsConfig{});
  SimTime now = 0;
  for (std::uint32_t z = 0; z < device.num_zones(); ++z) {
    const auto pages = static_cast<std::uint32_t>(device.zone_size_pages());
    ASSERT_TRUE(device.Write(ZoneId{z}, 0, pages, now).ok());
    auto reset = device.ResetZone(ZoneId{z}, now);
    ASSERT_TRUE(reset.ok());
    now = reset.value();
  }
  HostFtlBlockDevice ftl(&device, HostFtlConfig{});
  const std::vector<std::uint8_t> page(flash.geometry.page_size, 0x5a);
  Rng rng(7);
  std::uint64_t op = 0;
  auto write = [&] {
    auto done = ftl.WriteBlocks(Lba{rng.NextBelow(ftl.num_blocks())}, 1, now, page);
    if (!done.ok()) {
      return false;
    }
    now = done.value();
    if (++op % kPumpInterval == 0) {
      ftl.Pump(now, /*reads_pending=*/false, 1);
    }
    return true;
  };
  for (std::uint64_t i = 0; i < 3 * ftl.num_blocks(); ++i) {
    ASSERT_TRUE(write());
  }
  const std::uint64_t cycles_before = ftl.stats().gc_cycles;
  HeapCounter counter;
  for (std::uint64_t i = 0; i < kMeasuredOps; ++i) {
    if (!write()) {
      FAIL() << "write failed at op " << i;
    }
  }
  const std::uint64_t allocations = counter.allocations();
  EXPECT_GT(ftl.stats().gc_cycles, cycles_before) << "GC must run inside the measured writes";
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace blockhead
