// Tests for the mini-LSM KV store and its storage environments: SSTable format, bloom
// filters, BlockEnv allocation, put/get/delete, compaction correctness, recovery on both
// backends, and the lifetime-hint plumbing.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/ftl/conventional_ssd.h"
#include "src/kv/block_env.h"
#include "src/kv/kv_store.h"
#include "src/kv/sstable.h"
#include "src/util/rng.h"

namespace blockhead {
namespace {

FlashConfig SmallFlash() {
  FlashConfig c;
  c.geometry = FlashGeometry::Small();
  c.timing = FlashTiming::FastForTests();
  return c;
}

ZnsConfig DeviceConfig() {
  ZnsConfig z;
  z.max_active_zones = 10;
  z.max_open_zones = 10;
  return z;
}

std::string KeyOf(std::uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%08llu", static_cast<unsigned long long>(n));
  return buf;
}

std::string ValueOf(std::uint64_t n, std::size_t len = 64) {
  std::string v = "value-" + std::to_string(n) + "-";
  while (v.size() < len) {
    v += static_cast<char>('a' + (n + v.size()) % 26);
  }
  v.resize(len);
  return v;
}

// FNV-1a 64-bit over a byte string: a fingerprint of a file's exact contents.
std::uint64_t Fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h = (h ^ b) * 1099511628211ULL;
  }
  return h;
}

std::vector<std::uint8_t> ReadWholeFile(Env& env, std::string_view name) {
  const Result<std::uint64_t> size = env.FileSize(name);
  EXPECT_TRUE(size.ok());
  std::vector<std::uint8_t> bytes(size.ok() ? size.value() : 0);
  EXPECT_TRUE(env.Read(name, 0, bytes, 0).ok());
  return bytes;
}

// Replaces the file's contents with `bytes`, through the Env.
void RewriteFile(Env& env, std::string_view name, const std::vector<std::uint8_t>& bytes) {
  ASSERT_TRUE(env.DeleteFile(name, 0).ok());
  ASSERT_TRUE(env.CreateFile(name, Lifetime::kNone, 0).ok());
  ASSERT_TRUE(env.Append(name, bytes, 0).ok());
  ASSERT_TRUE(env.Sync(name, 0).ok());
}

std::uint64_t LoadLe(const std::vector<std::uint8_t>& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
  }
  return v;
}

void StoreLe(std::vector<std::uint8_t>& bytes, std::size_t at, int width, std::uint64_t v) {
  for (int i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Writes `count` entries KeyOf(0..count-1) -> ValueOf(i) into table `name`.
void BuildTable(Env& env, std::string_view name, std::uint64_t count) {
  SSTableBuilder builder(&env, std::string(name), SSTableBuilderOptions{});
  ASSERT_TRUE(builder.Start(0).ok());
  for (std::uint64_t i = 0; i < count; ++i) {
    ASSERT_TRUE(builder.Add(KeyOf(i), KvEntryType::kValue, ValueOf(i), 0).ok());
  }
  ASSERT_TRUE(builder.Finish(0).ok());
}

// Footer layout: index_off u64 | index_len u64 | bloom_off u64 | bloom_len u64 | ...
constexpr std::size_t kFooterBytes = 48;

// --- BloomFilter ---

TEST(BloomFilterTest, NoFalseNegatives) {
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(KeyOf(static_cast<std::uint64_t>(i)));
  }
  const BloomFilter f = BloomFilter::Build(keys, 10);
  for (const auto& key : keys) {
    EXPECT_TRUE(f.MayContain(key));
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(KeyOf(static_cast<std::uint64_t>(i)));
  }
  const BloomFilter f = BloomFilter::Build(keys, 10);
  int false_positives = 0;
  for (int i = 1000; i < 11000; ++i) {
    if (f.MayContain(KeyOf(static_cast<std::uint64_t>(i)))) {
      ++false_positives;
    }
  }
  EXPECT_LT(false_positives, 300) << "10 bits/key should give ~1% FPR";
}

TEST(BloomFilterTest, SerializeRoundTrip) {
  std::vector<std::string> keys = {"a", "b", "c"};
  const BloomFilter f = BloomFilter::Build(keys, 10);
  const auto bytes = f.Serialize();
  auto g = BloomFilter::Deserialize(bytes);
  ASSERT_TRUE(g.ok());
  for (const auto& key : keys) {
    EXPECT_TRUE(g->MayContain(key));
  }
  EXPECT_FALSE(BloomFilter::Deserialize(std::span<const std::uint8_t>(bytes.data(), 3)).ok());
}

TEST(BloomFilterTest, EmptyFilterNeverExcludes) {
  BloomFilter f;
  EXPECT_TRUE(f.MayContain("anything"));
}

TEST(BloomFilterTest, HashListAndKeyListBuildTheSameFilter) {
  std::vector<std::string> keys;
  std::vector<BloomHash> hashes;
  for (int i = 0; i < 777; ++i) {
    keys.push_back(KeyOf(static_cast<std::uint64_t>(i) * 11));
    hashes.push_back(BloomHash::Of(keys.back()));
  }
  for (const std::uint32_t bits_per_key : {1u, 4u, 10u, 23u}) {
    EXPECT_EQ(BloomFilter::Build(hashes, bits_per_key).Serialize(),
              BloomFilter::Build(keys, bits_per_key).Serialize())
        << bits_per_key;
  }
}

// --- BlockEnv ---

class BlockEnvTest : public ::testing::Test {
 protected:
  BlockEnvTest() : ssd_(SmallFlash(), FtlConfig{}), env_(&ssd_) {}
  ConventionalSsd ssd_;
  BlockEnv env_;
};

TEST_F(BlockEnvTest, CreateAppendReadDelete) {
  ASSERT_TRUE(env_.CreateFile("f", Lifetime::kNone, 0).ok());
  EXPECT_TRUE(env_.Exists("f"));
  EXPECT_EQ(env_.CreateFile("f", Lifetime::kNone, 0).code(), ErrorCode::kAlreadyExists);
  std::vector<std::uint8_t> data(10000);
  Rng rng(1);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  ASSERT_TRUE(env_.Append("f", data, 0).ok());
  EXPECT_EQ(env_.FileSize("f").value(), data.size());
  std::vector<std::uint8_t> out(data.size());
  ASSERT_TRUE(env_.Read("f", 0, out, 0).ok());
  EXPECT_EQ(out, data);
  const std::uint64_t free_before = env_.FreePages();
  ASSERT_TRUE(env_.DeleteFile("f", 0).ok());
  EXPECT_FALSE(env_.Exists("f"));
  EXPECT_GT(env_.FreePages(), free_before);
}

TEST_F(BlockEnvTest, SyncPadsTailAndAppendsContinue) {
  ASSERT_TRUE(env_.CreateFile("f", Lifetime::kNone, 0).ok());
  std::vector<std::uint8_t> a(100, 1);
  std::vector<std::uint8_t> b(5000, 2);
  ASSERT_TRUE(env_.Append("f", a, 0).ok());
  ASSERT_TRUE(env_.Sync("f", 0).ok());
  ASSERT_TRUE(env_.Append("f", b, 0).ok());
  std::vector<std::uint8_t> out(5100);
  ASSERT_TRUE(env_.Read("f", 0, out, 0).ok());
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.begin() + 100), a);
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin() + 100, out.end()), b);
}

TEST_F(BlockEnvTest, FragmentationAfterChurn) {
  // Interleave create/delete so free space fragments; files must still read back correctly.
  Rng rng(2);
  std::map<std::string, std::uint8_t> truth;
  SimTime t = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(env_.CreateFile(name, Lifetime::kNone, t).ok());
    const std::uint8_t tag = static_cast<std::uint8_t>(i);
    std::vector<std::uint8_t> data((rng.NextBelow(8) + 1) * 4096, tag);
    auto a = env_.Append(name, data, t);
    ASSERT_TRUE(a.ok());
    t = a.value();
    truth[name] = tag;
    if (truth.size() > 20) {
      auto victim = truth.begin();
      std::advance(victim, static_cast<long>(rng.NextBelow(truth.size())));
      ASSERT_TRUE(env_.DeleteFile(victim->first, t).ok());
      truth.erase(victim);
    }
  }
  for (const auto& [name, tag] : truth) {
    const auto size = env_.FileSize(name);
    ASSERT_TRUE(size.ok());
    std::vector<std::uint8_t> out(size.value());
    ASSERT_TRUE(env_.Read(name, 0, out, t).ok());
    for (const auto byte : out) {
      ASSERT_EQ(byte, tag);
    }
  }
}

// --- SSTable ---

TEST(SSTableTest, BuildAndReadBack) {
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockEnv env(&ssd);
  SSTableBuilder builder(&env, "t.sst", SSTableBuilderOptions{});
  ASSERT_TRUE(builder.Start(0).ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(builder
                    .Add(KeyOf(static_cast<std::uint64_t>(i)), KvEntryType::kValue,
                         ValueOf(static_cast<std::uint64_t>(i)), 0)
                    .ok());
  }
  auto finished = builder.Finish(0);
  ASSERT_TRUE(finished.ok());
  EXPECT_EQ(builder.smallest(), KeyOf(0));
  EXPECT_EQ(builder.largest(), KeyOf(499));

  auto reader = SSTableReader::Open(&env, "t.sst", finished.value());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->entry_count(), 500u);
  for (int i = 0; i < 500; i += 7) {
    auto got = reader.value()->Get(KeyOf(static_cast<std::uint64_t>(i)), 0);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got->found);
    EXPECT_EQ(got->value, ValueOf(static_cast<std::uint64_t>(i)));
  }
  auto missing = reader.value()->Get("zzz-not-there", 0);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->found);
}

TEST(SSTableTest, TombstonesRoundTrip) {
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockEnv env(&ssd);
  SSTableBuilder builder(&env, "t.sst", SSTableBuilderOptions{});
  ASSERT_TRUE(builder.Start(0).ok());
  ASSERT_TRUE(builder.Add("k1", KvEntryType::kTombstone, "", 0).ok());
  ASSERT_TRUE(builder.Add("k2", KvEntryType::kValue, "v2", 0).ok());
  ASSERT_TRUE(builder.Finish(0).ok());
  auto reader = SSTableReader::Open(&env, "t.sst", 0);
  ASSERT_TRUE(reader.ok());
  auto g1 = reader.value()->Get("k1", 0);
  ASSERT_TRUE(g1.ok());
  EXPECT_TRUE(g1->found);
  EXPECT_EQ(g1->type, KvEntryType::kTombstone);
  auto all = reader.value()->ReadAll(0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->entries.size(), 2u);
}

TEST(SSTableTest, ReadAllPreservesOrder) {
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockEnv env(&ssd);
  SSTableBuilder builder(&env, "t.sst", SSTableBuilderOptions{});
  ASSERT_TRUE(builder.Start(0).ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        builder.Add(KeyOf(static_cast<std::uint64_t>(i)), KvEntryType::kValue, "v", 0).ok());
  }
  ASSERT_TRUE(builder.Finish(0).ok());
  auto reader = SSTableReader::Open(&env, "t.sst", 0);
  ASSERT_TRUE(reader.ok());
  auto all = reader.value()->ReadAll(0);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->entries.size(), 300u);
  for (std::size_t i = 1; i < all->entries.size(); ++i) {
    EXPECT_LT(all->entries[i - 1].key, all->entries[i].key);
  }
}


TEST(SSTableTest, CorruptFooterRejected) {
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockEnv env(&ssd);
  // A "table" that is random bytes: Open must fail cleanly, not crash.
  ASSERT_TRUE(env.CreateFile("junk.sst", Lifetime::kNone, 0).ok());
  std::vector<std::uint8_t> junk(4096);
  Rng rng(9);
  for (auto& b : junk) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  ASSERT_TRUE(env.Append("junk.sst", junk, 0).ok());
  ASSERT_TRUE(env.Sync("junk.sst", 0).ok());
  auto reader = SSTableReader::Open(&env, "junk.sst", 0);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.code(), ErrorCode::kCorruption);
  // A file smaller than the footer is also rejected.
  ASSERT_TRUE(env.CreateFile("tiny.sst", Lifetime::kNone, 0).ok());
  ASSERT_TRUE(env.Append("tiny.sst", std::vector<std::uint8_t>(10, 1), 0).ok());
  auto tiny = SSTableReader::Open(&env, "tiny.sst", 0);
  EXPECT_FALSE(tiny.ok());
  // A missing file reports not-found.
  EXPECT_EQ(SSTableReader::Open(&env, "absent.sst", 0).code(), ErrorCode::kNotFound);
}

TEST(SSTableTest, ScanFromReadsOnlyNeededBlocks) {
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockEnv env(&ssd);
  SSTableBuilder builder(&env, "t.sst", SSTableBuilderOptions{});
  ASSERT_TRUE(builder.Start(0).ok());
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(builder
                    .Add(KeyOf(static_cast<std::uint64_t>(i)), KvEntryType::kValue,
                         ValueOf(static_cast<std::uint64_t>(i)), 0)
                    .ok());
  }
  ASSERT_TRUE(builder.Finish(0).ok());
  auto reader = SSTableReader::Open(&env, "t.sst", 0);
  ASSERT_TRUE(reader.ok());
  const std::uint64_t reads_before = ssd.ftl_stats().host_pages_read;
  auto scanned = reader.value()->ScanFrom(KeyOf(500), 10, 0);
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(scanned->size(), 10u);
  EXPECT_EQ((*scanned)[0].key, KeyOf(500));
  EXPECT_EQ((*scanned)[9].key, KeyOf(509));
  const std::uint64_t reads_used = ssd.ftl_stats().host_pages_read - reads_before;
  EXPECT_LT(reads_used, 6u) << "a 10-entry scan must not read the whole table";
  // Scan from beyond the last key: empty.
  auto empty = reader.value()->ScanFrom("zzzz", 10, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(SSTableTest, OnFlashFormatIsPinned) {
  // A fixed entry list (several blocks, tombstones, varied value sizes) must produce exactly
  // these bytes; any change to how data blocks, index, bloom filter or footer are encoded
  // changes them, and is a format change.
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockEnv env(&ssd);
  SSTableBuilder builder(&env, "pin.sst", SSTableBuilderOptions{});
  ASSERT_TRUE(builder.Start(0).ok());
  for (std::uint64_t i = 0; i < 700; ++i) {
    const bool tombstone = i % 7 == 3;
    ASSERT_TRUE(builder
                    .Add(KeyOf(3 * i), tombstone ? KvEntryType::kTombstone : KvEntryType::kValue,
                         tombstone ? std::string() : ValueOf(i, 20 + i % 90), 0)
                    .ok());
  }
  ASSERT_TRUE(builder.Finish(0).ok());
  const std::vector<std::uint8_t> bytes = ReadWholeFile(env, "pin.sst");
  EXPECT_EQ(bytes.size(), 51956u);
  EXPECT_EQ(Fnv1a(bytes), 0x9762c3a9f392bb07ULL);
}

TEST(SSTableTest, TruncatedBlockTailIsCorruption) {
  // Cut block 0 so it ends three bytes into its last entry's header. The framing check must
  // report corruption for every read of that block, also for keys before the cut, while the
  // other blocks stay readable.
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockEnv env(&ssd);
  BuildTable(env, "t.sst", 200);
  std::vector<std::uint8_t> bytes = ReadWholeFile(env, "t.sst");
  const std::size_t index_off = LoadLe(bytes, bytes.size() - kFooterBytes, 8);
  const std::size_t block0_size = LoadLe(bytes, index_off + 8, 4);
  const std::size_t entry_bytes = 2 + KeyOf(0).size() + 1 + 4 + ValueOf(0).size();
  ASSERT_EQ(block0_size % entry_bytes, 0u);
  const std::size_t block0_entries = block0_size / entry_bytes;
  ASSERT_GT(block0_entries, 2u);
  ASSERT_LT(block0_entries, 100u);
  StoreLe(bytes, index_off + 8, 4, block0_size - entry_bytes + 3);
  RewriteFile(env, "t.sst", bytes);

  auto reader = SSTableReader::Open(&env, "t.sst", 0);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->Get(KeyOf(1), 0).code(), ErrorCode::kCorruption)
      << "a key before the corrupt tail";
  EXPECT_EQ(reader.value()->Get(KeyOf(block0_entries - 1), 0).code(), ErrorCode::kCorruption);
  EXPECT_EQ(reader.value()->ScanFrom(KeyOf(0), 3, 0).code(), ErrorCode::kCorruption);
  EXPECT_EQ(reader.value()->ReadAll(0).code(), ErrorCode::kCorruption);
  auto intact = reader.value()->Get(KeyOf(150), 0);
  ASSERT_TRUE(intact.ok());
  EXPECT_TRUE(intact->found);
  EXPECT_EQ(intact->value, ValueOf(150));
}

TEST(SSTableTest, CorruptIndexIsRejectedAtOpen) {
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  BlockEnv env(&ssd);
  BuildTable(env, "t.sst", 200);
  const std::vector<std::uint8_t> good = ReadWholeFile(env, "t.sst");
  const std::size_t footer = good.size() - kFooterBytes;
  const std::size_t index_off = LoadLe(good, footer, 8);
  const std::size_t index_len = LoadLe(good, footer + 8, 8);
  const std::size_t index_entry_bytes = 8 + 4 + 2 + KeyOf(0).size();
  ASSERT_EQ(index_len % index_entry_bytes, 0u);

  // An index that ends five bytes into its last entry's header: Open must refuse the table
  // rather than silently drop the last block.
  std::vector<std::uint8_t> bytes = good;
  StoreLe(bytes, footer + 8, 8, index_len - index_entry_bytes + 5);
  RewriteFile(env, "t.sst", bytes);
  EXPECT_EQ(SSTableReader::Open(&env, "t.sst", 0).code(), ErrorCode::kCorruption);

  // A block that would run past the data blocks into the index.
  bytes = good;
  StoreLe(bytes, index_off + 8, 4, index_off + 1);
  RewriteFile(env, "t.sst", bytes);
  EXPECT_EQ(SSTableReader::Open(&env, "t.sst", 0).code(), ErrorCode::kCorruption);

  RewriteFile(env, "t.sst", good);
  EXPECT_TRUE(SSTableReader::Open(&env, "t.sst", 0).ok());
}

// --- KvStore on both environments ---

enum class Backend { kBlock, kZns };

class KvStoreTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kBlock) {
      ssd_ = std::make_unique<ConventionalSsd>(SmallFlash(), FtlConfig{});
      env_ = std::make_unique<BlockEnv>(ssd_.get());
    } else {
      zns_ = std::make_unique<ZnsDevice>(SmallFlash(), DeviceConfig());
      auto fs = ZoneFileSystem::Format(zns_.get(), ZoneFileConfig{}, 0);
      ASSERT_TRUE(fs.ok());
      fs_ = std::move(fs).value();
      env_ = std::make_unique<ZoneEnv>(fs_.get());
    }
    KvConfig config;
    config.memtable_bytes = 16 * kKiB;
    config.level_base_bytes = 64 * kKiB;
    config.target_table_bytes = 32 * kKiB;
    config.level_multiplier = 4.0;
    auto store = KvStore::Open(env_.get(), config, 0);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(store).value();
  }

  void Reopen() {
    store_.reset();
    KvConfig config;
    config.memtable_bytes = 16 * kKiB;
    config.level_base_bytes = 64 * kKiB;
    config.target_table_bytes = 32 * kKiB;
    config.level_multiplier = 4.0;
    auto store = KvStore::Open(env_.get(), config, 0);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(store).value();
  }

  std::unique_ptr<ConventionalSsd> ssd_;
  std::unique_ptr<ZnsDevice> zns_;
  std::unique_ptr<ZoneFileSystem> fs_;
  std::unique_ptr<Env> env_;
  std::unique_ptr<KvStore> store_;
};

TEST_P(KvStoreTest, PutGet) {
  ASSERT_TRUE(store_->Put("k", "v", 0).ok());
  auto got = store_->Get("k", 0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->found);
  EXPECT_EQ(got->value, "v");
  auto missing = store_->Get("nope", 0);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->found);
}

TEST_P(KvStoreTest, OverwriteReturnsLatest) {
  SimTime t = 0;
  for (int i = 0; i < 5; ++i) {
    auto p = store_->Put("k", "v" + std::to_string(i), t);
    ASSERT_TRUE(p.ok());
    t = p.value();
  }
  auto got = store_->Get("k", t);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v4");
}

TEST_P(KvStoreTest, DeleteHidesKey) {
  ASSERT_TRUE(store_->Put("k", "v", 0).ok());
  ASSERT_TRUE(store_->Delete("k", 0).ok());
  auto got = store_->Get("k", 0);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->found);
  // Even after a flush pushes the tombstone into a table.
  ASSERT_TRUE(store_->Flush(0).ok());
  got = store_->Get("k", 0);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->found);
}

TEST_P(KvStoreTest, ManyKeysSurviveFlushesAndCompactions) {
  SimTime t = 0;
  std::map<std::string, std::string> truth;
  Rng rng(3);
  for (std::uint64_t i = 0; i < 4000; ++i) {
    const std::uint64_t k = rng.NextBelow(800);
    const std::string key = KeyOf(k);
    const std::string value = ValueOf(i);
    auto p = store_->Put(key, value, t);
    ASSERT_TRUE(p.ok()) << p.status().ToString() << " at op " << i;
    t = p.value();
    truth[key] = value;
  }
  EXPECT_GT(store_->stats().flushes, 2u);
  EXPECT_GT(store_->stats().compactions, 0u);
  for (const auto& [key, value] : truth) {
    auto got = store_->Get(key, t);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->found) << key;
    ASSERT_EQ(got->value, value) << key;
  }
  EXPECT_GT(store_->LsmWriteAmplification(), 1.0);
}

TEST_P(KvStoreTest, DeletesSurviveCompaction) {
  SimTime t = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    auto p = store_->Put(KeyOf(i), ValueOf(i), t);
    ASSERT_TRUE(p.ok());
    t = p.value();
  }
  for (std::uint64_t i = 0; i < 500; i += 2) {
    auto d = store_->Delete(KeyOf(i), t);
    ASSERT_TRUE(d.ok());
    t = d.value();
  }
  ASSERT_TRUE(store_->Flush(t).ok());
  for (std::uint64_t i = 0; i < 500; ++i) {
    auto got = store_->Get(KeyOf(i), t);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->found, i % 2 == 1) << i;
  }
}

TEST_P(KvStoreTest, RecoverySeesFlushedData) {
  SimTime t = 0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    auto p = store_->Put(KeyOf(i), ValueOf(i), t);
    ASSERT_TRUE(p.ok());
    t = p.value();
  }
  ASSERT_TRUE(store_->Flush(t).ok());
  Reopen();
  for (std::uint64_t i = 0; i < 300; i += 13) {
    auto got = store_->Get(KeyOf(i), t);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->found) << i;
    ASSERT_EQ(got->value, ValueOf(i));
  }
}

TEST_P(KvStoreTest, RecoveryReplaysWal) {
  // Writes that never hit a flush must come back from the WAL (same-env reopen; the WAL tail
  // is still buffered, matching a process restart without a device crash).
  ASSERT_TRUE(store_->Put("wal-key", "wal-value", 0).ok());
  Reopen();
  auto got = store_->Get("wal-key", 0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->found);
  EXPECT_EQ(got->value, "wal-value");
}

TEST_P(KvStoreTest, GetLatencyIncludesDeviceTime) {
  SimTime t = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    auto p = store_->Put(KeyOf(i), ValueOf(i, 128), t);
    ASSERT_TRUE(p.ok());
    t = p.value();
  }
  ASSERT_TRUE(store_->Flush(t).ok());
  const SimTime probe_time = t + kSecond;
  auto got = store_->Get(KeyOf(1), probe_time);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->found);
  EXPECT_GT(got->completion, probe_time) << "a table read must consume device time";
}


TEST_P(KvStoreTest, ScanReturnsSortedRange) {
  SimTime t = 0;
  for (std::uint64_t i = 0; i < 900; ++i) {
    auto p = store_->Put(KeyOf(i), ValueOf(i), t);
    ASSERT_TRUE(p.ok());
    t = p.value();
  }
  ASSERT_TRUE(store_->Flush(t).ok());  // Force table reads, not just memtable.
  auto s = store_->Scan(KeyOf(100), 20, t);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_EQ(s->entries.size(), 20u);
  for (std::size_t i = 0; i < s->entries.size(); ++i) {
    EXPECT_EQ(s->entries[i].first, KeyOf(100 + i));
    EXPECT_EQ(s->entries[i].second, ValueOf(100 + i));
  }
  EXPECT_GT(s->completion, t) << "table scans must consume device time";
}

TEST_P(KvStoreTest, ScanSeesNewestVersionsAndSkipsTombstones) {
  SimTime t = 0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    auto p = store_->Put(KeyOf(i), ValueOf(i), t);
    ASSERT_TRUE(p.ok());
    t = p.value();
  }
  ASSERT_TRUE(store_->Flush(t).ok());
  // Overwrite some (newer versions in the memtable) and delete others.
  ASSERT_TRUE(store_->Put(KeyOf(10), "fresh", t).ok());
  ASSERT_TRUE(store_->Delete(KeyOf(11), t).ok());
  auto s = store_->Scan(KeyOf(9), 4, t);
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->entries.size(), 4u);
  EXPECT_EQ(s->entries[0].first, KeyOf(9));
  EXPECT_EQ(s->entries[1].first, KeyOf(10));
  EXPECT_EQ(s->entries[1].second, "fresh");
  EXPECT_EQ(s->entries[2].first, KeyOf(12)) << "deleted key 11 must not appear";
  EXPECT_EQ(s->entries[3].first, KeyOf(13));
}

TEST_P(KvStoreTest, ScanPastEndAndEmptyRange) {
  ASSERT_TRUE(store_->Put("m", "v", 0).ok());
  auto s = store_->Scan("z", 10, 0);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->entries.empty());
  auto s0 = store_->Scan("a", 0, 0);
  ASSERT_TRUE(s0.ok());
  EXPECT_TRUE(s0->entries.empty());
}


TEST_P(KvStoreTest, ManifestRollingReclaimsSpaceAndRecovers) {
  // Tiny roll threshold: the manifest is rewritten as a snapshot many times during churn, and
  // recovery still sees the correct table set.
  store_.reset();
  KvConfig config;
  config.memtable_bytes = 8 * kKiB;
  config.level_base_bytes = 64 * kKiB;
  config.target_table_bytes = 32 * kKiB;
  config.level_multiplier = 4.0;
  config.manifest_roll_bytes = 4 * kKiB;
  auto store = KvStore::Open(env_.get(), config, 0);
  ASSERT_TRUE(store.ok());
  SimTime t = 0;
  Rng rng(13);
  for (std::uint64_t i = 0; i < 2500; ++i) {
    auto p = store.value()->Put(KeyOf(rng.NextBelow(400)), ValueOf(i), t);
    ASSERT_TRUE(p.ok());
    t = p.value();
  }
  ASSERT_TRUE(store.value()->Flush(t).ok());
  // The manifest must have stayed small (rolled), not grown monotonically.
  const auto manifest_size = env_->FileSize("MANIFEST");
  ASSERT_TRUE(manifest_size.ok());
  EXPECT_LT(manifest_size.value(), 64 * kKiB);
  // Recovery from a rolled manifest.
  std::string probe_key;
  std::string probe_value;
  for (std::uint64_t k = 0; k < 400; ++k) {
    auto g = store.value()->Get(KeyOf(k), t);
    ASSERT_TRUE(g.ok());
    if (g->found) {
      probe_key = KeyOf(k);
      probe_value = g->value;
      break;
    }
  }
  ASSERT_FALSE(probe_key.empty());
  store.value().reset();
  auto reopened = KvStore::Open(env_.get(), config, 0);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto g = reopened.value()->Get(probe_key, t);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->found);
  EXPECT_EQ(g->value, probe_value);
}

TEST_P(KvStoreTest, RandomOpStreamMatchesReferenceMap) {
  // A seeded stream of puts, overwrites, deletes, gets, scans, flushes and reopens, checked
  // op by op against a std::map. Tiny memtables and tables push the data through every level,
  // and the stream must be seen to exercise each compaction merge case it is meant to cover.
  KvConfig config;
  config.memtable_bytes = 2 * kKiB;
  config.target_table_bytes = 4 * kKiB;
  config.level_base_bytes = 4 * kKiB;
  config.level_multiplier = 2.0;
  config.max_levels = 5;
  auto open = [&]() {
    store_.reset();
    auto store = KvStore::Open(env_.get(), config, 0);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(store).value();
  };
  open();

  std::map<std::string, std::string> reference;
  std::uint64_t four_way_l0_merges_with_duplicates = 0;
  std::vector<std::uint64_t> shadowed(config.max_levels, 0);
  std::uint64_t tombstones_dropped = 0;
  std::uint64_t reopens = 0;
  std::uint64_t nonempty_scans = 0;
  Rng rng(2024);
  SimTime t = 0;
  constexpr std::uint64_t kKeySpace = 700;
  for (std::uint64_t op = 0; op < 12000; ++op) {
    const std::string key = KeyOf(rng.NextBelow(kKeySpace));
    const std::uint64_t dice = rng.NextBelow(1000);
    const std::uint32_t l0_before = store_->LevelTableCounts()[0];
    const KvStats before = store_->stats();
    if (dice < 450) {
      const std::string value = ValueOf(op, 8 + rng.NextBelow(40));
      auto p = store_->Put(key, value, t);
      ASSERT_TRUE(p.ok()) << p.status().ToString() << " at op " << op;
      t = p.value();
      reference[key] = value;
    } else if (dice < 580) {
      auto d = store_->Delete(key, t);
      ASSERT_TRUE(d.ok()) << d.status().ToString() << " at op " << op;
      t = d.value();
      reference.erase(key);
    } else if (dice < 880) {
      auto g = store_->Get(key, t);
      ASSERT_TRUE(g.ok()) << g.status().ToString() << " at op " << op;
      auto want = reference.find(key);
      ASSERT_EQ(g->found, want != reference.end()) << key << " at op " << op;
      if (g->found) {
        ASSERT_EQ(g->value, want->second) << key << " at op " << op;
      }
    } else if (dice < 980) {
      const std::size_t limit = 1 + rng.NextBelow(12);
      auto sc = store_->Scan(key, limit, t);
      ASSERT_TRUE(sc.ok()) << sc.status().ToString() << " at op " << op;
      std::vector<std::pair<std::string, std::string>> want;
      for (auto it = reference.lower_bound(key); it != reference.end() && want.size() < limit;
           ++it) {
        want.emplace_back(it->first, it->second);
      }
      ASSERT_EQ(sc->entries, want) << "scan from " << key << " at op " << op;
      nonempty_scans += want.empty() ? 0 : 1;
    } else if (dice < 995) {
      auto f = store_->Flush(t);
      ASSERT_TRUE(f.ok()) << f.status().ToString() << " at op " << op;
      t = std::max(t, f.value());
    } else {
      open();
      ++reopens;
      continue;  // A fresh store starts its stats from zero.
    }
    const KvStats& after = store_->stats();
    for (std::uint32_t level = 0; level < config.max_levels; ++level) {
      shadowed[level] += after.shadowed_by_level[level] - before.shadowed_by_level[level];
    }
    tombstones_dropped += after.tombstones_dropped - before.tombstones_dropped;
    // L0 is compacted when a flush brings it to four tables: this op merged all of them.
    if (l0_before >= 3 && after.flushes > before.flushes && store_->LevelTableCounts()[0] == 0 &&
        after.shadowed_by_level[1] > before.shadowed_by_level[1]) {
      ++four_way_l0_merges_with_duplicates;
    }
  }
  open();
  for (std::uint64_t k = 0; k < kKeySpace; ++k) {
    auto g = store_->Get(KeyOf(k), t);
    ASSERT_TRUE(g.ok());
    auto want = reference.find(KeyOf(k));
    ASSERT_EQ(g->found, want != reference.end()) << KeyOf(k);
    if (g->found) {
      ASSERT_EQ(g->value, want->second) << KeyOf(k);
    }
  }

  EXPECT_GT(four_way_l0_merges_with_duplicates, 0u);
  for (std::uint32_t level = 1; level < config.max_levels; ++level) {
    EXPECT_GT(shadowed[level], 0u) << "no overwrite was merged into L" << level;
  }
  EXPECT_GT(tombstones_dropped, 0u) << "no tombstone reached the bottom level";
  EXPECT_GT(reopens, 0u);
  EXPECT_GT(nonempty_scans, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, KvStoreTest, ::testing::Values(Backend::kBlock, Backend::kZns),
                         [](const ::testing::TestParamInfo<Backend>& param_info) {
                           return param_info.param == Backend::kBlock ? "BlockEnv" : "ZoneEnv";
                         });

TEST(KvLifetimeTest, LevelsMapToDistinctHints) {
  ZnsDevice dev(SmallFlash(), DeviceConfig());
  auto fs = ZoneFileSystem::Format(&dev, ZoneFileConfig{}, 0);
  ASSERT_TRUE(fs.ok());
  ZoneEnv env(fs.value().get());
  KvConfig config;
  config.memtable_bytes = 8 * kKiB;
  auto store = KvStore::Open(&env, config, 0);
  ASSERT_TRUE(store.ok());
  SimTime t = 0;
  for (std::uint64_t i = 0; i < 600; ++i) {
    auto p = store.value()->Put(KeyOf(i), ValueOf(i), t);
    ASSERT_TRUE(p.ok());
    t = p.value();
  }
  ASSERT_TRUE(store.value()->Flush(t).ok());
  // SSTables and logs must exist with role-appropriate hints.
  std::set<Lifetime> seen;
  for (const auto& name : fs.value()->ListFiles()) {
    seen.insert(fs.value()->FileHint(name).value());
  }
  EXPECT_GT(seen.size(), 1u) << "different file roles should carry different lifetime hints";
}

}  // namespace
}  // namespace blockhead
