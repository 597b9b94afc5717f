// Sorted string table: the on-"disk" unit of the mini-LSM store.
//
// Layout (all little-endian), modeled on LevelDB/RocksDB:
//   [data block]*    entries: key_len u16 | key | type u8 | value_len u32 | value
//   [index]          per block: offset u64 | size u32 | last_key_len u16 | last_key
//   [bloom filter]   bit_count u32 | k u32 | bits
//   [footer, 48 B]   index_off u64 | index_len u64 | bloom_off u64 | bloom_len u64 |
//                    entry_count u64 | magic u64
//
// The builder streams blocks to the Env as they fill; the reader loads the footer, index, and
// bloom filter once at open (the "table cache") and then serves point lookups with at most one
// data-block read. Blocks are decoded in place: lookups and compaction inputs view the bytes
// read from flash, and only the values a caller keeps are copied out.

#ifndef BLOCKHEAD_SRC_KV_SSTABLE_H_
#define BLOCKHEAD_SRC_KV_SSTABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/kv/env.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace blockhead {

enum class KvEntryType : std::uint8_t { kTombstone = 0, kValue = 1 };

struct KvEntry {
  std::string key;
  KvEntryType type = KvEntryType::kValue;
  std::string value;
};

// An entry decoded in place: key and value view the block bytes it was read from.
struct KvEntryRef {
  std::string_view key;
  KvEntryType type = KvEntryType::kValue;
  std::string_view value;
};

// A table's data blocks as read from flash, every entry decoded in place. Move-only: the views
// in `entries` point into `bytes`, whose buffer a move keeps and a copy would not.
struct SSTableContents {
  SSTableContents() = default;
  SSTableContents(SSTableContents&&) = default;
  SSTableContents& operator=(SSTableContents&&) = default;
  SSTableContents(const SSTableContents&) = delete;
  SSTableContents& operator=(const SSTableContents&) = delete;

  std::vector<std::uint8_t> bytes;
  std::vector<KvEntryRef> entries;  // Key order.
};

// The two FNV-1a hashes a bloom filter derives every probe of one key from.
struct BloomHash {
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;  // Odd, so the probe sequence h1 + i*h2 never stalls.

  static BloomHash Of(std::string_view key);
};

// Blocked bloom-free simple bloom filter with double hashing.
class BloomFilter {
 public:
  BloomFilter() = default;

  static BloomFilter Build(std::span<const BloomHash> hashes, std::uint32_t bits_per_key);
  // Hashes each key and builds as above: the same bits for the same keys.
  static BloomFilter Build(const std::vector<std::string>& keys, std::uint32_t bits_per_key);
  static Result<BloomFilter> Deserialize(std::span<const std::uint8_t> bytes);

  bool MayContain(std::string_view key) const;
  std::vector<std::uint8_t> Serialize() const;
  std::uint32_t bit_count() const { return bit_count_; }

 private:
  std::uint32_t bit_count_ = 0;
  std::uint32_t k_ = 0;
  std::vector<std::uint8_t> bits_;
};

struct SSTableBuilderOptions {
  std::uint32_t block_bytes = 4096;
  std::uint32_t bloom_bits_per_key = 10;
  Lifetime hint = Lifetime::kMedium;
};

// Streams sorted entries into a new file. Add() must be called in strictly increasing key
// order; Finish() writes index/bloom/footer and syncs.
class SSTableBuilder {
 public:
  SSTableBuilder(Env* env, std::string name, const SSTableBuilderOptions& options);

  Status Start(SimTime now);  // Creates the file.
  Status Add(std::string_view key, KvEntryType type, std::string_view value, SimTime now);
  // Completes the table. Returns the sync completion time.
  Result<SimTime> Finish(SimTime now);

  const std::string& name() const { return name_; }
  std::uint64_t file_bytes() const { return offset_; }
  std::uint64_t entry_count() const { return entry_count_; }
  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }
  SimTime last_write_completion() const { return last_write_; }

 private:
  Status FlushBlock(SimTime now);

  Env* env_;
  std::string name_;
  SSTableBuilderOptions options_;
  std::vector<std::uint8_t> block_;
  std::vector<std::uint8_t> index_;       // Serialized entries of the blocks flushed so far.
  std::vector<BloomHash> key_hashes_;     // For the bloom filter.
  std::uint64_t offset_ = 0;
  std::uint64_t entry_count_ = 0;
  std::string smallest_;
  std::string largest_;  // Also the current block's last key, which FlushBlock indexes.
  SimTime last_write_ = 0;
  bool started_ = false;
};

// Read handle over a finished table. Open() loads footer + index + bloom.
class SSTableReader {
 public:
  static Result<std::unique_ptr<SSTableReader>> Open(Env* env, std::string name, SimTime now);

  struct GetResult {
    bool found = false;           // Key present (as value or tombstone).
    KvEntryType type = KvEntryType::kValue;
    std::string value;
    SimTime completion = 0;
    bool bloom_skipped = false;   // Lookup answered negatively by the filter alone.
  };

  Result<GetResult> Get(std::string_view key, SimTime now) const;

  // Reads every data block, one Env read each, and decodes every entry in place, in order
  // (used by compaction).
  Result<SSTableContents> ReadAll(SimTime now, SimTime* completion = nullptr) const;

  // Reads up to `limit` entries with key >= start_key, in order, touching only the data
  // blocks that can contain them (used by range scans).
  Result<std::vector<KvEntry>> ScanFrom(std::string_view start_key, std::size_t limit,
                                        SimTime now, SimTime* completion = nullptr) const;

  const std::string& name() const { return name_; }
  std::uint64_t entry_count() const { return entry_count_; }

 private:
  struct IndexEntry {
    std::uint64_t offset = 0;
    std::uint32_t size = 0;
    std::string last_key;
  };

  SSTableReader(Env* env, std::string name) : env_(env), name_(std::move(name)) {}

  // First block whose last key is >= key (end() if none).
  std::vector<IndexEntry>::const_iterator FindBlock(std::string_view key) const;

  Env* env_;
  std::string name_;
  std::vector<IndexEntry> index_;
  BloomFilter bloom_;
  std::uint64_t entry_count_ = 0;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_KV_SSTABLE_H_
