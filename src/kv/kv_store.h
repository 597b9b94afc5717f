// Mini-LSM key-value store (RocksDB stand-in for the paper's §2.4 claims).
//
// Architecture: an in-memory memtable backed by a write-ahead log; flushes produce L0
// SSTables; leveled compaction merges overlapping tables downward. Durability state (table
// set, current WAL) lives in a MANIFEST log, so Open() recovers committed data after a crash.
//
// The ZNS connection: every file is created with a lifetime hint derived from its role (WAL
// and L0 are short-lived; deeper levels live longer). On a ZoneEnv those hints place files so
// whole zones expire together — the mechanism behind the CMU result the paper cites (RocksDB
// device-level write amplification dropping from ~5x to ~1.2x on ZNS). On a BlockEnv the
// hints are recorded but cannot influence placement, and the conventional FTL pays for it.

#ifndef BLOCKHEAD_SRC_KV_KV_STORE_H_
#define BLOCKHEAD_SRC_KV_KV_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/kv/env.h"
#include "src/kv/sstable.h"
#include "src/telemetry/telemetry.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace blockhead {

struct KvConfig {
  std::uint64_t memtable_bytes = 256 * kKiB;
  std::uint32_t l0_compaction_trigger = 4;
  // L0 depth at which incoming writes stall until compaction catches up.
  std::uint32_t l0_stall_trigger = 12;
  std::uint64_t level_base_bytes = 1 * kMiB;  // Target size of L1.
  double level_multiplier = 8.0;
  std::uint32_t max_levels = 5;
  std::uint64_t target_table_bytes = 256 * kKiB;
  std::uint32_t block_bytes = 4096;
  std::uint32_t bloom_bits_per_key = 10;
  // Sync the WAL on every Put (true fsync durability) or rely on page-fill flushing.
  bool sync_wal_every_put = false;
  // Rewrite the MANIFEST as a fresh snapshot once it grows past this size (space reclaim).
  std::uint64_t manifest_roll_bytes = 256 * kKiB;
};

struct KvStats {
  std::uint64_t puts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t gets = 0;
  std::uint64_t gets_found = 0;
  std::uint64_t user_bytes_written = 0;
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  std::uint64_t bytes_flushed = 0;
  std::uint64_t bytes_compacted = 0;
  std::uint64_t bloom_skips = 0;
  std::uint64_t stall_events = 0;
  // Compaction merge detail (not published as metrics). shadowed_by_level[L] counts the
  // entries merges into level L dropped because a newer input held the same key;
  // tombstones_dropped counts tombstones discarded on the way into the bottom level.
  std::vector<std::uint64_t> shadowed_by_level;
  std::uint64_t tombstones_dropped = 0;
};

class KvStore {
 public:
  // Opens (and recovers) a store in `env`. `env` must outlive the store.
  static Result<std::unique_ptr<KvStore>> Open(Env* env, const KvConfig& config, SimTime now);

  ~KvStore();  // Publishes final metrics and unhooks from the registry if attached.

  Result<SimTime> Put(std::string_view key, std::string_view value, SimTime now);
  Result<SimTime> Delete(std::string_view key, SimTime now);

  struct GetResult {
    bool found = false;
    std::string value;
    SimTime completion = 0;
  };
  Result<GetResult> Get(std::string_view key, SimTime now);

  struct ScanResult {
    std::vector<std::pair<std::string, std::string>> entries;  // Key order, ascending.
    SimTime completion = 0;
  };
  // Range scan: up to `limit` live entries with key >= start_key, merged across the memtable
  // and all levels (newest version wins; tombstones suppress).
  Result<ScanResult> Scan(std::string_view start_key, std::size_t limit, SimTime now);

  // Forces the memtable to an L0 table (also runs pending compactions).
  Result<SimTime> Flush(SimTime now);

  const KvStats& stats() const { return stats_; }
  // Number of tables per level (diagnostics).
  std::vector<std::uint32_t> LevelTableCounts() const;
  // LSM-level write amplification: (flush + compaction bytes) / user bytes.
  double LsmWriteAmplification() const;

  // Registers KvStats and the LSM write-amplification gauge with `telemetry`, plus per-op
  // tracing spans (`<prefix>.get` / `<prefix>.put`). A Put span covers everything the write
  // absorbs: WAL append, stalls, memtable flush and any compaction it triggers. While
  // attached, memtable flushes and level compactions land in the event log as kCompaction
  // records and as slices on the "<prefix>.compaction" maintenance track.
  void AttachTelemetry(Telemetry* telemetry, std::string_view prefix = "kv");

 private:
  struct TableMeta {
    std::uint32_t file_number = 0;
    std::uint32_t level = 0;
    std::uint64_t bytes = 0;
    std::string smallest;
    std::string largest;
    std::shared_ptr<SSTableReader> reader;
  };

  KvStore(Env* env, const KvConfig& config);

  static std::string TableName(std::uint32_t number);
  static std::string WalName(std::uint32_t number);
  static Lifetime HintForLevel(std::uint32_t level);
  // Switches to WAL `number`, keeping its file name at hand for the per-write appends.
  void SetWal(std::uint32_t number);

  Status RecoverManifest(SimTime now);
  Status RecoverWal(SimTime now);
  Result<SimTime> LogTableChange(const std::vector<TableMeta>& added,
                                 const std::vector<TableMeta>& removed,
                                 std::optional<std::uint32_t> new_wal, SimTime now);
  // Serializes one framed manifest record into `out`.
  void FrameAddRecord(const TableMeta& meta, std::vector<std::uint8_t>& out) const;
  // Replaces the manifest with a snapshot of the current version (space reclaim).
  Result<SimTime> RollManifest(SimTime now);

  Result<SimTime> WriteWalRecord(std::string_view key, KvEntryType type, std::string_view value,
                                 SimTime now);
  Result<SimTime> ApplyWrite(std::string_view key, KvEntryType type, std::string_view value,
                             SimTime now);
  Result<SimTime> FlushMemtable(SimTime now);
  // Runs compactions until no level is over its threshold. Returns last completion.
  Result<SimTime> MaybeCompact(SimTime now);
  Result<SimTime> CompactLevel(std::uint32_t level, SimTime now);
  std::uint64_t LevelBytes(std::uint32_t level) const;
  std::uint64_t LevelTargetBytes(std::uint32_t level) const;
  void PublishMetrics();

  Env* env_;
  KvConfig config_;

  using Memtable = std::map<std::string, std::optional<std::string>, std::less<>>;
  Memtable memtable_;
  std::uint64_t memtable_bytes_ = 0;

  std::vector<std::vector<TableMeta>> levels_;  // levels_[0] newest-first; >=1 key-sorted.
  std::uint32_t next_file_number_ = 1;
  std::uint32_t wal_number_ = 0;
  std::string wal_name_;                  // WalName(wal_number_).
  std::vector<std::uint8_t> wal_record_;  // Scratch buffer for the record being logged.
  std::vector<std::string> compaction_cursor_;  // Per-level round-robin key cursor.
  SimTime stall_until_ = 0;

  KvStats stats_;
  Telemetry* telemetry_ = nullptr;
  std::string metric_prefix_;
  // Span names interned at attach time, so Put/Get open spans without building strings.
  Tracer::SpanName* put_span_ BLOCKHEAD_SIM_GLOBAL = nullptr;
  Tracer::SpanName* get_span_ BLOCKHEAD_SIM_GLOBAL = nullptr;
  // User bytes accepted by Put/Delete, accumulated into the provenance ledger's domain
  // "<prefix>" as the top link of the factorized-WA chain.
  Bytes* provenance_ingress_ = nullptr;

  // State-digest audits: "<prefix>.memtable" folds one entry per live memtable key (key
  // bytes + value bytes or tombstone marker); "<prefix>.manifest" folds one entry per table
  // in the version (TableMeta fields) plus one for the current WAL number.
  SubsystemDigest* audit_memtable_ = nullptr;
  SubsystemDigest* audit_manifest_ = nullptr;
  static std::uint64_t MemtableEntryHash(std::string_view key,
                                         const std::optional<std::string>& value);
  static std::uint64_t TableEntryHash(const TableMeta& meta);
  static std::uint64_t WalEntryHash(std::uint32_t wal_number) {
    return AuditHashWords({3, wal_number});
  }
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_KV_KV_STORE_H_
