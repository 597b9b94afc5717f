// ZenFS-style zoned file backend (the role ZenFS/F2FS play in the paper's RocksDB-on-ZNS
// results, §2.4/§2.5): append-only files stored as extents inside zones, with
//
//   * lifetime-hint-driven zone selection (§4.1): files whose data is expected to expire
//     together are written to the same zones, so a whole zone usually dies at once and can be
//     reset without copying — the mechanism behind the paper's 5x -> ~1.2x LSM write-
//     amplification claim;
//   * host-scheduled zone compaction (GC) for zones that end up with a mix of live and dead
//     extents, using simple copy when available;
//   * a crash-consistent metadata journal: zones 0 and 1 alternate between a checkpoint and an
//     append-only record log, so the filesystem can be remounted after a crash with all synced
//     data intact.

#ifndef BLOCKHEAD_SRC_ZONEFILE_ZONE_FILE_SYSTEM_H_
#define BLOCKHEAD_SRC_ZONEFILE_ZONE_FILE_SYSTEM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/sched/gc_scheduler.h"
#include "src/util/status.h"
#include "src/util/types.h"
#include "src/zns/zns_device.h"

namespace blockhead {

// Write-lifetime hints, mirroring the kernel's WRITE_LIFE_* fcntl hints that ZenFS consumes.
enum class Lifetime : std::uint8_t {
  kNone = 0,
  kShort = 1,
  kMedium = 2,
  kLong = 3,
  kExtreme = 4,
};
inline constexpr std::uint32_t kLifetimeClasses = 5;

const char* LifetimeName(Lifetime hint);

struct ZoneFileConfig {
  // Copy surviving extents with the device simple-copy command during zone compaction.
  bool use_simple_copy = true;
  // If nonzero: when Sync completes a file and its class's write frontier has at most this
  // many pages left, finish the zone (accepting a little dead space) so the next file starts
  // in a fresh zone. This is ZenFS's discipline for zone-sized files — it keeps one file per
  // zone so zones expire wholesale.
  std::uint32_t finish_remainder_pages = 0;
  // Opportunistic (non-critical) compaction only touches zones at most this live: copying a
  // mostly-live zone costs more flash writes than the space it reclaims, and the relocated
  // fragments re-mix lifetimes. Critical (out-of-space) compaction ignores the threshold.
  double gc_max_live_fraction = 0.75;
  // Compaction is incremental: at most this many pages are relocated per Pump step, so
  // foreground reads interleave with reclamation instead of stalling behind a whole-zone copy
  // (§4.1: the host schedules GC around I/O — a knob no conventional SSD exposes).
  std::uint32_t gc_step_pages = 4;
  GcSchedulerConfig sched;
};

struct ZoneFileStats {
  std::uint64_t bytes_appended = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t data_pages_flushed = 0;
  std::uint64_t meta_pages_written = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t files_created = 0;
  std::uint64_t files_deleted = 0;
  std::uint64_t gc_cycles = 0;
  std::uint64_t gc_pages_copied = 0;
  std::uint64_t zones_reclaimed = 0;
};

class ZoneFileSystem {
 public:
  ~ZoneFileSystem();  // Publishes final metrics and unhooks from the registry if attached.

  // Initializes a fresh filesystem on `device` (erases any previous metadata). The device must
  // outlive the filesystem and must have at least 8 zones and >= kLifetimeClasses + 2 active
  // zones available.
  static Result<std::unique_ptr<ZoneFileSystem>> Format(ZnsDevice* device,
                                                        const ZoneFileConfig& config,
                                                        SimTime now);

  // Mounts an existing filesystem: replays the newest checkpoint plus journal. Partially
  // written data zones that belonged to lost write frontiers are sealed and become compaction
  // candidates.
  static Result<std::unique_ptr<ZoneFileSystem>> Mount(ZnsDevice* device,
                                                       const ZoneFileConfig& config, SimTime now);

  // --- File operations (all journaled; Append data becomes durable at the next Sync) ---

  Result<SimTime> Create(std::string_view name, Lifetime hint, SimTime now);
  Result<SimTime> Append(std::string_view name, std::span<const std::uint8_t> data, SimTime now);
  // Reads out.size() bytes at `offset`; fails with kOutOfRange if the range exceeds the file.
  Result<SimTime> Read(std::string_view name, std::uint64_t offset, std::span<std::uint8_t> out,
                       SimTime now);
  // Flushes the partial-page tail (padded) and journals the file's extent map.
  Result<SimTime> Sync(std::string_view name, SimTime now);
  Result<SimTime> Delete(std::string_view name, SimTime now);

  bool Exists(std::string_view name) const;
  Result<std::uint64_t> FileSize(std::string_view name) const;
  Result<Lifetime> FileHint(std::string_view name) const;
  std::vector<std::string> ListFiles() const;

  // Opportunistic zone compaction, policy-gated like HostFtlBlockDevice::Pump.
  std::uint32_t Pump(SimTime now, bool reads_pending, std::uint32_t max_cycles = 1);

  const ZoneFileStats& stats() const { return stats_; }
  std::uint64_t FreeZones() const { return free_zones_.size(); }
  double FreeFraction() const;
  // Physical flash programs per byte of file data appended, normalized to pages.
  double EndToEndWriteAmplification() const;

  // Registers ZoneFileStats, scheduler tallies (`<prefix>.sched.*`) and space gauges with
  // `telemetry`, plus per-op tracing spans (`<prefix>.append` / `<prefix>.read`) around file
  // I/O. The underlying ZnsDevice is attached separately by its owner.
  //
  // While attached, file lifecycle (create/seal/delete), compaction victim selections
  // (kGcVictim), completed cycles (kGcCycle) and edge-triggered scheduler windows
  // ("<prefix>.sched") land in the event log; each relocation burst becomes a "gc_step"
  // maintenance slice on the "<prefix>.gc" track, and "<prefix>.free_fraction" /
  // "<prefix>.write_amplification" are sampled as timeline series.
  void AttachTelemetry(Telemetry* telemetry, std::string_view prefix = "zonefile");

  // Validates live-page accounting against the extent maps. For tests.
  Status CheckConsistency() const;

 private:
  static constexpr std::uint32_t kMetaZoneA = 0;
  static constexpr std::uint32_t kMetaZoneB = 1;
  static constexpr std::uint32_t kFirstDataZone = 2;
  static constexpr std::uint32_t kNoZone = ~0U;

  struct Extent {
    std::uint64_t dev_lba = 0;
    std::uint32_t pages = 0;
    std::uint64_t bytes = 0;  // Logical bytes stored (== pages * page_size except after pads).
  };

  struct FileMeta {
    std::uint32_t id = 0;
    std::string name;
    Lifetime hint = Lifetime::kNone;
    std::uint64_t size = 0;         // Includes the in-memory tail.
    std::uint64_t synced_size = 0;  // Durable after the last Sync.
    std::vector<Extent> extents;
    std::vector<std::uint8_t> tail;  // Partial-page buffer, < page_size bytes.
  };

  ZoneFileSystem(ZnsDevice* device, const ZoneFileConfig& config);

  FileMeta* Find(std::string_view name);
  const FileMeta* Find(std::string_view name) const;

  // Flushes one full page of `file`'s tail to its lifetime frontier. `pad` allows a partial
  // tail to be padded out (Sync path).
  Result<SimTime> FlushTailPage(FileMeta& file, SimTime now, bool pad);
  // Picks/refreshes the write frontier for a lifetime class. May trigger forced compaction.
  Result<std::uint32_t> FrontierFor(Lifetime hint, SimTime now);
  Result<std::uint32_t> AllocateZone(SimTime now);
  bool IsFrontier(std::uint32_t zone_index) const;

  // One incremental compaction step: starts a victim if none is pending, relocates up to
  // `max_pages` live pages, and finalizes (journal + reset) when the victim is drained.
  Result<SimTime> GcStep(SimTime now, bool critical, std::uint32_t max_pages);
  // Runs a pending (or new) victim to completion. Used on the critical allocation path.
  Result<SimTime> GcRunToCompletion(SimTime now, bool critical);
  Status StartGcVictim(SimTime now, bool critical);
  std::uint32_t PickVictim(bool critical) const;
  void PublishMetrics();

  // --- Metadata journal ---
  // Writes a metadata blob of the given record type as one or more meta pages; swaps meta
  // zones (checkpointing) when the current one fills.
  Result<SimTime> WriteMetaBlob(std::uint8_t type, std::span<const std::uint8_t> blob,
                                SimTime now);
  Result<SimTime> WriteCheckpointAndSwap(SimTime now);
  std::vector<std::uint8_t> SerializeCheckpoint() const;
  std::vector<std::uint8_t> SerializeFileRecord(const FileMeta& file) const;
  Status ApplyRecord(std::uint8_t type, std::span<const std::uint8_t> payload);
  Status LoadFromZone(std::uint32_t meta_zone, SimTime now);

  ZnsDevice* device_;
  ZoneFileConfig config_;
  GcScheduler scheduler_;
  std::uint32_t page_size_ = 0;
  std::uint64_t zone_pages_ = 0;

  std::map<std::string, std::uint32_t, std::less<>> names_;
  std::map<std::uint32_t, FileMeta> files_;
  std::uint32_t next_file_id_ = 1;

  std::vector<std::uint32_t> free_zones_;
  std::vector<std::uint32_t> frontier_;  // Indexed by lifetime class.
  std::vector<std::uint32_t> zone_live_pages_;

  std::uint32_t meta_zone_ = kMetaZoneA;
  std::uint64_t meta_seq_ = 0;
  bool in_gc_ = false;  // Guards against forced-GC recursion while relocating extents.

  // In-flight incremental compaction state.
  struct GcWorkItem {
    std::uint32_t file_id = 0;
    std::uint64_t dev_lba = 0;
    std::uint32_t pages = 0;
    std::uint64_t bytes = 0;
  };
  struct GcPending {
    std::uint32_t victim = kNoZone;
    std::vector<GcWorkItem> items;
    std::size_t next = 0;
    std::vector<std::uint32_t> touched_files;
  };
  GcPending gc_;

  ZoneFileStats stats_;
  Telemetry* telemetry_ = nullptr;
  std::string metric_prefix_;
  int sampler_group_ = -1;  // Timeline group for free-space / WA gauges.
  // Span names interned at attach time, so Append/Read open spans without building strings.
  Tracer::SpanName* append_span_ BLOCKHEAD_SIM_GLOBAL = nullptr;
  Tracer::SpanName* read_span_ BLOCKHEAD_SIM_GLOBAL = nullptr;
  // Application bytes accepted by Append, accumulated into the provenance ledger's domain
  // "<prefix>" as a link in the factorized-WA chain.
  Bytes* provenance_ingress_ = nullptr;
  // stats_.gc_pages_copied at victim selection (per-cycle copy count for the kGcCycle event).
  std::uint64_t gc_cycle_copied_base_ = 0;

  // State-digest audit of the file map ("<prefix>.extents"): one entry per extent hashing
  // (file id, device LBA, pages, bytes) plus one per file hashing (id, hint, synced size).
  // Extent entries carry no positional identity — the fold is a multiset — so mid-vector
  // splices during compaction stay O(1) (replace the rewritten extent, insert the remainder).
  SubsystemDigest* audit_files_ = nullptr;
  static std::uint64_t ExtentEntryHash(std::uint32_t file_id, const Extent& ext) {
    return AuditHashWords({1, file_id, ext.dev_lba, ext.pages, ext.bytes});
  }
  static std::uint64_t FileEntryHash(const FileMeta& file) {
    return AuditHashWords(
        {2, file.id, static_cast<std::uint64_t>(file.hint), file.synced_size});
  }
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_ZONEFILE_ZONE_FILE_SYSTEM_H_
