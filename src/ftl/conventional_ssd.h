// Conventional SSD: a page-mapped flash translation layer behind the block interface.
//
// This implements every FTL responsibility the paper enumerates in §2.1:
//   * page-granularity logical-to-physical address translation (4 B/page model — the source of
//     the ~1 GB-of-DRAM-per-TB figure in §2.2);
//   * garbage collection with overprovisioned spare capacity (greedy or cost-benefit victim
//     selection) — GC runs inside the device, occupying planes, which is exactly how it
//     interferes with foreground reads (§2.4);
//   * wear leveling (least-worn free-block allocation plus periodic cold-block migration);
//   * a device write buffer that acknowledges host writes before cells finish programming.
//
// Durable FTL metadata checkpointing (§2.1 bullet 3) is modeled as a fixed per-write DRAM cost
// rather than extra flash traffic; see DESIGN.md (it does not affect any reproduced claim).

#ifndef BLOCKHEAD_SRC_FTL_CONVENTIONAL_SSD_H_
#define BLOCKHEAD_SRC_FTL_CONVENTIONAL_SSD_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/block/block_device.h"
#include "src/core/shard_safety.h"
#include "src/core/strong_id.h"
#include "src/flash/flash_device.h"
#include "src/ftl/victim_index.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace blockhead {

enum class GcVictimPolicy {
  kGreedy,       // Minimum valid-page count.
  kCostBenefit,  // Maximize (1-u)/(2u) * age (Rosenblum/Ousterhout cleaning heuristic).
};

struct FtlConfig {
  // Spare capacity as a fraction of the *exported* (usable) capacity, matching the paper's
  // "7-28% of the usable capacity" framing. 0.0 still leaves a small hard reserve so the
  // device remains operable (real "0% OP" drives do the same).
  double op_fraction = 0.07;
  GcVictimPolicy victim_policy = GcVictimPolicy::kGreedy;
  // Foreground GC triggers when the free pool drops to this many blocks (beyond the open
  // frontiers) and runs until it recovers gc_free_target blocks.
  std::uint32_t gc_trigger_free_blocks = 0;  // 0 -> derived: 2 * planes.
  std::uint32_t gc_free_target_blocks = 0;   // 0 -> derived: trigger + planes.
  // Device DRAM write buffer, in pages. Writes are acknowledged when buffered; the buffer
  // drains at cell-program speed.
  std::uint32_t write_buffer_pages = 64;
  // Enable least-worn allocation + periodic cold-block migration.
  bool wear_leveling = true;
  // Every this many GC cycles, spend one cycle migrating the least-worn full block.
  std::uint32_t wear_migrate_interval = 64;
  // Hard reserve (blocks per plane) that is never exported, even at op_fraction = 0.
  std::uint32_t min_reserve_blocks_per_plane = 4;
  // Multi-stream writes (NVMe Streams directive, paper §2.3): the host labels writes with a
  // stream ID and the device gives each stream its own erasure-block frontiers, so data with
  // similar lifetime is physically separated. 1 = streams off (plain block device).
  std::uint32_t num_streams = 1;
};

struct FtlStats {
  std::uint64_t host_pages_written = 0;
  std::uint64_t host_pages_read = 0;
  std::uint64_t pages_trimmed = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_pages_copied = 0;
  std::uint64_t gc_blocks_reclaimed = 0;
  std::uint64_t wear_migrations = 0;
  // Number of host writes that had to wait for foreground GC.
  std::uint64_t foreground_gc_stalls = 0;
};

// DRAM footprint breakdown, following the paper's §2.2 accounting model (4 bytes per mapping
// entry).
struct DramUsage {
  std::uint64_t mapping_bytes = 0;       // L2P (conventional) or zone map (ZNS).
  std::uint64_t gc_metadata_bytes = 0;   // Reverse map + valid counters.
  std::uint64_t write_buffer_bytes = 0;  // Device write buffer.

  std::uint64_t total() const { return mapping_bytes + gc_metadata_bytes + write_buffer_bytes; }
};

class ConventionalSsd final : public BlockDevice {
 public:
  ConventionalSsd(const FlashConfig& flash_config, const FtlConfig& ftl_config);
  ~ConventionalSsd() override;  // Publishes final metrics and unhooks if attached.

  // BlockDevice interface. Lba unit = one flash page.
  Result<SimTime> ReadBlocks(Lba lba, std::uint32_t count, SimTime issue,
                             std::span<std::uint8_t> out = {}) override;
  Result<SimTime> WriteBlocks(Lba lba, std::uint32_t count, SimTime issue,
                              std::span<const std::uint8_t> data = {}) override;
  // Multi-stream write: like WriteBlocks but labeled with a stream ID (clamped to
  // num_streams - 1). Streams share the logical address space but get separate flash
  // frontiers.
  Result<SimTime> WriteBlocksStream(Lba lba, std::uint32_t count, std::uint32_t stream,
                                    SimTime issue, std::span<const std::uint8_t> data = {});
  Result<SimTime> TrimBlocks(Lba lba, std::uint32_t count, SimTime issue) override;
  std::uint64_t num_blocks() const override { return logical_pages_; }
  std::uint32_t block_size() const override { return flash_.geometry().page_size; }

  const FlashDevice& flash() const { return flash_; }
  const FtlStats& ftl_stats() const { return stats_; }

  // Registers this device (and its inner flash, under `<prefix>.flash.*`) with `telemetry`:
  // FtlStats, write amplification and DRAM gauges under `<prefix>.ftl.*`, plus per-op tracing
  // spans (`<prefix>.ftl.read` / `<prefix>.ftl.write`) around host I/O.
  //
  // While attached, GC decisions are logged as events (kGcVictim on victim selection, kGcCycle
  // on completion) and each GC cycle becomes a maintenance slice on the "<prefix>.ftl.gc"
  // timeline track; "<prefix>.ftl.free_blocks" and "<prefix>.ftl.write_amplification" are
  // sampled as timeline series once the timeline is enabled.
  void AttachTelemetry(Telemetry* telemetry, std::string_view prefix = "conv");

  // Physical-flash-writes / host-writes since construction. >= 1 once anything was written.
  double WriteAmplification() const;

  // DRAM footprint under the paper's 4 B/entry model.
  DramUsage ComputeDramUsage() const;

  // Runs up to `max_cycles` background GC cycles if the free pool is below the background
  // watermark. Returns the number of cycles run. Hosts call this during idle periods.
  std::uint32_t RunBackgroundGc(SimTime now, std::uint32_t max_cycles);

  // Total free (erased, unopened) blocks in all plane pools.
  std::uint64_t FreeBlocks() const;

  // Validates internal invariants (L2P/P2L agreement, valid counters, victim-index
  // membership and buckets). For tests; O(capacity).
  Status CheckConsistency() const;

 private:
  // Mapping-table entry: a flat page number. 32 bits cover every supported geometry (the
  // constructor aborts on one with 2^32 - 1 pages or more); ~0 marks an unmapped entry.
  using MapEntry = std::uint32_t;
  static constexpr MapEntry kUnmapped = ~MapEntry{0};

  struct PlaneState {
    std::vector<std::uint32_t> free_blocks;      // Erased blocks ready to open.
    std::vector<std::uint32_t> host_frontiers;   // Per-stream blocks receiving host writes.
    std::uint32_t gc_frontier = kNoBlock;        // Block currently receiving GC copies.
  };
  static constexpr std::uint32_t kNoBlock = ~0U;

  struct BlockMeta {
    std::uint32_t valid_pages = 0;
    SimTime last_write = 0;  // For cost-benefit aging.
    bool open = false;       // Is a frontier (excluded from victim selection).
  };

  // Programs one logical page to the next frontier slot of `stream` (or the GC frontier).
  // Returns program completion.
  Result<SimTime> AppendPage(std::uint64_t lpn, SimTime issue, std::span<const std::uint8_t> data,
                             bool gc_write, std::uint32_t stream);
  // Picks the plane and physical slot for the next append. May consume a free block. Fails
  // with kNoFreeBlocks if the pool is empty.
  Result<PhysAddr> NextSlot(SimTime issue, bool gc_write, std::uint32_t stream);
  // Allocates the least-worn free block on the given plane.
  std::uint32_t TakeFreeBlock(std::uint32_t plane_index);
  // One full GC cycle: pick victim, copy valid pages forward, erase. Returns erase completion,
  // or an error if no eligible victim exists.
  Result<SimTime> GcCycle(SimTime now);
  // Foreground GC driver: brings the free pool back above target. Returns last completion.
  SimTime MaybeForegroundGc(SimTime now);
  // Victim selection over all full blocks. Returns flat block index or kNoVictim. Greedy
  // picks come from victims_; cost-benefit, wear-migration and perturbed picks scan.
  std::uint64_t PickVictim(SimTime now, bool wear_migration);
  static constexpr std::uint64_t kNoVictim = VictimIndex::kNone;
  // A GC candidate is full, closed and good. victims_ holds exactly these blocks, except
  // for the victim of a GC cycle in progress.
  bool IsVictimCandidate(std::uint64_t flat) const;
  void InvalidatePage(std::uint64_t lpn, SimTime now);
  bool PageValid(std::uint64_t ppn) const;
  // Host-visible ack time for a buffered write whose program completes at `program_done`.
  SimTime BufferAck(SimTime data_in, SimTime program_done);
  void PublishMetrics();

  FlashDevice flash_ BLOCKHEAD_SHARD_SHARED;
  FtlConfig config_ BLOCKHEAD_SHARD_SHARED;
  std::uint64_t logical_pages_ BLOCKHEAD_SHARD_SHARED = 0;
  std::uint32_t gc_trigger_blocks_ BLOCKHEAD_SHARD_SHARED = 0;
  std::uint32_t gc_target_blocks_ BLOCKHEAD_SHARD_SHARED = 0;

  std::vector<MapEntry> l2p_
      BLOCKHEAD_SHARD_SHARED;  // Logical page -> flat physical page (or kUnmapped).
  std::vector<MapEntry> p2l_
      BLOCKHEAD_SHARD_SHARED;  // Flat physical page -> logical page (or kUnmapped).
  std::vector<BlockMeta> block_meta_ BLOCKHEAD_SHARD_LOCAL(plane);
  // GC candidates (full, closed, good blocks) bucketed by valid_pages. A block joins when
  // NextSlot retires it as a full frontier and leaves when GcCycle takes it as a victim.
  VictimIndex victims_ BLOCKHEAD_SHARD_SHARED;
  std::vector<PlaneState> planes_ BLOCKHEAD_SHARD_LOCAL(plane);
  std::vector<std::uint32_t> next_host_plane_
      BLOCKHEAD_SHARD_SHARED;  // Per-stream round-robin striping cursors.
  std::uint32_t next_gc_plane_ BLOCKHEAD_SHARD_SHARED = 0;
  std::uint64_t free_block_count_ BLOCKHEAD_SHARD_SHARED = 0;
  std::uint64_t victim_scan_cursor_
      BLOCKHEAD_SHARD_SHARED = 0;  // Rotating start for victim scans (tie fairness).
  std::uint64_t gc_cycles_since_wear_check_ BLOCKHEAD_SHARD_SHARED = 0;
  std::deque<SimTime> inflight_program_completions_
      BLOCKHEAD_SHARD_SHARED;  // Write-buffer occupancy model.

  FtlStats stats_ BLOCKHEAD_SHARD_SHARED;
  Telemetry* telemetry_ BLOCKHEAD_SIM_GLOBAL = nullptr;
  std::string metric_prefix_ BLOCKHEAD_SIM_GLOBAL;
  int sampler_group_ BLOCKHEAD_SIM_GLOBAL = -1;  // Timeline group for free-pool / WA gauges.
  // Span names interned at attach time, so host I/O opens spans without building strings.
  Tracer::SpanName* read_span_ BLOCKHEAD_SIM_GLOBAL = nullptr;
  Tracer::SpanName* write_span_ BLOCKHEAD_SIM_GLOBAL = nullptr;

  // State-digest audit of the mapping table ("<prefix>.ftl.l2p"): one entry per mapped
  // logical page hashing (lpn, ppn). p2l_ is derived state and is not digested separately.
  SubsystemDigest* audit_l2p_ BLOCKHEAD_SIM_GLOBAL = nullptr;
  static std::uint64_t L2pEntryHash(std::uint64_t lpn, std::uint64_t ppn) {
    return AuditHashWords({lpn, ppn});
  }
  // Divergence-injection test hook (BLOCKHEAD_AUDIT_PERTURB_GC_AT=<ns>): the first victim
  // selection at now >= the given SimTime picks the second-best block instead of the best,
  // once. Used by ci.sh and the EXPERIMENTS.md walkthrough to prove digest_bisect localizes
  // a single perturbed GC decision; never set in normal runs.
  SimTime perturb_gc_at_ BLOCKHEAD_SHARD_SHARED = 0;
  bool perturb_pending_ BLOCKHEAD_SHARD_SHARED = false;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_FTL_CONVENTIONAL_SSD_H_
