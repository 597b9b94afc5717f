// Host-side zone reclamation (§4.1: on ZNS the host picks the victim zone, copies its live data
// forward, resets the zone and schedules all of it), shared by the two layers that own a ZNS
// device: the host FTL (src/hostftl) and the zone file system (src/zonefile). It owns the
// per-zone live counts, the free-zone pool, the least-live victim pick, the incremental cycle,
// the GcScheduler-gated Pump and the forced (critical) loop, with their events, "gc_step"
// slices and `<prefix>.gc.*` / `<prefix>.sched.*` / free-space metrics. DESIGN.md §6
// ("Incremental host GC") has the contract, and why the conventional FTL's block-level
// VictimIndex stays separate.
//
// A layer supplies how one step moves its data. The reclaimer calls these members of the
// layer, a template parameter, so Pump makes no virtual call:
//   std::span<const std::uint32_t> ReclaimFrontiers(SimTime now);  // Zones the pick skips.
//   void BeginVictim(std::uint32_t victim);                         // Per-victim set-up.
//   Result<SimTime> RelocateStep(std::uint32_t victim, SimTime now, std::uint32_t max_pages);
//   bool VictimDrained() const;
//   Result<SimTime> BeforeVictimReset(SimTime now);  // Last step before the old copies go.

#ifndef BLOCKHEAD_SRC_SCHED_ZONE_RECLAIMER_H_
#define BLOCKHEAD_SRC_SCHED_ZONE_RECLAIMER_H_

#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/sched/gc_scheduler.h"
#include "src/telemetry/telemetry.h"
#include "src/zns/zns_device.h"

namespace blockhead {

// Reclamation tallies; each layer's stats struct derives from this one.
struct ZoneReclaimStats {
  std::uint64_t gc_cycles = 0;
  std::uint64_t gc_pages_copied = 0;
  std::uint64_t zones_reclaimed = 0;
  std::uint64_t forced_gc_stalls = 0;  // Foreground ops that ran mandatory reclaim first.
};

// Where a layer's reclaim steps are charged: a self-profiler cell and a provenance cause.
struct ReclaimAttribution {
  ProfSubsystem subsystem;
  ProfOp op;
  WriteCause cause;
  StackLayer layer;
};

class ZoneReclaimer {
 public:
  static constexpr std::uint32_t kNoZone = ~0U;

  // Zones below `first_data_zone` are never picked nor counted by FreeFraction. `stats` is the
  // layer's and must outlive the reclaimer.
  ZoneReclaimer(ZnsDevice* device, std::uint32_t first_data_zone, double max_live_fraction,
                std::uint32_t step_pages, const GcSchedulerConfig& sched,
                const ReclaimAttribution& attribution, ZoneReclaimStats* stats);
  ZoneReclaimer(const ZoneReclaimer&) = delete;  // The free-fraction series holds `this`.
  ZoneReclaimer& operator=(const ZoneReclaimer&) = delete;

  // Free pool, popped last-in first-out. PopFree drops offline or zero-capacity zones for
  // good and returns kNoZone once the pool is empty.
  void PushFree(ZoneId zone) { free_.push_back(zone.value()); }
  std::uint32_t PopFree();
  std::uint64_t FreeZones() const { return free_.size(); }
  double FreeFraction() const;
  bool Critical() const { return scheduler_.Critical(FreeFraction()); }
  // True if `frontier` names a zone with room for another page (kNoZone never has).
  bool Writable(std::uint32_t frontier) const;

  // Live pages per zone. NoteRelocated moves `pages` from the victim to `dst` and counts them.
  void AddLive(ZoneId zone, std::uint32_t pages) { live_[zone.value()] += pages; }
  void RemoveLive(ZoneId zone, std::uint32_t pages) {
    assert(live_[zone.value()] >= pages);
    live_[zone.value()] -= pages;
  }
  void NoteRelocated(ZoneId dst, std::uint32_t pages) {
    live_[victim_] -= pages;
    live_[dst.value()] += pages;
    stats_->gc_pages_copied += pages;
  }
  // Checks the data zones' counts against `expected`, recounted by the layer from its maps.
  Status CheckLive(std::span<const std::uint32_t> expected) const;

  // The victim being drained, or kNoZone.
  std::uint32_t victim() const { return victim_; }
  // The least-live full zone outside `frontiers` that is not fully live and, unless
  // `critical`, at most max_live_fraction live; the lowest id on a tie; else kNoZone.
  std::uint32_t PickVictim(bool critical, std::span<const std::uint32_t> frontiers) const;

  // One step: picks a victim if none is pending, relocates up to `max_pages` pages, and resets
  // the victim once drained. Fails if nothing is reclaimable.
  template <typename Layer>
  Result<SimTime> Step(Layer& layer, SimTime now, bool critical, std::uint32_t max_pages) {
    SelfProfiler::Scope prof(ProfilerOf(telemetry_), attribution_.subsystem, attribution_.op);
    WriteProvenance::CauseScope cause(ProvenanceOf(telemetry_), attribution_.cause,
                                      attribution_.layer);
    in_step_ = true;
    struct ClearOnExit {
      bool& flag;
      ~ClearOnExit() { flag = false; }
    } clear_in_step{in_step_};
    if (victim_ == kNoZone) {
      BLOCKHEAD_RETURN_IF_ERROR(StartVictim(layer.ReclaimFrontiers(now), now, critical));
      layer.BeginVictim(victim_);
    }
    const std::uint64_t copied_before = stats_->gc_pages_copied;
    Result<SimTime> moved = layer.RelocateStep(victim_, now, max_pages);
    if (!moved.ok()) {
      return moved;
    }
    if (telemetry_ != nullptr && stats_->gc_pages_copied > copied_before) {
      telemetry_->timeline.RecordMaintenance(gc_track_, "gc_step", now, moved.value());
    }
    if (!layer.VictimDrained()) {
      return moved;  // The victim resumes on the next step.
    }
    Result<SimTime> ready = layer.BeforeVictimReset(moved.value());
    return ready.ok() ? FinishVictim(now, ready.value()) : ready;
  }

  // Runs up to `max_cycles` steps of step_pages while a victim is pending or the scheduler
  // allows one. Returns steps run.
  template <typename Layer>
  std::uint32_t Pump(Layer& layer, SimTime now, bool reads_pending, std::uint32_t max_cycles) {
    std::uint32_t ran = 0;
    for (; ran < max_cycles; ++ran) {
      if (victim_ == kNoZone && !scheduler_.ShouldRun(FreeFraction(), reads_pending, now)) {
        break;
      }
      Result<SimTime> done = Step(layer, now, Critical(), step_pages_);
      if (!done.ok()) {
        break;
      }
      now = done.value();
    }
    return ran;
  }

  // Mandatory reclaim for a foreground op issued at `issue`: whole victims while space is
  // critical, counted as one forced stall and its SimTime. A no-op inside a step, whose
  // relocation may itself allocate zones.
  template <typename Layer>
  void ForceReclaim(Layer& layer, SimTime issue) {
    if (in_step_ || !Critical()) {
      return;
    }
    stats_->forced_gc_stalls++;
    SimTime t = issue;
    while (Critical()) {
      Result<SimTime> done = Step(layer, t, true, std::numeric_limits<std::uint32_t>::max());
      if (!done.ok()) {
        break;
      }
      t = done.value();
    }
    scheduler_.NoteForcedStall(t - issue);
  }

  // Attaches (nullptr detaches) scheduler windows as "<prefix>.sched" events and the
  // "<prefix>" sampler group with its "<prefix>.free_fraction" series; the layer adds its own
  // series to sampler_group().
  void AttachTelemetry(Telemetry* telemetry, std::string_view prefix);
  int sampler_group() const { return sampler_group_; }
  void PublishMetrics() const;  // Requires attached telemetry.

 private:
  Status StartVictim(std::span<const std::uint32_t> frontiers, SimTime now, bool critical);
  // Resets the drained victim at `t`; the cycle's last step began at `step_start`.
  Result<SimTime> FinishVictim(SimTime step_start, SimTime t);

  ZnsDevice* device_;
  std::uint32_t first_data_zone_;
  double max_live_fraction_;
  std::uint32_t step_pages_;
  ReclaimAttribution attribution_;
  ZoneReclaimStats* stats_;
  GcScheduler scheduler_;
  std::vector<std::uint32_t> live_;
  std::vector<std::uint32_t> free_;
  std::uint32_t victim_ = kNoZone;
  std::uint64_t cycle_copied_base_ = 0;  // gc_pages_copied when the victim was picked.
  bool in_step_ = false;

  Telemetry* telemetry_ = nullptr;
  std::string prefix_;
  std::string gc_track_;  // "<prefix>.gc".
  int sampler_group_ = -1;
};

}  // namespace blockhead

#endif  // BLOCKHEAD_SRC_SCHED_ZONE_RECLAIMER_H_
