#include "src/sched/zone_reclaimer.h"

#include <algorithm>

namespace blockhead {

ZoneReclaimer::ZoneReclaimer(ZnsDevice* device, std::uint32_t first_data_zone,
                             double max_live_fraction, std::uint32_t step_pages,
                             const GcSchedulerConfig& sched,
                             const ReclaimAttribution& attribution, ZoneReclaimStats* stats)
    : device_(device),
      first_data_zone_(first_data_zone),
      max_live_fraction_(max_live_fraction),
      step_pages_(step_pages),
      attribution_(attribution),
      stats_(stats),
      scheduler_(sched),
      live_(device->num_zones(), 0) {}

std::uint32_t ZoneReclaimer::PopFree() {
  while (!free_.empty()) {
    const std::uint32_t zone = free_.back();
    free_.pop_back();
    const ZoneDescriptor d = device_->zone(ZoneId{zone});
    if (d.state != ZoneState::kOffline && d.capacity_pages > 0) {
      return zone;
    }
  }
  return kNoZone;
}

bool ZoneReclaimer::Writable(std::uint32_t frontier) const {
  if (frontier == kNoZone) {
    return false;
  }
  const ZoneDescriptor d = device_->zone(ZoneId{frontier});
  return d.state != ZoneState::kFull && d.state != ZoneState::kOffline &&
         d.write_pointer < d.capacity_pages;
}

double ZoneReclaimer::FreeFraction() const {
  return static_cast<double>(free_.size()) /
         static_cast<double>(device_->num_zones() - first_data_zone_);
}

Status ZoneReclaimer::CheckLive(std::span<const std::uint32_t> expected) const {
  return std::equal(live_.begin() + first_data_zone_, live_.end(),
                    expected.begin() + first_data_zone_)
             ? Status::Ok()
             : Status(ErrorCode::kCorruption, "zone live-page counter drift");
}

std::uint32_t ZoneReclaimer::PickVictim(bool critical,
                                        std::span<const std::uint32_t> frontiers) const {
  std::uint32_t best = kNoZone;
  std::uint32_t best_live = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t z = first_data_zone_; z < device_->num_zones(); ++z) {
    if (std::find(frontiers.begin(), frontiers.end(), z) != frontiers.end()) {
      continue;
    }
    const ZoneDescriptor d = device_->zone(ZoneId{z});
    if (d.state != ZoneState::kFull || live_[z] >= d.capacity_pages) {
      continue;  // Open, or fully live: reclaiming it frees nothing.
    }
    if (!critical && static_cast<double>(live_[z]) >
                         max_live_fraction_ * static_cast<double>(d.capacity_pages)) {
      continue;  // Too live for opportunistic reclaim to pay off.
    }
    if (live_[z] < best_live) {
      best_live = live_[z];
      best = z;
    }
  }
  return best;
}

Status ZoneReclaimer::StartVictim(std::span<const std::uint32_t> frontiers, SimTime now,
                                  bool critical) {
  const std::uint32_t victim = PickVictim(critical, frontiers);
  if (victim == kNoZone) {
    return Status(ErrorCode::kNoFreeBlocks, "no reclaimable zone");
  }
  victim_ = victim;
  cycle_copied_base_ = stats_->gc_pages_copied;
  if (telemetry_ != nullptr) {
    telemetry_->events.Append(now, TimelineEventType::kGcVictim, prefix_,
                              "victim zone " + std::to_string(victim) + " live " +
                                  std::to_string(live_[victim]) + (critical ? " critical" : ""),
                              victim, live_[victim]);
  }
  return Status::Ok();
}

Result<SimTime> ZoneReclaimer::FinishVictim(SimTime step_start, SimTime t) {
  assert(live_[victim_] == 0);
  Result<SimTime> reset = device_->ResetZone(ZoneId{victim_}, t);
  if (!reset.ok()) {
    return reset;
  }
  if (device_->zone(ZoneId{victim_}).state != ZoneState::kOffline) {
    free_.push_back(victim_);
  }
  stats_->gc_cycles++;
  stats_->zones_reclaimed++;
  scheduler_.NoteRun(step_start);
  if (telemetry_ != nullptr) {
    const std::uint64_t copied = stats_->gc_pages_copied - cycle_copied_base_;
    telemetry_->events.Append(
        reset.value(), TimelineEventType::kGcCycle, prefix_,
        "cycle done zone " + std::to_string(victim_) + " copied " + std::to_string(copied),
        victim_, copied);
    telemetry_->timeline.AdvanceGroup(sampler_group_, reset.value());
  }
  victim_ = kNoZone;
  return reset;
}

void ZoneReclaimer::AttachTelemetry(Telemetry* telemetry, std::string_view prefix) {
  if (telemetry_ != nullptr) {
    telemetry_->timeline.RemoveSamplerGroup(prefix_);
    scheduler_.AttachEvents(nullptr, "");
    sampler_group_ = -1;
  }
  telemetry_ = telemetry;
  prefix_ = std::string(prefix);
  gc_track_ = prefix_ + ".gc";
  if (telemetry_ != nullptr) {
    scheduler_.AttachEvents(&telemetry_->events, prefix_ + ".sched");
    sampler_group_ = telemetry_->timeline.AddSamplerGroup(prefix_);
    telemetry_->timeline.AddSampler(sampler_group_, prefix_ + ".free_fraction",
                                    Timeline::SampleKind::kInstant,
                                    [this](SimTime) { return FreeFraction(); });
  }
}

void ZoneReclaimer::PublishMetrics() const {
  MetricRegistry& reg = telemetry_->registry;
  const std::string& p = prefix_;
  reg.GetCounter(p + ".gc.cycles")->Set(stats_->gc_cycles);
  reg.GetCounter(p + ".gc.pages_copied")->Set(stats_->gc_pages_copied);
  reg.GetCounter(p + ".gc.zones_reclaimed")->Set(stats_->zones_reclaimed);
  reg.GetCounter(p + ".gc.forced_stalls")->Set(stats_->forced_gc_stalls);
  const GcSchedStats& sched = scheduler_.stats();
  reg.GetCounter(p + ".sched.decisions")->Set(sched.decisions);
  reg.GetCounter(p + ".sched.allowed")->Set(sched.allowed);
  reg.GetCounter(p + ".sched.critical_overrides")->Set(sched.critical_overrides);
  reg.GetCounter(p + ".sched.denied")->Set(sched.denied);
  reg.GetCounter(p + ".sched.runs")->Set(sched.runs);
  reg.GetCounter(p + ".sched.forced_stall_ns")->Set(sched.forced_stall_ns);
  reg.GetGauge(p + ".free_zones")->Set(static_cast<double>(FreeZones()));
  reg.GetGauge(p + ".free_fraction")->Set(FreeFraction());
}

}  // namespace blockhead
