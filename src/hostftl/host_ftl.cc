#include "src/hostftl/host_ftl.h"

#include <algorithm>
#include <cstring>

namespace blockhead {

namespace {

// Exported capacity: physical pages less the op_fraction spare, always holding back at least
// three zones (host frontier, relocation frontier, one spare).
std::uint64_t LogicalPages(std::uint64_t physical_pages, std::uint64_t zone_pages, double op) {
  const auto op_pages = static_cast<std::uint64_t>(static_cast<double>(physical_pages) /
                                                   (1.0 + std::max(0.0, op)));
  return std::min(op_pages, physical_pages - 3 * zone_pages);
}

// A background watermark above the steady-state free fraction would make reclamation run
// perpetually against mostly-live zones; clamp it below the spare fraction.
GcSchedulerConfig ClampToSpare(GcSchedulerConfig sched, double spare_fraction) {
  sched.low_free_fraction = std::min(sched.low_free_fraction, 0.6 * spare_fraction);
  sched.critical_free_fraction =
      std::min(sched.critical_free_fraction, 0.5 * sched.low_free_fraction);
  return sched;
}

}  // namespace

HostFtlBlockDevice::HostFtlBlockDevice(ZnsDevice* device, const HostFtlConfig& config)
    : device_(device),
      config_(config),
      zone_pages_(device->zone_size_pages()),
      logical_pages_(LogicalPages(device->num_zones() * zone_pages_, zone_pages_,
                                  config.op_fraction)),
      l2p_(logical_pages_, kUnmapped),
      d2l_(device->num_zones() * zone_pages_, kUnmapped),
      reclaimer_(device, /*first_data_zone=*/0, config.gc_max_live_fraction,
                 config.gc_step_pages,
                 ClampToSpare(config.sched, 1.0 - static_cast<double>(logical_pages_) /
                                                      static_cast<double>(d2l_.size())),
                 ReclaimAttribution{ProfSubsystem::kHostFtl, ProfOp::kGc,
                                    WriteCause::kBlockEmulationReclaim, StackLayer::kHostFtl},
                 &stats_) {
  // Pop order is back-first; keep low-numbered zones first out for readability.
  for (std::uint32_t z = device_->num_zones(); z > 0; --z) {
    reclaimer_.PushFree(ZoneId{z - 1});
  }
}

void HostFtlBlockDevice::InvalidatePage(std::uint64_t lpn, SimTime now) {
  const std::uint64_t old = l2p_[lpn];
  if (old == kUnmapped) {
    return;
  }
  reclaimer_.RemoveLive(ZoneId{static_cast<std::uint32_t>(old / zone_pages_)}, 1);
  d2l_[old] = kUnmapped;
  l2p_[lpn] = kUnmapped;
  if (audit_l2p_ != nullptr && audit_l2p_->armed()) {
    audit_l2p_->Remove(now, L2pEntryHash(lpn, old));
  }
}

Status HostFtlBlockDevice::EnsureFrontier(Frontier which) {
  std::uint32_t& frontier = frontier_[which];
  if (!reclaimer_.Writable(frontier)) {
    frontier = reclaimer_.PopFree();  // Sealed or unusable; pick a new one.
  }
  return frontier == kNoZone ? Status(ErrorCode::kNoFreeBlocks, "host FTL out of free zones")
                             : Status::Ok();
}

Result<SimTime> HostFtlBlockDevice::AppendPage(std::uint64_t lpn, SimTime issue,
                                               std::span<const std::uint8_t> data) {
  BLOCKHEAD_RETURN_IF_ERROR(EnsureFrontier(kHostWrites));
  const std::uint32_t zone = frontier_[kHostWrites];
  const ZoneDescriptor d = device_->zone(ZoneId{zone});
  std::uint64_t dev_lba = (d.start_lba + d.write_pointer).value();
  SimTime done = 0;
  if (config_.use_append) {
    Result<AppendResult> r = device_->Append(ZoneId{zone}, 1, issue, data);
    if (!r.ok()) {
      return r.status();
    }
    dev_lba = r->assigned_lba.value();
    done = r->completion;
  } else {
    Result<SimTime> r = device_->Write(ZoneId{zone}, d.write_pointer, 1, issue, data);
    if (!r.ok()) {
      return r;
    }
    done = r.value();
  }
  InvalidatePage(lpn, done);
  l2p_[lpn] = dev_lba;
  d2l_[dev_lba] = lpn;
  reclaimer_.AddLive(ZoneId{static_cast<std::uint32_t>(dev_lba / zone_pages_)}, 1);
  if (audit_l2p_ != nullptr && audit_l2p_->armed()) {
    audit_l2p_->Insert(done, L2pEntryHash(lpn, dev_lba));
  }
  return done;
}

Result<SimTime> HostFtlBlockDevice::RelocateStep(std::uint32_t victim, SimTime now,
                                                 std::uint32_t max_pages) {
  const ZoneDescriptor vd = device_->zone(ZoneId{victim});
  const std::uint32_t page_size = device_->page_size();
  SimTime t = now;
  std::uint32_t moved = 0;

  while (gc_offset_ < vd.capacity_pages && moved < max_pages) {
    if (d2l_[(vd.start_lba + gc_offset_).value()] == kUnmapped) {
      gc_offset_++;
      continue;
    }
    // Relocate a contiguous live run in one ranged operation: contiguous device LBAs stripe
    // across planes, so the copy pipelines instead of paying a full read+program round trip
    // per page.
    BLOCKHEAD_RETURN_IF_ERROR(EnsureFrontier(kGcCopies));
    const std::uint32_t dst_zone = frontier_[kGcCopies];
    const ZoneDescriptor rd = device_->zone(ZoneId{dst_zone});
    std::uint32_t run = 1;
    while (gc_offset_ + run < vd.capacity_pages && moved + run < max_pages &&
           run < rd.capacity_pages - rd.write_pointer &&
           d2l_[(vd.start_lba + gc_offset_ + run).value()] != kUnmapped) {
      ++run;
    }
    const std::uint64_t src = (vd.start_lba + gc_offset_).value();
    const std::uint64_t dst = (rd.start_lba + rd.write_pointer).value();
    if (config_.use_simple_copy) {
      // Device-internal copy: no host-bus traffic (§2.3).
      const CopyRange range{Lba{src}, run};
      Result<SimTime> done =
          device_->SimpleCopy(std::span<const CopyRange>(&range, 1), ZoneId{dst_zone}, t);
      if (!done.ok()) {
        return done;
      }
      t = std::max(t, done.value());
    } else {
      // Host read + host write: the copy crosses PCIe twice.
      std::vector<std::uint8_t> buf(static_cast<std::size_t>(run) * page_size);
      Result<SimTime> r = device_->Read(Lba{src}, run, t, buf);
      if (!r.ok()) {
        return r;
      }
      Result<SimTime> w =
          device_->Write(ZoneId{dst_zone}, rd.write_pointer, run, r.value(), buf);
      if (!w.ok()) {
        return w;
      }
      t = std::max(t, w.value());
      stats_.gc_host_bus_bytes += 2ULL * run * page_size;
    }
    const bool audit = audit_l2p_ != nullptr && audit_l2p_->armed();
    for (std::uint32_t p = 0; p < run; ++p) {
      const std::uint64_t lpn = d2l_[src + p];
      l2p_[lpn] = dst + p;
      d2l_[dst + p] = lpn;
      d2l_[src + p] = kUnmapped;
      if (audit) {
        audit_l2p_->Replace(t, L2pEntryHash(lpn, src + p), L2pEntryHash(lpn, dst + p));
      }
    }
    reclaimer_.NoteRelocated(ZoneId{dst_zone}, run);
    gc_offset_ += run;
    moved += run;
  }
  return t;
}

std::uint32_t HostFtlBlockDevice::Pump(SimTime now, bool reads_pending,
                                       std::uint32_t max_cycles) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_),
                                 ProfSubsystem::kHostFtl, ProfOp::kMaintenance);
  return reclaimer_.Pump(*this, now, reads_pending, max_cycles);
}

Result<SimTime> HostFtlBlockDevice::WriteBlocks(Lba lba, std::uint32_t count, SimTime issue,
                                                std::span<const std::uint8_t> data) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kHostFtl, ProfOp::kWrite);
  if (lba.value() + count > logical_pages_) {
    return ErrorCode::kOutOfRange;
  }
  const std::uint32_t page_size = device_->page_size();
  if (!data.empty() && data.size() != static_cast<std::size_t>(count) * page_size) {
    return ErrorCode::kInvalidArgument;
  }
  // The write's span, and the request-path measurement unless internal work (a CauseScope)
  // or an outer layer already owns it.
  RequestPathLedger::RequestScope req_scope(
      ReqPathOf(telemetry_), write_span_, RequestContext{0, ReqOp::kWrite}, issue,
      /*own_request=*/telemetry_ != nullptr && telemetry_->provenance.open_scopes() == 0);
  SimTime ack = issue;
  for (std::uint32_t i = 0; i < count; ++i) {
    // Mandatory reclamation when space is critical; the triggering write absorbs the delay,
    // exactly like foreground GC inside a conventional SSD — except here it is host policy.
    if (reclaimer_.Critical()) {
      // The reclaim's own device ops run as host-class commands inside this write's critical
      // path: reclassify their charges as a compaction stall inflicted by zone reclaim.
      RequestPathLedger::InterferenceScope stall_scope(
          ReqPathOf(telemetry_), WriteCause::kBlockEmulationReclaim, StackLayer::kHostFtl,
          metric_prefix_ + ".gc");
      reclaimer_.ForceReclaim(*this, issue);
    }
    std::span<const std::uint8_t> page_data;
    if (!data.empty()) {
      page_data = data.subspan(static_cast<std::size_t>(i) * page_size, page_size);
    }
    Result<SimTime> done = AppendPage(lba.value() + i, issue, page_data);
    if (!done.ok()) {
      return done;
    }
    stats_.host_pages_written++;
    if (provenance_ingress_ != nullptr) {
      *provenance_ingress_ += Bytes{page_size};
    }
    ack = std::max(ack, done.value());
  }
  if (telemetry_ != nullptr) {
    telemetry_->timeline.AdvanceGroup(reclaimer_.sampler_group(), ack);
  }
  req_scope.Complete(ack);
  return ack;
}

Result<SimTime> HostFtlBlockDevice::ReadBlocks(Lba lba, std::uint32_t count, SimTime issue,
                                               std::span<std::uint8_t> out) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kHostFtl, ProfOp::kRead);
  if (lba.value() + count > logical_pages_) {
    return ErrorCode::kOutOfRange;
  }
  const std::uint32_t page_size = device_->page_size();
  if (!out.empty() && out.size() != static_cast<std::size_t>(count) * page_size) {
    return ErrorCode::kInvalidArgument;
  }
  RequestPathLedger::RequestScope req_scope(
      ReqPathOf(telemetry_), read_span_, RequestContext{0, ReqOp::kRead}, issue,
      /*own_request=*/telemetry_ != nullptr && telemetry_->provenance.open_scopes() == 0);
  SimTime done_all = issue;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::span<std::uint8_t> page_out;
    if (!out.empty()) {
      page_out = out.subspan(static_cast<std::size_t>(i) * page_size, page_size);
    }
    stats_.host_pages_read++;
    const std::uint64_t dev_lba = l2p_[lba.value() + i];
    if (dev_lba == kUnmapped) {
      // Unmapped logical page: the host FTL itself serves zeros.
      if (!page_out.empty()) {
        std::memset(page_out.data(), 0, page_out.size());
      }
      continue;
    }
    Result<SimTime> done = device_->Read(Lba{dev_lba}, 1, issue, page_out);
    if (!done.ok()) {
      return done;
    }
    done_all = std::max(done_all, done.value());
  }
  if (telemetry_ != nullptr) {
    telemetry_->timeline.AdvanceGroup(reclaimer_.sampler_group(), done_all);
  }
  req_scope.Complete(done_all);
  return done_all;
}

Result<SimTime> HostFtlBlockDevice::TrimBlocks(Lba lba, std::uint32_t count, SimTime issue) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kHostFtl, ProfOp::kOther);
  if (lba.value() + count > logical_pages_) {
    return ErrorCode::kOutOfRange;
  }
  RequestPathLedger::RequestScope req_scope(
      telemetry_ != nullptr && telemetry_->provenance.open_scopes() == 0
          ? &telemetry_->reqpath
          : nullptr,
      RequestContext{0, ReqOp::kTrim}, issue);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (l2p_[lba.value() + i] != kUnmapped) {
      InvalidatePage(lba.value() + i, issue);
      stats_.pages_trimmed++;
    }
  }
  req_scope.Complete(issue);
  return issue;
}

HostFtlBlockDevice::~HostFtlBlockDevice() { AttachTelemetry(nullptr); }

void HostFtlBlockDevice::AttachTelemetry(Telemetry* telemetry, std::string_view prefix) {
  if (telemetry_ != nullptr) {
    PublishMetrics();
    telemetry_->registry.RemoveProvider(metric_prefix_);
    reclaimer_.AttachTelemetry(nullptr, "");
  }
  telemetry_ = telemetry;
  metric_prefix_ = std::string(prefix);
  if (telemetry_ == nullptr) {
    provenance_ingress_ = nullptr;
    audit_l2p_ = nullptr;
    read_span_ = nullptr;
    write_span_ = nullptr;
    return;
  }
  read_span_ = telemetry_->reqpath.InternSpan(metric_prefix_ + ".read");
  write_span_ = telemetry_->reqpath.InternSpan(metric_prefix_ + ".write");
  telemetry_->registry.AddProvider(metric_prefix_, [this] { PublishMetrics(); });
  audit_l2p_ = telemetry_->audit.Register(metric_prefix_ + ".l2p");
  provenance_ingress_ = telemetry_->provenance.RegisterDomain(metric_prefix_);
  reclaimer_.AttachTelemetry(telemetry_, metric_prefix_);
  telemetry_->timeline.AddSampler(reclaimer_.sampler_group(),
                                  metric_prefix_ + ".write_amplification",
                                  Timeline::SampleKind::kInstant,
                                  [this](SimTime) { return EndToEndWriteAmplification(); });
}

void HostFtlBlockDevice::PublishMetrics() {
  MetricRegistry& reg = telemetry_->registry;
  const std::string& p = metric_prefix_;
  reg.GetCounter(p + ".host_pages_written")->Set(stats_.host_pages_written);
  reg.GetCounter(p + ".host_pages_read")->Set(stats_.host_pages_read);
  reg.GetCounter(p + ".pages_trimmed")->Set(stats_.pages_trimmed);
  reg.GetCounter(p + ".gc.host_bus_bytes")->Set(stats_.gc_host_bus_bytes);
  reclaimer_.PublishMetrics();
  reg.GetGauge(p + ".write_amplification")->Set(EndToEndWriteAmplification());
  reg.GetGauge(p + ".host_mapping_bytes")->Set(static_cast<double>(HostMappingBytes()));
}

double HostFtlBlockDevice::EndToEndWriteAmplification() const {
  if (stats_.host_pages_written == 0) {
    return 1.0;
  }
  return static_cast<double>(device_->flash().stats().total_pages_programmed()) /
         static_cast<double>(stats_.host_pages_written);
}

std::uint64_t HostFtlBlockDevice::HostMappingBytes() const {
  // 4 B per forward entry + 4 B per reverse entry (paper's per-entry model, now in host DRAM).
  return logical_pages_ * 4 + d2l_.size() * 4;
}

Status HostFtlBlockDevice::CheckConsistency() const {
  for (std::uint64_t lpn = 0; lpn < logical_pages_; ++lpn) {
    const std::uint64_t dev_lba = l2p_[lpn];
    if (dev_lba == kUnmapped) {
      continue;
    }
    if (dev_lba >= d2l_.size() || d2l_[dev_lba] != lpn) {
      return Status(ErrorCode::kCorruption, "l2p/d2l mismatch");
    }
  }
  std::vector<std::uint32_t> live(device_->num_zones(), 0);
  for (std::uint64_t dev_lba = 0; dev_lba < d2l_.size(); ++dev_lba) {
    if (d2l_[dev_lba] != kUnmapped) {
      live[dev_lba / zone_pages_]++;
    }
  }
  return reclaimer_.CheckLive(live);
}

}  // namespace blockhead
