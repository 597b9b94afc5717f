#include "src/zonefile/zone_file_system.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

namespace blockhead {

namespace {

constexpr std::uint32_t kMetaMagic = 0x5A464A31;  // "ZFJ1"
constexpr std::uint8_t kRecFile = 1;
constexpr std::uint8_t kRecDelete = 2;
constexpr std::uint8_t kRecCheckpoint = 3;
constexpr std::uint8_t kRecBatch = 4;  // Concatenated (type u8 | len u32 | payload) records.
// magic(4) + type(1) + seq(8) + total(4) + part(2) + parts(2) + payload_len(4)
constexpr std::uint32_t kMetaHeaderBytes = 25;

void PutU8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }
void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}
void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

// Bounds-checked little-endian reader.
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t U8() { return static_cast<std::uint8_t>(Bytes(1)); }
  std::uint16_t U16() { return static_cast<std::uint16_t>(Bytes(2)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(Bytes(4)); }
  std::uint64_t U64() { return Bytes(8); }

  std::string String(std::size_t len) {
    if (!ok_ || remaining() < len) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }

 private:
  std::uint64_t Bytes(int n) {
    if (!ok_ || remaining() < static_cast<std::size_t>(n)) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

const char* LifetimeName(Lifetime hint) {
  switch (hint) {
    case Lifetime::kNone:
      return "none";
    case Lifetime::kShort:
      return "short";
    case Lifetime::kMedium:
      return "medium";
    case Lifetime::kLong:
      return "long";
    case Lifetime::kExtreme:
      return "extreme";
  }
  return "unknown";
}

ZoneFileSystem::ZoneFileSystem(ZnsDevice* device, const ZoneFileConfig& config)
    : device_(device),
      config_(config),
      scheduler_(config.sched),
      page_size_(device->page_size()),
      zone_pages_(device->zone_size_pages()),
      frontier_(kLifetimeClasses, kNoZone),
      zone_live_pages_(device->num_zones(), 0) {}

Result<std::unique_ptr<ZoneFileSystem>> ZoneFileSystem::Format(ZnsDevice* device,
                                                               const ZoneFileConfig& config,
                                                               SimTime now) {
  if (device->num_zones() < 8) {
    return Status(ErrorCode::kInvalidArgument, "zonefile needs at least 8 zones");
  }
  auto fs = std::unique_ptr<ZoneFileSystem>(new ZoneFileSystem(device, config));
  // Wipe the device.
  for (std::uint32_t z = 0; z < device->num_zones(); ++z) {
    Result<SimTime> reset = device->ResetZone(ZoneId{z}, now);
    if (!reset.ok() && reset.code() != ErrorCode::kZoneOffline) {
      return reset.status();
    }
  }
  for (std::uint32_t z = device->num_zones(); z > kFirstDataZone; --z) {
    if (device->zone(ZoneId{z - 1}).state == ZoneState::kEmpty) {
      fs->free_zones_.push_back(z - 1);
    }
  }
  // Initial empty checkpoint so Mount always finds one.
  const std::vector<std::uint8_t> ckpt = fs->SerializeCheckpoint();
  Result<SimTime> written = fs->WriteMetaBlob(kRecCheckpoint, ckpt, now);
  if (!written.ok()) {
    return written.status();
  }
  return fs;
}

ZoneFileSystem::FileMeta* ZoneFileSystem::Find(std::string_view name) {
  auto it = names_.find(name);
  if (it == names_.end()) {
    return nullptr;
  }
  return &files_.at(it->second);
}

const ZoneFileSystem::FileMeta* ZoneFileSystem::Find(std::string_view name) const {
  auto it = names_.find(name);
  if (it == names_.end()) {
    return nullptr;
  }
  return &files_.at(it->second);
}

double ZoneFileSystem::FreeFraction() const {
  const std::uint32_t data_zones = device_->num_zones() - kFirstDataZone;
  return static_cast<double>(free_zones_.size()) / static_cast<double>(data_zones);
}

bool ZoneFileSystem::IsFrontier(std::uint32_t zone_index) const {
  return std::find(frontier_.begin(), frontier_.end(), zone_index) != frontier_.end();
}

Result<std::uint32_t> ZoneFileSystem::AllocateZone(SimTime now) {
  // Mandatory compaction when free zones are critically low (not while already compacting:
  // the spare reserve guarantees relocation targets).
  if (!in_gc_ && scheduler_.Critical(FreeFraction())) {
    SimTime t = now;
    while (scheduler_.Critical(FreeFraction())) {
      Result<SimTime> done = GcRunToCompletion(t, /*critical=*/true);
      if (!done.ok()) {
        break;
      }
      t = done.value();
    }
  }
  while (!free_zones_.empty()) {
    const std::uint32_t z = free_zones_.back();
    free_zones_.pop_back();
    const ZoneDescriptor d = device_->zone(ZoneId{z});
    if (d.state == ZoneState::kEmpty && d.capacity_pages > 0) {
      return z;
    }
  }
  return Status(ErrorCode::kNoFreeBlocks, "zonefile out of free zones");
}

Result<std::uint32_t> ZoneFileSystem::FrontierFor(Lifetime hint, SimTime now) {
  const std::size_t idx = static_cast<std::size_t>(hint);
  auto writable = [this](std::uint32_t zone_index) {
    const ZoneDescriptor d = device_->zone(ZoneId{zone_index});
    return d.state != ZoneState::kFull && d.state != ZoneState::kOffline &&
           d.write_pointer < d.capacity_pages;
  };
  if (frontier_[idx] != kNoZone) {
    if (writable(frontier_[idx])) {
      return frontier_[idx];
    }
    frontier_[idx] = kNoZone;
  }
  Result<std::uint32_t> z = AllocateZone(now);
  if (!z.ok()) {
    return z;
  }
  // AllocateZone may have run forced compaction, whose relocation path can itself install a
  // frontier for this class. Never overwrite a writable slot (that would orphan an open,
  // partially-written zone); hand the surplus zone back instead.
  if (frontier_[idx] != kNoZone && writable(frontier_[idx])) {
    free_zones_.push_back(z.value());
    return frontier_[idx];
  }
  frontier_[idx] = z.value();
  return frontier_[idx];
}

Result<SimTime> ZoneFileSystem::FlushTailPage(FileMeta& file, SimTime now, bool pad) {
  assert(pad ? !file.tail.empty() : file.tail.size() >= page_size_);
  const std::uint64_t bytes = pad ? file.tail.size() : page_size_;
  // A padded flush programs a full page for a partial tail: attribute it to kPadding (scope
  // is a no-op for the common full-page flush).
  WriteProvenance::CauseScope cause(pad ? ProvenanceOf(telemetry_) : nullptr,
                                    WriteCause::kPadding, StackLayer::kZoneFs);

  Result<std::uint32_t> frontier = FrontierFor(file.hint, now);
  if (!frontier.ok()) {
    return frontier.status();
  }
  const std::uint32_t zone = frontier.value();
  const ZoneDescriptor d = device_->zone(ZoneId{zone});
  const std::uint64_t dev_lba = (d.start_lba + d.write_pointer).value();

  std::vector<std::uint8_t> page(page_size_, 0);
  std::memcpy(page.data(), file.tail.data(), static_cast<std::size_t>(bytes));
  Result<SimTime> done = device_->Write(ZoneId{zone}, d.write_pointer, 1, now, page);
  if (!done.ok()) {
    return done;
  }
  file.tail.erase(file.tail.begin(), file.tail.begin() + static_cast<std::ptrdiff_t>(bytes));

  // Extend the previous extent when physically contiguous, hole-free, and within the same
  // zone (an extent crossing a zone boundary would break per-zone live accounting — adjacent
  // zones are adjacent in LBA space).
  const bool audit = audit_files_ != nullptr && audit_files_->armed();
  if (!file.extents.empty()) {
    Extent& last = file.extents.back();
    if (last.dev_lba + last.pages == dev_lba &&
        last.dev_lba / zone_pages_ == dev_lba / zone_pages_ &&
        last.bytes == static_cast<std::uint64_t>(last.pages) * page_size_) {
      const std::uint64_t pre = audit ? ExtentEntryHash(file.id, last) : 0;
      last.pages += 1;
      last.bytes += bytes;
      zone_live_pages_[zone]++;
      stats_.data_pages_flushed++;
      if (audit) {
        audit_files_->Replace(done.value(), pre, ExtentEntryHash(file.id, last));
      }
      return done;
    }
  }
  file.extents.push_back(Extent{dev_lba, 1, bytes});
  zone_live_pages_[zone]++;
  stats_.data_pages_flushed++;
  if (audit) {
    audit_files_->Insert(done.value(), ExtentEntryHash(file.id, file.extents.back()));
  }
  return done;
}

Result<SimTime> ZoneFileSystem::Create(std::string_view name, Lifetime hint, SimTime now) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kZoneFile, ProfOp::kOther);
  if (Find(name) != nullptr) {
    return ErrorCode::kAlreadyExists;
  }
  FileMeta file;
  file.id = next_file_id_++;
  file.name = std::string(name);
  file.hint = hint;
  const std::uint32_t id = file.id;
  names_.emplace(file.name, id);
  files_.emplace(id, std::move(file));
  stats_.files_created++;
  if (audit_files_ != nullptr && audit_files_->armed()) {
    audit_files_->Insert(now, FileEntryHash(files_.at(id)));
  }
  if (telemetry_ != nullptr) {
    telemetry_->events.Append(now, TimelineEventType::kFileLifecycle, metric_prefix_,
                              "create " + std::string(name), id);
  }
  return WriteMetaBlob(kRecFile, SerializeFileRecord(files_.at(id)), now);
}

Result<SimTime> ZoneFileSystem::Append(std::string_view name,
                                       std::span<const std::uint8_t> data, SimTime now) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kZoneFile, ProfOp::kAppend);
  FileMeta* file = Find(name);
  if (file == nullptr) {
    return ErrorCode::kNotFound;
  }
  Tracer::Span span;
  if (telemetry_ != nullptr) {
    span = telemetry_->tracer.Start(append_span_, now);
  }
  SimTime done = now;
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    const std::size_t want = page_size_ - file->tail.size();
    const std::size_t take = std::min(want, data.size() - consumed);
    file->tail.insert(file->tail.end(), data.begin() + static_cast<std::ptrdiff_t>(consumed),
                      data.begin() + static_cast<std::ptrdiff_t>(consumed + take));
    consumed += take;
    // Accounted incrementally so a failed flush leaves size == extents + tail (consistent).
    file->size += take;
    stats_.bytes_appended += take;
    if (provenance_ingress_ != nullptr) {
      *provenance_ingress_ += Bytes{take};
    }
    if (file->tail.size() >= page_size_) {
      Result<SimTime> flushed = FlushTailPage(*file, done, /*pad=*/false);
      if (!flushed.ok()) {
        return flushed;
      }
      done = flushed.value();
    }
  }
  if (telemetry_ != nullptr) {
    telemetry_->timeline.AdvanceGroup(sampler_group_, done);
  }
  span.End(done);
  return done;
}

Result<SimTime> ZoneFileSystem::Read(std::string_view name, std::uint64_t offset,
                                     std::span<std::uint8_t> out, SimTime now) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kZoneFile, ProfOp::kRead);
  const FileMeta* file = Find(name);
  if (file == nullptr) {
    return ErrorCode::kNotFound;
  }
  if (offset + out.size() > file->size) {
    return ErrorCode::kOutOfRange;
  }
  stats_.bytes_read += out.size();
  Tracer::Span span;
  if (telemetry_ != nullptr) {
    span = telemetry_->tracer.Start(read_span_, now);
  }

  SimTime done_all = now;
  std::uint64_t cur = offset;       // Position within the remaining extent walk.
  std::size_t out_pos = 0;
  std::vector<std::uint8_t> page(page_size_);
  for (const Extent& ext : file->extents) {
    if (out_pos == out.size()) {
      break;
    }
    if (cur >= ext.bytes) {
      cur -= ext.bytes;
      continue;
    }
    while (cur < ext.bytes && out_pos < out.size()) {
      const std::uint64_t page_index = cur / page_size_;
      const std::uint64_t byte_in_page = cur % page_size_;
      const std::uint64_t chunk = std::min<std::uint64_t>(
          {page_size_ - byte_in_page, ext.bytes - cur, out.size() - out_pos});
      Result<SimTime> done = device_->Read(Lba{ext.dev_lba + page_index}, 1, now, page);
      if (!done.ok()) {
        return done;
      }
      done_all = std::max(done_all, done.value());
      std::memcpy(out.data() + out_pos, page.data() + byte_in_page,
                  static_cast<std::size_t>(chunk));
      out_pos += static_cast<std::size_t>(chunk);
      cur += chunk;
    }
    cur = 0;
  }
  // Whatever remains lives in the in-memory tail.
  if (out_pos < out.size()) {
    const std::size_t chunk = out.size() - out_pos;
    assert(cur + chunk <= file->tail.size());
    std::memcpy(out.data() + out_pos, file->tail.data() + cur, chunk);
  }
  if (telemetry_ != nullptr) {
    telemetry_->timeline.AdvanceGroup(sampler_group_, done_all);
  }
  span.End(done_all);
  return done_all;
}

Result<SimTime> ZoneFileSystem::Sync(std::string_view name, SimTime now) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kZoneFile, ProfOp::kFlush);
  FileMeta* file = Find(name);
  if (file == nullptr) {
    return ErrorCode::kNotFound;
  }
  SimTime t = now;
  if (!file->tail.empty()) {
    Result<SimTime> flushed = FlushTailPage(*file, t, /*pad=*/true);
    if (!flushed.ok()) {
      return flushed;
    }
    t = flushed.value();
  }
  {
    const bool audit = audit_files_ != nullptr && audit_files_->armed();
    const std::uint64_t pre = audit ? FileEntryHash(*file) : 0;
    file->synced_size = file->size;
    if (audit) {
      audit_files_->Replace(t, pre, FileEntryHash(*file));
    }
  }
  if (telemetry_ != nullptr) {
    telemetry_->events.Append(t, TimelineEventType::kFileLifecycle, metric_prefix_,
                              "seal " + std::string(name), file->id, file->size);
  }
  // ZenFS-style early finish: a nearly-full frontier is sealed at file boundaries so the next
  // file gets a fresh zone (see ZoneFileConfig::finish_remainder_pages).
  if (config_.finish_remainder_pages > 0) {
    std::uint32_t& frontier = frontier_[static_cast<std::size_t>(file->hint)];
    if (frontier != kNoZone) {
      const ZoneDescriptor d = device_->zone(ZoneId{frontier});
      if (d.state != ZoneState::kFull && d.state != ZoneState::kOffline &&
          d.write_pointer > 0 &&
          d.capacity_pages - d.write_pointer <= config_.finish_remainder_pages) {
        Result<SimTime> finished = device_->FinishZone(ZoneId{frontier}, t);
        if (finished.ok()) {
          t = finished.value();
        }
        frontier = kNoZone;
      }
    }
  }
  return WriteMetaBlob(kRecFile, SerializeFileRecord(*file), t);
}

Result<SimTime> ZoneFileSystem::Delete(std::string_view name, SimTime now) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_), ProfSubsystem::kZoneFile, ProfOp::kOther);
  FileMeta* file = Find(name);
  if (file == nullptr) {
    return ErrorCode::kNotFound;
  }
  const bool audit = audit_files_ != nullptr && audit_files_->armed();
  for (const Extent& ext : file->extents) {
    const std::uint32_t zone = static_cast<std::uint32_t>(ext.dev_lba / zone_pages_);
    assert(zone_live_pages_[zone] >= ext.pages);
    zone_live_pages_[zone] -= ext.pages;
    if (audit) {
      audit_files_->Remove(now, ExtentEntryHash(file->id, ext));
    }
  }
  if (audit) {
    audit_files_->Remove(now, FileEntryHash(*file));
  }
  std::vector<std::uint8_t> blob;
  PutU32(blob, file->id);
  const std::uint32_t id = file->id;
  names_.erase(file->name);
  files_.erase(id);
  stats_.files_deleted++;
  if (telemetry_ != nullptr) {
    telemetry_->events.Append(now, TimelineEventType::kFileLifecycle, metric_prefix_,
                              "delete " + std::string(name), id);
  }
  return WriteMetaBlob(kRecDelete, blob, now);
}

bool ZoneFileSystem::Exists(std::string_view name) const { return Find(name) != nullptr; }

Result<std::uint64_t> ZoneFileSystem::FileSize(std::string_view name) const {
  const FileMeta* file = Find(name);
  if (file == nullptr) {
    return ErrorCode::kNotFound;
  }
  return file->size;
}

Result<Lifetime> ZoneFileSystem::FileHint(std::string_view name) const {
  const FileMeta* file = Find(name);
  if (file == nullptr) {
    return ErrorCode::kNotFound;
  }
  return file->hint;
}

std::vector<std::string> ZoneFileSystem::ListFiles() const {
  std::vector<std::string> out;
  out.reserve(names_.size());
  for (const auto& [name, id] : names_) {
    out.push_back(name);
  }
  return out;
}

std::uint32_t ZoneFileSystem::PickVictim(bool critical) const {
  std::uint32_t best = kNoZone;
  std::uint32_t best_live = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t z = kFirstDataZone; z < device_->num_zones(); ++z) {
    if (IsFrontier(z)) {
      continue;
    }
    const ZoneDescriptor d = device_->zone(ZoneId{z});
    if (d.state != ZoneState::kFull) {
      continue;
    }
    if (zone_live_pages_[z] >= d.capacity_pages) {
      continue;  // Fully live: compacting it reclaims nothing.
    }
    if (!critical &&
        static_cast<double>(zone_live_pages_[z]) >
            config_.gc_max_live_fraction * static_cast<double>(d.capacity_pages)) {
      continue;  // Too live for opportunistic compaction to pay off.
    }
    if (zone_live_pages_[z] < best_live) {
      best_live = zone_live_pages_[z];
      best = z;
    }
  }
  return best;
}

Status ZoneFileSystem::StartGcVictim(SimTime now, bool critical) {
  // Frontier slots are cleared lazily on the write path; do it here too so sealed zones are
  // eligible victims even when their lifetime class has gone quiet.
  for (std::uint32_t& frontier : frontier_) {
    if (frontier == kNoZone) {
      continue;
    }
    const ZoneState s = device_->zone(ZoneId{frontier}).state;
    if (s == ZoneState::kFull || s == ZoneState::kOffline) {
      frontier = kNoZone;
    }
  }
  // Defensive sweep: any open/closed data zone that is not a current frontier is a stray
  // (e.g. after a crash-recovery mount). Seal it so its dead space becomes reclaimable.
  for (std::uint32_t z = kFirstDataZone; z < device_->num_zones(); ++z) {
    const ZoneState s = device_->zone(ZoneId{z}).state;
    if ((s == ZoneState::kImplicitOpen || s == ZoneState::kExplicitOpen ||
         s == ZoneState::kClosed) &&
        !IsFrontier(z)) {
      (void)device_->FinishZone(ZoneId{z}, now);
    }
  }
  const std::uint32_t victim = PickVictim(critical);
  if (victim == kNoZone) {
    return Status(ErrorCode::kNoFreeBlocks, "no reclaimable zone");
  }
  gc_.victim = victim;
  gc_.items.clear();
  gc_.next = 0;
  gc_.touched_files.clear();
  if (telemetry_ != nullptr) {
    gc_cycle_copied_base_ = stats_.gc_pages_copied;
    telemetry_->events.Append(now, TimelineEventType::kGcVictim, metric_prefix_,
                              "victim zone " + std::to_string(victim) + " live " +
                                  std::to_string(zone_live_pages_[victim]) +
                                  (critical ? " critical" : ""),
                              victim, zone_live_pages_[victim]);
  }
  const ZoneDescriptor vd = device_->zone(ZoneId{victim});
  for (const auto& [id, file] : files_) {
    for (const Extent& ext : file.extents) {
      if (ext.dev_lba >= vd.start_lba.value() &&
          ext.dev_lba < vd.start_lba.value() + vd.capacity_pages) {
        gc_.items.push_back(GcWorkItem{id, ext.dev_lba, ext.pages, ext.bytes});
      }
    }
  }
  return Status::Ok();
}

Result<SimTime> ZoneFileSystem::GcStep(SimTime now, bool critical, std::uint32_t max_pages) {
  SelfProfiler::Scope prof_scope(ProfilerOf(telemetry_),
                                 ProfSubsystem::kZoneFile, ProfOp::kCompaction);
  // Relocation writes, the compaction batch journal, and the victim reset are filesystem
  // zone-compaction work, not application data.
  WriteProvenance::CauseScope cause(ProvenanceOf(telemetry_), WriteCause::kZoneCompaction,
                                    StackLayer::kZoneFs);
  if (gc_.victim == kNoZone) {
    BLOCKHEAD_RETURN_IF_ERROR(StartGcVictim(now, critical));
  }
  in_gc_ = true;
  SimTime t = now;
  std::uint32_t budget = max_pages;
  const std::uint64_t copied_before_step = stats_.gc_pages_copied;
  std::vector<std::uint8_t> page(page_size_);

  while (budget > 0 && gc_.next < gc_.items.size()) {
    GcWorkItem& item = gc_.items[gc_.next];
    auto file_it = files_.find(item.file_id);
    if (file_it == files_.end()) {
      gc_.next++;  // Deleted mid-compaction; its live pages were already released.
      continue;
    }
    FileMeta& file = file_it->second;
    // Locate the (possibly already split) extent this item tracks.
    std::size_t idx = 0;
    for (; idx < file.extents.size(); ++idx) {
      if (file.extents[idx].dev_lba == item.dev_lba && file.extents[idx].pages == item.pages) {
        break;
      }
    }
    if (idx == file.extents.size()) {
      gc_.next++;
      continue;
    }

    Result<std::uint32_t> fz = FrontierFor(file.hint, t);
    if (!fz.ok()) {
      in_gc_ = false;
      return fz.status();
    }
    const std::uint32_t dst_zone = fz.value();
    const ZoneDescriptor dd = device_->zone(ZoneId{dst_zone});
    const std::uint32_t room = static_cast<std::uint32_t>(dd.capacity_pages - dd.write_pointer);
    const std::uint32_t chunk = std::min({item.pages, room, budget});
    const std::uint64_t dst_lba = (dd.start_lba + dd.write_pointer).value();
    const std::uint64_t src_lba = item.dev_lba;
    if (config_.use_simple_copy) {
      const CopyRange range{Lba{src_lba}, chunk};
      Result<SimTime> done =
          device_->SimpleCopy(std::span<const CopyRange>(&range, 1), ZoneId{dst_zone}, t);
      if (!done.ok()) {
        in_gc_ = false;
        return done;
      }
      t = std::max(t, done.value());
    } else {
      for (std::uint32_t p = 0; p < chunk; ++p) {
        Result<SimTime> r = device_->Read(Lba{src_lba + p}, 1, t, page);
        if (!r.ok()) {
          in_gc_ = false;
          return r;
        }
        const ZoneDescriptor cur = device_->zone(ZoneId{dst_zone});
        Result<SimTime> w = device_->Write(ZoneId{dst_zone}, cur.write_pointer, 1, r.value(), page);
        if (!w.ok()) {
          in_gc_ = false;
          return w;
        }
        t = std::max(t, w.value());
      }
    }
    const std::uint64_t chunk_bytes = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(chunk) * page_size_, item.bytes);
    // Splice the relocated chunk (and any remainder) in place of the tracked extent.
    const bool audit = audit_files_ != nullptr && audit_files_->armed();
    const std::uint64_t pre = audit ? ExtentEntryHash(file.id, file.extents[idx]) : 0;
    file.extents[idx] = Extent{dst_lba, chunk, chunk_bytes};
    if (chunk < item.pages) {
      file.extents.insert(file.extents.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
                          Extent{item.dev_lba + chunk, item.pages - chunk,
                                 item.bytes - chunk_bytes});
      if (audit) {
        audit_files_->Insert(t, ExtentEntryHash(file.id, file.extents[idx + 1]));
      }
    }
    if (audit) {
      audit_files_->Replace(t, pre, ExtentEntryHash(file.id, file.extents[idx]));
    }
    zone_live_pages_[dst_zone] += chunk;
    zone_live_pages_[gc_.victim] -= chunk;
    stats_.gc_pages_copied += chunk;
    budget -= chunk;
    if (std::find(gc_.touched_files.begin(), gc_.touched_files.end(), item.file_id) ==
        gc_.touched_files.end()) {
      gc_.touched_files.push_back(item.file_id);
    }
    if (chunk == item.pages) {
      gc_.next++;
    } else {
      item.dev_lba += chunk;
      item.pages -= chunk;
      item.bytes -= chunk_bytes;
    }
  }

  if (telemetry_ != nullptr && stats_.gc_pages_copied > copied_before_step) {
    telemetry_->timeline.RecordMaintenance(metric_prefix_ + ".gc", "gc_step", now, t);
  }

  if (gc_.next < gc_.items.size()) {
    in_gc_ = false;
    return t;  // More steps needed; the victim resumes on the next call.
  }

  // Victim drained: journal the rewritten extent maps (one batched blob) before destroying
  // the old copies, then reset.
  assert(zone_live_pages_[gc_.victim] == 0);
  if (!gc_.touched_files.empty()) {
    std::vector<std::uint8_t> batch;
    for (const std::uint32_t id : gc_.touched_files) {
      auto it = files_.find(id);
      if (it == files_.end()) {
        continue;
      }
      const std::vector<std::uint8_t> rec = SerializeFileRecord(it->second);
      PutU8(batch, kRecFile);
      PutU32(batch, static_cast<std::uint32_t>(rec.size()));
      batch.insert(batch.end(), rec.begin(), rec.end());
    }
    Result<SimTime> logged = WriteMetaBlob(kRecBatch, batch, t);
    if (!logged.ok()) {
      in_gc_ = false;
      return logged;
    }
    t = logged.value();
  }
  Result<SimTime> reset = device_->ResetZone(ZoneId{gc_.victim}, t);
  if (!reset.ok()) {
    in_gc_ = false;
    return reset;
  }
  t = reset.value();
  if (device_->zone(ZoneId{gc_.victim}).state != ZoneState::kOffline) {
    free_zones_.push_back(gc_.victim);
  }
  stats_.gc_cycles++;
  stats_.zones_reclaimed++;
  scheduler_.NoteRun(now);
  if (telemetry_ != nullptr) {
    telemetry_->events.Append(
        t, TimelineEventType::kGcCycle, metric_prefix_,
        "cycle done zone " + std::to_string(gc_.victim) + " copied " +
            std::to_string(stats_.gc_pages_copied - gc_cycle_copied_base_),
        gc_.victim, stats_.gc_pages_copied - gc_cycle_copied_base_);
    telemetry_->timeline.AdvanceGroup(sampler_group_, t);
  }
  gc_.victim = kNoZone;
  gc_.items.clear();
  gc_.touched_files.clear();
  in_gc_ = false;
  return t;
}

Result<SimTime> ZoneFileSystem::GcRunToCompletion(SimTime now, bool critical) {
  return GcStep(now, critical, std::numeric_limits<std::uint32_t>::max());
}

std::uint32_t ZoneFileSystem::Pump(SimTime now, bool reads_pending, std::uint32_t max_cycles) {
  std::uint32_t ran = 0;
  while (ran < max_cycles) {
    const bool pending = gc_.victim != kNoZone;
    if (!pending && !scheduler_.ShouldRun(FreeFraction(), reads_pending, now)) {
      break;
    }
    Result<SimTime> done =
        GcStep(now, scheduler_.Critical(FreeFraction()), config_.gc_step_pages);
    if (!done.ok()) {
      break;
    }
    now = done.value();
    ++ran;
  }
  return ran;
}

ZoneFileSystem::~ZoneFileSystem() { AttachTelemetry(nullptr); }

void ZoneFileSystem::AttachTelemetry(Telemetry* telemetry, std::string_view prefix) {
  if (telemetry_ != nullptr) {
    PublishMetrics();
    telemetry_->registry.RemoveProvider(metric_prefix_);
    telemetry_->timeline.RemoveSamplerGroup(metric_prefix_);
    scheduler_.AttachEvents(nullptr, "");
    sampler_group_ = -1;
  }
  telemetry_ = telemetry;
  metric_prefix_ = std::string(prefix);
  if (telemetry_ == nullptr) {
    provenance_ingress_ = nullptr;
    audit_files_ = nullptr;
    append_span_ = nullptr;
    read_span_ = nullptr;
    return;
  }
  append_span_ = telemetry_->tracer.Intern(metric_prefix_ + ".append");
  read_span_ = telemetry_->tracer.Intern(metric_prefix_ + ".read");
  telemetry_->registry.AddProvider(metric_prefix_, [this] { PublishMetrics(); });
  audit_files_ = telemetry_->audit.Register(metric_prefix_ + ".extents");
  provenance_ingress_ = telemetry_->provenance.RegisterDomain(metric_prefix_);
  scheduler_.AttachEvents(&telemetry_->events, metric_prefix_ + ".sched");
  sampler_group_ = telemetry_->timeline.AddSamplerGroup(metric_prefix_);
  telemetry_->timeline.AddSampler(sampler_group_, metric_prefix_ + ".free_fraction",
                                  Timeline::SampleKind::kInstant,
                                  [this](SimTime) { return FreeFraction(); });
  telemetry_->timeline.AddSampler(sampler_group_, metric_prefix_ + ".write_amplification",
                                  Timeline::SampleKind::kInstant,
                                  [this](SimTime) { return EndToEndWriteAmplification(); });
}

void ZoneFileSystem::PublishMetrics() {
  MetricRegistry& reg = telemetry_->registry;
  const std::string& p = metric_prefix_;
  reg.GetCounter(p + ".bytes_appended")->Set(stats_.bytes_appended);
  reg.GetCounter(p + ".bytes_read")->Set(stats_.bytes_read);
  reg.GetCounter(p + ".data_pages_flushed")->Set(stats_.data_pages_flushed);
  reg.GetCounter(p + ".meta_pages_written")->Set(stats_.meta_pages_written);
  reg.GetCounter(p + ".checkpoints")->Set(stats_.checkpoints);
  reg.GetCounter(p + ".files_created")->Set(stats_.files_created);
  reg.GetCounter(p + ".files_deleted")->Set(stats_.files_deleted);
  reg.GetCounter(p + ".gc.cycles")->Set(stats_.gc_cycles);
  reg.GetCounter(p + ".gc.pages_copied")->Set(stats_.gc_pages_copied);
  reg.GetCounter(p + ".gc.zones_reclaimed")->Set(stats_.zones_reclaimed);
  const GcSchedStats& sched = scheduler_.stats();
  reg.GetCounter(p + ".sched.decisions")->Set(sched.decisions);
  reg.GetCounter(p + ".sched.allowed")->Set(sched.allowed);
  reg.GetCounter(p + ".sched.critical_overrides")->Set(sched.critical_overrides);
  reg.GetCounter(p + ".sched.denied")->Set(sched.denied);
  reg.GetCounter(p + ".sched.runs")->Set(sched.runs);
  reg.GetGauge(p + ".free_zones")->Set(static_cast<double>(FreeZones()));
  reg.GetGauge(p + ".free_fraction")->Set(FreeFraction());
  reg.GetGauge(p + ".write_amplification")->Set(EndToEndWriteAmplification());
}

double ZoneFileSystem::EndToEndWriteAmplification() const {
  if (stats_.bytes_appended == 0) {
    return 1.0;
  }
  const std::uint64_t physical_bytes =
      device_->flash().stats().total_pages_programmed() * static_cast<std::uint64_t>(page_size_);
  return static_cast<double>(physical_bytes) / static_cast<double>(stats_.bytes_appended);
}

// --- Metadata journal ---

std::vector<std::uint8_t> ZoneFileSystem::SerializeFileRecord(const FileMeta& file) const {
  std::vector<std::uint8_t> blob;
  PutU32(blob, file.id);
  PutU8(blob, static_cast<std::uint8_t>(file.hint));
  PutU16(blob, static_cast<std::uint16_t>(file.name.size()));
  blob.insert(blob.end(), file.name.begin(), file.name.end());
  PutU64(blob, file.synced_size);
  PutU32(blob, static_cast<std::uint32_t>(file.extents.size()));
  for (const Extent& ext : file.extents) {
    PutU64(blob, ext.dev_lba);
    PutU32(blob, ext.pages);
    PutU64(blob, ext.bytes);
  }
  return blob;
}

std::vector<std::uint8_t> ZoneFileSystem::SerializeCheckpoint() const {
  std::vector<std::uint8_t> blob;
  PutU32(blob, next_file_id_);
  PutU32(blob, static_cast<std::uint32_t>(files_.size()));
  for (const auto& [id, file] : files_) {
    const std::vector<std::uint8_t> rec = SerializeFileRecord(file);
    PutU32(blob, static_cast<std::uint32_t>(rec.size()));
    blob.insert(blob.end(), rec.begin(), rec.end());
  }
  return blob;
}

Status ZoneFileSystem::ApplyRecord(std::uint8_t type, std::span<const std::uint8_t> payload) {
  Cursor c(payload);
  if (type == kRecBatch) {
    while (c.ok() && c.remaining() > 0) {
      const std::uint8_t sub_type = c.U8();
      const std::uint32_t len = c.U32();
      const std::string sub = c.String(len);
      if (!c.ok()) {
        return Status(ErrorCode::kCorruption, "bad batch record");
      }
      BLOCKHEAD_RETURN_IF_ERROR(ApplyRecord(
          sub_type, std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(sub.data()), sub.size())));
    }
    return c.ok() ? Status::Ok() : Status(ErrorCode::kCorruption, "bad batch record");
  }
  if (type == kRecDelete) {
    const std::uint32_t id = c.U32();
    if (!c.ok()) {
      return Status(ErrorCode::kCorruption, "bad delete record");
    }
    auto it = files_.find(id);
    if (it != files_.end()) {
      names_.erase(it->second.name);
      files_.erase(it);
    }
    return Status::Ok();
  }
  if (type != kRecFile) {
    return Status(ErrorCode::kCorruption, "unknown record type");
  }
  FileMeta file;
  file.id = c.U32();
  file.hint = static_cast<Lifetime>(c.U8());
  const std::uint16_t name_len = c.U16();
  file.name = c.String(name_len);
  file.synced_size = c.U64();
  file.size = file.synced_size;  // Unsynced tail data is lost by definition.
  const std::uint32_t extent_count = c.U32();
  for (std::uint32_t i = 0; i < extent_count && c.ok(); ++i) {
    Extent ext;
    ext.dev_lba = c.U64();
    ext.pages = c.U32();
    ext.bytes = c.U64();
    file.extents.push_back(ext);
  }
  if (!c.ok()) {
    return Status(ErrorCode::kCorruption, "bad file record");
  }
  // Zone compaction journals the full extent map, which may cover data appended after the
  // last Sync; on replay only the synced prefix survives (the crash rolled the rest back), so
  // trim the extents to synced_size. Pages beyond the trim become orphans for GC.
  std::uint64_t acc = 0;
  std::size_t keep = 0;
  for (; keep < file.extents.size() && acc < file.synced_size; ++keep) {
    Extent& ext = file.extents[keep];
    if (acc + ext.bytes > file.synced_size) {
      ext.bytes = file.synced_size - acc;
      ext.pages = static_cast<std::uint32_t>((ext.bytes + page_size_ - 1) / page_size_);
    }
    acc += ext.bytes;
  }
  file.extents.resize(keep);
  // Replace any earlier version of this file.
  auto it = files_.find(file.id);
  if (it != files_.end()) {
    names_.erase(it->second.name);
    files_.erase(it);
  }
  const std::uint32_t id = file.id;
  names_[file.name] = id;
  next_file_id_ = std::max(next_file_id_, id + 1);
  files_.emplace(id, std::move(file));
  return Status::Ok();
}

Result<SimTime> ZoneFileSystem::WriteMetaBlob(std::uint8_t type,
                                              std::span<const std::uint8_t> blob, SimTime now) {
  const std::uint32_t payload_cap = page_size_ - kMetaHeaderBytes;
  const std::uint32_t parts =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(
                                     (blob.size() + payload_cap - 1) / payload_cap));

  // Swap meta zones (writing a fresh checkpoint) if this blob would not fit.
  const ZoneDescriptor md = device_->zone(ZoneId{meta_zone_});
  if (type != kRecCheckpoint && md.write_pointer + parts > md.capacity_pages) {
    Result<SimTime> swapped = WriteCheckpointAndSwap(now);
    if (!swapped.ok()) {
      return swapped;
    }
    now = swapped.value();
  }

  SimTime t = now;
  std::vector<std::uint8_t> page(page_size_, 0);
  for (std::uint32_t part = 0; part < parts; ++part) {
    const std::size_t off = static_cast<std::size_t>(part) * payload_cap;
    const std::uint32_t len =
        static_cast<std::uint32_t>(std::min<std::size_t>(payload_cap, blob.size() - off));
    std::vector<std::uint8_t> header;
    header.reserve(kMetaHeaderBytes);
    PutU32(header, kMetaMagic);
    PutU8(header, type);
    PutU64(header, meta_seq_++);
    PutU32(header, static_cast<std::uint32_t>(blob.size()));
    PutU16(header, static_cast<std::uint16_t>(part));
    PutU16(header, static_cast<std::uint16_t>(parts));
    PutU32(header, len);
    std::fill(page.begin(), page.end(), 0);
    std::memcpy(page.data(), header.data(), header.size());
    if (len > 0) {
      std::memcpy(page.data() + kMetaHeaderBytes, blob.data() + off, len);
    }
    const ZoneDescriptor d = device_->zone(ZoneId{meta_zone_});
    if (d.write_pointer >= d.capacity_pages) {
      return Status(ErrorCode::kNoFreeBlocks, "metadata zone overflow");
    }
    Result<SimTime> done = device_->Write(ZoneId{meta_zone_}, d.write_pointer, 1, t, page);
    if (!done.ok()) {
      return done;
    }
    t = done.value();
    stats_.meta_pages_written++;
  }
  return t;
}

Result<SimTime> ZoneFileSystem::WriteCheckpointAndSwap(SimTime now) {
  const std::uint32_t old_zone = meta_zone_;
  const std::uint32_t new_zone = (meta_zone_ == kMetaZoneA) ? kMetaZoneB : kMetaZoneA;
  // The target must be clean.
  Result<SimTime> reset = device_->ResetZone(ZoneId{new_zone}, now);
  if (!reset.ok()) {
    return reset;
  }
  meta_zone_ = new_zone;
  Result<SimTime> written = WriteMetaBlob(kRecCheckpoint, SerializeCheckpoint(), reset.value());
  if (!written.ok()) {
    meta_zone_ = old_zone;
    return written;
  }
  stats_.checkpoints++;
  // Only after the new checkpoint is durable can the old journal be destroyed.
  return device_->ResetZone(ZoneId{old_zone}, written.value());
}

Status ZoneFileSystem::LoadFromZone(std::uint32_t meta_zone, SimTime now) {
  const ZoneDescriptor d = device_->zone(ZoneId{meta_zone});
  std::vector<std::uint8_t> page(page_size_);
  std::vector<std::uint8_t> blob;
  std::uint8_t blob_type = 0;
  std::uint32_t blob_total = 0;
  std::uint16_t expected_part = 0;
  bool saw_checkpoint = false;

  for (std::uint64_t p = 0; p < d.write_pointer; ++p) {
    Result<SimTime> r = device_->Read(Lba{d.start_lba + p}, 1, now, page);
    if (!r.ok()) {
      return r.status();
    }
    Cursor c(page);
    const std::uint32_t magic = c.U32();
    const std::uint8_t type = c.U8();
    (void)c.U64();  // seq
    const std::uint32_t total = c.U32();
    const std::uint16_t part = c.U16();
    const std::uint16_t parts = c.U16();
    const std::uint32_t len = c.U32();
    if (magic != kMetaMagic || !c.ok() || len > page_size_ - kMetaHeaderBytes) {
      break;  // Torn or unwritten page: stop replay here.
    }
    if (part != expected_part || (part > 0 && (type != blob_type || total != blob_total))) {
      break;  // Interrupted multi-part blob.
    }
    if (part == 0) {
      blob.clear();
      blob_type = type;
      blob_total = total;
    }
    blob.insert(blob.end(), page.begin() + kMetaHeaderBytes,
                page.begin() + kMetaHeaderBytes + len);
    if (part + 1 < parts) {
      expected_part = static_cast<std::uint16_t>(part + 1);
      continue;
    }
    expected_part = 0;
    if (blob.size() != blob_total) {
      break;
    }
    // A complete blob: apply it.
    if (blob_type == kRecCheckpoint) {
      Cursor ck(blob);
      next_file_id_ = ck.U32();
      const std::uint32_t count = ck.U32();
      for (std::uint32_t i = 0; i < count && ck.ok(); ++i) {
        const std::uint32_t rec_len = ck.U32();
        const std::string rec = ck.String(rec_len);
        BLOCKHEAD_RETURN_IF_ERROR(ApplyRecord(
            kRecFile, std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(rec.data()), rec.size())));
      }
      if (!ck.ok()) {
        return Status(ErrorCode::kCorruption, "bad checkpoint");
      }
      saw_checkpoint = true;
    } else {
      BLOCKHEAD_RETURN_IF_ERROR(ApplyRecord(blob_type, blob));
    }
  }
  if (!saw_checkpoint) {
    return Status(ErrorCode::kNotFound, "no checkpoint in metadata zone");
  }
  return Status::Ok();
}

Result<std::unique_ptr<ZoneFileSystem>> ZoneFileSystem::Mount(ZnsDevice* device,
                                                              const ZoneFileConfig& config,
                                                              SimTime now) {
  auto fs = std::unique_ptr<ZoneFileSystem>(new ZoneFileSystem(device, config));

  // Pick the metadata zone whose first page carries the newest checkpoint.
  std::uint64_t best_seq = 0;
  std::uint32_t chosen = kNoZone;
  std::vector<std::uint8_t> page(fs->page_size_);
  for (const std::uint32_t z : {kMetaZoneA, kMetaZoneB}) {
    if (device->zone(ZoneId{z}).write_pointer == 0) {
      continue;
    }
    Result<SimTime> r = device->Read(Lba{device->zone(ZoneId{z}).start_lba}, 1, now, page);
    if (!r.ok()) {
      continue;
    }
    Cursor c(page);
    const std::uint32_t magic = c.U32();
    const std::uint8_t type = c.U8();
    const std::uint64_t seq = c.U64();
    if (magic != kMetaMagic || type != kRecCheckpoint) {
      continue;
    }
    if (chosen == kNoZone || seq >= best_seq) {
      best_seq = seq;
      chosen = z;
    }
  }
  if (chosen == kNoZone) {
    return Status(ErrorCode::kNotFound, "device is not zonefile-formatted");
  }
  BLOCKHEAD_RETURN_IF_ERROR(fs->LoadFromZone(chosen, now));
  fs->meta_zone_ = chosen;
  fs->meta_seq_ = best_seq + device->zone(ZoneId{chosen}).write_pointer + 1;

  // Discard the stale metadata zone (possibly left over from a crash mid-swap).
  const std::uint32_t other = (chosen == kMetaZoneA) ? kMetaZoneB : kMetaZoneA;
  if (device->zone(ZoneId{other}).write_pointer > 0) {
    Result<SimTime> reset = device->ResetZone(ZoneId{other}, now);
    if (!reset.ok() && reset.code() != ErrorCode::kZoneOffline) {
      return reset.status();
    }
  }

  // Rebuild zone accounting and recover data zones: empty -> free; partially written (lost
  // frontiers) -> sealed so GC can reclaim the orphaned pages.
  for (const auto& [id, file] : fs->files_) {
    for (const Extent& ext : file.extents) {
      fs->zone_live_pages_[ext.dev_lba / fs->zone_pages_] += ext.pages;
    }
  }
  for (std::uint32_t z = device->num_zones(); z > kFirstDataZone; --z) {
    const std::uint32_t zone = z - 1;
    const ZoneDescriptor d = device->zone(ZoneId{zone});
    switch (d.state) {
      case ZoneState::kEmpty:
        fs->free_zones_.push_back(zone);
        break;
      case ZoneState::kImplicitOpen:
      case ZoneState::kExplicitOpen:
      case ZoneState::kClosed: {
        if (d.write_pointer == 0) {
          Result<SimTime> reset = device->ResetZone(ZoneId{zone}, now);
          if (reset.ok()) {
            fs->free_zones_.push_back(zone);
          }
        } else {
          (void)device->FinishZone(ZoneId{zone}, now);
        }
        break;
      }
      default:
        break;
    }
  }
  return fs;
}

Status ZoneFileSystem::CheckConsistency() const {
  std::vector<std::uint32_t> live(device_->num_zones(), 0);
  for (const auto& [id, file] : files_) {
    std::uint64_t extent_bytes = 0;
    for (const Extent& ext : file.extents) {
      const std::uint64_t zone = ext.dev_lba / zone_pages_;
      if (zone < kFirstDataZone || zone >= device_->num_zones()) {
        return Status(ErrorCode::kCorruption, "extent outside data zones");
      }
      if (ext.bytes > static_cast<std::uint64_t>(ext.pages) * page_size_) {
        return Status(ErrorCode::kCorruption, "extent bytes exceed pages");
      }
      live[zone] += ext.pages;
      extent_bytes += ext.bytes;
    }
    if (extent_bytes + file.tail.size() != file.size) {
      return Status(ErrorCode::kCorruption, "file size mismatch");
    }
  }
  for (std::uint32_t z = kFirstDataZone; z < device_->num_zones(); ++z) {
    if (live[z] != zone_live_pages_[z]) {
      return Status(ErrorCode::kCorruption, "zone live-page counter drift");
    }
  }
  return Status::Ok();
}

}  // namespace blockhead
