#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>

#include "src/core/matched_pair.h"
#include "src/fleet/fleet.h"
#include "src/hostftl/host_ftl.h"
#include "src/kv/env.h"
#include "src/kv/kv_store.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"
#include "src/workload/workload.h"
#include "src/zonefile/zone_file_system.h"

namespace blockhead::perfbench {

namespace {

// ----- Closed loop and outcome bookkeeping ----------------------------------------------------

// Queue-depth-4 closed loop: a request issues at the completion of the oldest outstanding one.
// The issue clock never runs backwards (the fleet driver's form of RunClosedLoop's rule).
class ClosedLoop {
 public:
  explicit ClosedLoop(SimTime start) : clock_(start), end_(start) {}

  SimTime NextIssue() {
    if (outstanding_.size() >= kQueueDepth) {
      clock_ = std::max(clock_, outstanding_.front());
      outstanding_.pop_front();
    }
    return clock_;
  }
  void Complete(SimTime completion) {
    outstanding_.push_back(completion);
    end_ = std::max(end_, completion);
  }
  SimTime end() const { return end_; }

 private:
  std::deque<SimTime> outstanding_;
  SimTime clock_;
  SimTime end_;
};

void NoteError(SimOutcome& out, const std::string& what) {
  if (out.errors == 0) {
    out.first_error = what;
  }
  out.errors++;
}

void NoteLatency(SimOutcome& out, bool read, SimTime issue, SimTime completion) {
  const SimTime latency = completion > issue ? completion - issue : 0;
  (read ? out.read_latency : out.write_latency).push_back(latency);
}

// ----- Layer counts ---------------------------------------------------------------------------

// Raw cumulative counters by "<layer>.<name>"; the published counts are deltas over the
// measured phase, derived in LayerCounts.
using Totals = std::map<std::string, double>;

void AddFlash(Totals& t, const FlashStats& s) {
  t["flash.host_pages_programmed"] += static_cast<double>(s.host_pages_programmed);
  t["flash.internal_pages_programmed"] += static_cast<double>(s.internal_pages_programmed);
  t["flash.blocks_erased"] += static_cast<double>(s.blocks_erased);
  t["flash.host_bus_bytes"] += static_cast<double>(s.host_bus_bytes);
}

void AddFtl(Totals& t, const FtlStats& s) {
  t["ftl.host_pages_written"] += static_cast<double>(s.host_pages_written);
  t["ftl.gc_runs"] += static_cast<double>(s.gc_runs);
  t["ftl.gc_pages_copied"] += static_cast<double>(s.gc_pages_copied);
  t["ftl.gc_blocks_reclaimed"] += static_cast<double>(s.gc_blocks_reclaimed);
  t["ftl.foreground_gc_stalls"] += static_cast<double>(s.foreground_gc_stalls);
}

void AddHostFtl(Totals& t, const HostFtlStats& s) {
  t["hostftl.host_pages_written"] += static_cast<double>(s.host_pages_written);
  t["hostftl.gc_cycles"] += static_cast<double>(s.gc_cycles);
  t["hostftl.gc_pages_copied"] += static_cast<double>(s.gc_pages_copied);
  t["hostftl.zones_reclaimed"] += static_cast<double>(s.zones_reclaimed);
  t["hostftl.forced_gc_stalls"] += static_cast<double>(s.forced_gc_stalls);
  t["hostftl.gc_host_bus_bytes"] += static_cast<double>(s.gc_host_bus_bytes);
}

void AddZns(Totals& t, const ZnsStats& s) {
  t["zns.pages_copied"] += static_cast<double>(s.pages_copied);
  t["zns.zone_resets"] += static_cast<double>(s.zone_resets);
  t["zns.active_limit_rejections"] += static_cast<double>(s.active_limit_rejections);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

Totals Delta(const Totals& after, const Totals& before) {
  Totals d = after;
  for (const auto& [name, value] : before) {
    d[name] -= value;
  }
  return d;
}

// The published per-layer counts, in a fixed order; layers a workload does not use read 0.
std::vector<LayerCount> LayerCounts(const Totals& d, double page_size) {
  auto get = [&d](const char* name) {
    const auto it = d.find(name);
    return it == d.end() ? 0.0 : it->second;
  };
  const double flash_total =
      get("flash.host_pages_programmed") + get("flash.internal_pages_programmed");
  std::vector<LayerCount> counts;
  for (const char* name :
       {"flash.host_pages_programmed", "flash.internal_pages_programmed", "flash.blocks_erased",
        "ftl.gc_runs", "ftl.gc_pages_copied", "ftl.gc_blocks_reclaimed",
        "ftl.foreground_gc_stalls", "hostftl.gc_cycles", "hostftl.gc_pages_copied",
        "hostftl.zones_reclaimed", "hostftl.forced_gc_stalls", "zns.pages_copied",
        "zns.zone_resets", "zns.active_limit_rejections", "zonefile.gc_cycles",
        "zonefile.gc_pages_copied", "zonefile.meta_pages_written", "kv.flushes",
        "kv.compactions", "kv.stall_events", "fleet.migrations_completed",
        "fleet.migration_pages_copied"}) {
    counts.push_back({name, get(name), "count"});
  }
  for (const char* name :
       {"flash.host_bus_bytes", "hostftl.gc_host_bus_bytes", "kv.bytes_compacted"}) {
    counts.push_back({name, get(name), "bytes"});
  }
  counts.push_back({"ftl.copies_per_reclaimed_block",
                    Ratio(get("ftl.gc_pages_copied"), get("ftl.gc_blocks_reclaimed")), "ratio"});
  counts.push_back({"zonefile.write_amp",
                    Ratio(flash_total, get("zonefile.bytes_appended") / page_size), "ratio"});
  counts.push_back(
      {"kv.bloom_skips_per_get", Ratio(get("kv.bloom_skips"), get("kv.gets")), "ratio"});
  counts.push_back({"kv.write_amp",
                    Ratio(get("kv.bytes_flushed") + get("kv.bytes_compacted"),
                          get("kv.user_bytes_written")),
                    "ratio"});
  counts.push_back(
      {"fleet.shed_ratio", Ratio(get("fleet.sheds"), get("fleet.requests")), "ratio"});
  counts.push_back({"fleet.replication_factor",
                    Ratio(get("fleet.device_host_pages"), get("fleet.app_pages_written")),
                    "ratio"});
  return counts;
}

// ----- Block workloads: conv_randrw and zns_hostftl_randrw ------------------------------------

constexpr double kBlockReadFraction = 0.7;
constexpr std::uint32_t kPumpInterval = 16;  // RunClosedLoop's default maintenance interval.

struct BlockScale {
  double warmup_factor;     // Random 4 KiB warm-up writes, as a multiple of logical pages.
  std::uint64_t requests;   // Measured-phase requests.
};

BlockScale BlockScaleFor(bool smoke) {
  return smoke ? BlockScale{0.5, 4000} : BlockScale{0.5, 500000};
}

MatchedConfig BlockDeviceConfig(bool smoke) {
  MatchedConfig cfg = MatchedConfig::Bench();  // 2 GiB TLC, payloads not stored.
  if (smoke) {
    cfg.flash.geometry = FlashGeometry::Small();
  }
  return cfg;
}

// Shared driver for the two block stacks: the same seeded 70/30 uniform 4 KiB stream at QD 4.
// Subclasses supply the device, its span names and its optional maintenance pump.
class BlockWorkload : public Workload {
 public:
  Status Setup() override {
    Status built = Build();
    if (!built.ok()) {
      return built;
    }
    BlockDevice& dev = device();
    Result<SimTime> fill = SequentialFill(dev, 1.0, 0);
    if (!fill.ok()) {
      return fill.status();
    }
    // Warm-up: random overwrites until GC has run its first cycles and WA has levelled off.
    Rng rng(options_.seed ^ 0x5eedf11ULL);
    ClosedLoop loop(fill.value());
    const auto writes = static_cast<std::uint64_t>(scale_.warmup_factor *
                                                   static_cast<double>(dev.num_blocks()));
    for (std::uint64_t i = 0; i < writes; ++i) {
      const SimTime issue = loop.NextIssue();
      if (i % kPumpInterval == 0) {
        Pump(nullptr, issue, false);
      }
      Result<SimTime> done = dev.WriteBlocks(Lba{rng.NextBelow(dev.num_blocks())}, 1, issue);
      if (!done.ok()) {
        return done.status();
      }
      loop.Complete(done.value());
    }
    start_ = loop.end() + 10 * kMillisecond;
    return Status::Ok();
  }

  void Run(SpanRecorder* rec, PhaseMeter& meter, SimOutcome& out) override {
    BlockDevice& dev = device();
    before_ = Snapshot();
    Rng rng(options_.seed);
    ClosedLoop loop(start_);
    const std::uint64_t space = dev.num_blocks();
    out.read_latency.reserve(scale_.requests);
    out.write_latency.reserve(scale_.requests);
    out.sim_begin = start_;
    for (std::uint64_t i = 0; i < scale_.requests; ++i) {
      meter.AtRequest(i);
      if (rec != nullptr) {
        rec->BeginRequest();
      }
      const SimTime issue = loop.NextIssue();
      const bool read = rng.NextDouble() < kBlockReadFraction;
      std::uint64_t lba = rng.NextBelow(space);
      if (options_.fault == Fault::kDeviceError && i == scale_.requests / 2) {
        lba = space;  // One past the last logical page.
      }
      if (i % kPumpInterval == 0) {
        Pump(rec, issue, read);
      }
      const Result<SimTime> done =
          read ? Traced(rec, read_span_, issue,
                        [&] { return dev.ReadBlocks(Lba{lba}, 1, issue); })
               : Traced(rec, write_span_, issue,
                        [&] { return dev.WriteBlocks(Lba{lba}, 1, issue); });
      out.requests++;
      if (!done.ok()) {
        NoteError(out, done.status().ToString());
        loop.Complete(issue);
        continue;
      }
      NoteLatency(out, read, issue, done.value());
      loop.Complete(done.value());
    }
    meter.Finish();
    out.sim_end = loop.end();
  }

  void Finish(SimOutcome& out) override {
    const Status consistent = CheckConsistency();
    if (!consistent.ok()) {
      NoteError(out, "consistency: " + consistent.ToString());
    }
    const Totals d = Delta(Snapshot(), before_);
    const double host_pages = d.count("ftl.host_pages_written") != 0
                                  ? d.at("ftl.host_pages_written")
                                  : d.at("hostftl.host_pages_written");
    out.write_amp = Ratio(
        d.at("flash.host_pages_programmed") + d.at("flash.internal_pages_programmed"), host_pages);
    out.counts = LayerCounts(d, device().block_size());
  }

 protected:
  BlockWorkload(const WorkloadOptions& options, SpanName read_span, SpanName write_span)
      : options_(options),
        scale_(BlockScaleFor(options.smoke)),
        read_span_(read_span),
        write_span_(write_span) {}

  virtual Status Build() = 0;
  virtual BlockDevice& device() = 0;
  virtual void Pump(SpanRecorder* rec, SimTime now, bool reads_pending) = 0;
  virtual Status CheckConsistency() const = 0;
  virtual Totals Snapshot() const = 0;

  WorkloadOptions options_;

 private:
  BlockScale scale_;
  SpanName read_span_ = SpanName::kFtlRead;
  SpanName write_span_ = SpanName::kFtlWrite;
  SimTime start_ = 0;
  Totals before_;
};

// conv_randrw: ConventionalSsd, 7% OP, greedy GC, telemetry attached as the repo's benches
// attach it when run without flags.
class ConvRandRw final : public BlockWorkload {
 public:
  explicit ConvRandRw(const WorkloadOptions& options)
      : BlockWorkload(options, SpanName::kFtlRead, SpanName::kFtlWrite) {}

 private:
  Status Build() override {
    MatchedConfig cfg = BlockDeviceConfig(options_.smoke);
    cfg.ftl.op_fraction = 0.07;
    cfg.ftl.victim_policy = GcVictimPolicy::kGreedy;
    ssd_ = std::make_unique<ConventionalSsd>(cfg.flash, cfg.ftl);
    if (options_.telemetry) {
      ssd_->AttachTelemetry(&telemetry_, "conv");
    }
    return Status::Ok();
  }
  BlockDevice& device() override { return *ssd_; }
  void Pump(SpanRecorder*, SimTime, bool) override {}  // GC runs inside the device.
  Status CheckConsistency() const override { return ssd_->CheckConsistency(); }
  Totals Snapshot() const override {
    Totals t;
    AddFlash(t, ssd_->flash().stats());
    AddFtl(t, ssd_->ftl_stats());
    return t;
  }

  Telemetry telemetry_;  // Declared before ssd_: the device unhooks from it on destruction.
  std::unique_ptr<ConventionalSsd> ssd_;
};

// zns_hostftl_randrw: the same stream on the E13 block-on-ZNS stack (20% OP, simple copy).
class ZnsHostFtlRandRw final : public BlockWorkload {
 public:
  explicit ZnsHostFtlRandRw(const WorkloadOptions& options)
      : BlockWorkload(options, SpanName::kHostFtlRead, SpanName::kHostFtlWrite) {}

 private:
  Status Build() override {
    MatchedConfig cfg = BlockDeviceConfig(options_.smoke);
    cfg.zns.zone_write_buffer_pages = 64;  // E13: equal buffering with the conventional SSD.
    zns_ = std::make_unique<ZnsDevice>(cfg.flash, cfg.zns);
    HostFtlConfig hcfg;
    hcfg.op_fraction = 0.20;
    hcfg.use_simple_copy = true;
    ftl_ = std::make_unique<HostFtlBlockDevice>(zns_.get(), hcfg);
    return Status::Ok();
  }
  BlockDevice& device() override { return *ftl_; }
  void Pump(SpanRecorder* rec, SimTime now, bool reads_pending) override {
    Traced(rec, SpanName::kHostFtlPump, now, [&] { return ftl_->Pump(now, reads_pending, 1); });
  }
  Status CheckConsistency() const override { return ftl_->CheckConsistency(); }
  Totals Snapshot() const override {
    Totals t;
    AddFlash(t, zns_->flash().stats());
    AddZns(t, zns_->stats());
    AddHostFtl(t, ftl_->stats());
    return t;
  }

  std::unique_ptr<ZnsDevice> zns_;
  std::unique_ptr<HostFtlBlockDevice> ftl_;  // Declared after zns_: destroyed first.
};

// ----- kv_ycsb_zns ----------------------------------------------------------------------------

// Env decorator around ZoneEnv that records a span per call into the zonefile layer.
class TimedZoneEnv final : public Env {
 public:
  explicit TimedZoneEnv(ZoneFileSystem* fs) : inner_(fs) {}
  void set_recorder(SpanRecorder* rec) { rec_ = rec; }

  Result<SimTime> CreateFile(std::string_view name, Lifetime hint, SimTime now) override {
    return Traced(rec_, SpanName::kZonefileCreate, now,
                  [&] { return inner_.CreateFile(name, hint, now); });
  }
  Result<SimTime> Append(std::string_view name, std::span<const std::uint8_t> data,
                         SimTime now) override {
    return Traced(rec_, SpanName::kZonefileAppend, now,
                  [&] { return inner_.Append(name, data, now); });
  }
  Result<SimTime> Read(std::string_view name, std::uint64_t offset, std::span<std::uint8_t> out,
                       SimTime now) override {
    return Traced(rec_, SpanName::kZonefileRead, now,
                  [&] { return inner_.Read(name, offset, out, now); });
  }
  Result<SimTime> Sync(std::string_view name, SimTime now) override {
    return Traced(rec_, SpanName::kZonefileSync, now, [&] { return inner_.Sync(name, now); });
  }
  Result<SimTime> DeleteFile(std::string_view name, SimTime now) override {
    return Traced(rec_, SpanName::kZonefileDelete, now,
                  [&] { return inner_.DeleteFile(name, now); });
  }
  Result<std::uint64_t> FileSize(std::string_view name) const override {
    return inner_.FileSize(name);
  }
  bool Exists(std::string_view name) const override { return inner_.Exists(name); }
  std::vector<std::string> ListFiles() const override { return inner_.ListFiles(); }
  void Maintain(SimTime now, bool reads_pending) override {
    TracedVoid(rec_, SpanName::kZonefilePump, now,
               [&] { inner_.Maintain(now, reads_pending); });
  }

 private:
  ZoneEnv inner_;
  SpanRecorder* rec_ = nullptr;
};

struct KvScale {
  std::uint64_t records;
  std::uint64_t requests;
};

constexpr std::size_t kValueBytes = 120;
constexpr double kYcsbTheta = 0.9;

// Key and value of record `n` at `version` (the load writes version 0). Written into
// caller-owned buffers so the request loop does not allocate.
void KeyOf(std::uint64_t n, std::string& key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu", static_cast<unsigned long long>(n));
  key.assign(buf);
}

void ValueOf(std::uint64_t n, std::uint32_t version, std::string& value) {
  char buf[48];
  const int len = std::snprintf(buf, sizeof(buf), "v%llu-%u-", static_cast<unsigned long long>(n),
                                version);
  value.assign(buf, static_cast<std::size_t>(len));
  while (value.size() < kValueBytes) {
    value.push_back(static_cast<char>('a' + (n + version + value.size()) % 26));
  }
}

// bench_ycsb's ZNS cell: a 64 MiB device (2 ch x 2 planes x 128 blocks x 32 pages, 512 KiB
// zones) with payloads stored.
FlashConfig KvFlashConfig() {
  FlashConfig flash = MatchedConfig::Bench().flash;
  flash.geometry.channels = 2;
  flash.geometry.planes_per_channel = 2;
  flash.geometry.blocks_per_plane = 128;
  flash.geometry.pages_per_block = 32;
  flash.store_data = true;
  return flash;
}

class KvYcsbZns final : public Workload {
 public:
  explicit KvYcsbZns(const WorkloadOptions& options)
      : options_(options),
        scale_(options.smoke ? KvScale{4000, 4000} : KvScale{100000, 100000}) {}

  Status Setup() override {
    // bench_ycsb's ZNS cell: its device and its LSM shape.
    dev_ = std::make_unique<ZnsDevice>(KvFlashConfig(), ZnsConfig{});
    ZoneFileConfig zf;
    zf.finish_remainder_pages = 16;
    Result<std::unique_ptr<ZoneFileSystem>> fs = ZoneFileSystem::Format(dev_.get(), zf, 0);
    if (!fs.ok()) {
      return fs.status();
    }
    fs_ = std::move(fs.value());
    env_ = std::make_unique<TimedZoneEnv>(fs_.get());
    KvConfig kv;
    kv.memtable_bytes = 64 * kKiB;
    kv.level_base_bytes = 1 * kMiB;
    kv.level_multiplier = 3.0;
    kv.target_table_bytes = 448 * kKiB;
    kv.max_levels = 5;
    Result<std::unique_ptr<KvStore>> store = KvStore::Open(env_.get(), kv, 0);
    if (!store.ok()) {
      return store.status();
    }
    store_ = std::move(store.value());
    // YCSB load: every record once, in key order, then a flush.
    SimTime t = 0;
    std::string key;
    std::string value;
    for (std::uint64_t i = 0; i < scale_.records; ++i) {
      KeyOf(i, key);
      ValueOf(i, 0, value);
      Result<SimTime> put = store_->Put(key, value, t);
      if (!put.ok()) {
        return put.status();
      }
      t = std::max(t, put.value());
    }
    Result<SimTime> flushed = store_->Flush(t);
    if (!flushed.ok()) {
      return flushed.status();
    }
    shadow_.assign(scale_.records, 0);
    start_ = std::max(t, flushed.value()) + 10 * kMillisecond;
    return Status::Ok();
  }

  // YCSB-A: 50/50 read/update over a zipf(0.9) key choice; every read is checked against the
  // shadow copy of the last value written.
  void Run(SpanRecorder* rec, PhaseMeter& meter, SimOutcome& out) override {
    before_ = Snapshot();
    env_->set_recorder(rec);
    Rng rng(options_.seed);
    ZipfGenerator zipf(scale_.records, kYcsbTheta, options_.seed + 1);
    ClosedLoop loop(start_);
    out.read_latency.reserve(scale_.requests);
    out.write_latency.reserve(scale_.requests);
    out.sim_begin = start_;
    std::string key;
    std::string value;
    for (std::uint64_t i = 0; i < scale_.requests; ++i) {
      meter.AtRequest(i);
      if (rec != nullptr) {
        rec->BeginRequest();
      }
      const SimTime issue = loop.NextIssue();
      const bool read = rng.NextDouble() < 0.5;
      const std::uint64_t record = zipf.Next();
      if (options_.fault == Fault::kCorruptShadow && read && !corrupted_ &&
          i >= scale_.requests / 2) {
        shadow_[record] += 7;  // The read below must now fail its check.
        corrupted_ = true;
      }
      if (i % kPumpInterval == 0) {
        env_->Maintain(issue, read);
      }
      KeyOf(record, key);
      out.requests++;
      if (read) {
        Result<KvStore::GetResult> got =
            Traced(rec, SpanName::kKvGet, issue, [&] { return store_->Get(key, issue); });
        if (!got.ok()) {
          NoteError(out, "get: " + got.status().ToString());
          loop.Complete(issue);
          continue;
        }
        ValueOf(record, shadow_[record], value);
        if (!got.value().found || got.value().value != value) {
          NoteError(out, "get " + key + ": value does not match the last one written");
        }
        NoteLatency(out, true, issue, got.value().completion);
        loop.Complete(got.value().completion);
      } else {
        ValueOf(record, ++shadow_[record], value);
        Result<SimTime> put =
            Traced(rec, SpanName::kKvPut, issue, [&] { return store_->Put(key, value, issue); });
        if (!put.ok()) {
          NoteError(out, "put: " + put.status().ToString());
          loop.Complete(issue);
          continue;
        }
        NoteLatency(out, false, issue, put.value());
        loop.Complete(put.value());
      }
    }
    env_->set_recorder(nullptr);
    meter.Finish();
    out.sim_end = loop.end();
  }

  void Finish(SimOutcome& out) override {
    const Status consistent = fs_->CheckConsistency();
    if (!consistent.ok()) {
      NoteError(out, "consistency: " + consistent.ToString());
    }
    const Totals d = Delta(Snapshot(), before_);
    const double page = static_cast<double>(dev_->page_size());
    out.write_amp = Ratio(
        d.at("flash.host_pages_programmed") + d.at("flash.internal_pages_programmed"),
        d.at("kv.user_bytes_written") / page);
    out.counts = LayerCounts(d, page);
  }

 private:
  Totals Snapshot() const {
    Totals t;
    AddFlash(t, dev_->flash().stats());
    AddZns(t, dev_->stats());
    const ZoneFileStats& zf = fs_->stats();
    t["zonefile.gc_cycles"] = static_cast<double>(zf.gc_cycles);
    t["zonefile.gc_pages_copied"] = static_cast<double>(zf.gc_pages_copied);
    t["zonefile.meta_pages_written"] = static_cast<double>(zf.meta_pages_written);
    t["zonefile.bytes_appended"] = static_cast<double>(zf.bytes_appended);
    const KvStats& kv = store_->stats();
    t["kv.flushes"] = static_cast<double>(kv.flushes);
    t["kv.compactions"] = static_cast<double>(kv.compactions);
    t["kv.bytes_flushed"] = static_cast<double>(kv.bytes_flushed);
    t["kv.bytes_compacted"] = static_cast<double>(kv.bytes_compacted);
    t["kv.stall_events"] = static_cast<double>(kv.stall_events);
    t["kv.bloom_skips"] = static_cast<double>(kv.bloom_skips);
    t["kv.gets"] = static_cast<double>(kv.gets);
    t["kv.user_bytes_written"] = static_cast<double>(kv.user_bytes_written);
    return t;
  }

  WorkloadOptions options_;
  KvScale scale_;
  std::unique_ptr<ZnsDevice> dev_;
  std::unique_ptr<ZoneFileSystem> fs_;
  std::unique_ptr<TimedZoneEnv> env_;
  std::unique_ptr<KvStore> store_;  // Declared last: destroyed before the env it writes to.
  std::vector<std::uint32_t> shadow_;  // Last version written, per record.
  bool corrupted_ = false;
  SimTime start_ = 0;
  Totals before_;
};

// ----- fleet_zipf_write -----------------------------------------------------------------------

constexpr double kFleetReadFraction = 0.3;
constexpr double kFleetTheta = 0.99;
constexpr std::uint32_t kFleetIoPages = 4;
constexpr std::uint32_t kFleetStepInterval = 8;  // RunFleetClosedLoop's default.
constexpr std::uint32_t kVerifyEveryNthRead = 4;
constexpr SimTime kShedRetryDelay = 20 * kMicrosecond;
constexpr std::uint32_t kMaxShedRetries = 64;
// The fleet under test (placement, device seeds) is fixed; --seed varies only the requests.
constexpr std::uint64_t kFleetConfigSeed = 42;

struct FleetScale {
  std::uint64_t warmup;
  std::uint64_t requests;
};

class FleetZipfWrite final : public Workload {
 public:
  explicit FleetZipfWrite(const WorkloadOptions& options)
      : options_(options),
        scale_(options.smoke ? FleetScale{2000, 4000} : FleetScale{50000, 100000}) {}

  Status Setup() override {
    FleetConfig cfg = FleetConfig::Mixed(4, 0.5, kFleetConfigSeed, /*store_data=*/true);
    cfg.admission.tokens_per_second = 400000;  // Per shard, pages per simulated second.
    cfg.admission.burst_pages = 64;
    // RebalancerConfig's default cadence instead of Mixed()'s 100 us: still several shard
    // migrations per measured phase, without making simulated throughput swing with the seed.
    cfg.rebalancer.plan_interval = 50 * kMillisecond;
    fleet_ = std::make_unique<Fleet>(cfg);
    page_size_ = fleet_->page_size();
    shadow_.assign(fleet_->num_pages(), 0);
    write_buf_.resize(static_cast<std::size_t>(kFleetIoPages) * page_size_);
    read_buf_.resize(write_buf_.size());
    expect_buf_.resize(page_size_);
    // Fill every page once (so every read has data), then warm up with the workload's own mix
    // on a separate stream until GC, admission and the rebalancer are all active.
    SimOutcome scratch;
    ClosedLoop loop(0);
    for (std::uint64_t lba = 0; lba < fleet_->num_pages(); lba += kFleetIoPages) {
      Issue(nullptr, loop, lba, false, lba / kFleetIoPages, scratch);
    }
    Rng rng(options_.seed ^ 0x5eedf11ULL);
    ZipfGenerator zipf(fleet_->num_pages(), kFleetTheta, options_.seed ^ 0xf1ee7ULL);
    for (std::uint64_t i = 0; i < scale_.warmup; ++i) {
      const bool read = rng.NextDouble() < kFleetReadFraction;
      Issue(nullptr, loop, zipf.Next(), read, i, scratch);
    }
    if (scratch.errors != 0) {
      return Status(ErrorCode::kInternal, "setup: " + scratch.first_error);
    }
    start_ = loop.end() + 10 * kMillisecond;
    return Status::Ok();
  }

  void Run(SpanRecorder* rec, PhaseMeter& meter, SimOutcome& out) override {
    before_ = Snapshot();
    Rng rng(options_.seed);
    ZipfGenerator zipf(fleet_->num_pages(), kFleetTheta, options_.seed + 1);
    ClosedLoop loop(start_);
    out.read_latency.reserve(scale_.requests);
    out.write_latency.reserve(scale_.requests);
    out.sim_begin = start_;
    for (std::uint64_t i = 0; i < scale_.requests; ++i) {
      meter.AtRequest(i);
      if (rec != nullptr) {
        rec->BeginRequest();
      }
      const bool read = rng.NextDouble() < kFleetReadFraction;
      std::uint64_t lba = zipf.Next();
      if (options_.fault == Fault::kDeviceError && i == scale_.requests / 2) {
        lba = fleet_->num_pages();  // Past the end of the fleet's page space.
      }
      if (options_.fault == Fault::kCorruptShadow && i == scale_.requests / 2) {
        corrupt_pending_ = true;  // The next sampled read's shadow value is altered.
      }
      Issue(rec, loop, lba, read, i, out);
    }
    meter.Finish();
    out.sim_end = loop.end();
  }

  void Finish(SimOutcome& out) override {
    const Totals d = Delta(Snapshot(), before_);
    out.write_amp = Ratio(d.at("fleet.device_total_pages"), d.at("fleet.app_pages_written"));
    out.counts = LayerCounts(d, page_size_);
  }

 private:
  // One fleet request (clamped to its shard), retried in place after admission sheds as
  // RunFleetClosedLoop does. Latency runs from the first issue, so backoff counts.
  void Issue(SpanRecorder* rec, ClosedLoop& loop, std::uint64_t lba, bool read,
             std::uint64_t n, SimOutcome& out) {
    const std::uint64_t shard_pages = fleet_->config().shard_pages;
    const auto pages = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kFleetIoPages, shard_pages - lba % shard_pages));
    const SimTime first_issue = loop.NextIssue();
    if (n % kFleetStepInterval == 0) {
      TracedVoid(rec, SpanName::kFleetStep, first_issue, [&] { fleet_->Step(first_issue); });
    }
    const bool verify = read && reads_++ % kVerifyEveryNthRead == 0;
    std::span<std::uint8_t> read_out;
    if (verify) {
      read_out = std::span<std::uint8_t>(read_buf_.data(),
                                         static_cast<std::size_t>(pages) * page_size_);
    }
    if (!read && lba < shadow_.size()) {
      for (std::uint32_t p = 0; p < pages; ++p) {
        FillPage(lba + p, ++shadow_[lba + p], write_buf_.data() + p * page_size_);
      }
    }
    const std::span<const std::uint8_t> data(write_buf_.data(),
                                             static_cast<std::size_t>(pages) * page_size_);
    SimTime issue = first_issue;
    Result<SimTime> done = 0;
    for (std::uint32_t retries = 0;;) {
      done = read ? Traced(rec, SpanName::kFleetRead, issue,
                           [&] { return fleet_->Read(Lba{lba}, pages, issue, read_out); })
                  : Traced(rec, SpanName::kFleetWrite, issue,
                           [&] { return fleet_->Write(Lba{lba}, pages, issue, data); });
      if (done.ok() || done.code() != ErrorCode::kBusy || ++retries > kMaxShedRetries) {
        break;
      }
      sheds_++;
      issue += kShedRetryDelay;
    }
    out.requests++;
    if (!done.ok()) {
      NoteError(out, (read ? "read: " : "write: ") + done.status().ToString());
      loop.Complete(issue);
      return;
    }
    if (verify) {
      if (corrupt_pending_) {
        shadow_[lba] += 7;  // This read must now fail its check.
        corrupt_pending_ = false;
      }
      for (std::uint32_t p = 0; p < pages; ++p) {
        FillPage(lba + p, shadow_[lba + p], expect_buf_.data());
        if (std::memcmp(expect_buf_.data(), read_buf_.data() + p * page_size_, page_size_) != 0) {
          NoteError(out, "read of page " + std::to_string(lba + p) +
                             " does not match the last write");
          break;
        }
      }
    }
    NoteLatency(out, read, first_issue, done.value());
    loop.Complete(done.value());
  }

  // Page payload: (page, version) in the first 16 bytes, then a pattern derived from both.
  void FillPage(std::uint64_t page, std::uint64_t version, std::uint8_t* dst) const {
    std::uint64_t word = page * 0x9e3779b97f4a7c15ULL ^ version;
    std::memcpy(dst, &page, sizeof(page));
    std::memcpy(dst + 8, &version, sizeof(version));
    for (std::size_t off = 16; off + sizeof(word) <= page_size_; off += sizeof(word)) {
      word = word * 6364136223846793005ULL + 1442695040888963407ULL;
      std::memcpy(dst + off, &word, sizeof(word));
    }
  }

  Totals Snapshot() {
    Totals t;
    for (std::uint32_t d = 0; d < fleet_->num_devices(); ++d) {
      const std::string& ledger = fleet_->device_ledger_name(d);  // "<flash prefix>"
      std::map<std::string, double> reg;
      for (const MetricRegistry::Entry& e : fleet_->device_registry(d)->Snapshot()) {
        if (e.kind == MetricKind::kCounter) {
          reg[e.name] = static_cast<double>(e.counter);
        }
      }
      auto get = [&reg](const std::string& name) {
        const auto it = reg.find(name);
        return it == reg.end() ? 0.0 : it->second;
      };
      for (const char* c : {"host_pages_programmed", "internal_pages_programmed",
                            "blocks_erased", "host_bus_bytes"}) {
        t[std::string("flash.") + c] += get(ledger + "." + c);
      }
      if (fleet_->device_kind(d) == DeviceKind::kConventional) {
        t["ftl.gc_runs"] += get("dev.ftl.gc.runs");
        t["ftl.gc_pages_copied"] += get("dev.ftl.gc.pages_moved");
        t["ftl.gc_blocks_reclaimed"] += get("dev.ftl.gc.blocks_reclaimed");
        t["ftl.foreground_gc_stalls"] += get("dev.ftl.gc.foreground_stalls");
      } else {
        t["hostftl.gc_cycles"] += get("dev.gc.cycles");
        t["hostftl.gc_pages_copied"] += get("dev.gc.pages_copied");
        t["hostftl.zones_reclaimed"] += get("dev.gc.zones_reclaimed");
        t["hostftl.forced_gc_stalls"] += get("dev.gc.forced_stalls");
        t["hostftl.gc_host_bus_bytes"] += get("dev.gc.host_bus_bytes");
        t["zns.pages_copied"] += get("dev.zns.pages_copied");
        t["zns.zone_resets"] += get("dev.zns.zone_resets");
        t["zns.active_limit_rejections"] += get("dev.zns.active_limit_rejections");
      }
      const WriteProvenance::DeviceLedger* led =
          fleet_->device_telemetry(d)->provenance.FindDevice(ledger);
      if (led != nullptr) {
        t["fleet.device_host_pages"] += static_cast<double>(led->host_pages);
        t["fleet.device_total_pages"] += static_cast<double>(led->total_pages);
      }
    }
    const FleetStats& s = fleet_->stats();
    t["fleet.app_pages_written"] = static_cast<double>(s.app_pages_written);
    t["fleet.migrations_completed"] = static_cast<double>(s.migrations_completed);
    t["fleet.migration_pages_copied"] = static_cast<double>(s.migration_pages_copied);
    t["fleet.sheds"] = static_cast<double>(sheds_);
    t["fleet.requests"] = static_cast<double>(s.app_reads + s.app_writes);
    return t;
  }

  WorkloadOptions options_;
  FleetScale scale_;
  std::unique_ptr<Fleet> fleet_;
  std::uint32_t page_size_ = 0;
  std::vector<std::uint64_t> shadow_;  // Last version written, per fleet page.
  std::vector<std::uint8_t> write_buf_;
  std::vector<std::uint8_t> read_buf_;
  std::vector<std::uint8_t> expect_buf_;
  std::uint64_t sheds_ = 0;
  std::uint64_t reads_ = 0;
  bool corrupt_pending_ = false;
  SimTime start_ = 0;
  Totals before_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"conv_randrw", "zns_hostftl_randrw",
                                                 "kv_ycsb_zns", "fleet_zipf_write"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(std::string_view name, const WorkloadOptions& options) {
  if (name == "conv_randrw") {
    return std::make_unique<ConvRandRw>(options);
  }
  if (name == "zns_hostftl_randrw") {
    return std::make_unique<ZnsHostFtlRandRw>(options);
  }
  if (name == "kv_ycsb_zns") {
    return std::make_unique<KvYcsbZns>(options);
  }
  if (name == "fleet_zipf_write") {
    return std::make_unique<FleetZipfWrite>(options);
  }
  return nullptr;
}

Status RunLadder(std::string_view workload, bool smoke, SpanRecorder& rec) {
  // The geometry each workload's devices use (the fleet's first, larger device for the fleet).
  FlashConfig flash;
  if (workload == "kv_ycsb_zns") {
    flash = KvFlashConfig();
  } else if (workload == "fleet_zipf_write") {
    flash = FleetConfig::Mixed(4, 0.5, kFleetConfigSeed, /*store_data=*/true).devices[0].flash;
  } else {
    flash = BlockDeviceConfig(smoke).flash;
  }
  const FlashGeometry& g = flash.geometry;
  const std::uint64_t rung_ops = std::min<std::uint64_t>(smoke ? 2048 : 65536, g.total_pages());
  std::vector<std::uint8_t> page(g.page_size, 0xa5);
  const std::span<const std::uint8_t> payload =
      flash.store_data ? std::span<const std::uint8_t>(page) : std::span<const std::uint8_t>();

  // flash.program / flash.read: pages striped across planes, QD 1.
  {
    FlashDevice dev(flash);
    std::vector<PhysAddr> addrs;
    addrs.reserve(rung_ops);
    SimTime t = 0;
    for (std::uint64_t i = 0; i < rung_ops; ++i) {
      const std::uint64_t plane = i % g.total_planes();
      const std::uint64_t slot = i / g.total_planes();
      PhysAddr a;
      a.channel = ChannelId{static_cast<std::uint32_t>(plane / g.planes_per_channel)};
      a.plane = PlaneId{static_cast<std::uint32_t>(plane % g.planes_per_channel)};
      a.block = BlockId{static_cast<std::uint32_t>(slot / g.pages_per_block)};
      a.page = PageId{static_cast<std::uint32_t>(slot % g.pages_per_block)};
      rec.BeginRequest();
      Result<SimTime> done = Traced(&rec, SpanName::kFlashProgram, t,
                                    [&] { return dev.ProgramPage(a, t, payload); });
      if (!done.ok()) {
        return done.status();
      }
      t = done.value();
      addrs.push_back(a);
    }
    for (const PhysAddr& a : addrs) {
      rec.BeginRequest();
      Result<SimTime> done =
          Traced(&rec, SpanName::kFlashRead, t, [&] { return dev.ReadPage(a, t); });
      if (!done.ok()) {
        return done.status();
      }
      t = done.value();
    }
  }
  // zns.append / zns.read: single-page appends filling zones in order, then reads back.
  {
    ZnsDevice dev(flash, ZnsConfig{});
    std::vector<Lba> lbas;
    lbas.reserve(rung_ops);
    SimTime t = 0;
    std::uint32_t zone = 0;
    for (std::uint64_t i = 0; i < rung_ops; ++i) {
      if (dev.zone(ZoneId{zone}).write_pointer >= dev.zone(ZoneId{zone}).capacity_pages) {
        ++zone;
      }
      rec.BeginRequest();
      Result<AppendResult> done = Traced(&rec, SpanName::kZnsAppend, t, [&] {
        return dev.Append(ZoneId{zone}, 1, t, payload);
      });
      if (!done.ok()) {
        return done.status();
      }
      t = done.value().completion;
      lbas.push_back(done.value().assigned_lba);
    }
    for (const Lba lba : lbas) {
      rec.BeginRequest();
      Result<SimTime> done =
          Traced(&rec, SpanName::kZnsRead, t, [&] { return dev.Read(lba, 1, t); });
      if (!done.ok()) {
        return done.status();
      }
      t = done.value();
    }
  }
  return Status::Ok();
}

}  // namespace blockhead::perfbench
