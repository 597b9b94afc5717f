// E6 — §2.4 (CMU / ZenFS): "RocksDB's write amplification drops from 5x to 1.2x on ZNS SSDs."
//
// Setup: the mini-LSM store sustains a random-overwrite workload on (a) BlockEnv + conventional
// SSD and (b) zonefile + ZNS SSD, on identical flash, with the live data set sized to ~2/3 of
// device capacity so the conventional FTL operates under space pressure. Reported:
//   * LSM-level WA (flush+compaction bytes / user bytes) — a property of the LSM, same on both;
//   * device-level WA (flash programs / host programs)   — the number the claim is about;
//   * end-to-end WA (flash bytes / user bytes)           — their product, roughly.

#include <cstdio>
#include <string>

#include "bench/bench_main.h"
#include "src/core/matched_pair.h"
#include "src/kv/block_env.h"
#include "src/kv/kv_store.h"
#include "src/util/rng.h"

using namespace blockhead;

namespace {

constexpr std::uint64_t kKeys = 195000;
constexpr std::size_t kValueBytes = 150;
constexpr std::uint64_t kOverwriteOps = 300000;

std::string KeyOf(std::uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%010llu", static_cast<unsigned long long>(n));
  return buf;
}

std::string ValueOf(std::uint64_t n) {
  std::string v = "v" + std::to_string(n);
  v.resize(kValueBytes, 'y');
  return v;
}

struct WaResult {
  double lsm_wa = 0.0;
  double device_wa = 0.0;
  double end_to_end_wa = 0.0;
  std::uint64_t user_bytes = 0;
  bool ok = false;
};

WaResult RunChurn(Env* env, const FlashDevice& flash, Telemetry* tel, const std::string& prefix) {
  WaResult result;
  KvConfig cfg;
  cfg.memtable_bytes = 64 * kKiB;
  cfg.level_base_bytes = 1 * kMiB;
  cfg.level_multiplier = 3.0;
  cfg.target_table_bytes = 448 * kKiB;  // ~One table per 512 KiB zone incl. index/bloom overhead.
  cfg.max_levels = 5;
  auto store_or = KvStore::Open(env, cfg, 0);
  if (!store_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n", store_or.status().ToString().c_str());
    return result;
  }
  KvStore& store = *store_or.value();
  store.AttachTelemetry(tel, prefix);

  SimTime t = 0;
  Rng rng(5);
  for (std::uint64_t i = 0; i < kKeys + kOverwriteOps; ++i) {
    const std::uint64_t k = i < kKeys ? i : rng.NextBelow(kKeys);
    env->Maintain(t, false);
    auto p = store.Put(KeyOf(k), ValueOf(i), t);
    if (!p.ok()) {
      std::fprintf(stderr, "put %llu failed: %s\n", static_cast<unsigned long long>(i),
                   p.status().ToString().c_str());
      return result;
    }
    t = std::max(t, p.value());
  }

  result.user_bytes = store.stats().user_bytes_written;
  result.lsm_wa = store.LsmWriteAmplification();
  const FlashStats& fs = flash.stats();
  result.device_wa = fs.host_pages_programmed == 0
                         ? 1.0
                         : static_cast<double>(fs.total_pages_programmed()) /
                               static_cast<double>(fs.host_pages_programmed);
  result.end_to_end_wa =
      static_cast<double>(fs.total_pages_programmed() * 4096) /
      static_cast<double>(result.user_bytes);
  result.ok = true;
  return result;
}

}  // namespace

int RunBench(const BenchOptions& opts, Telemetry& tel) {
  MaybeEnableTimeline(opts, tel);

  std::printf("=== E6: LSM KV-store write amplification, conventional vs ZNS ===\n");
  std::printf("Paper claim (§2.4, CMU): RocksDB WA drops from ~5x to ~1.2x on ZNS.\n");
  std::printf("Workload: %llu-key load + %llu random overwrites (%zu B values).\n\n",
              static_cast<unsigned long long>(kKeys),
              static_cast<unsigned long long>(kOverwriteOps), kValueBytes);

  MatchedConfig mcfg = MatchedConfig::Bench();
  mcfg.flash.geometry.channels = 2;
  mcfg.flash.geometry.planes_per_channel = 2;
  mcfg.flash.geometry.blocks_per_plane = 128;
  mcfg.flash.geometry.pages_per_block = 32;  // 512 KiB zones.  // 64 MiB devices.
  mcfg.flash.timing = FlashTiming::FastForTests();
  mcfg.flash.store_data = true;
  mcfg.ftl.op_fraction = 0.07;

  ConventionalSsd ssd(mcfg.flash, mcfg.ftl);
  ssd.AttachTelemetry(&tel, "conv");
  BlockEnv block_env(&ssd);
  const WaResult conv = RunChurn(&block_env, ssd.flash(), &tel, "conv.kv");

  ZnsDevice zns(mcfg.flash, mcfg.zns);
  zns.AttachTelemetry(&tel, "zns");
  ZoneFileConfig zf_cfg;
  zf_cfg.finish_remainder_pages = 16;  // Seal nearly-full zones at table boundaries (ZenFS).
  auto fs = ZoneFileSystem::Format(&zns, zf_cfg, 0);
  if (!fs.ok()) {
    std::fprintf(stderr, "format failed: %s\n", fs.status().ToString().c_str());
    return 1;
  }
  fs.value()->AttachTelemetry(&tel, "zns.zonefile");
  ZoneEnv zone_env(fs.value().get());
  const WaResult zoned = RunChurn(&zone_env, zns.flash(), &tel, "zns.kv");

  if (!conv.ok || !zoned.ok) {
    return 1;
  }

  TablePrinter table({"metric", "conventional (BlockEnv)", "ZNS (zonefile)"});
  table.AddRow({"LSM write amplification", TablePrinter::Fmt(conv.lsm_wa) + "x",
                TablePrinter::Fmt(zoned.lsm_wa) + "x"});
  table.AddRow({"device write amplification", TablePrinter::Fmt(conv.device_wa) + "x",
                TablePrinter::Fmt(zoned.device_wa) + "x"});
  table.AddRow({"end-to-end write amplification", TablePrinter::Fmt(conv.end_to_end_wa) + "x",
                TablePrinter::Fmt(zoned.end_to_end_wa) + "x"});
  std::printf("%s\n", table.Render().c_str());

  std::printf("Shape check (the paper's number is the device-level WA): conventional should be\n"
              "several-fold (FTL GC under fragmented SSTable churn), ZNS close to 1x (hint-\n"
              "grouped SSTables die with their zones; resets copy nothing). The LSM's own WA is\n"
              "interface-independent and appears on both sides.\n");
  return FinishBench(opts, "bench_kv_rocksdb", tel);
}

int main(int argc, char** argv) {
  return RunBenchMain(argc, argv, "bench_kv_rocksdb", RunBench);
}
