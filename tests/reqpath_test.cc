// Tests for the per-request critical-path ledger (src/telemetry/reqpath/): watermark
// clipping and the attribution identity (sum of segment charges == end-to-end latency,
// exactly), scope semantics (outermost-wins, suppression, overrides, interference identity),
// the deterministic worst-k exemplar reservoir, SLO burn-rate math, and the identity held
// end-to-end across real stack configs — conventional SSD, host-FTL-on-ZNS, persistent
// queue, and a fleet with admission + rebalancing active — and, per request, the named spans
// cross-checked against the segments fed by the same flash decomposition.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/ftl/conventional_ssd.h"
#include "src/hostftl/host_ftl.h"
#include "src/queue/persistent_queue.h"
#include "src/telemetry/reqpath/request_path.h"
#include "src/telemetry/sink.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/timeline.h"
#include "src/util/rng.h"
#include "src/workload/workload.h"

namespace blockhead {
namespace {

FlashConfig SmallFlash() {
  FlashConfig c;
  c.geometry = FlashGeometry::Small();
  c.timing = FlashTiming::FastForTests();
  return c;
}

ZnsConfig DeviceConfig() {
  ZnsConfig z;
  z.max_active_zones = 6;
  z.max_open_zones = 6;
  return z;
}

std::vector<std::uint8_t> Pattern(std::uint32_t bytes, std::uint8_t tag) {
  std::vector<std::uint8_t> v(bytes);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(tag + i);
  }
  return v;
}

std::uint64_t SegSum(const std::uint64_t (&seg)[kPathSegmentCount]) {
  std::uint64_t sum = 0;
  for (int s = 0; s < kPathSegmentCount; ++s) {
    sum += seg[s];
  }
  return sum;
}

// The attribution identity, checked at every granularity the ledger exposes: aggregate,
// per op class, and for the last completed request. All equalities are exact.
void ExpectAttributionIdentity(const RequestPathLedger& ledger) {
  EXPECT_EQ(ledger.TotalLatencyNs(), ledger.TotalSegmentNs());
  for (int op = 0; op < kReqOpCount; ++op) {
    const RequestPathLedger::OpTotals& t = ledger.op_totals(static_cast<ReqOp>(op));
    EXPECT_EQ(t.latency_ns, SegSum(t.seg_ns)) << ReqOpName(static_cast<ReqOp>(op));
  }
  if (ledger.completed() > 0) {
    const RequestPathLedger::Exemplar& last = ledger.last_completed();
    EXPECT_EQ(last.latency_ns, SegSum(last.seg_ns));
    EXPECT_EQ(last.latency_ns, last.completion - last.issue);
  }
  for (int op = 0; op < kReqOpCount; ++op) {
    for (const RequestPathLedger::Exemplar& e : ledger.exemplars(static_cast<ReqOp>(op))) {
      EXPECT_EQ(e.latency_ns, SegSum(e.seg_ns));
    }
  }
}

std::uint64_t Seg(const RequestPathLedger& ledger, ReqOp op, PathSegment s) {
  return ledger.op_totals(op).seg_ns[static_cast<int>(s)];
}

// --- Span / ledger cross-check -------------------------------------------------------------
//
// Spans and request segments come from the same per-op decomposition the flash device hands
// to ChargeFlashOp, so for a one-page request that completes with its flash op the outermost
// span's {queue, gc, flash, host}_ns equal the request's {device_queue, gc_stall, flash_busy,
// host_other}. They differ by design where the ledger enforces exclusivity and host
// visibility and the span does not:
//
//   * Watermark clipping. Overlapping charges (the pages of a multi-page read run in parallel
//     from the same issue time) each add their full duration to the span; the request keeps
//     only the part past its watermark. The span's components can then exceed its total.
//   * Truncation at a buffered ack. A write acknowledged from the device buffer before its
//     program lands: the request truncates its charges at the ack, the span keeps the whole
//     program and its host component floors at 0.
//   * InterferenceScope. Foreground reclaim's own host-class flash ops are reclassified as
//     compaction_stall in the request; the span still counts them as flash / queue / gc.
//
// Each of the three is observed by at least one assertion below. Two more follow from what
// the request knows beyond the flash op: the zone device charges write-pointer serialization
// waits straight to the request's device_queue (a span sees host time), and a GC-stall piece
// whose interferer is host-side reclaim lands in compaction_stall (SegmentForCause) where the
// span counts gc.

// One request's span components: the growth of the span.<name>.* sums across the request.
struct SpanSample {
  std::uint64_t total = 0;
  std::uint64_t queue = 0;
  std::uint64_t gc = 0;
  std::uint64_t flash = 0;
  std::uint64_t host = 0;

  std::uint64_t attributed() const { return queue + gc + flash; }
};

SpanSample SpanSums(MetricRegistry& registry, const std::string& span) {
  const std::string p = "span." + span;
  return SpanSample{registry.GetHistogram(p + ".total_ns")->sum(),
                    registry.GetHistogram(p + ".queue_ns")->sum(),
                    registry.GetHistogram(p + ".gc_ns")->sum(),
                    registry.GetHistogram(p + ".flash_ns")->sum(),
                    registry.GetHistogram(p + ".host_ns")->sum()};
}

SpanSample operator-(const SpanSample& a, const SpanSample& b) {
  return SpanSample{a.total - b.total, a.queue - b.queue, a.gc - b.gc, a.flash - b.flash,
                    a.host - b.host};
}

std::uint64_t ReqSeg(const RequestPathLedger::Exemplar& req, PathSegment s) {
  return req.seg_ns[static_cast<int>(s)];
}

// The request's segments that have a span counterpart.
std::uint64_t ReqAttributed(const RequestPathLedger::Exemplar& req) {
  return ReqSeg(req, PathSegment::kDeviceQueue) + ReqSeg(req, PathSegment::kGcStall) +
         ReqSeg(req, PathSegment::kFlashBusy);
}

// Asserts span == request component by component.
void ExpectSpanMatchesRequest(const SpanSample& span, const RequestPathLedger::Exemplar& req) {
  EXPECT_EQ(span.total, req.latency_ns);
  EXPECT_EQ(span.queue, ReqSeg(req, PathSegment::kDeviceQueue));
  EXPECT_EQ(span.gc, ReqSeg(req, PathSegment::kGcStall));
  EXPECT_EQ(span.flash, ReqSeg(req, PathSegment::kFlashBusy));
  EXPECT_EQ(span.host, ReqSeg(req, PathSegment::kHostOther));
}

// Runs `op` (one request that opens the outermost span `span`) and returns its span sample.
template <typename Op>
SpanSample MeasureSpan(MetricRegistry& registry, const std::string& span, Op op) {
  const SpanSample before = SpanSums(registry, span);
  op();
  return SpanSums(registry, span) - before;
}

// Charges [start, end) as a wait behind interfering work: the GC-stall piece of a flash op,
// whose segment follows the interferer's cause.
void ChargeInterference(RequestPathLedger& ledger, SimTime start, SimTime end, WriteCause cause,
                        StackLayer layer, std::string_view track) {
  FlashOpCharge op{.issue = start, .gc_cause = cause, .gc_layer = layer, .gc_track = track};
  op.Then(end, PathSegment::kGcStall);
  ledger.ChargeFlashOp(op);
}

// --- Ledger unit tests --------------------------------------------------------------------

TEST(ReqPathTest, DisabledLedgerIsInertAndPublishesNothing) {
  RequestPathLedger ledger;
  {
    RequestPathLedger::RequestScope scope(&ledger, RequestContext{1, ReqOp::kRead}, 100);
    EXPECT_FALSE(scope.owns());
    ledger.ChargeInterval(100, 200, PathSegment::kFlashBusy);
    scope.Complete(300);
  }
  EXPECT_EQ(ledger.completed(), 0u);
  EXPECT_EQ(ledger.abandoned(), 0u);
  MetricRegistry registry;
  ledger.PublishTo(&registry);
  EXPECT_TRUE(registry.Snapshot().empty());  // Feature off == feature absent.
}

TEST(ReqPathTest, WatermarkClippingMakesSegmentsExclusiveAndResidualIsHostOther) {
  RequestPathLedger ledger;
  ledger.Enable();
  RequestPathLedger::RequestScope scope(&ledger, RequestContext{2, ReqOp::kRead}, 100);
  ASSERT_TRUE(scope.owns());
  ledger.ChargeInterval(100, 400, PathSegment::kFlashBusy);
  // Overlaps the first charge: only the part past the watermark lands (arrival order wins).
  ledger.ChargeInterval(300, 600, PathSegment::kGcStall);
  // Entirely behind the watermark: fully clipped away.
  ledger.ChargeInterval(150, 500, PathSegment::kDeviceQueue);
  scope.Complete(1000);

  EXPECT_EQ(ledger.completed(), 1u);
  EXPECT_EQ(Seg(ledger, ReqOp::kRead, PathSegment::kFlashBusy), 300u);
  EXPECT_EQ(Seg(ledger, ReqOp::kRead, PathSegment::kGcStall), 200u);
  EXPECT_EQ(Seg(ledger, ReqOp::kRead, PathSegment::kDeviceQueue), 0u);
  // The unclaimed [600, 1000) tail becomes the residual.
  EXPECT_EQ(Seg(ledger, ReqOp::kRead, PathSegment::kHostOther), 400u);
  ExpectAttributionIdentity(ledger);
}

TEST(ReqPathTest, ChargesTruncateAtHostVisibleCompletion) {
  // Write buffering acks before the program lands: a charge running past the completion
  // time must be truncated so the identity still holds at the host-visible latency.
  RequestPathLedger ledger;
  ledger.Enable();
  RequestPathLedger::RequestScope scope(&ledger, RequestContext{0, ReqOp::kWrite}, 100);
  ledger.ChargeInterval(100, 2000, PathSegment::kFlashBusy);
  scope.Complete(500);
  EXPECT_EQ(Seg(ledger, ReqOp::kWrite, PathSegment::kFlashBusy), 400u);
  EXPECT_EQ(Seg(ledger, ReqOp::kWrite, PathSegment::kHostOther), 0u);
  EXPECT_EQ(ledger.op_totals(ReqOp::kWrite).latency_ns, 400u);
  ExpectAttributionIdentity(ledger);
}

TEST(ReqPathTest, OutermostScopeWinsAndInnerScopesAreInert) {
  RequestPathLedger ledger;
  ledger.Enable();
  RequestPathLedger::RequestScope outer(&ledger, RequestContext{1, ReqOp::kRead}, 0);
  ASSERT_TRUE(outer.owns());
  {
    RequestPathLedger::RequestScope inner(&ledger, RequestContext{9, ReqOp::kWrite}, 10);
    EXPECT_FALSE(inner.owns());
    inner.Complete(20);  // No-op: the outer scope still owns the request.
  }
  EXPECT_EQ(ledger.completed(), 0u);
  outer.Complete(100);
  EXPECT_EQ(ledger.completed(), 1u);
  EXPECT_EQ(ledger.last_completed().ctx.tenant, 1u);  // The outer context was recorded.
  EXPECT_EQ(ledger.abandoned(), 0u);
}

TEST(ReqPathTest, DestructionWithoutCompleteCountsAsAbandoned) {
  RequestPathLedger ledger;
  ledger.Enable();
  {
    RequestPathLedger::RequestScope scope(&ledger, RequestContext{0, ReqOp::kRead}, 0);
    ledger.ChargeInterval(0, 50, PathSegment::kFlashBusy);
  }
  EXPECT_EQ(ledger.completed(), 0u);
  EXPECT_EQ(ledger.abandoned(), 1u);
  EXPECT_EQ(ledger.TotalLatencyNs(), 0u);  // Nothing recorded from the abandoned request.
  EXPECT_EQ(ledger.TotalSegmentNs(), 0u);
}

TEST(ReqPathTest, SuppressScopeKeepsBackgroundWorkOutOfTheLedger) {
  RequestPathLedger ledger;
  ledger.Enable();
  {
    RequestPathLedger::SuppressScope suppress(&ledger);
    RequestPathLedger::RequestScope scope(&ledger, RequestContext{0, ReqOp::kWrite}, 0);
    EXPECT_FALSE(scope.owns());  // Background copies never become host requests.
  }
  // Suppression lifts with the scope.
  RequestPathLedger::RequestScope scope(&ledger, RequestContext{0, ReqOp::kWrite}, 0);
  EXPECT_TRUE(scope.owns());
  scope.Complete(10);
  EXPECT_EQ(ledger.completed(), 1u);
  EXPECT_EQ(ledger.abandoned(), 0u);
}

TEST(ReqPathTest, OverrideScopesReclassifyAndInnermostWins) {
  RequestPathLedger ledger;
  ledger.Enable();
  RequestPathLedger::RequestScope scope(&ledger, RequestContext{0, ReqOp::kWrite}, 0);
  {
    RequestPathLedger::SegmentOverrideScope repl(&ledger, PathSegment::kReplication);
    ledger.ChargeInterval(0, 100, PathSegment::kFlashBusy);  // Reclassified.
    {
      RequestPathLedger::SegmentOverrideScope mig(&ledger, PathSegment::kMigrationStall);
      ledger.ChargeInterval(100, 150, PathSegment::kFlashBusy);  // Innermost wins.
    }
    ledger.ChargeInterval(150, 250, PathSegment::kDeviceQueue);
  }
  ledger.ChargeInterval(250, 300, PathSegment::kFlashBusy);  // Override popped.
  scope.Complete(300);
  EXPECT_EQ(Seg(ledger, ReqOp::kWrite, PathSegment::kReplication), 200u);
  EXPECT_EQ(Seg(ledger, ReqOp::kWrite, PathSegment::kMigrationStall), 50u);
  EXPECT_EQ(Seg(ledger, ReqOp::kWrite, PathSegment::kFlashBusy), 50u);
  EXPECT_EQ(Seg(ledger, ReqOp::kWrite, PathSegment::kDeviceQueue), 0u);
  ExpectAttributionIdentity(ledger);
}

TEST(ReqPathTest, InterferenceChargesCarryCauseLayerAndTrackIdentity) {
  RequestPathLedger ledger;
  ledger.Enable();
  RequestPathLedger::RequestScope scope(&ledger, RequestContext{3, ReqOp::kRead}, 0);
  ledger.ChargeInterval(0, 100, PathSegment::kFlashBusy);
  ChargeInterference(ledger, 100, 400, WriteCause::kDeviceGC, StackLayer::kFtl, "dev.gc");
  // A second, shorter interferer: the exemplar keeps the longest single interval.
  ChargeInterference(ledger, 400, 500, WriteCause::kBlockEmulationReclaim, StackLayer::kHostFtl,
                     "hostftl.gc");
  scope.Complete(500);

  EXPECT_EQ(Seg(ledger, ReqOp::kRead, PathSegment::kGcStall), 300u);
  EXPECT_EQ(Seg(ledger, ReqOp::kRead, PathSegment::kCompactionStall), 100u);
  EXPECT_EQ(ledger.interference_ns(WriteCause::kDeviceGC, StackLayer::kFtl), 300u);
  EXPECT_EQ(
      ledger.interference_ns(WriteCause::kBlockEmulationReclaim, StackLayer::kHostFtl),
      100u);

  const RequestPathLedger::Exemplar& last = ledger.last_completed();
  EXPECT_EQ(last.top_cause, WriteCause::kDeviceGC);
  EXPECT_EQ(last.top_layer, StackLayer::kFtl);
  EXPECT_EQ(last.top_interference_ns, 300u);
  EXPECT_EQ(last.interferer_track, "dev.gc");
  EXPECT_EQ(last.interferer_begin, 100u);
  EXPECT_EQ(last.interferer_end, 400u);
  ExpectAttributionIdentity(ledger);
}

TEST(ReqPathTest, InterferenceScopeTagsOrdinaryChargesAsInterference) {
  // Host-side reclaim runs its flash ops as ordinary host-class charges inside the victim's
  // request; an open InterferenceScope must reroute them to the stall segment with identity.
  RequestPathLedger ledger;
  ledger.Enable();
  RequestPathLedger::RequestScope scope(&ledger, RequestContext{0, ReqOp::kWrite}, 0);
  {
    RequestPathLedger::InterferenceScope gc(&ledger, WriteCause::kBlockEmulationReclaim,
                                            StackLayer::kHostFtl, "hostftl.gc");
    ledger.ChargeInterval(0, 250, PathSegment::kFlashBusy);
  }
  ledger.ChargeInterval(250, 300, PathSegment::kFlashBusy);
  scope.Complete(300);
  EXPECT_EQ(Seg(ledger, ReqOp::kWrite, PathSegment::kCompactionStall), 250u);
  EXPECT_EQ(Seg(ledger, ReqOp::kWrite, PathSegment::kFlashBusy), 50u);
  EXPECT_EQ(
      ledger.interference_ns(WriteCause::kBlockEmulationReclaim, StackLayer::kHostFtl),
      250u);
  EXPECT_EQ(ledger.last_completed().interferer_track, "hostftl.gc");
  ExpectAttributionIdentity(ledger);
}

TEST(ReqPathTest, DelegatedLedgerChargesLandOnTheRoot) {
  // The fleet delegates device ledgers to the fleet-level one: scopes and charges made
  // through the device ledger must attribute to the root's active request.
  RequestPathLedger root;
  RequestPathLedger device;
  root.Enable();
  device.DelegateTo(&root);

  RequestPathLedger::RequestScope scope(&device, RequestContext{5, ReqOp::kRead}, 0);
  ASSERT_TRUE(scope.owns());
  device.ChargeInterval(0, 80, PathSegment::kFlashBusy);
  EXPECT_TRUE(root.InRequest());
  scope.Complete(80);

  EXPECT_EQ(root.completed(), 1u);
  EXPECT_EQ(device.completed(), 0u);
  EXPECT_EQ(Seg(root, ReqOp::kRead, PathSegment::kFlashBusy), 80u);
  EXPECT_EQ(root.last_completed().ctx.tenant, 5u);

  device.DelegateTo(nullptr);  // Restored independence: the device ledger is disabled again.
  RequestPathLedger::RequestScope local(&device, RequestContext{0, ReqOp::kRead}, 0);
  EXPECT_FALSE(local.owns());
}

TEST(ReqPathTest, ExemplarReservoirKeepsWorstKDeterministically) {
  RequestPathLedger ledger;
  ReqPathConfig config;
  config.exemplars_per_op = 2;
  ledger.Enable(config);
  auto complete_one = [&ledger](SimTime issue, std::uint64_t latency) {
    RequestPathLedger::RequestScope scope(&ledger, RequestContext{0, ReqOp::kRead}, issue);
    scope.Complete(issue + latency);
  };
  complete_one(0, 100);
  complete_one(1000, 500);   // seq 1
  complete_one(2000, 300);
  complete_one(3000, 500);   // seq 3: ties with seq 1; the earlier request ranks first.

  const std::vector<RequestPathLedger::Exemplar>& worst = ledger.exemplars(ReqOp::kRead);
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0].latency_ns, 500u);
  EXPECT_EQ(worst[0].seq, 1u);
  EXPECT_EQ(worst[1].latency_ns, 500u);
  EXPECT_EQ(worst[1].seq, 3u);

  complete_one(4000, 600);  // Evicts the later 500.
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0].latency_ns, 600u);
  EXPECT_EQ(worst[1].seq, 1u);
}

TEST(ReqPathTest, SloBurnRatesAndBreachFollowTheErrorBudget) {
  RequestPathLedger ledger;
  ledger.Enable();
  SloObjective slo;
  slo.name = "t0.read.p50";
  slo.tenant = 0;
  slo.op = ReqOp::kRead;
  slo.quantile = 0.5;  // Error budget = 0.5: burn = 2 * violation fraction.
  slo.target_ns = 100;
  slo.window = 10 * kMicrosecond;
  ledger.AddObjective(slo);

  auto complete_one = [&ledger](SimTime issue, std::uint64_t latency) {
    RequestPathLedger::RequestScope scope(&ledger, RequestContext{0, ReqOp::kRead}, issue);
    scope.Complete(issue + latency);
  };
  // 1 violation in 4: fraction 0.25, burn 0.5 — inside budget.
  complete_one(1000, 50);
  complete_one(2000, 60);
  complete_one(3000, 70);
  complete_one(4000, 150);
  {
    const std::vector<RequestPathLedger::SloSnapshot> snaps = ledger.SloSnapshots();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].total, 4u);
    EXPECT_EQ(snaps[0].violations, 1u);
    EXPECT_NEAR(snaps[0].burn_short, 0.5, 1e-9);
    EXPECT_FALSE(snaps[0].breached);
  }
  // Push to 5 violations in 8: burn 1.25 on both windows — breached.
  complete_one(5000, 150);
  complete_one(6000, 150);
  complete_one(7000, 150);
  complete_one(8000, 150);
  {
    const std::vector<RequestPathLedger::SloSnapshot> snaps = ledger.SloSnapshots();
    ASSERT_EQ(snaps.size(), 1u);
    EXPECT_EQ(snaps[0].total, 8u);
    EXPECT_EQ(snaps[0].violations, 5u);
    EXPECT_NEAR(snaps[0].burn_short, 1.25, 1e-9);
    EXPECT_NEAR(snaps[0].burn_long, 1.25, 1e-9);
    EXPECT_TRUE(snaps[0].breached);
    EXPECT_GT(snaps[0].current_ns, 0u);
  }
  // The report serializes the same numbers; re-adding the objective by name replaces it.
  const std::string report = ledger.SloReportJson();
  EXPECT_NE(report.find("\"name\":\"t0.read.p50\""), std::string::npos);
  EXPECT_NE(report.find("\"breached\":true"), std::string::npos);
  ledger.AddObjective(slo);
  EXPECT_EQ(ledger.SloSnapshots().size(), 1u);
}

TEST(ReqPathTest, PublishToEmitsSegmentTenantAndInterferenceRows) {
  RequestPathLedger ledger;
  ledger.Enable();
  {
    RequestPathLedger::RequestScope scope(&ledger, RequestContext{7, ReqOp::kRead}, 0);
    ledger.ChargeInterval(0, 60, PathSegment::kFlashBusy);
    ChargeInterference(ledger, 60, 100, WriteCause::kDeviceGC, StackLayer::kFtl, "dev.gc");
    scope.Complete(100);
  }
  MetricRegistry registry;
  ledger.PublishTo(&registry);
  EXPECT_EQ(registry.GetCounter("reqpath.completed")->value(), 1u);
  EXPECT_EQ(registry.GetCounter("reqpath.read.seg.flash_busy_ns")->value(), 60u);
  EXPECT_EQ(registry.GetCounter("reqpath.read.seg.gc_stall_ns")->value(), 40u);
  EXPECT_EQ(registry.GetCounter("reqpath.interference.device_gc.ftl_ns")->value(), 40u);
  EXPECT_EQ(registry.GetHistogram("reqpath.tenant7.read.latency_ns")->count(), 1u);
}

TEST(ReqPathTest, ExemplarTimelineEmitsVictimSlicesAndFlowArrows) {
  Telemetry telemetry;
  telemetry.timeline.Enable();
  telemetry.reqpath.Enable();
  {
    RequestPathLedger::RequestScope scope(&telemetry.reqpath,
                                          RequestContext{1, ReqOp::kRead}, 100);
    ChargeInterference(telemetry.reqpath, 150, 400, WriteCause::kDeviceGC, StackLayer::kFtl,
                       "dev.gc");
    scope.Complete(500);
  }
  telemetry.reqpath.EmitExemplarTimeline(&telemetry.timeline);
  EXPECT_EQ(telemetry.timeline.flows_recorded(), 1u);
  const std::string trace = telemetry.timeline.ExportChromeTrace();
  EXPECT_NE(trace.find("reqpath.exemplar.read"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);  // Flow arrow start.
  EXPECT_NE(trace.find("\"cat\":\"reqpath\""), std::string::npos);
}

// --- The identity across real stack configurations ----------------------------------------

TEST(ReqPathStackTest, ConventionalSsdHoldsTheIdentityUnderGc) {
  Telemetry tel;
  ConventionalSsd ssd(SmallFlash(), FtlConfig{});
  ssd.AttachTelemetry(&tel, "conv");
  tel.reqpath.Enable();

  SimTime t = 0;
  const std::uint64_t span = ssd.num_blocks() / 4;
  std::uint64_t ops = 0;
  std::uint64_t matched = 0;
  std::uint64_t truncated = 0;
  const Histogram* program_latency = tel.registry.GetHistogram("conv.flash.program.latency_ns");
  // Heavy overwrites in a narrow range force GC under the measured writes.
  for (int round = 0; round < 6; ++round) {
    for (std::uint64_t b = 0; b < span; ++b) {
      const std::uint64_t program_ns_before = program_latency->sum();
      const SpanSample s = MeasureSpan(tel.registry, "conv.ftl.write", [&] {
        auto w = ssd.WriteBlocks(Lba{b}, 1, t, Pattern(4096, static_cast<std::uint8_t>(b)));
        ASSERT_TRUE(w.ok());
        t = w.value();
      });
      ops++;
      // The one host program was issued at the request's issue time.
      const std::uint64_t program_ns = program_latency->sum() - program_ns_before;
      const RequestPathLedger::Exemplar& req = tel.reqpath.last_completed();
      EXPECT_EQ(s.total, req.latency_ns);
      if (program_ns == req.latency_ns) {
        ExpectSpanMatchesRequest(s, req);  // Acked at program completion.
        matched++;
      } else if (program_ns > req.latency_ns) {
        // Truncation at a buffered ack: the span keeps the whole program, floors host at 0.
        EXPECT_EQ(s.attributed(), program_ns);
        EXPECT_EQ(s.host, 0u);
        EXPECT_EQ(ReqAttributed(req), req.latency_ns);
        EXPECT_LT(ReqAttributed(req), s.attributed());
        truncated++;
      }
    }
  }
  EXPECT_GT(truncated, 0u);
  std::vector<std::uint8_t> out(4096);
  for (std::uint64_t b = 0; b < span; ++b) {
    const SpanSample s = MeasureSpan(tel.registry, "conv.ftl.read", [&] {
      auto r = ssd.ReadBlocks(Lba{b}, 1, t, out);
      ASSERT_TRUE(r.ok());
      t = r.value();
    });
    ops++;
    ExpectSpanMatchesRequest(s, tel.reqpath.last_completed());  // One page, no buffering.
    matched++;
  }
  EXPECT_GT(matched, 0u);
  // Watermark clipping: four pages on four planes read in parallel from one issue time.
  std::vector<std::uint8_t> out4(4 * 4096);
  const SpanSample s4 = MeasureSpan(tel.registry, "conv.ftl.read", [&] {
    auto r = ssd.ReadBlocks(Lba{0}, 4, t, out4);
    ASSERT_TRUE(r.ok());
    t = r.value();
  });
  ops++;
  const RequestPathLedger::Exemplar& req4 = tel.reqpath.last_completed();
  EXPECT_EQ(s4.total, req4.latency_ns);
  EXPECT_GT(s4.attributed(), s4.total);
  EXPECT_EQ(s4.host, 0u);
  EXPECT_EQ(ReqAttributed(req4), req4.latency_ns);

  EXPECT_EQ(tel.reqpath.completed(), ops);
  EXPECT_EQ(tel.reqpath.abandoned(), 0u);
  EXPECT_GT(Seg(tel.reqpath, ReqOp::kWrite, PathSegment::kFlashBusy), 0u);
  ExpectAttributionIdentity(tel.reqpath);
}

// Host FTL on ZNS under full-space churn, relocating with the device's simple copy (the
// default) or with host reads and writes, whose flash ops run inside the victim write's
// InterferenceScope. Returns the number of writes whose request carried compaction_stall.
std::uint64_t RunHostFtlOnZnsUnderReclaim(bool use_simple_copy) {
  Telemetry tel;
  ZnsDevice dev(SmallFlash(), DeviceConfig());
  HostFtlConfig config;
  config.use_simple_copy = use_simple_copy;
  HostFtlBlockDevice ftl(&dev, config);
  dev.AttachTelemetry(&tel, "zns");  // Shared bundle: zns-level waits charge the same ledger.
  ftl.AttachTelemetry(&tel, "hostftl");
  tel.reqpath.Enable();

  // Full-space churn: enough overwrite pressure that reclaim runs forced, inside the
  // measured writes (the same recipe the hostftl churn test uses to guarantee GC).
  Rng rng(1);
  SimTime t = 0;
  const std::uint64_t n = ftl.num_blocks();
  std::uint64_t ops = 0;
  std::uint64_t reclassified = 0;
  for (std::uint64_t i = 0; i < 3 * n; ++i) {
    const std::uint64_t lba = rng.NextBelow(n);
    const SpanSample s = MeasureSpan(tel.registry, "hostftl.write", [&] {
      auto w = ftl.WriteBlocks(Lba{lba}, 1, t, Pattern(4096, static_cast<std::uint8_t>(i)));
      ASSERT_TRUE(w.ok()) << w.status().ToString() << " at op " << i;
      t = w.value();
    });
    ops++;
    const RequestPathLedger::Exemplar& req = tel.reqpath.last_completed();
    EXPECT_EQ(s.total, req.latency_ns);
    if (ReqSeg(req, PathSegment::kCompactionStall) > 0) {
      // InterferenceScope: the reclaim's flash time is compaction_stall in the request and
      // flash in the span.
      EXPECT_GT(s.flash, ReqSeg(req, PathSegment::kFlashBusy));
      reclassified++;
    }
  }
  std::vector<std::uint8_t> out(4096);
  for (std::uint64_t b = 0; b < n; b += 7) {
    const SpanSample s = MeasureSpan(tel.registry, "hostftl.read", [&] {
      auto r = ftl.ReadBlocks(Lba{b}, 1, t, out);
      ASSERT_TRUE(r.ok());
      t = r.value();
    });
    ops++;
    ExpectSpanMatchesRequest(s, tel.reqpath.last_completed());  // One page, no buffering.
  }
  EXPECT_GT(ftl.stats().gc_cycles, 0u) << "churn must trigger host reclaim";
  EXPECT_EQ(tel.reqpath.completed(), ops);
  ExpectAttributionIdentity(tel.reqpath);
  // Reclaim ran inside measured writes and was attributed with its identity.
  EXPECT_GT(
      tel.reqpath.interference_ns(WriteCause::kBlockEmulationReclaim, StackLayer::kHostFtl),
      0u);
  return reclassified;
}

TEST(ReqPathStackTest, HostFtlOnZnsHoldsTheIdentityUnderReclaim) {
  RunHostFtlOnZnsUnderReclaim(/*use_simple_copy=*/true);
  // Host-copy reclaim runs host-class flash ops inside the victim write's InterferenceScope.
  EXPECT_GT(RunHostFtlOnZnsUnderReclaim(/*use_simple_copy=*/false), 0u);
}

TEST(ReqPathStackTest, PersistentQueueHoldsTheIdentityWithTenantTagging) {
  Telemetry tel;
  ZnsDevice dev(SmallFlash(), DeviceConfig());
  dev.AttachTelemetry(&tel, "zns");
  QueueConfig qc;
  qc.tenant = 4;
  PersistentQueue q(&dev, qc);
  tel.reqpath.Enable();

  SimTime t = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    auto e = q.Enqueue(Pattern(4096, static_cast<std::uint8_t>(i)), t);
    ASSERT_TRUE(e.ok());
    t = e.value();
  }
  std::vector<std::uint8_t> out;
  for (std::uint64_t i = 0; i < 64; ++i) {
    auto d = q.Dequeue(out, t);
    ASSERT_TRUE(d.ok());
    t = d.value().completion;
  }
  EXPECT_EQ(tel.reqpath.completed(), 128u);
  EXPECT_EQ(tel.reqpath.op_totals(ReqOp::kWrite).count, 64u);
  EXPECT_EQ(tel.reqpath.op_totals(ReqOp::kRead).count, 64u);
  EXPECT_EQ(tel.reqpath.last_completed().ctx.tenant, 4u);
  ExpectAttributionIdentity(tel.reqpath);
}

Fleet BuildActiveFleet(FleetConfig* out_cfg) {
  FleetConfig cfg = FleetConfig::Mixed(4, 0.5, 13);
  // Aggressive rebalancing so wear migration is live during the measured ops.
  cfg.rebalancer.enabled = true;
  cfg.rebalancer.plan_interval = 1 * kMillisecond;
  cfg.rebalancer.skew_threshold = 1.01;
  cfg.rebalancer.min_erases = 8;
  *out_cfg = cfg;
  return Fleet(cfg);
}

FleetRunResult DriveFleet(Fleet& fleet, std::uint64_t ops) {
  RandomWorkloadConfig wl;
  wl.lba_space = fleet.num_pages();
  wl.read_fraction = 0.3;
  wl.io_pages = 4;
  wl.distribution = AddressDistribution::kZipfian;
  wl.zipf_theta = 0.99;  // ZipfGenerator contract: theta in (0, 1).
  wl.seed = 55;
  RandomWorkload gen(wl);
  FleetDriverOptions opts;
  opts.ops = ops;
  opts.step_interval = 4;
  opts.tenant = 2;
  return RunFleetClosedLoop(fleet, gen, opts);
}

TEST(ReqPathStackTest, FleetWithRebalancingHoldsTheIdentity) {
  Telemetry tel;
  FleetConfig cfg;
  Fleet fleet = BuildActiveFleet(&cfg);
  fleet.AttachTelemetry(&tel, "fleet");
  tel.reqpath.Enable();

  const FleetRunResult result = DriveFleet(fleet, 16000);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  // The config must actually exercise migration, or this test proves less than it claims.
  EXPECT_GE(fleet.stats().migrations_completed, 1u);
  EXPECT_EQ(tel.reqpath.completed() + tel.reqpath.abandoned(),
            result.reads + result.writes + result.trims + result.shed_drops);
  ExpectAttributionIdentity(tel.reqpath);
  // Device-internal charges reached the fleet ledger through delegation.
  EXPECT_GT(Seg(tel.reqpath, ReqOp::kRead, PathSegment::kFlashBusy), 0u);
  EXPECT_GT(Seg(tel.reqpath, ReqOp::kWrite, PathSegment::kReplication), 0u);
}

TEST(ReqPathStackTest, LedgerOnDoesNotPerturbSimResultsAndDumpsAreByteIdentical) {
  // Same seed, ledger off vs. on: every SimTime-domain result must be identical (the
  // observer does not disturb the experiment). And two ledger-on runs must produce
  // byte-identical exemplar dumps and SLO reports.
  auto run = [](bool with_ledger, std::string* exemplars, std::string* slo_report) {
    Telemetry tel;
    FleetConfig cfg;
    Fleet fleet = BuildActiveFleet(&cfg);
    fleet.AttachTelemetry(&tel, "fleet");
    if (with_ledger) {
      tel.reqpath.Enable();
      SloObjective slo;
      slo.name = "t2.read.p99";
      slo.tenant = 2;
      slo.op = ReqOp::kRead;
      slo.target_ns = 500 * kMicrosecond;
      tel.reqpath.AddObjective(slo);
    }
    const FleetRunResult result = DriveFleet(fleet, 8000);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    if (exemplars != nullptr) {
      *exemplars = tel.reqpath.DumpExemplarsJson();
    }
    if (slo_report != nullptr) {
      *slo_report = tel.reqpath.SloReportJson();
    }
    std::string blob;
    blob += std::to_string(result.end) + "|" + std::to_string(result.reads) + "|" +
            std::to_string(result.writes) + "|" + std::to_string(result.sheds) + "|" +
            std::to_string(result.read_latency.P99()) + "|" +
            std::to_string(result.write_latency.P99()) + "\n";
    std::string metrics;  // Snapshot() runs the registered providers (fleet publish).
    JsonLinesSink().Render("reqpath_test", tel.registry.Snapshot(), &metrics);
    // Strip the ledger's own rows: everything else must not depend on the ledger.
    for (std::size_t pos = 0; pos < metrics.size();) {
      const std::size_t eol = metrics.find('\n', pos);
      const std::string line = metrics.substr(pos, eol - pos);
      if (line.find("\"metric\":\"reqpath.") == std::string::npos) {
        blob += line + "\n";
      }
      pos = (eol == std::string::npos) ? metrics.size() : eol + 1;
    }
    return blob;
  };

  std::string exemplars_a;
  std::string exemplars_b;
  std::string slo_a;
  std::string slo_b;
  const std::string off = run(false, nullptr, nullptr);
  const std::string on_a = run(true, &exemplars_a, &slo_a);
  const std::string on_b = run(true, &exemplars_b, &slo_b);
  EXPECT_EQ(off, on_a);  // Observer effect: none.
  EXPECT_EQ(on_a, on_b);
  EXPECT_FALSE(exemplars_a.empty());
  EXPECT_EQ(exemplars_a, exemplars_b);  // Deterministic exemplar capture.
  EXPECT_EQ(slo_a, slo_b);              // Deterministic SLO report.
  EXPECT_NE(exemplars_a.find("\"op\":\"read\""), std::string::npos);
  EXPECT_NE(slo_a.find("\"name\":\"t2.read.p99\""), std::string::npos);
}

}  // namespace
}  // namespace blockhead
