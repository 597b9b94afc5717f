#include "src/telemetry/reqpath/request_path.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "src/telemetry/sink.h"  // FormatMetricDouble + JsonEscape: shared renderers.
#include "src/telemetry/timeline.h"

namespace blockhead {

namespace {

// Burn-rate long window multiplier: the slow signal confirming a fast-window burn is real.
constexpr std::uint64_t kLongWindowFactor = 8;

}  // namespace

const char* ReqOpName(ReqOp op) {
  switch (op) {
    case ReqOp::kRead:
      return "read";
    case ReqOp::kWrite:
      return "write";
    case ReqOp::kTrim:
      return "trim";
  }
  return "unknown";
}

const char* PathSegmentName(PathSegment seg) {
  switch (seg) {
    case PathSegment::kAdmissionQueue:
      return "admission_queue";
    case PathSegment::kDeviceQueue:
      return "device_queue";
    case PathSegment::kFlashBusy:
      return "flash_busy";
    case PathSegment::kGcStall:
      return "gc_stall";
    case PathSegment::kCompactionStall:
      return "compaction_stall";
    case PathSegment::kMigrationStall:
      return "migration_stall";
    case PathSegment::kReplication:
      return "replication";
    case PathSegment::kHostOther:
      return "host_other";
  }
  return "unknown";
}

PathSegment SegmentForCause(WriteCause cause) {
  switch (cause) {
    case WriteCause::kDeviceGC:
    case WriteCause::kWearMigration:
      return PathSegment::kGcStall;
    case WriteCause::kBlockEmulationReclaim:
    case WriteCause::kZoneCompaction:
    case WriteCause::kLsmFlush:
    case WriteCause::kLsmCompaction:
    case WriteCause::kCacheEviction:
    case WriteCause::kPadding:
      return PathSegment::kCompactionStall;
    case WriteCause::kFleetMigration:
      return PathSegment::kMigrationStall;
    case WriteCause::kHostWrite:
      // Interference with no maintenance scope open: another host op holds the plane. The
      // wait is real but not reclamation-inflicted; count it as device GC-class stall.
      return PathSegment::kGcStall;
  }
  return PathSegment::kGcStall;
}

void RequestPathLedger::Enable(const ReqPathConfig& config) {
  enabled_ = true;
  config_ = config;
  if (config_.exemplars_per_op == 0) {
    config_.exemplars_per_op = 1;
  }
  active_ = false;
  charges_.clear();
  override_stack_.clear();
  seq_ = 0;
  abandoned_ = 0;
  last_completion_ = 0;
  last_completed_ = Exemplar{};
  for (int op = 0; op < kReqOpCount; ++op) {
    op_totals_[op] = OpTotals{};
    exemplars_[op].clear();
  }
  tenants_.clear();
  for (auto& row : cum_interference_ns_) {
    for (auto& cell : row) {
      cell = 0;
    }
  }
}

void RequestPathLedger::AddObjective(const SloObjective& objective) {
  RequestPathLedger* l = Resolve();
  for (SloState& s : l->slos_) {
    if (s.objective.name == objective.name) {
      s = SloState{objective,
                   RollingHistogram(objective.window),
                   RollingCounter(objective.window),
                   RollingCounter(objective.window),
                   RollingCounter(objective.window * kLongWindowFactor),
                   RollingCounter(objective.window * kLongWindowFactor)};
      return;
    }
  }
  l->slos_.push_back(SloState{objective,
                              RollingHistogram(objective.window),
                              RollingCounter(objective.window),
                              RollingCounter(objective.window),
                              RollingCounter(objective.window * kLongWindowFactor),
                              RollingCounter(objective.window * kLongWindowFactor)});
}

void RequestPathLedger::BeginRequest(const RequestContext& ctx, SimTime issue) {
  active_ = true;
  ctx_ = ctx;
  issue_ = issue;
  watermark_ = issue;
  charges_.clear();
  for (auto& row : req_interference_ns_) {
    for (auto& cell : row) {
      cell = 0;
    }
  }
  longest_interference_ns_ = 0;
  interferer_begin_ = interferer_end_ = 0;
  interferer_cause_ = WriteCause::kHostWrite;
  interferer_layer_ = StackLayer::kHost;
  interferer_track_.clear();
}

void RequestPathLedger::ChargeSlow(SimTime start, SimTime end, PathSegment segment,
                                   bool is_interference, WriteCause cause, StackLayer layer,
                                   std::string_view track) {
  if (!override_stack_.empty()) {
    const OverrideRec& over = override_stack_.back();
    segment = over.segment;
    if (over.interference) {
      is_interference = true;
      cause = over.cause;
      layer = over.layer;
      track = over.track;
    }
  }
  // Clip against the high-water mark: earlier charges own their interval (layers charge in
  // issue order down the stack, so the first claimant is the proximate wait).
  if (start < watermark_) {
    start = watermark_;
  }
  if (end <= start) {
    return;
  }
  charges_.push_back(ChargeRec{start, end, segment});
  watermark_ = end;
  if (is_interference) {
    const std::uint64_t ns = end - start;
    req_interference_ns_[static_cast<int>(cause)][static_cast<int>(layer)] += ns;
    if (ns > longest_interference_ns_) {
      longest_interference_ns_ = ns;
      interferer_begin_ = start;
      interferer_end_ = end;
      interferer_cause_ = cause;
      interferer_layer_ = layer;
      interferer_track_.assign(track);
    }
  }
}

void RequestPathLedger::ChargeFlashOp(const FlashOpCharge& op) {
  if (!open_spans_.empty()) {
    SimTime by_segment[kPathSegmentCount] = {};
    SimTime start = op.issue;
    for (int i = 0; i < op.count; ++i) {
      by_segment[static_cast<int>(op.pieces[i].segment)] += op.pieces[i].end - start;
      start = op.pieces[i].end;
    }
    for (OpenSpan& s : open_spans_) {
      s.queue_ns += by_segment[static_cast<int>(PathSegment::kDeviceQueue)];
      s.gc_ns += by_segment[static_cast<int>(PathSegment::kGcStall)];
      s.flash_ns += by_segment[static_cast<int>(PathSegment::kFlashBusy)];
    }
  }
  RequestPathLedger* l = Resolve();
  if (!l->active_) {
    return;
  }
  SimTime start = op.issue;
  for (int i = 0; i < op.count; ++i) {
    const FlashOpCharge::Piece& piece = op.pieces[i];
    if (piece.segment == PathSegment::kGcStall) {
      l->ChargeSlow(start, piece.end, SegmentForCause(op.gc_cause), /*is_interference=*/true,
                    op.gc_cause, op.gc_layer, op.gc_track);
    } else {
      l->ChargeSlow(start, piece.end, piece.segment, /*is_interference=*/false,
                    WriteCause::kHostWrite, StackLayer::kHost, {});
    }
    start = piece.end;
  }
}

void RequestPathLedger::CompleteRequest(SimTime completion) {
  active_ = false;
  if (completion < issue_) {
    completion = issue_;
  }
  const std::uint64_t latency = completion - issue_;

  // Truncate every charge at the host-visible completion: buffered writes acknowledge before
  // the program lands, so in-flight media charges can extend past the latency the host saw.
  std::uint64_t seg_ns[kPathSegmentCount] = {};
  std::uint64_t charged = 0;
  for (const ChargeRec& rec : charges_) {
    const SimTime end = std::min(rec.end, completion);
    if (end > rec.start) {
      seg_ns[static_cast<int>(rec.segment)] += end - rec.start;
      charged += end - rec.start;
    }
  }
  // The identity: charges are disjoint subintervals of [issue, completion], so the residual
  // is nonnegative and the segment sum equals the latency exactly.
  seg_ns[static_cast<int>(PathSegment::kHostOther)] += latency - charged;

  const std::uint64_t seq = seq_++;
  OpTotals& totals = op_totals_[static_cast<int>(ctx_.op)];
  totals.count++;
  totals.latency_ns += latency;
  TenantTotals& tenant =
      tenants_[(static_cast<std::uint64_t>(ctx_.tenant) << 2) | static_cast<int>(ctx_.op)];
  tenant.count++;
  tenant.latency.Record(latency);
  for (int i = 0; i < kPathSegmentCount; ++i) {
    totals.seg_ns[i] += seg_ns[i];
    tenant.seg_ns[i] += seg_ns[i];
  }
  for (int c = 0; c < kWriteCauseCount; ++c) {
    for (int l = 0; l < kStackLayerCount; ++l) {
      cum_interference_ns_[c][l] += req_interference_ns_[c][l];
    }
  }
  if (completion > last_completion_) {
    last_completion_ = completion;
  }

  Exemplar record;
  record.ctx = ctx_;
  record.issue = issue_;
  record.completion = completion;
  record.latency_ns = latency;
  for (int i = 0; i < kPathSegmentCount; ++i) {
    record.seg_ns[i] = seg_ns[i];
  }
  for (int c = 0; c < kWriteCauseCount; ++c) {
    for (int l = 0; l < kStackLayerCount; ++l) {
      if (req_interference_ns_[c][l] > record.top_interference_ns) {
        record.top_interference_ns = req_interference_ns_[c][l];
        record.top_cause = static_cast<WriteCause>(c);
        record.top_layer = static_cast<StackLayer>(l);
      }
    }
  }
  record.interferer_begin = interferer_begin_;
  record.interferer_end = std::min(interferer_end_, completion);
  record.interferer_cause = interferer_cause_;
  record.interferer_layer = interferer_layer_;
  record.interferer_track = interferer_track_;
  record.seq = seq;
  last_completed_ = record;
  OfferExemplar(record);

  for (SloState& s : slos_) {
    if (s.objective.tenant != ctx_.tenant || s.objective.op != ctx_.op) {
      continue;
    }
    s.window_hist.Record(completion, latency);
    s.short_total.Add(completion);
    s.long_total.Add(completion);
    if (latency > s.objective.target_ns) {
      s.short_violations.Add(completion);
      s.long_violations.Add(completion);
    }
  }
}

void RequestPathLedger::AbandonRequest() {
  active_ = false;
  abandoned_++;
}

RequestPathLedger::SpanName* RequestPathLedger::InternSpan(std::string_view name) {
  auto it = span_names_.find(name);
  if (it == span_names_.end()) {
    it = span_names_.emplace(std::string(name), SpanName{}).first;
    it->second.name = it->first;
  }
  return &it->second;
}

RequestPathLedger::Span RequestPathLedger::StartSpan(SpanName* name, SimTime begin) {
  assert(span_registry_ != nullptr);
  const std::uint64_t id = next_span_id_++;
  open_spans_.push_back(OpenSpan{id, name, begin});
  return Span(this, id);
}

void RequestPathLedger::FinishSpan(std::uint64_t id, SimTime end) {
  for (std::size_t i = 0; i < open_spans_.size(); ++i) {
    if (open_spans_[i].id != id) {
      continue;
    }
    const OpenSpan s = open_spans_[i];
    open_spans_.erase(open_spans_.begin() + static_cast<std::ptrdiff_t>(i));
    const SimTime total = end > s.begin ? end - s.begin : 0;
    const SimTime attributed = s.queue_ns + s.gc_ns + s.flash_ns;
    const SimTime host = total > attributed ? total - attributed : 0;
    SpanName& n = *s.name;
    if (n.total_ns == nullptr) {
      const std::string prefix = "span." + n.name;
      n.total_ns = span_registry_->GetHistogram(prefix + ".total_ns");
      n.queue_ns = span_registry_->GetHistogram(prefix + ".queue_ns");
      n.gc_ns = span_registry_->GetHistogram(prefix + ".gc_ns");
      n.flash_ns = span_registry_->GetHistogram(prefix + ".flash_ns");
      n.host_ns = span_registry_->GetHistogram(prefix + ".host_ns");
    }
    n.total_ns->Record(total);
    n.queue_ns->Record(s.queue_ns);
    n.gc_ns->Record(s.gc_ns);
    n.flash_ns->Record(s.flash_ns);
    n.host_ns->Record(host);
    if (span_timeline_ != nullptr) {
      span_timeline_->RecordSpan(n.name, s.begin, end);
    }
    return;
  }
}

void RequestPathLedger::AbandonOpenSpans() {
  while (!open_spans_.empty()) {
    AbandonSpan(open_spans_.back().id);
  }
}

void RequestPathLedger::AbandonSpan(std::uint64_t id) {
  for (std::size_t i = 0; i < open_spans_.size(); ++i) {
    if (open_spans_[i].id == id) {
      SpanName& n = *open_spans_[i].name;
      if (n.abandoned == nullptr) {
        n.abandoned = span_registry_->GetCounter("span." + n.name + ".abandoned");
      }
      n.abandoned->Add(1);
      open_spans_.erase(open_spans_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void RequestPathLedger::OfferExemplar(const Exemplar& candidate) {
  std::vector<Exemplar>& pool = exemplars_[static_cast<int>(candidate.ctx.op)];
  // Ordered worst-first: (latency desc, seq asc). On ties the earliest request stays, so
  // the reservoir is independent of completion order perturbations at equal latency.
  if (pool.size() >= config_.exemplars_per_op &&
      candidate.latency_ns <= pool.back().latency_ns) {
    return;
  }
  auto pos = std::upper_bound(pool.begin(), pool.end(), candidate,
                              [](const Exemplar& a, const Exemplar& b) {
                                if (a.latency_ns != b.latency_ns) {
                                  return a.latency_ns > b.latency_ns;
                                }
                                return a.seq < b.seq;
                              });
  pool.insert(pos, candidate);
  if (pool.size() > config_.exemplars_per_op) {
    pool.pop_back();
  }
}

std::uint64_t RequestPathLedger::TotalLatencyNs() const {
  std::uint64_t sum = 0;
  for (const OpTotals& t : op_totals_) {
    sum += t.latency_ns;
  }
  return sum;
}

std::uint64_t RequestPathLedger::TotalSegmentNs() const {
  std::uint64_t sum = 0;
  for (const OpTotals& t : op_totals_) {
    for (const std::uint64_t ns : t.seg_ns) {
      sum += ns;
    }
  }
  return sum;
}

RequestPathLedger::SloEval RequestPathLedger::Evaluate(const SloState& state,
                                                       SimTime now) const {
  SloEval eval;
  eval.current_ns = state.window_hist.Merged(now).Percentile(state.objective.quantile);
  eval.total = state.short_total.Sum(now);
  eval.violations = state.short_violations.Sum(now);
  const double budget = std::max(1.0 - state.objective.quantile, 1e-9);
  if (eval.total > 0) {
    eval.burn_short = (static_cast<double>(eval.violations) /
                       static_cast<double>(eval.total)) /
                      budget;
  }
  const std::uint64_t long_total = state.long_total.Sum(now);
  if (long_total > 0) {
    eval.burn_long = (static_cast<double>(state.long_violations.Sum(now)) /
                      static_cast<double>(long_total)) /
                     budget;
  }
  eval.breached = eval.burn_short > 1.0 && eval.burn_long > 1.0;
  return eval;
}

void RequestPathLedger::PublishTo(MetricRegistry* registry) const {
  if (!enabled_ || registry == nullptr) {
    return;  // Feature off: snapshots stay byte-identical to a build without the ledger.
  }
  registry->GetCounter("reqpath.completed")->Set(seq_);
  registry->GetCounter("reqpath.abandoned")->Set(abandoned_);
  for (int op = 0; op < kReqOpCount; ++op) {
    const OpTotals& totals = op_totals_[op];
    if (totals.count == 0) {
      continue;
    }
    const std::string base = std::string("reqpath.") + ReqOpName(static_cast<ReqOp>(op));
    registry->GetCounter(base + ".count")->Set(totals.count);
    registry->GetCounter(base + ".latency_ns")->Set(totals.latency_ns);
    for (int i = 0; i < kPathSegmentCount; ++i) {
      if (totals.seg_ns[i] != 0) {
        registry
            ->GetCounter(base + ".seg." + PathSegmentName(static_cast<PathSegment>(i)) +
                         "_ns")
            ->Set(totals.seg_ns[i]);
      }
    }
  }
  for (const auto& [key, tenant] : tenants_) {
    const std::uint32_t id = static_cast<std::uint32_t>(key >> 2);
    const ReqOp op = static_cast<ReqOp>(key & 3);
    const std::string base =
        "reqpath.tenant" + std::to_string(id) + "." + ReqOpName(op);
    registry->GetCounter(base + ".count")->Set(tenant.count);
    Histogram* hist = registry->GetHistogram(base + ".latency_ns");
    if (hist != nullptr) {
      hist->Reset();
      hist->Merge(tenant.latency);
    }
    for (int i = 0; i < kPathSegmentCount; ++i) {
      if (tenant.seg_ns[i] != 0) {
        registry
            ->GetCounter(base + ".seg." + PathSegmentName(static_cast<PathSegment>(i)) +
                         "_ns")
            ->Set(tenant.seg_ns[i]);
      }
    }
  }
  for (int c = 0; c < kWriteCauseCount; ++c) {
    for (int l = 0; l < kStackLayerCount; ++l) {
      if (cum_interference_ns_[c][l] != 0) {
        registry
            ->GetCounter(std::string("reqpath.interference.") +
                         WriteCauseName(static_cast<WriteCause>(c)) + "." +
                         StackLayerName(static_cast<StackLayer>(l)) + "_ns")
            ->Set(cum_interference_ns_[c][l]);
      }
    }
  }
  for (const SloState& s : slos_) {
    const SloEval eval = Evaluate(s, last_completion_);
    const std::string base = "reqpath.slo." + s.objective.name;
    registry->GetCounter(base + ".target_ns")->Set(s.objective.target_ns);
    registry->GetCounter(base + ".window_total")->Set(eval.total);
    registry->GetCounter(base + ".window_violations")->Set(eval.violations);
    registry->GetGauge(base + ".current_ns")->Set(static_cast<double>(eval.current_ns));
    registry->GetGauge(base + ".burn_short")->Set(eval.burn_short);
    registry->GetGauge(base + ".burn_long")->Set(eval.burn_long);
    registry->GetGauge(base + ".breached")->Set(eval.breached ? 1.0 : 0.0);
  }
}

std::string RequestPathLedger::DumpExemplarsJson() const {
  std::string out = "{\"exemplars\":[";
  bool first = true;
  for (int op = 0; op < kReqOpCount; ++op) {
    int rank = 0;
    for (const Exemplar& e : exemplars_[op]) {
      if (!first) {
        out += ",";
      }
      first = false;
      out += "\n{\"op\":\"";
      out += ReqOpName(static_cast<ReqOp>(op));
      out += "\",\"rank\":" + std::to_string(rank++);
      out += ",\"tenant\":" + std::to_string(e.ctx.tenant);
      out += ",\"seq\":" + std::to_string(e.seq);
      out += ",\"issue_ns\":" + std::to_string(e.issue);
      out += ",\"completion_ns\":" + std::to_string(e.completion);
      out += ",\"latency_ns\":" + std::to_string(e.latency_ns);
      out += ",\"segments\":{";
      for (int i = 0; i < kPathSegmentCount; ++i) {
        if (i > 0) {
          out += ",";
        }
        out += "\"";
        out += PathSegmentName(static_cast<PathSegment>(i));
        out += "_ns\":" + std::to_string(e.seg_ns[i]);
      }
      out += "},\"top_interference\":{\"cause\":\"";
      out += WriteCauseName(e.top_cause);
      out += "\",\"layer\":\"";
      out += StackLayerName(e.top_layer);
      out += "\",\"ns\":" + std::to_string(e.top_interference_ns);
      out += "},\"interferer\":{\"track\":\"" + JsonEscape(e.interferer_track);
      out += "\",\"begin_ns\":" + std::to_string(e.interferer_begin);
      out += ",\"end_ns\":" + std::to_string(e.interferer_end);
      out += ",\"cause\":\"";
      out += WriteCauseName(e.interferer_cause);
      out += "\",\"layer\":\"";
      out += StackLayerName(e.interferer_layer);
      out += "\"}}";
    }
  }
  out += "\n]}\n";
  return out;
}

std::vector<RequestPathLedger::SloSnapshot> RequestPathLedger::SloSnapshots() const {
  std::vector<SloSnapshot> out;
  out.reserve(slos_.size());
  for (const SloState& s : slos_) {
    const SloEval eval = Evaluate(s, last_completion_);
    SloSnapshot snap;
    snap.objective = s.objective;
    snap.current_ns = eval.current_ns;
    snap.total = eval.total;
    snap.violations = eval.violations;
    snap.burn_short = eval.burn_short;
    snap.burn_long = eval.burn_long;
    snap.breached = eval.breached;
    out.push_back(snap);
  }
  return out;
}

std::string RequestPathLedger::SloReportJson() const {
  std::string out = "{\"slo\":[";
  bool first = true;
  for (const SloState& s : slos_) {
    const SloEval eval = Evaluate(s, last_completion_);
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\n{\"name\":\"" + JsonEscape(s.objective.name);
    out += "\",\"tenant\":" + std::to_string(s.objective.tenant);
    out += ",\"op\":\"";
    out += ReqOpName(s.objective.op);
    out += "\",\"quantile\":" + FormatMetricDouble(s.objective.quantile);
    out += ",\"target_ns\":" + std::to_string(s.objective.target_ns);
    out += ",\"window_ns\":" + std::to_string(s.objective.window);
    out += ",\"current_ns\":" + std::to_string(eval.current_ns);
    out += ",\"window_total\":" + std::to_string(eval.total);
    out += ",\"window_violations\":" + std::to_string(eval.violations);
    out += ",\"burn_short\":" + FormatMetricDouble(eval.burn_short);
    out += ",\"burn_long\":" + FormatMetricDouble(eval.burn_long);
    out += ",\"breached\":";
    out += eval.breached ? "true" : "false";
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

void RequestPathLedger::EmitExemplarTimeline(Timeline* timeline) const {
  if (timeline == nullptr || !timeline->enabled()) {
    return;
  }
  for (int op = 0; op < kReqOpCount; ++op) {
    const std::string track =
        std::string("reqpath.exemplar.") + ReqOpName(static_cast<ReqOp>(op));
    int rank = 0;
    for (const Exemplar& e : exemplars_[op]) {
      char name[96];
      std::snprintf(name, sizeof(name), "%s#%d tenant%u %s", ReqOpName(static_cast<ReqOp>(op)),
                    rank, e.ctx.tenant, WriteCauseName(e.top_cause));
      timeline->RecordHostSlice(track, name, e.issue, e.completion);
      if (!e.interferer_track.empty() && e.interferer_end > e.interferer_begin) {
        timeline->RecordFlowArrow(WriteCauseName(e.interferer_cause), e.interferer_track,
                                  e.interferer_begin, track, e.issue);
      }
      rank++;
    }
  }
}

}  // namespace blockhead
