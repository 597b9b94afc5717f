#include "src/telemetry/trace.h"

namespace blockhead {

void Tracer::Span::End(SimTime end) {
  if (tracer_ != nullptr) {
    tracer_->Finish(id_, end);
    tracer_ = nullptr;
  }
}

void Tracer::Span::Abandon() {
  if (tracer_ != nullptr) {
    tracer_->Remove(id_);
    tracer_ = nullptr;
  }
}

Tracer::SpanName* Tracer::Intern(std::string_view name) {
  auto it = names_.find(name);
  if (it == names_.end()) {
    it = names_.emplace(std::string(name), SpanName{}).first;
    it->second.name = it->first;
  }
  return &it->second;
}

Tracer::Span Tracer::Start(SpanName* name, SimTime begin) {
  OpenSpan s;
  s.id = next_id_++;
  s.name = name;
  s.begin = begin;
  open_.push_back(s);
  return Span(this, s.id);
}

void Tracer::Charge(const SpanComponents& c) {
  for (OpenSpan& s : open_) {
    s.components.queue_ns += c.queue_ns;
    s.components.gc_ns += c.gc_ns;
    s.components.flash_ns += c.flash_ns;
    s.components.flash_ops += c.flash_ops;
  }
}

void Tracer::Finish(std::uint64_t id, SimTime end) {
  for (std::size_t i = 0; i < open_.size(); ++i) {
    if (open_[i].id != id) {
      continue;
    }
    const OpenSpan s = open_[i];
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
    const SimTime total = end > s.begin ? end - s.begin : 0;
    const SimTime attributed =
        s.components.queue_ns + s.components.gc_ns + s.components.flash_ns;
    const SimTime host = total > attributed ? total - attributed : 0;
    SpanName& n = *s.name;
    if (n.total_ns == nullptr) {
      const std::string prefix = "span." + n.name;
      n.total_ns = registry_->GetHistogram(prefix + ".total_ns");
      n.queue_ns = registry_->GetHistogram(prefix + ".queue_ns");
      n.gc_ns = registry_->GetHistogram(prefix + ".gc_ns");
      n.flash_ns = registry_->GetHistogram(prefix + ".flash_ns");
      n.host_ns = registry_->GetHistogram(prefix + ".host_ns");
    }
    n.total_ns->Record(total);
    n.queue_ns->Record(s.components.queue_ns);
    n.gc_ns->Record(s.components.gc_ns);
    n.flash_ns->Record(s.components.flash_ns);
    n.host_ns->Record(host);
    if (timeline_ != nullptr) {
      timeline_->RecordSpan(n.name, s.begin, end);
    }
    return;
  }
}

void Tracer::AbandonOpen() {
  while (!open_.empty()) {
    Remove(open_.back().id);
  }
}

void Tracer::Remove(std::uint64_t id) {
  for (std::size_t i = 0; i < open_.size(); ++i) {
    if (open_[i].id == id) {
      SpanName& n = *open_[i].name;
      if (n.abandoned == nullptr) {
        n.abandoned = registry_->GetCounter("span." + n.name + ".abandoned");
      }
      n.abandoned->Add(1);
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

}  // namespace blockhead
