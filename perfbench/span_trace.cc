#include "span_trace.h"

#include <cstdio>

namespace blockhead::perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kFtlWrite:
      return "ftl.write";
    case SpanName::kFtlRead:
      return "ftl.read";
    case SpanName::kHostFtlWrite:
      return "hostftl.write";
    case SpanName::kHostFtlRead:
      return "hostftl.read";
    case SpanName::kHostFtlPump:
      return "hostftl.pump";
    case SpanName::kKvPut:
      return "kv.put";
    case SpanName::kKvGet:
      return "kv.get";
    case SpanName::kZonefileAppend:
      return "zonefile.append";
    case SpanName::kZonefileRead:
      return "zonefile.read";
    case SpanName::kZonefileSync:
      return "zonefile.sync";
    case SpanName::kZonefilePump:
      return "zonefile.pump";
    case SpanName::kZonefileCreate:
      return "zonefile.create";
    case SpanName::kZonefileDelete:
      return "zonefile.delete";
    case SpanName::kFleetWrite:
      return "fleet.write";
    case SpanName::kFleetRead:
      return "fleet.read";
    case SpanName::kFleetStep:
      return "fleet.step";
    case SpanName::kFlashProgram:
      return "flash.program";
    case SpanName::kFlashRead:
      return "flash.read";
    case SpanName::kZnsAppend:
      return "zns.append";
    case SpanName::kZnsRead:
      return "zns.read";
    case SpanName::kCount:
      break;
  }
  return "?";
}

bool SpanRecorder::WriteCsv(const std::string& path, std::uint64_t max_request) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "index,name,parent,request,host_begin_ns,host_end_ns,sim_begin_ns,sim_end_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.request > max_request) {
      continue;
    }
    std::fprintf(f, "%zu,%s,%d,%llu,%llu,%llu,%llu,%llu\n", i, SpanNameString(s.name), s.parent,
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.host_begin_ns),
                 static_cast<unsigned long long>(s.host_end_ns),
                 static_cast<unsigned long long>(s.sim_begin),
                 static_cast<unsigned long long>(s.sim_end));
  }
  return std::fclose(f) == 0;
}

}  // namespace blockhead::perfbench
