// Host-side timing for the benchmark: the measured phase's chunked wall/CPU meter, and the
// in-memory span trace of traced runs.
//
// The benchmark wraps every call it makes into a layer's public API in a span: layer name,
// host start/end (steady_clock ns), simulated start/end (the SimTime the call was issued at
// and the completion it returned), the enclosing span, and a request id shared by all spans
// of one benchmark request. Spans stay in memory during the run and are written out once,
// when it ends. With no recorder (nullptr) the wrappers are a single branch, so untraced runs
// execute the same code.
#ifndef BLOCKHEAD_PERFBENCH_SPAN_TRACE_H_
#define BLOCKHEAD_PERFBENCH_SPAN_TRACE_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"
#include "src/util/types.h"

namespace blockhead::perfbench {

// Every span name the benchmark records. Names are "<layer>.<op>", the layer being the src/
// module whose public API the span wraps.
enum class SpanName : std::uint8_t {
  kFtlWrite,
  kFtlRead,
  kHostFtlWrite,
  kHostFtlRead,
  kHostFtlPump,
  kKvPut,
  kKvGet,
  kZonefileAppend,
  kZonefileRead,
  kZonefileSync,
  kZonefilePump,
  kZonefileCreate,
  kZonefileDelete,
  kFleetWrite,
  kFleetRead,
  kFleetStep,
  kFlashProgram,
  kFlashRead,
  kZnsAppend,
  kZnsRead,
  kCount,
};

const char* SpanNameString(SpanName name);

struct Span {
  SpanName name = SpanName::kCount;
  std::int32_t parent = -1;  // Index of the enclosing span, -1 at top level.
  std::uint64_t request = 0;
  std::uint64_t host_begin_ns = 0;
  std::uint64_t host_end_ns = 0;
  SimTime sim_begin = 0;
  SimTime sim_end = 0;
};

inline std::uint64_t HostNowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// User+sys CPU time of the process (what getrusage reports, at ns resolution).
inline std::uint64_t CpuNowNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Host wall and CPU time of a measured phase, cut into chunks of a fixed number of requests.
// A chunk holds the same simulated work in every repetition of a seed, so the benchmark can
// take each chunk from its fastest repetition and sum them: a burst of interference from
// other tenants of the host then only moves the repetitions it hit.
class PhaseMeter {
 public:
  static constexpr std::uint64_t kChunkRequests = 8192;

  // Call before request `index` (0-based) of the measured phase, and Finish after the last.
  void AtRequest(std::uint64_t index) {
    if (index % kChunkRequests == 0) {
      Mark();
    }
  }
  void Finish() { Mark(); }

  // Per-chunk durations, ns.
  std::vector<std::uint64_t> WallChunks() const { return Diffs(wall_); }
  std::vector<std::uint64_t> CpuChunks() const { return Diffs(cpu_); }

 private:
  void Mark() {
    wall_.push_back(HostNowNs());
    cpu_.push_back(CpuNowNs());
  }
  static std::vector<std::uint64_t> Diffs(const std::vector<std::uint64_t>& marks) {
    std::vector<std::uint64_t> d;
    for (std::size_t i = 1; i < marks.size(); ++i) {
      d.push_back(marks[i] - marks[i - 1]);
    }
    return d;
  }
  std::vector<std::uint64_t> wall_;
  std::vector<std::uint64_t> cpu_;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t reserve) { spans_.reserve(reserve); }

  // Starts a new benchmark request; spans opened until the next call share its id.
  void BeginRequest() { ++request_; }

  std::size_t Open(SpanName name, SimTime sim_begin) {
    const std::size_t index = spans_.size();
    Span& s = spans_.emplace_back();
    s.name = name;
    s.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
    s.request = request_;
    s.sim_begin = sim_begin;
    open_.push_back(index);
    s.host_begin_ns = HostNowNs();
    return index;
  }

  void Close(std::size_t index, SimTime sim_end) {
    const std::uint64_t now = HostNowNs();
    Span& s = spans_[index];
    s.host_end_ns = now;
    s.sim_end = sim_end < s.sim_begin ? s.sim_begin : sim_end;
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Writes one CSV line per span of requests 1..max_request (header first). Returns false if
  // the file cannot be written.
  bool WriteCsv(const std::string& path, std::uint64_t max_request) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t request_ = 0;
};

inline SimTime CompletionOf(const Result<SimTime>& r, SimTime fallback) {
  return r.ok() ? r.value() : fallback;
}
template <typename T>
SimTime CompletionOf(const Result<T>& r, SimTime fallback) {
  if constexpr (requires { r.value().completion; }) {
    return r.ok() ? r.value().completion : fallback;
  } else {
    return fallback;
  }
}
template <typename T>
SimTime CompletionOf(const T&, SimTime fallback) {
  return fallback;  // Calls that return no completion (e.g. a pump's cycle count).
}

// Runs `call` inside a span when `rec` is non-null. The span's simulated end is the
// completion the call returned (its issue time when it returned none).
template <typename Call>
auto Traced(SpanRecorder* rec, SpanName name, SimTime issue, Call&& call) {
  if (rec == nullptr) {
    return call();
  }
  const std::size_t span = rec->Open(name, issue);
  auto result = call();
  rec->Close(span, CompletionOf(result, issue));
  return result;
}

template <typename Call>
void TracedVoid(SpanRecorder* rec, SpanName name, SimTime issue, Call&& call) {
  if (rec == nullptr) {
    call();
    return;
  }
  const std::size_t span = rec->Open(name, issue);
  call();
  rec->Close(span, issue);
}

}  // namespace blockhead::perfbench

#endif  // BLOCKHEAD_PERFBENCH_SPAN_TRACE_H_
