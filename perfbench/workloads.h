// The benchmark's four workloads and its layer ladder.
//
// Each workload builds its stack from the src/ libraries, generates every request itself from
// the seed, and drives the layers' public APIs directly, single-threaded, closed loop at queue
// depth 4: a request issues at the completion time of the oldest of the 4 outstanding ones
// (the rule RunClosedLoop uses). See README.md for why each workload exists.
#ifndef BLOCKHEAD_PERFBENCH_WORKLOADS_H_
#define BLOCKHEAD_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "span_trace.h"
#include "src/util/status.h"
#include "src/util/types.h"

namespace blockhead::perfbench {

inline constexpr std::uint32_t kQueueDepth = 4;

// A deliberate fault, used by the benchmark's own test to prove verification can fail.
enum class Fault {
  kNone,
  kCorruptShadow,  // One shadow value is altered, so a later read no longer matches it.
  kDeviceError,    // One request addresses a page past the end of the device.
};

struct WorkloadOptions {
  std::uint64_t seed = 1;
  bool smoke = false;      // Tiny sizes: the self-test's quick run.
  bool telemetry = true;   // conv_randrw only: attach the Telemetry bundle.
  Fault fault = Fault::kNone;
};

struct LayerCount {
  std::string name;  // "<layer>.<count>"
  double value = 0.0;
  const char* unit = "count";
};

// What one measured phase did in simulated time, plus the layer counts. Everything here is a
// pure function of the workload and seed.
struct SimOutcome {
  std::vector<SimTime> read_latency;   // ns, completion - issue, one per read.
  std::vector<SimTime> write_latency;  // ns, one per write/update.
  std::uint64_t requests = 0;          // Attempted.
  std::uint64_t errors = 0;            // Failed, shed for good, or failed verification.
  std::string first_error;
  SimTime sim_begin = 0;
  SimTime sim_end = 0;
  double write_amp = 0.0;
  std::vector<LayerCount> counts;  // Over the measured phase.
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the devices and preconditions them (fill + warm-up, or the KV load).
  virtual Status Setup() = 0;
  // The measured phase: a fixed, seed-determined request stream, timed by `meter`. `rec` is
  // null when untraced.
  virtual void Run(SpanRecorder* rec, PhaseMeter& meter, SimOutcome& out) = 0;
  // Consistency checks and layer counts; runs after the timed region.
  virtual void Finish(SimOutcome& out) = 0;
};

const std::vector<std::string>& WorkloadNames();

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name, const WorkloadOptions& options);

// Layer-ladder rungs: fixed-count direct flash.program / flash.read / zns.append / zns.read
// calls on fresh devices of the workload's geometry, recorded as spans.
Status RunLadder(std::string_view workload, bool smoke, SpanRecorder& rec);

}  // namespace blockhead::perfbench

#endif  // BLOCKHEAD_PERFBENCH_WORKLOADS_H_
