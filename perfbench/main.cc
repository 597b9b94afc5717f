// perfbench: the repository benchmark. Host time per simulated request on four workloads,
// with the simulated results that must not move, and an outside-in per-layer trace.
//
//   perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//             [--spans <path prefix>] [--smoke] [--fault corrupt-shadow|device-error]
//
// A run repeats (set up, measure, verify) for --seconds of host time, at least three times.
// Host time per request takes each chunk of the measured phase from its fastest repetition;
// set-up time is the median. Every repetition replays the same seed, so its simulated outcome
// and layer counts must be bit-identical to the first; any difference fails the run. The last
// line of standard output is the JSON result; the lines before it print every metric by name
// with its unit. See README.md for the workloads and the metric map.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <optional>
#include <string>
#include <vector>

#include "span_trace.h"
#include "workloads.h"

namespace blockhead::perfbench {
namespace {

constexpr std::uint64_t kHeldOutSeed = 9001;
constexpr double kMaxRunSeconds = 150.0;  // Never start a repetition that could end past this.
// Traced runs dump the spans of this many requests (of the measured phase, and of the ladder)
// to <prefix>.run.csv and <prefix>.ladder.csv; statistics use every span.
constexpr std::uint64_t kDumpRequests = 100000;

std::uint64_t DefaultSeed(std::string_view workload) {
  if (workload == "kv_ycsb_zns") {
    return 77;  // YcsbConfig's default seed.
  }
  if (workload == "fleet_zipf_write") {
    return 42;  // bench_fleet's seed.
  }
  return 7;  // bench_read_latency's stream seed, shared by both block workloads.
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  bool smoke = false;
  Fault fault = Fault::kNone;
};

[[noreturn]] void Usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]\n"
               "                 [--spans <path prefix>] [--smoke]\n"
               "                 [--fault corrupt-shadow|device-error]\n"
               "workloads (default seed): conv_randrw (%" PRIu64 "), zns_hostftl_randrw (%" PRIu64
               "), kv_ycsb_zns (%" PRIu64 "), fleet_zipf_write (%" PRIu64
               "); held-out seed for re-checking claims: %" PRIu64 "\n",
               DefaultSeed("conv_randrw"), DefaultSeed("zns_hostftl_randrw"),
               DefaultSeed("kv_ycsb_zns"), DefaultSeed("fleet_zipf_write"), kHeldOutSeed);
  std::exit(code);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", argv[i]);
        Usage(2);
      }
      return argv[++i];
    };
    auto number = [&](const char* text) {
      char* end = nullptr;
      const double v = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(v >= 0)) {
        std::fprintf(stderr, "perfbench: '%s' is not a non-negative number\n", text);
        Usage(2);
      }
      return v;
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      const char* text = value();
      char* end = nullptr;
      args.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') {
        std::fprintf(stderr, "perfbench: bad --seed '%s'\n", text);
        Usage(2);
      }
      args.seed_given = true;
    } else if (arg == "--seconds") {
      args.seconds = number(value());
    } else if (arg == "--trace") {
      const std::string_view v = value();
      if (v != "0" && v != "1") {
        Usage(2);
      }
      args.trace = v == "1";
    } else if (arg == "--spans") {
      args.spans_path = value();
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--fault") {
      const std::string_view v = value();
      if (v == "corrupt-shadow") {
        args.fault = Fault::kCorruptShadow;
      } else if (v == "device-error") {
        args.fault = Fault::kDeviceError;
      } else {
        Usage(2);
      }
    } else if (arg == "--help") {
      Usage(0);
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", argv[i]);
      Usage(2);
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    std::fprintf(stderr, "perfbench: unknown or missing --workload '%s'\n",
                 args.workload.c_str());
    Usage(2);
  }
  if (!args.seed_given) {
    args.seed = DefaultSeed(args.workload);
  }
  return args;
}

// ----- Measurement ------------------------------------------------------------------------------

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

struct Rep {
  double setup_s = 0.0;
  std::vector<std::uint64_t> wall_chunks;  // Measured-phase host time per chunk, ns.
  std::vector<std::uint64_t> cpu_chunks;
  SimOutcome sim;
};

// One repetition: build and precondition a fresh stack (timed as set-up), run the measured
// phase (timed), then verify and collect counts outside the timed region. With a recorder the
// measured phase is traced; with a ladder recorder the ladder rungs are recorded after it.
bool RunRep(const Args& args, bool telemetry, SpanRecorder* rec, SpanRecorder* ladder,
            Rep& rep) {
  WorkloadOptions options;
  options.seed = args.seed;
  options.smoke = args.smoke;
  options.telemetry = telemetry;
  options.fault = args.fault;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, options);
  const std::uint64_t setup_begin = HostNowNs();
  const Status setup = workload->Setup();
  rep.setup_s = static_cast<double>(HostNowNs() - setup_begin) / 1e9;
  if (!setup.ok()) {
    std::fprintf(stderr, "perfbench: %s set-up failed: %s\n", args.workload.c_str(),
                 setup.ToString().c_str());
    return false;
  }
  PhaseMeter meter;
  workload->Run(rec, meter, rep.sim);
  rep.wall_chunks = meter.WallChunks();
  rep.cpu_chunks = meter.CpuChunks();
  workload->Finish(rep.sim);
  if (ladder != nullptr) {
    const Status rungs = RunLadder(args.workload, args.smoke, *ladder);
    if (!rungs.ok()) {
      std::fprintf(stderr, "perfbench: ladder failed: %s\n", rungs.ToString().c_str());
      return false;
    }
  }
  return true;
}

template <typename T>
double Median(std::vector<T> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? static_cast<double>(v[n / 2])
                    : (static_cast<double>(v[n / 2 - 1]) + static_cast<double>(v[n / 2])) / 2.0;
}

// Nearest-rank percentile of exact samples (no bucketing).
template <typename T>
T Percentile(std::vector<T> v, double q) {
  if (v.empty()) {
    return T{};
  }
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t index = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(index), v.end());
  return v[index];
}

std::uint64_t Fnv1a(const std::vector<SimTime>& values, std::uint64_t h) {
  for (const SimTime v : values) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Everything a repetition computed in simulated time. Two repetitions of one seed must
// produce the same string byte for byte.
std::string Fingerprint(const SimOutcome& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "requests=%" PRIu64 " errors=%" PRIu64 " sim=[%" PRIu64
                ",%" PRIu64 "] wa=%.17g lat=%016" PRIx64 "/%016" PRIx64,
                s.requests, s.errors, s.sim_begin, s.sim_end, s.write_amp,
                Fnv1a(s.read_latency, 0xcbf29ce484222325ULL),
                Fnv1a(s.write_latency, 0xcbf29ce484222325ULL));
  std::string fp = buf;
  for (const LayerCount& c : s.counts) {
    std::snprintf(buf, sizeof(buf), " %s=%.17g", c.name.c_str(), c.value);
    fp += buf;
  }
  return fp;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // Printed beside the value (sample counts), not part of the JSON.
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& table, const std::vector<std::string>& json_names) {
  for (const Metric& m : table) {
    std::printf("  %-40s %22.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : table) {
    if (std::find(json_names.begin(), json_names.end(), m.name) == json_names.end()) {
      continue;
    }
    json += first ? "" : ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// ----- Span statistics (traced runs) --------------------------------------------------------

struct SpanStats {
  std::vector<std::uint64_t> host_ns;
  std::vector<SimTime> sim_ns;
};

void AccumulateSpans(const SpanRecorder& rec, std::vector<SpanStats>& stats, double& kv_self_ns,
                     double& kv_calls) {
  const std::vector<Span>& spans = rec.spans();
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    const std::uint64_t host = s.host_end_ns - s.host_begin_ns;
    SpanStats& st = stats[static_cast<std::size_t>(s.name)];
    st.host_ns.push_back(host);
    st.sim_ns.push_back(s.sim_end - s.sim_begin);
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += host;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == SpanName::kKvPut || spans[i].name == SpanName::kKvGet) {
      kv_self_ns += static_cast<double>(spans[i].host_end_ns - spans[i].host_begin_ns) -
                    static_cast<double>(child_ns[i]);
      kv_calls += 1.0;
    }
  }
}

// Span names published as per-layer metrics, and whether the call returns a simulated
// completion (pumps and the fleet step do not, so they get no sim_ns_p99). The zonefile
// create/delete spans are recorded and count toward kv self time, but are not published.
constexpr std::pair<SpanName, bool> kPublishedSpans[] = {
    {SpanName::kFtlWrite, true},        {SpanName::kFtlRead, true},
    {SpanName::kHostFtlWrite, true},    {SpanName::kHostFtlRead, true},
    {SpanName::kHostFtlPump, false},    {SpanName::kKvPut, true},
    {SpanName::kKvGet, true},           {SpanName::kZonefileAppend, true},
    {SpanName::kZonefileRead, true},    {SpanName::kZonefileSync, true},
    {SpanName::kZonefilePump, false},   {SpanName::kFleetWrite, true},
    {SpanName::kFleetRead, true},       {SpanName::kFleetStep, false},
    {SpanName::kFlashProgram, true},    {SpanName::kFlashRead, true},
    {SpanName::kZnsAppend, true},       {SpanName::kZnsRead, true},
};

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const bool conv = args.workload == "conv_randrw";
  const std::size_t min_reps = args.smoke ? 2 : 3;
  const std::uint64_t run_begin = HostNowNs();
  auto elapsed_s = [&] { return static_cast<double>(HostNowNs() - run_begin) / 1e9; };

  // Repetition kinds. Untraced runs measure the end-to-end metrics. Traced runs interleave
  // rounds of (untraced, traced[, untraced without telemetry for conv_randrw]).
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  std::vector<Rep> no_telemetry;
  std::vector<SpanStats> span_stats(static_cast<std::size_t>(SpanName::kCount));
  std::optional<SpanRecorder> first_spans;  // The first traced repetition's, for the dump.
  std::optional<SpanRecorder> ladder_spans;
  double kv_self_ns = 0.0;
  double kv_calls = 0.0;
  std::string reference;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::string first_error;

  // Checks a finished repetition against the first one. Only the first keeps its latency
  // samples, so peak memory does not grow with the number of repetitions.
  auto account = [&](Rep& rep) {
    attempted += rep.sim.requests;
    failed += rep.sim.errors;
    if (rep.sim.errors != 0 && first_error.empty()) {
      first_error = rep.sim.first_error;
    }
    const std::string fp = Fingerprint(rep.sim);
    if (reference.empty()) {
      reference = fp;
    } else if (fp != reference) {
      mismatches++;
      std::fprintf(stderr, "perfbench: simulated outcome differs between repetitions\n  %s\n  %s\n",
                   reference.c_str(), fp.c_str());
    }
    if (&rep != &untraced.front()) {
      rep.sim.read_latency = {};
      rep.sim.write_latency = {};
    }
  };

  double longest_rep_s = 0.0;
  double peak_rss_mib = 0.0;
  for (std::size_t round = 0;; ++round) {
    const double round_begin = elapsed_s();
    if (!RunRep(args, true, nullptr, nullptr, untraced.emplace_back())) {
      return 1;
    }
    if (untraced.size() == 1) {
      peak_rss_mib = PeakRssMiB();  // Later repetitions only add allocator fragmentation.
    }
    account(untraced.back());
    if (args.trace) {
      SpanRecorder rec(1 << 20);
      SpanRecorder ladder(1 << 18);
      if (!RunRep(args, true, &rec, round == 0 ? &ladder : nullptr, traced.emplace_back())) {
        return 1;
      }
      account(traced.back());
      AccumulateSpans(rec, span_stats, kv_self_ns, kv_calls);
      AccumulateSpans(ladder, span_stats, kv_self_ns, kv_calls);
      if (round == 0) {  // Kept in memory until the run ends, then written out.
        first_spans.emplace(std::move(rec));
        ladder_spans.emplace(std::move(ladder));
      }
      if (conv) {
        if (!RunRep(args, false, nullptr, nullptr, no_telemetry.emplace_back())) {
          return 1;
        }
        account(no_telemetry.back());
      }
    }
    longest_rep_s = std::max(longest_rep_s, elapsed_s() - round_begin);
    const std::size_t needed = args.trace ? 2 : min_reps;
    if (untraced.size() >= needed && elapsed_s() >= args.seconds) {
      break;
    }
    if (elapsed_s() + longest_rep_s > kMaxRunSeconds) {
      break;
    }
  }

  if (first_spans && !args.spans_path.empty() &&
      !(first_spans->WriteCsv(args.spans_path + ".run.csv", kDumpRequests) &&
        ladder_spans->WriteCsv(args.spans_path + ".ladder.csv", kDumpRequests))) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s.*.csv\n", args.spans_path.c_str());
    return 1;
  }

  const bool correct = failed == 0 && mismatches == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: verification failed: %" PRIu64
                 " request errors, %" PRIu64 " repetition mismatches; first error: %s\n",
                 failed, mismatches, first_error.c_str());
  }

  const SimOutcome& sim = untraced.front().sim;
  const double requests = static_cast<double>(std::max<std::uint64_t>(sim.requests, 1));
  // Host time per request: each chunk's fastest repetition (or, for the printed comparison,
  // its median), summed over the chunks. Interference from other tenants of the host only
  // ever slows a chunk down, and comes in bursts of seconds; the fastest of several
  // repetitions of the same work is the estimate it disturbs least.
  auto ns_per_request = [requests](const std::vector<Rep>& reps,
                                   std::vector<std::uint64_t> Rep::*chunks,
                                   bool median = false) {
    double total = 0.0;
    for (std::size_t c = 0; c < (reps.front().*chunks).size(); ++c) {
      std::vector<std::uint64_t> across;
      for (const Rep& r : reps) {
        across.push_back((r.*chunks)[c]);
      }
      total += median ? Median(across)
                      : static_cast<double>(*std::min_element(across.begin(), across.end()));
    }
    return total / requests;
  };
  std::vector<double> setups;
  for (const Rep& r : untraced) {
    setups.push_back(r.setup_s);
  }
  const double host_ns = ns_per_request(untraced, &Rep::wall_chunks);
  std::vector<Metric> table;
  std::vector<std::string> json_names;

  if (!args.trace) {
    const double reads = static_cast<double>(sim.read_latency.size());
    const double writes = static_cast<double>(sim.write_latency.size());
    const double sim_s = static_cast<double>(sim.sim_end - sim.sim_begin) / 1e9;
    const std::string reps = std::to_string(untraced.size()) + " repetitions";
    auto median_note = [&](std::vector<std::uint64_t> Rep::*chunks) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "; median %.1f", ns_per_request(untraced, chunks, true));
      return "fastest of " + reps + " per chunk" + buf;
    };
    table = {
        {"host_ns_per_request", host_ns, "ns", median_note(&Rep::wall_chunks)},
        {"host_cpu_ns_per_request", ns_per_request(untraced, &Rep::cpu_chunks), "ns",
         median_note(&Rep::cpu_chunks)},
        {"setup_s", Median(setups), "s", "median of " + reps},
        {"peak_rss_mb", peak_rss_mib, "MiB", "through the first repetition"},
        {"sim_read_p50_us", static_cast<double>(Percentile(sim.read_latency, 0.50)) / 1e3, "us",
         "n=" + FormatNumber(reads)},
        {"sim_read_p99_us", static_cast<double>(Percentile(sim.read_latency, 0.99)) / 1e3, "us",
         "n=" + FormatNumber(reads)},
        {"sim_write_p99_us", static_cast<double>(Percentile(sim.write_latency, 0.99)) / 1e3,
         "us", "n=" + FormatNumber(writes)},
        {"sim_requests_per_s", sim_s > 0 ? static_cast<double>(sim.requests) / sim_s : 0.0,
         "1/s", "n=" + std::to_string(sim.requests)},
        {"sim_write_amp", sim.write_amp, "ratio", ""},
        {"error_rate",
         static_cast<double>(failed + mismatches) /
             static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
         "ratio", std::to_string(failed + mismatches) + " of " + std::to_string(attempted)},
    };
    // Gated as end-to-end metrics: those that vary with the seed and are never 0. The
    // simulated latency percentiles are quantized by the model (an uncontended page read, a
    // buffered write ack, a shed backoff step) and read the same for every seed on some
    // workloads, so they are published with the per-layer metrics instead; error_rate is 0 on
    // a correct run and travels as "failed" / "attempted".
    for (const char* name : {"host_ns_per_request", "host_cpu_ns_per_request", "setup_s",
                             "peak_rss_mb", "sim_requests_per_s", "sim_write_amp"}) {
      json_names.push_back(name);
    }
  } else {
    for (const auto& [name, has_completion] : kPublishedSpans) {
      const SpanStats& st = span_stats[static_cast<std::size_t>(name)];
      const std::string n = SpanNameString(name);
      table.push_back({n + ".host_ns_p50", static_cast<double>(Percentile(st.host_ns, 0.50)),
                       "ns", ""});
      table.push_back({n + ".host_ns_p99", static_cast<double>(Percentile(st.host_ns, 0.99)),
                       "ns", ""});
      if (has_completion) {
        table.push_back(
            {n + ".sim_ns_p99", static_cast<double>(Percentile(st.sim_ns, 0.99)), "ns", ""});
      }
      table.push_back({n + ".calls", static_cast<double>(st.host_ns.size()), "count", ""});
    }
    for (const LayerCount& c : sim.counts) {
      table.push_back({c.name, c.value, c.unit, ""});
    }
    table.push_back({"sim.read_p50_us",
                     static_cast<double>(Percentile(sim.read_latency, 0.50)) / 1e3, "us", ""});
    table.push_back({"sim.read_p99_us",
                     static_cast<double>(Percentile(sim.read_latency, 0.99)) / 1e3, "us", ""});
    table.push_back({"sim.write_p99_us",
                     static_cast<double>(Percentile(sim.write_latency, 0.99)) / 1e3, "us", ""});
    table.push_back({"sim.read_samples", static_cast<double>(sim.read_latency.size()), "count",
                     ""});
    table.push_back({"sim.write_samples", static_cast<double>(sim.write_latency.size()),
                     "count", ""});
    table.push_back({"kv.self_ns_per_op", kv_calls > 0 ? kv_self_ns / kv_calls : 0.0, "ns", ""});
    table.push_back({"telemetry.overhead_frac",
                     conv ? host_ns / ns_per_request(no_telemetry, &Rep::wall_chunks) - 1.0
                          : 0.0,
                     "ratio", ""});
    table.push_back({"trace.overhead_frac",
                     ns_per_request(traced, &Rep::wall_chunks) / host_ns - 1.0, "ratio", ""});
    for (const Metric& m : table) {
      json_names.push_back(m.name);
    }
  }
  std::printf("perfbench %s seed=%" PRIu64 " trace=%d: %zu untraced, %zu traced runs in %.1f s\n",
              args.workload.c_str(), args.seed, args.trace ? 1 : 0, untraced.size(),
              traced.size(), elapsed_s());
  PrintResult(correct, attempted, failed + mismatches, table, json_names);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace blockhead::perfbench

int main(int argc, char** argv) { return blockhead::perfbench::Main(argc, argv); }
