// perfbench — the repository benchmark program.
//
//   perfbench --workload ram256_grade|stream_spill|serve_open --seed N
//             --seconds S --trace 0|1 [--run-dir DIR]
//
// Builds the workload's inputs from the seed, checks every output, measures
// for S seconds with tracing off and prints the end-to-end metrics; with
// --trace 1 it measures again with spans around every call into a src/
// module and prints the per-layer metrics instead. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Exit code
// 0 only when every output check passed.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

struct MetricDecl {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, reported by every workload (README.md maps each
// slot to the workload's own operation).
const std::vector<MetricDecl> kEndToEnd = {
    {"setup_s", "s"},      {"p50_ms.a", "ms"},   {"p50_ms.b", "ms"},
    {"p50_ms.c", "ms"},    {"rate_per_s", "1/s"}, {"peak_rss_mb", "MiB"},
};

// Every per-layer metric. A layer a workload does not exercise reads 0.
const std::vector<MetricDecl> kPerLayer = {
    {"circuits.build_s", "s"},
    {"faults.universe_s", "s"},
    {"api.engine_construct_s", "s"},
    {"gen.workload_s", "s"},
    {"netlist.parse_s", "s"},
    {"switch.good_s", "s"},
    {"switch.good_evals", "count"},
    {"core.fsim_s", "s"},
    {"core.node_evals", "count"},
    {"core.phases", "count"},
    {"core.triggered_events", "count"},
    {"core.memo_probes", "count"},
    {"core.memo_hits", "count"},
    {"core.memo_hit_ratio", "ratio"},
    {"core.final_records", "count"},
    {"core.max_alive", "count"},
    {"core.fsim_over_good", "ratio"},
    {"checkpoint.record_s", "s"},
    {"checkpoint.resident_bytes", "bytes"},
    {"checkpoint.spill_chunks", "count"},
    {"checkpoint.max_chunk_bytes", "bytes"},
    {"checkpoint.good_evals", "count"},
    {"store.hits", "count"},
    {"store.recordings", "count"},
    {"store.hit_ratio", "ratio"},
    {"sharded.replay_s", "s"},
    {"sharded.cpu_s", "s"},
    {"sharded.parallelism", "ratio"},
    {"sharded.efficiency", "ratio"},
    {"sched.plan_s", "s"},
    {"sched.batches", "count"},
    {"patterns.pull_s", "s"},
    {"patterns.count", "count"},
    {"seu.campaign_s", "s"},
    {"seu.good_state_s", "s"},
    {"seu.injections", "count"},
    {"seu.instants", "count"},
    {"seu.detected", "count"},
    {"seu.silent", "count"},
    {"seu.latent", "count"},
    {"serve.ping_rtt_ms", "ms"},
    {"serve.submit_rtt_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.queue_depth_max", "count"},
    {"serve.rejected", "count"},
    {"serve.pool_reuse_ratio", "ratio"},
    {"serve.gen_late_ms", "ms"},
    {"serve.req_p95_ms.lo", "ms"},
    {"serve.req_p95_ms.mid", "ms"},
    {"serve.req_p95_ms.hi", "ms"},
    {"serve.samples.lo", "count"},
    {"serve.samples.mid", "count"},
    {"serve.samples.hi", "count"},
    {"trace_overhead", "ratio"},
    {"self_s.bench", "s"},
    {"self_s.circuits", "s"},
    {"self_s.patterns", "s"},
    {"self_s.faults", "s"},
    {"self_s.gen", "s"},
    {"self_s.netlist", "s"},
    {"self_s.api", "s"},
    {"self_s.switch", "s"},
    {"self_s.core", "s"},
    {"self_s.checkpoint", "s"},
    {"self_s.sched", "s"},
    {"self_s.sharded", "s"},
    {"self_s.seu", "s"},
    {"self_s.serve", "s"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload ram256_grade|stream_spill|"
               "serve_open --seed N --seconds S --trace 0|1 [--run-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parseCount(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage("bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  a.runDir = ".bench_build/run";
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parseCount(flag, v);
      haveSeed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parseCount(flag, v);
      if (s == 0 || s > 3600) usage("--seconds must be in [1, 3600]");
      a.seconds = static_cast<double>(s);
      haveSeconds = true;
    } else if (flag == "--trace") {
      const std::uint64_t t = parseCount(flag, v);
      if (t > 1) usage("--trace must be 0 or 1");
      a.trace = t == 1;
      haveTrace = true;
    } else if (flag == "--run-dir") {
      a.runDir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !haveSeed || !haveSeconds || !haveTrace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

// Numbers from a debug or sanitizer build are 5-20x off and must not be
// reported as measurements.
std::string buildProblem() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  if (type != "Release") return "build type is '" + type + "', not Release";
  if (flags.find("sanitize") != std::string::npos) {
    return "sanitizer flags in '" + flags + "'";
  }
#ifndef NDEBUG
  return "assertions enabled (NDEBUG not defined)";
#else
  return {};
#endif
}

// Peak resident set of this process image. VmHWM rather than ru_maxrss:
// Linux carries ru_maxrss across exec, so it would report the launching
// Python process's footprint whenever that is the larger one.
double peakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib <= 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void finishTrace(const Tracer& tracer, const Args& args, Report& report) {
  const std::string path = args.runDir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  tracer.writeChromeJson(path);
  std::printf("trace written to %s\n", path.c_str());
  for (const auto& [layer, seconds] : tracer.selfSecondsByLayer()) {
    report.perLayer["self_s." + layer] = seconds;
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parseArgs(argc, argv);
  const std::string problem = buildProblem();
  if (!problem.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n",
                 problem.c_str());
    return 3;
  }
#ifdef __clang__
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::printf("host: nproc=%u compiler=\"%s\" build=%s flags=\"%s\"\n",
              std::thread::hardware_concurrency(), compiler,
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  Report report;
  try {
    std::filesystem::create_directories(args.runDir);
    if (args.workload == "ram256_grade") {
      runRam256Grade(args, report);
    } else if (args.workload == "stream_spill") {
      runStreamSpill(args, report);
    } else if (args.workload == "serve_open") {
      runServeOpen(args, report);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  try {
    report.endToEnd["peak_rss_mb"] = peakRssMiB();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("inputs 0x%016llx\n",
              static_cast<unsigned long long>(report.inputs));

  // The declared lists must match BENCHMARK.json: a workload may
  // not report an undeclared name, and must report every end-to-end one.
  const auto& decls = args.trace ? kPerLayer : kEndToEnd;
  const auto& values = args.trace ? report.perLayer : report.endToEnd;
  std::set<std::string> declared;
  for (const MetricDecl& d : decls) declared.insert(d.name);
  for (const auto& [name, v] : values) {
    (void)v;
    if (!declared.count(name)) {
      std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
      return 1;
    }
  }
  std::string metrics;
  for (const MetricDecl& d : decls) {
    const auto it = values.find(d.name);
    if (it == values.end() && !args.trace) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   args.workload.c_str(), d.name);
      return 1;
    }
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("metric %-28s %14.6f %s\n", d.name, v, d.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(d.name) + "\": {\"value\": " + jsonNumber(v) +
               ", \"unit\": \"" + d.unit + "\"}";
  }
  const double errorRate =
      report.attempted == 0
          ? 1.0
          : static_cast<double>(report.failed) /
                static_cast<double>(report.attempted);
  std::printf("error_rate %.6f (%llu failed of %llu attempted)\n", errorRate,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const std::string& p : report.problems) {
    std::printf("FAILED: %s\n", p.c_str());
  }
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  return correct ? 0 : 1;
}
