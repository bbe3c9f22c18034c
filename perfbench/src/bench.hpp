// Shared pieces of the repository benchmark program: command-line arguments,
// the metric report every workload fills, the span tracer used by the traced
// pass, and small statistics helpers.
//
// Each workload (ram256_grade.cpp, stream_spill.cpp, serve_open.cpp) builds
// its inputs from the seed, checks every output, measures for the requested
// number of seconds with tracing off, and — in a traced run — repeats the
// measurement with spans recorded around every call into a src/ module.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Parsed command line (see main.cpp for the flags).
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string runDir;  ///< scratch directory inside the checkout
};

/// Everything a workload run reports. `endToEnd` and `perLayer` hold the
/// values a workload measured; main.cpp fills in the rest of the declared
/// metric list.
struct Report {
  std::map<std::string, double> endToEnd;
  std::map<std::string, double> perLayer;
  std::uint64_t attempted = 0;  ///< timed operations plus output checks
  std::uint64_t failed = 0;     ///< failed, refused or mismatching ones
  std::vector<std::string> problems;  ///< one line per failure
  /// Fingerprint of the inputs generated from the seed (printed, so two
  /// seeds can be shown to produce different inputs).
  std::uint64_t inputs = 0;

  /// Counts one checked operation; a false `ok` records `what` as a failure.
  void check(bool ok, const std::string& what);
};

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double nowSeconds();

/// Mixes two values into one well-spread 64-bit seed (splitmix64 finalizer),
/// for deriving per-round and per-tenant input seeds from --seed.
inline std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100] (0 for an empty sample).
double percentile(std::vector<double> v, double p);

/// Pins the calling thread to `width` CPUs chosen by rotating through the
/// CPUs it may run on, starting at `round`; restores the previous mask on
/// destruction. Threads a job starts inherit the mask, so a jobs=N job gets
/// width N. On a shared host the CPUs differ in speed from moment to moment
/// and a thread tends to stay on one of them for a whole run; rotating the
/// rounds over every CPU makes a run's median a sample of the whole host.
class CpuRotation {
 public:
  CpuRotation(std::size_t round, unsigned width);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  std::vector<int> saved_;  ///< CPUs of the mask to restore
};

/// The statistic every pinned per-round timing is reported with: round r
/// ran on the CPU rotation slot r % cpus, so this takes the median of each
/// slot's rounds and averages the slot medians. CPUs of a shared host run
/// at different speeds at the same moment, and a plain median over a
/// mixture of speed levels jumps between levels from run to run; the mean
/// of per-slot medians does not. Slots without rounds are skipped.
double rotatedMedian(const std::vector<double>& perRound);

/// Set-up time every workload reports as setup_s: the median of `reps`
/// timed calls of `make`, whose last result is kept in `out`. The previous
/// result is destroyed before each timed call, so tear-down is not counted.
/// With `rotate`, call i runs pinned to one CPU, rotating over all of them
/// (see CpuRotation); a set-up that starts threads must not be pinned.
template <typename T, typename Make>
double medianSetupSeconds(int reps, bool rotate, T& out, Make&& make) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    out = T();
    std::optional<CpuRotation> pin;
    if (rotate) pin.emplace(static_cast<std::size_t>(i), 1);
    const double t0 = nowSeconds();
    T fresh = make();
    times.push_back(nowSeconds() - t0);
    out = std::move(fresh);
  }
  return rotate ? rotatedMedian(times) : median(std::move(times));
}

/// In-memory span recorder for the traced pass. Spans carry a name of the
/// form "<layer>.<call>", start and end, the enclosing span on the same
/// thread (or an explicit parent), and an optional request id. Probe spans
/// mark calls the traced pass makes only to read a layer; they are not part
/// of the untraced work.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;
    std::uint64_t request = 0;
    bool probe = false;
    std::uint32_t thread = 0;
  };

  /// RAII span on the calling thread; nests under the thread's open span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, bool probe = false,
          std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t index() const { return index_; }

   private:
    Tracer& tracer_;
    std::int64_t index_;
  };

  /// Records a finished span whose start and end were taken on different
  /// threads (a service request: due on the generator, done on a reader).
  std::int64_t add(const std::string& name, double start, double end,
                   std::int64_t parent, std::uint64_t request);

  /// Summed duration of every span with this exact name.
  double totalSeconds(const std::string& name) const;
  /// Duration of each span with this exact name, in recording order.
  std::vector<double> durations(const std::string& name) const;
  /// For each span named `parent`, in recording order, the summed duration
  /// of its direct children named in `children` (a traced round's timed
  /// jobs, which trace_overhead compares with the untraced round).
  std::vector<double> childSums(const std::string& parent,
                                const std::vector<std::string>& children) const;
  /// Self time per layer (span minus the part its children cover), summed
  /// over the layer's spans; the layer is the name up to the first '.'.
  std::map<std::string, double> selfSecondsByLayer() const;
  /// Writes every span as Chrome trace-event JSON ("X" events, µs).
  void writeChromeJson(const std::string& path) const;

 private:
  std::int64_t open(const char* name, bool probe, std::uint64_t request);
  void close(std::int64_t index);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Ends a traced pass: writes the spans as Chrome trace-event JSON into the
/// run directory and reports each layer's self time as self_s.<layer>.
void finishTrace(const Tracer& tracer, const Args& args, Report& report);

/// The three workloads (each defined in its own file).
void runRam256Grade(const Args& args, Report& report);
void runStreamSpill(const Args& args, Report& report);
void runServeOpen(const Args& args, Report& report);

}  // namespace perfbench
