// serve_open — an in-process daemon (serve::Server + SocketServer on a
// private Unix socket in the run directory, 2 workers, jobs=2 per request)
// driven by an open-loop generator over at most 4 connections: one submits
// on a seeded Poisson schedule, three collect results. Per-request engine
// work is small and repeats, so the queue, engine-pool reuse, checkpoint
// store hits, protocol/JSON, buildWorkload and transport dominate — layers
// the other two workloads never touch.
//
// Traffic: a zipf-skewed tenant mix over M generated circuits x K sequences,
// mostly generated permanent-grading requests plus a fixed share of "seu"
// and inline-text requests. Three offered rates (lo, mid, hi; hi below
// saturation) are each run twice, interleaved, and every request is timed
// from the moment it was due to the moment its result reply arrives.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <unistd.h>

#include "api/engine.hpp"
#include "bench.hpp"
#include "faults/fault_spec.hpp"
#include "netlist/sim_format.hpp"
#include "patterns/sequence_io.hpp"
#include "perf/bench_runner.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "seu/seu_campaign.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace fmossim;
using serve::JsonValue;
using serve::WorkloadSpec;

namespace {

// Offered rates (requests per second) and the p95 latency limit max_rps is
// judged against. hi stays below saturation on a 4-core host.
struct Rate {
  const char* name;
  double perSecond;
};
constexpr Rate kRates[] = {{"lo", 30.0}, {"mid", 60.0}, {"hi", 120.0}};
constexpr double kLatencyLimitMs = 50.0;
constexpr int kRounds = 2;             ///< each rate runs once per round
constexpr std::size_t kMinSamples = 200;  ///< >= 10 beyond p95 per rate
constexpr unsigned kCollectors = 3;    ///< plus the submitting connection
constexpr std::size_t kMaxBacklog = 4;  ///< outstanding at a step's end

// Tenant circuits are a fixed population (generator seeds 1..M, as the
// loadgen harness uses); --seed draws their test sequences, SEU campaigns,
// inline fault samples and the arrival schedule. Generated circuits of one
// size differ by orders of magnitude in cost, so seeding the circuits
// themselves would let a single heavy tenant saturate the daemon on some
// seeds and not others.
constexpr std::uint64_t kFirstCircuitSeed = 1;
constexpr std::uint32_t kCircuits = 8;   ///< M
constexpr std::uint32_t kSequences = 2;  ///< K per circuit
constexpr double kZipf = 1.1;
constexpr double kSeuShare = 0.1;
constexpr double kInlineShare = 0.1;
constexpr int kSetupReps = 11;

WorkloadSpec genSpec(std::uint64_t seed, std::uint32_t circuit,
                     std::uint32_t sequence) {
  WorkloadSpec s;
  s.circuitSeed = kFirstCircuitSeed + circuit;
  s.seqSeed = mixSeed(seed, circuit * kSequences + sequence) | 1;
  s.numNodes = 24;
  s.numInputs = 6;
  s.numFaults = 32;
  s.numPatterns = 16;
  s.jobs = 2;
  return s;
}

// The distinct request specs of a run: M*K generated, then M SEU campaigns,
// then M inline-text tenants (a generated circuit sent as .sim, sequence and
// fault-spec text).
struct SpecSet {
  std::vector<WorkloadSpec> specs;
  std::size_t firstSeu = 0;
  std::size_t firstInline = 0;
};

SpecSet buildSpecs(std::uint64_t seed) {
  SpecSet set;
  for (std::uint32_t c = 0; c < kCircuits; ++c) {
    for (std::uint32_t k = 0; k < kSequences; ++k) {
      set.specs.push_back(genSpec(seed, c, k));
    }
  }
  set.firstSeu = set.specs.size();
  for (std::uint32_t c = 0; c < kCircuits; ++c) {
    WorkloadSpec s = genSpec(seed, c, 0);
    s.seuInjections = 8;
    s.seuInstants = 2;
    s.seuSeed = mixSeed(seed ^ 0x5e0, c) | 1;
    set.specs.push_back(s);
  }
  set.firstInline = set.specs.size();
  for (std::uint32_t c = 0; c < kCircuits; ++c) {
    const serve::BuiltWorkload w = serve::buildWorkload(genSpec(seed, c, 0));
    WorkloadSpec s;
    s.netlist = writeSimNetlist(w.net);
    s.sequence = writeSequence(w.net, w.seq);
    s.faults = "all-node-stuck\nsample 32 " +
               std::to_string(mixSeed(seed ^ 0x1e, c) % 100000 + 1) + "\n";
    s.jobs = 2;
    set.specs.push_back(s);
  }
  return set;
}

// One request of the open-loop schedule.
struct Arrival {
  double offset = 0.0;  ///< seconds after the step starts
  std::size_t spec = 0;
};

std::size_t zipfPick(Rng& rng, std::size_t first, std::size_t count) {
  double total = 0.0;
  for (std::size_t r = 0; r < count; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipf);
  }
  double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53 * total;
  for (std::size_t r = 0; r < count; ++r) {
    u -= std::pow(static_cast<double>(r + 1), -kZipf);
    if (u <= 0.0) return first + r;
  }
  return first + count - 1;
}

std::vector<Arrival> buildSchedule(Rng& rng, const SpecSet& set, double rate,
                                   std::size_t n) {
  std::vector<Arrival> out(n);
  double t = 0.0;
  const std::size_t gens = set.firstSeu;
  const std::size_t tenants = set.firstInline - set.firstSeu;
  for (Arrival& a : out) {
    const double u = (static_cast<double>(rng.next() >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate;
    a.offset = t;
    const double kind = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    if (kind < kSeuShare) {
      a.spec = zipfPick(rng, set.firstSeu, tenants);
    } else if (kind < kSeuShare + kInlineShare) {
      a.spec = zipfPick(rng, set.firstInline, tenants);
    } else {
      a.spec = zipfPick(rng, 0, gens);
    }
  }
  return out;
}

// Expected checksum and direct (no daemon) wall time of one spec.
struct Expected {
  std::uint64_t checksum = 0;
  double directSeconds = 0.0;
};

Expected runDirect(const WorkloadSpec& spec) {
  const serve::BuiltWorkload w = serve::buildWorkload(spec);
  Expected e;
  const double t0 = nowSeconds();
  if (!w.seuCampaign.empty()) {
    seu::CampaignOptions opts;
    opts.jobs = spec.jobs;
    opts.policy = spec.policy;
    e.checksum =
        seu::runSeuCampaign(w.net, w.seq, w.seuCampaign, opts).checksum();
  } else {
    Engine engine(w.net, w.faults, serve::specEngineOptions(spec));
    e.checksum = perf::resultChecksum(engine.run(w.seq));
  }
  e.directSeconds = nowSeconds() - t0;
  return e;
}

JsonValue verb(const char* name) {
  JsonValue v = JsonValue::makeObject();
  v.set("verb", JsonValue::makeString(name));
  return v;
}

// A running daemon and the benchmark's connections to it.
struct Daemon {
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::SocketServer> socket;
  std::unique_ptr<serve::SocketClient> submitter;
  std::vector<std::unique_ptr<serve::SocketClient>> collectors;

  Daemon() = default;
  Daemon(Daemon&&) = default;
  // Not defaulted: the socket front end must stop before its server is
  // destroyed, which member-wise assignment does not guarantee.
  Daemon& operator=(Daemon&& other) noexcept {
    if (this != &other) {
      stop();
      server = std::move(other.server);
      socket = std::move(other.socket);
      submitter = std::move(other.submitter);
      collectors = std::move(other.collectors);
    }
    return *this;
  }
  ~Daemon() { stop(); }

  void stop() {
    submitter.reset();
    collectors.clear();
    if (socket) socket->stop();
    if (server) server->stop();
    socket.reset();
    server.reset();
  }
};

Daemon startDaemon(const std::string& path) {
  Daemon d;
  serve::ServerOptions opts;
  opts.poolEngines = 4;
  opts.workers = 2;
  opts.queueBound = 256;
  d.server = std::make_unique<serve::Server>(opts);
  d.server->start();
  d.socket = std::make_unique<serve::SocketServer>(*d.server, path);
  d.submitter = std::make_unique<serve::SocketClient>(path);
  for (unsigned i = 0; i < kCollectors; ++i) {
    d.collectors.push_back(std::make_unique<serve::SocketClient>(path));
  }
  return d;
}

JsonValue stats(serve::SocketClient& client) {
  const JsonValue r = client.request(verb("stats"));
  if (!r.boolOr("ok", false)) throw std::runtime_error("stats verb failed");
  return r.get("stats");
}

// What one rate step observed.
struct StepResult {
  std::vector<double> latencies;  ///< seconds; refused/failed = +inf
  std::vector<double> late;       ///< generator lateness, seconds
  std::vector<double> submitRtt;  ///< seconds
  std::vector<double> overhead;   ///< latency minus direct time, seconds
  std::size_t backlogAtEnd = 0;
  std::size_t queueDepthMax = 0;
  double elapsed = 0.0;           ///< first due to last reply
};

struct Pending {
  std::uint64_t id = 0;
  std::size_t spec = 0;
  double due = 0.0;
  std::size_t index = 0;
};

// Runs one open-loop step: the calling thread submits on schedule, the
// collector connections block on `result` in submission order.
StepResult runStep(Daemon& d, const SpecSet& set,
                   const std::vector<Expected>& expected,
                   const std::vector<Arrival>& schedule, Report& report,
                   Tracer* tr, std::uint64_t& requestId) {
  StepResult out;
  out.latencies.assign(schedule.size(),
                       std::numeric_limits<double>::infinity());
  std::optional<Tracer::Scope> stepSpan;
  if (tr) stepSpan.emplace(*tr, "bench.step");
  const std::int64_t stepIndex = stepSpan ? stepSpan->index() : -1;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool done = false;
  std::size_t replies = 0;
  std::vector<std::string> errors;

  auto collect = [&](serve::SocketClient& client) {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        p = queue.front();
        queue.pop_front();
      }
      std::string error;
      double at = 0.0;
      try {
        JsonValue req = verb("result");
        req.set("id", JsonValue::makeU64(p.id));
        const JsonValue r = client.request(req);
        at = nowSeconds();
        if (!r.boolOr("ok", false) || r.stringOr("status", "") != "done") {
          error = "request for spec " + std::to_string(p.spec) +
                  " ended '" + r.stringOr("status", "?") + "'";
        } else {
          const serve::JobResult jr =
              serve::JobResult::fromJson(r.get("result"));
          if (jr.checksum != expected[p.spec].checksum) {
            error = "checksum of spec " + std::to_string(p.spec) +
                    " differs from the direct engine run";
          }
        }
      } catch (const std::exception& e) {
        at = nowSeconds();
        error = std::string("transport: ") + e.what();
      }
      std::lock_guard<std::mutex> lock(mu);
      ++replies;
      if (error.empty()) {
        out.latencies[p.index] = at - p.due;
        out.overhead.push_back(at - p.due - expected[p.spec].directSeconds);
        if (tr) {
          tr->add("serve.request", p.due, at, stepIndex, p.id);
        }
      } else {
        errors.push_back(error);
      }
      out.elapsed = std::max(out.elapsed, at);
    }
  };
  std::vector<std::thread> threads;
  for (auto& c : d.collectors) {
    threads.emplace_back(collect, std::ref(*c));
  }

  const double start = nowSeconds() + 0.005;
  std::size_t submitted = 0, refused = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& a = schedule[i];
    const double due = start + a.offset;
    while (nowSeconds() < due) {
      const double wait = due - nowSeconds();
      if (wait > 0.002) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(wait - 0.001));
      }
    }
    const double sent = nowSeconds();
    out.late.push_back(sent - due);
    JsonValue req = verb("submit");
    req.set("workload", set.specs[a.spec].toJson());
    std::optional<JsonValue> r;
    {
      std::optional<Tracer::Scope> s;
      if (tr) s.emplace(*tr, "serve.submit", false, ++requestId);
      try {
        r = d.submitter->request(req);
      } catch (const std::exception& e) {
        report.check(false, std::string("serve_open submit: ") + e.what());
        r.reset();
      }
    }
    out.submitRtt.push_back(nowSeconds() - sent);
    if (!r || !r->boolOr("ok", false)) {
      // Refused: counted as a failure and as missing the latency limit.
      ++refused;
      if (r) report.check(false, "serve_open: submit refused: " +
                                     r->stringOr("error", "?"));
      continue;
    }
    ++submitted;
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back({r->u64Or("id", 0), a.spec, due, i});
    }
    cv.notify_one();
    if (tr && i + 1 < schedule.size() &&
        start + schedule[i + 1].offset - nowSeconds() > 0.002) {
      Tracer::Scope s(*tr, "serve.stats", /*probe=*/true);
      try {
        out.queueDepthMax = std::max<std::size_t>(
            out.queueDepthMax, stats(*d.submitter).u64Or("queueDepth", 0));
      } catch (const std::exception& e) {
        report.check(false, std::string("serve_open stats: ") + e.what());
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    out.backlogAtEnd = submitted - replies;
    done = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
  out.elapsed -= start + schedule.front().offset;
  for (const std::string& e : errors) report.check(false, "serve_open: " + e);
  report.attempted += schedule.size() - refused - errors.size();
  return out;
}

// The whole ladder: kRounds rounds of lo, mid, hi, each step sized so that
// every rate collects at least kMinSamples requests over the pass.
struct LadderResult {
  std::vector<StepResult> perRate[3];
};

LadderResult runLadder(Daemon& d, const SpecSet& set,
                       const std::vector<Expected>& expected, double seconds,
                       std::uint64_t seed, Report& report, Tracer* tr) {
  Rng rng(seed ^ 0x5e7e11ULL);
  LadderResult out;
  std::uint64_t requestId = 0;
  const double stepSeconds = seconds / (3.0 * kRounds);
  for (int round = 0; round < kRounds; ++round) {
    for (int r = 0; r < 3; ++r) {
      const std::size_t n = std::max<std::size_t>(
          (kMinSamples + kRounds - 1) / kRounds,
          static_cast<std::size_t>(kRates[r].perSecond * stepSeconds));
      const auto schedule = buildSchedule(rng, set, kRates[r].perSecond, n);
      out.perRate[r].push_back(
          runStep(d, set, expected, schedule, report, tr, requestId));
    }
  }
  return out;
}

template <typename F>
std::vector<double> gather(const std::vector<StepResult>& steps, F field) {
  std::vector<double> all;
  for (const StepResult& s : steps) {
    const auto& v = s.*field;
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

std::vector<double> allLatencies(const LadderResult& l) {
  std::vector<double> all;
  for (const auto& steps : l.perRate) {
    const auto v = gather(steps, &StepResult::latencies);
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

}  // namespace

void runServeOpen(const Args& args, Report& report) {
  const std::string path =
      args.runDir + "/serve-" + std::to_string(getpid()) + ".sock";
  struct Service {
    SpecSet set;
    Daemon daemon;
  } svc;
  // Not pinned: the daemon's threads would inherit the set-up's CPU.
  const double setup = medianSetupSeconds(kSetupReps, false, svc, [&] {
    return Service{buildSpecs(args.seed), startDaemon(path)};
  });
  const SpecSet& set = svc.set;
  Daemon& daemon = svc.daemon;

  report.inputs = kFnvOffsetBasis;
  for (const WorkloadSpec& s : set.specs) {
    for (const char c : s.toJson().dump()) {
      fnvMix(report.inputs, static_cast<unsigned char>(c));
    }
  }

  // Every distinct spec is graded directly first; each reply must match.
  std::vector<Expected> expected;
  for (const WorkloadSpec& s : set.specs) expected.push_back(runDirect(s));

  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  const LadderResult ladder =
      runLadder(daemon, set, expected, budget, args.seed, report, nullptr);

  double maxRps = 0.0;
  for (int r = 0; r < 3; ++r) {
    const auto lat = gather(ladder.perRate[r], &StepResult::latencies);
    const double p50 = percentile(lat, 50.0) * 1e3;
    const double p95 = percentile(lat, 95.0) * 1e3;
    double requests = 0.0, elapsed = 0.0;
    bool backlogged = false;
    for (const StepResult& s : ladder.perRate[r]) {
      requests += static_cast<double>(s.latencies.size());
      elapsed += s.elapsed;
      backlogged = backlogged || s.backlogAtEnd > kMaxBacklog;
    }
    const double late95 =
        percentile(gather(ladder.perRate[r], &StepResult::late), 95.0) * 1e3;
    std::printf("serve rate %-3s offered %6.1f/s: %zu samples, p50 %.3f ms, "
                "p95 %.3f ms, generator late p95 %.3f ms%s\n",
                kRates[r].name, kRates[r].perSecond, lat.size(), p50, p95,
                late95, late95 > 1.0 ? "  [FLAG: generator fell behind]" : "");
    report.endToEnd[std::string("p50_ms.") + "abc"[r]] = p50;
    report.perLayer[std::string("serve.req_p95_ms.") + kRates[r].name] = p95;
    report.perLayer[std::string("serve.samples.") + kRates[r].name] =
        static_cast<double>(lat.size());
    if (p95 <= kLatencyLimitMs && !backlogged && elapsed > 0.0) {
      maxRps = requests / elapsed;
    }
  }
  report.endToEnd["setup_s"] = setup;
  report.endToEnd["rate_per_s"] = maxRps;
  daemon.stop();
  if (!args.trace) return;

  // Traced pass on a fresh daemon, so its exact counters depend only on the
  // seed and the request count.
  Tracer tr;
  {
    Tracer::Scope s(tr, "bench.setup");
    daemon = startDaemon(path);
  }
  auto& P = report.perLayer;
  {
    std::vector<double> pings;
    for (int i = 0; i < 20; ++i) {
      Tracer::Scope s(tr, "serve.ping", /*probe=*/true);
      const double t0 = nowSeconds();
      stats(*daemon.submitter);
      pings.push_back(nowSeconds() - t0);
    }
    P["serve.ping_rtt_ms"] = median(pings) * 1e3;
  }
  {
    std::vector<double> builds, parses;
    for (std::size_t i = 0; i < set.specs.size(); ++i) {
      const WorkloadSpec& s = set.specs[i];
      double t0 = nowSeconds();
      {
        Tracer::Scope span(tr, "gen.workload", /*probe=*/true);
        serve::buildWorkload(s);
      }
      builds.push_back(nowSeconds() - t0);
      if (!s.isInline()) continue;
      t0 = nowSeconds();
      {
        Tracer::Scope span(tr, "netlist.parse", /*probe=*/true);
        const Network net = parseSimNetlist(s.netlist);
        parseSequence(net, s.sequence);
        parseFaultSpec(net, s.faults);
      }
      parses.push_back(nowSeconds() - t0);
    }
    P["gen.workload_s"] = median(builds);
    P["netlist.parse_s"] = median(parses);
  }
  const LadderResult traced =
      runLadder(daemon, set, expected, budget, args.seed, report, &tr);
  std::size_t depth = 0;
  std::vector<double> submitRtt, overhead, late;
  for (const auto& steps : traced.perRate) {
    for (const StepResult& s : steps) depth = std::max(depth, s.queueDepthMax);
    const auto r = gather(steps, &StepResult::submitRtt);
    const auto l = gather(steps, &StepResult::late);
    submitRtt.insert(submitRtt.end(), r.begin(), r.end());
    late.insert(late.end(), l.begin(), l.end());
  }
  overhead = gather(traced.perRate[0], &StepResult::overhead);
  const JsonValue st = stats(*daemon.submitter);
  const JsonValue& pool = st.get("pool");
  const JsonValue& store = st.get("store");
  P["serve.submit_rtt_ms"] = median(submitRtt) * 1e3;
  P["serve.overhead_ms"] = median(overhead) * 1e3;
  P["serve.queue_depth_max"] = static_cast<double>(depth);
  P["serve.rejected"] = static_cast<double>(st.u64Or("rejected", 0));
  const std::uint64_t acquires = pool.u64Or("acquires", 0);
  P["serve.pool_reuse_ratio"] =
      static_cast<double>(pool.u64Or("reuses", 0)) /
      static_cast<double>(std::max<std::uint64_t>(1, acquires));
  P["serve.gen_late_ms"] = percentile(late, 95.0) * 1e3;
  P["store.hits"] = static_cast<double>(store.u64Or("hits", 0));
  P["store.recordings"] = static_cast<double>(store.u64Or("recordings", 0));
  P["store.hit_ratio"] =
      P["store.hits"] / (P["store.hits"] + P["store.recordings"]);
  P["trace_overhead"] =
      median(allLatencies(traced)) / median(allLatencies(ladder));
  daemon.stop();
  finishTrace(tr, args, report);
}

}  // namespace perfbench
