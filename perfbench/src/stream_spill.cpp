// stream_spill — the fuzz_xlarge_seq circuit (generator seed 17: 10 storage
// nodes, 4 inputs, 16 faults, one setting per pattern) graded over a long
// seeded GeneratedPatternSource. The circuit is fixed and --seed drives only
// the pattern stream: generated circuits of this shape differ up to 3.5x in
// cost per pattern, which would swamp any run-to-run comparison, while the
// cost of one circuit averaged over tens of thousands of seeded patterns is
// steady. Each round runs three jobs over the same stream:
//   (a) Engine jobs=2 on a fresh store with a 2 MiB budget: records the
//       trace, spills it to disk, replays it through the sliding window;
//   (b) the same engine again: replay only, from the now-filled store;
//   (c) Engine jobs=1 streaming directly, no checkpoint — the reference the
//       spilled results must equal.
// Every job pulls from a fresh GeneratedPatternSource over the same config,
// as a service request does.
#include <memory>
#include <optional>

#include "api/engine.hpp"
#include "bench.hpp"
#include "core/checkpoint_store.hpp"
#include "gen/random_circuit.hpp"
#include "patterns/pattern_source.hpp"
#include "perf/bench_runner.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace fmossim;

namespace {

// The trace takes ~400 bytes per pattern, so 10k patterns record ~4 MB
// against a 2 MiB budget: recording spills and replay slides its window
// over the file, at the trace-to-budget ratio of 40k patterns under the
// scale scenario's 8 MiB. Short jobs give many rounds per run, and the
// median of many rounds is what keeps the figures steady on a shared host.
constexpr std::uint64_t kPatterns = 10000;
constexpr std::uint64_t kCircuitSeed = 17;
constexpr std::size_t kBudgetBytes = std::size_t{2} << 20;
constexpr unsigned kJobs = 2;
constexpr std::uint32_t kStreams = 16;
constexpr int kSetupReps = 501;

struct Inputs {
  Network net;
  FaultList faults;
  std::vector<GeneratedSequenceConfig> streams;  ///< one per round in turn
  std::unique_ptr<Engine> direct;  ///< job (c)
};

GenOptions shape() {
  GenOptions gen;
  gen.seed = kCircuitSeed;
  gen.numNodes = 10;
  gen.numInputs = 4;
  gen.numFaults = 16;
  gen.numOutputs = 4;
  gen.numPatterns = kPatterns;
  gen.maxSettingsPerPattern = 1;
  return gen;
}

EngineOptions engineOptions(unsigned jobs,
                            std::shared_ptr<CheckpointStore> store) {
  EngineOptions opts;
  opts.jobs = jobs;
  opts.checkpointStore = std::move(store);
  return opts;
}

std::shared_ptr<CheckpointStore> freshStore(const Args& args) {
  CheckpointStore::Options o;
  o.budgetBytes = kBudgetBytes;
  o.spillDir = args.runDir;
  return std::make_shared<CheckpointStore>(o);
}

Inputs setUp(std::uint64_t seed, Tracer* tr) {
  Inputs in;
  {
    std::optional<Tracer::Scope> s;
    if (tr) s.emplace(*tr, "gen.workload");
    GeneratedStreamWorkload g = generateWorkloadStream(shape());
    for (std::uint32_t i = 0; i < kStreams; ++i) {
      in.streams.push_back(g.seqConfig);
      in.streams.back().rng = Rng(mixSeed(seed, i));
    }
    in.net = std::move(g.net);
    in.faults = std::move(g.faults);
  }
  {
    std::optional<Tracer::Scope> s;
    if (tr) s.emplace(*tr, "api.engine_construct");
    in.direct = std::make_unique<Engine>(in.net, in.faults,
                                         engineOptions(1, nullptr));
  }
  return in;
}

struct RoundTimes {
  double a = 0.0, b = 0.0, c = 0.0;
};

// Each stream's direct jobs=1 checksum is recorded on first use; every job
// on that stream, in every later round too, must reproduce it.
using Checksums = std::vector<std::optional<std::uint64_t>>;

void checkStream(Report& report, Checksums& sums, std::size_t i,
                 const FaultSimResult& r, const char* job) {
  const std::uint64_t sum = perf::resultChecksum(r);
  if (!sums[i].has_value()) sums[i] = sum;
  report.check(sum == *sums[i] && r.numPatterns == kPatterns,
               std::string("stream_spill ") + job +
                   ": checksum differs from the direct jobs=1 stream");
}

RoundTimes untracedRound(const Args& args, Inputs& in, std::size_t round,
                         Report& report, Checksums& sums) {
  RoundTimes t;
  const std::size_t i = round % in.streams.size();
  const GeneratedSequenceConfig& stream = in.streams[i];
  Engine spilled(in.net, in.faults, engineOptions(kJobs, freshStore(args)));
  GeneratedPatternSource sa(stream), sb(stream), sc(stream);
  std::optional<CpuRotation> pin(std::in_place, round, kJobs);
  double t0 = nowSeconds();
  const FaultSimResult ra = spilled.runStream(sa);
  t.a = nowSeconds() - t0;

  t0 = nowSeconds();
  const FaultSimResult rb = spilled.runStream(sb);
  t.b = nowSeconds() - t0;

  pin.emplace(round + 2, 1);
  t0 = nowSeconds();
  const FaultSimResult rc = in.direct->runStream(sc);
  t.c = nowSeconds() - t0;
  pin.reset();

  checkStream(report, sums, i, rc, "(c)");
  checkStream(report, sums, i, ra, "(a) spilled jobs=2");
  checkStream(report, sums, i, rb, "(b) warm-store replay");
  return t;
}

// Exact counts come from round 0 only, so they do not depend on how many
// rounds fit in the time budget.
void tracedRound(const Args& args, Tracer& tr, Inputs& in, std::size_t round,
                 Report& report, Checksums& sums,
                 std::map<std::string, double>& counts,
                 std::vector<double>& shardedCpu) {
  std::map<std::string, double> scratch;
  std::map<std::string, double>& n = round == 0 ? counts : scratch;
  const std::size_t i = round % in.streams.size();
  const GeneratedSequenceConfig& stream = in.streams[i];
  Tracer::Scope roundSpan(tr, "bench.round");
  {
    Tracer::Scope s(tr, "patterns.pull", /*probe=*/true);
    GeneratedPatternSource source(stream);
    Pattern p;
    std::uint64_t pulled = 0;
    while (source.next(p)) ++pulled;
    n["patterns.count"] = static_cast<double>(pulled);
  }

  // (a) and (b): record into a fresh budgeted store, then replay twice.
  auto store = freshStore(args);
  FsimOptions fopts;
  std::shared_ptr<const GoodMachineCheckpoint> ck;
  std::optional<CpuRotation> pin(std::in_place, round, kJobs);
  {
    GeneratedPatternSource source(stream);
    Tracer::Scope s(tr, "checkpoint.record");
    ck = store->acquireStream(in.net, source, fopts);
  }
  Engine spilled(in.net, in.faults, engineOptions(kJobs, store));
  for (int rep = 0; rep < 2; ++rep) {
    GeneratedPatternSource source(stream);
    FaultSimResult r;
    {
      Tracer::Scope s(tr, "sharded.replay");
      r = spilled.runStream(source);
    }
    shardedCpu.push_back(r.totalCpuSeconds);
    checkStream(report, sums, i, r, "traced replay");
  }
  n["checkpoint.resident_bytes"] = static_cast<double>(ck->memoryBytes());
  n["checkpoint.spill_chunks"] = static_cast<double>(ck->spillChunkCount());
  n["checkpoint.max_chunk_bytes"] =
      static_cast<double>(ck->maxChunkBytes());
  n["checkpoint.good_evals"] = static_cast<double>(ck->totalGoodEvals());
  n["store.hits"] = static_cast<double>(store->hits());
  n["store.recordings"] = static_cast<double>(store->recordings());

  // (c), through the core engine directly for its counters.
  pin.emplace(round + 2, 1);
  GeneratedPatternSource source(stream);
  ConcurrentFaultSimulator sim(in.net, in.faults, fopts);
  FaultSimResult r;
  {
    Tracer::Scope s(tr, "core.fsim");
    r = sim.run(source);
  }
  checkStream(report, sums, i, r, "traced direct");
  n["core.node_evals"] = static_cast<double>(r.totalNodeEvals);
  n["core.phases"] = static_cast<double>(sim.phaseCount());
  n["core.triggered_events"] = static_cast<double>(sim.triggeredEvents());
  n["core.memo_probes"] = static_cast<double>(sim.memoProbes());
  n["core.memo_hits"] = static_cast<double>(sim.memoHits());
  n["core.final_records"] = static_cast<double>(r.finalRecords);
  n["core.max_alive"] = static_cast<double>(r.maxAlive);
}

}  // namespace

void runStreamSpill(const Args& args, Report& report) {
  Inputs in;
  const double setup = medianSetupSeconds(
      kSetupReps, true, in, [&] { return setUp(args.seed, nullptr); });

  report.inputs = kFnvOffsetBasis;
  for (const GeneratedSequenceConfig& stream : in.streams) {
    fnvMix(report.inputs, GeneratedPatternSource(stream).fingerprint());
  }

  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  Checksums sums(in.streams.size());
  std::vector<double> ta, tb, tc, rounds;
  const double end = nowSeconds() + budget;
  do {
    const RoundTimes t = untracedRound(args, in, ta.size(), report, sums);
    ta.push_back(t.a);
    tb.push_back(t.b);
    tc.push_back(t.c);
    rounds.push_back(t.a + t.b + t.c);
  } while (nowSeconds() < end);

  report.endToEnd["setup_s"] = setup;
  report.endToEnd["p50_ms.a"] = rotatedMedian(ta) * 1e3;
  report.endToEnd["p50_ms.b"] = rotatedMedian(tb) * 1e3;
  report.endToEnd["p50_ms.c"] = rotatedMedian(tc) * 1e3;
  report.endToEnd["rate_per_s"] =
      static_cast<double>(kPatterns) / rotatedMedian(ta);
  if (!args.trace) return;

  Tracer tr;
  {
    Tracer::Scope s(tr, "bench.setup");
    in = setUp(args.seed, &tr);
  }
  std::map<std::string, double> counts;
  std::vector<double> shardedCpu;
  const double tracedEnd = nowSeconds() + budget;
  std::size_t round = 0;
  do {
    tracedRound(args, tr, in, round++, report, sums, counts, shardedCpu);
  } while (nowSeconds() < tracedEnd);

  auto& P = report.perLayer;
  for (const auto& [name, value] : counts) P[name] = value;
  P["gen.workload_s"] = tr.totalSeconds("gen.workload");
  P["api.engine_construct_s"] = tr.totalSeconds("api.engine_construct");
  P["patterns.pull_s"] = median(tr.durations("patterns.pull"));
  P["checkpoint.record_s"] = median(tr.durations("checkpoint.record"));
  P["core.fsim_s"] = median(tr.durations("core.fsim"));
  P["core.memo_hit_ratio"] =
      P["core.memo_probes"] > 0 ? P["core.memo_hits"] / P["core.memo_probes"]
                                : 0.0;
  P["store.hit_ratio"] =
      P["store.hits"] / (P["store.hits"] + P["store.recordings"]);
  const double replay = median(tr.durations("sharded.replay"));
  P["sharded.replay_s"] = replay;
  P["sharded.cpu_s"] = median(shardedCpu);
  P["sharded.parallelism"] = P["sharded.cpu_s"] / replay;
  P["sharded.efficiency"] = P["sharded.parallelism"] / kJobs;
  P["trace_overhead"] =
      median(tr.childSums("bench.round", {"checkpoint.record", "sharded.replay",
                             "core.fsim"})) /
      rotatedMedian(rounds);
  finishTrace(tr, args, report);
}

}  // namespace perfbench
