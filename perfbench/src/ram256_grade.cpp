// ram256_grade — the paper's RAM256 with test sequence 1 and the full paper
// fault universe, graded three ways per round over identical inputs:
//   (a) Engine, jobs=1: nearly all faulty-circuit work (vicinity growth,
//       StateTable lookups, trigger collection, solver, memo);
//   (b) Engine, jobs=4 with a fresh private checkpoint store: recording,
//       schedule, replay and merge, as a CLI run pays them;
//   (c) a seeded SEU campaign in replay mode (fresh store, so it records).
// The permanent result is seed-independent and known exactly; each campaign
// is checked against naive from-scratch grading of a seeded injection.
#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "api/engine.hpp"
#include "api/sharded_runner.hpp"
#include "bench.hpp"
#include "circuits/ram.hpp"
#include "core/checkpoint_store.hpp"
#include "gen/transient_gen.hpp"
#include "patterns/marching.hpp"
#include "perf/bench_runner.hpp"
#include "perf/scenarios.hpp"
#include "sched/fault_schedule.hpp"
#include "seu/seu_campaign.hpp"
#include "util/hash.hpp"

namespace perfbench {

using namespace fmossim;

namespace {

constexpr std::uint64_t kChecksum = 0x6aa5d500c6291e09ULL;
constexpr std::uint64_t kNodeEvals = 1775994;
constexpr std::uint32_t kDetected = 1384;
constexpr std::uint32_t kFaults = 1398;
constexpr unsigned kParJobs = 4;
// Job (c): 96 injections at one instant each. A campaign's cost still
// varies by ~10% with its seed, so rounds cycle through a pool of campaigns
// drawn from --seed and the median covers the pool, not one draw.
constexpr std::uint32_t kSeuInjections = 96;
constexpr std::uint32_t kCampaigns = 16;
constexpr int kSetupReps = 101;

struct Inputs {
  Network net;
  TestSequence seq;
  FaultList faults;
  std::vector<TransientList> campaigns;  ///< job (c), one per round in turn
  std::unique_ptr<Engine> solo;  ///< job (a)
  std::unique_ptr<Engine> par;   ///< job (b)
};

EngineOptions gradeOptions(unsigned jobs) {
  EngineOptions opts = perf::paperEngineOptions();
  opts.jobs = jobs;
  return opts;
}

FsimOptions fsimOptions() {
  FsimOptions opts;
  opts.policy = DetectionPolicy::AnyDifference;
  opts.dropDetected = true;
  return opts;
}

seu::CampaignOptions seuOptions() {
  seu::CampaignOptions opts;
  opts.policy = DetectionPolicy::AnyDifference;
  return opts;
}

SeuGenOptions campaignShape(std::uint64_t seed, std::uint64_t numPatterns) {
  SeuGenOptions g;
  g.seed = seed;
  g.numInjections = kSeuInjections;
  g.numPatterns = numPatterns;
  g.maxInstants = 0;
  g.pulseProbability = 0.25;
  g.maxPulse = 3;
  return g;
}

// One set-up: everything a user pays before the first grading call. With a
// tracer, each step is a span.
Inputs setUp(std::uint64_t seed, Tracer* tr) {
  Inputs in;
  RamCircuit ram;
  {
    std::optional<Tracer::Scope> s;
    if (tr) s.emplace(*tr, "circuits.build");
    ram = buildRam(ram256Config());
  }
  {
    std::optional<Tracer::Scope> s;
    if (tr) s.emplace(*tr, "patterns.sequence");
    in.seq = ramTestSequence1(ram);
  }
  {
    std::optional<Tracer::Scope> s;
    if (tr) s.emplace(*tr, "faults.universe");
    in.faults = perf::paperFaultUniverse(ram);
  }
  in.net = std::move(ram.net);
  {
    std::optional<Tracer::Scope> s;
    if (tr) s.emplace(*tr, "gen.seu_campaign");
    for (std::uint32_t i = 0; i < kCampaigns; ++i) {
      in.campaigns.push_back(generateSeuCampaign(
          in.net, campaignShape(mixSeed(seed, i), in.seq.size())));
    }
  }
  {
    std::optional<Tracer::Scope> s;
    if (tr) s.emplace(*tr, "api.engine_construct");
    in.solo = std::make_unique<Engine>(in.net, in.faults, gradeOptions(1));
    in.par =
        std::make_unique<Engine>(in.net, in.faults, gradeOptions(kParJobs));
  }
  return in;
}

void checkPermanent(Report& report, const FaultSimResult& r, const char* job) {
  const std::uint64_t sum = perf::resultChecksum(r);
  const bool ok = sum == kChecksum && r.totalNodeEvals == kNodeEvals &&
                  r.numDetected == kDetected && r.numFaults == kFaults;
  report.check(ok, std::string("ram256_grade ") + job +
                       ": result differs from the known RAM256 grading "
                       "(checksum, nodeEvals or detections)");
}

// Job (c) checks, outside the timed region: a campaign must repeat its first
// result whenever the rounds come back to it, and on first use one seeded
// injection of it is graded naively from scratch and must agree.
class SeuChecker {
 public:
  SeuChecker(const Inputs& in, std::uint64_t seed)
      : in_(in), seed_(seed), checksums_(in.campaigns.size()) {}

  void check(Report& report, std::size_t c, const seu::CampaignResult& r) {
    if (checksums_[c].has_value()) {
      report.check(r.checksum() == *checksums_[c],
                   "ram256_grade (c): campaign result changed between rounds");
      return;
    }
    checksums_[c] = r.checksum();
    const TransientList& campaign = in_.campaigns[c];
    const std::size_t pick = mixSeed(seed_, c) % campaign.size();
    seu::CampaignOptions naive = seuOptions();
    naive.naive = true;
    const seu::CampaignResult ref =
        seu::runSeuCampaign(in_.net, in_.seq, {campaign[pick]}, naive);
    const seu::InjectionResult& a = r.injections[pick];
    const seu::InjectionResult& b = ref.injections[0];
    report.check(a.outcome == b.outcome &&
                     a.detectedAtPattern == b.detectedAtPattern,
                 "ram256_grade (c): replay differs from naive grading of " +
                     campaign[pick].name);
  }

 private:
  const Inputs& in_;
  std::uint64_t seed_;
  std::vector<std::optional<std::uint64_t>> checksums_;
};

struct RoundTimes {
  double a = 0.0, b = 0.0, c = 0.0;
};

RoundTimes untracedRound(Inputs& in, std::size_t round, Report& report,
                         SeuChecker& seuCheck) {
  RoundTimes t;
  std::optional<CpuRotation> pin(std::in_place, round, 1);
  double t0 = nowSeconds();
  const FaultSimResult ra = in.solo->run(in.seq);
  t.a = nowSeconds() - t0;
  pin.reset();
  checkPermanent(report, ra, "(a)");

  in.par->reset();  // fresh private checkpoint store: (b) records again
  pin.emplace(round, kParJobs);
  t0 = nowSeconds();
  const FaultSimResult rb = in.par->run(in.seq);
  t.b = nowSeconds() - t0;
  pin.reset();
  checkPermanent(report, rb, "(b)");

  const std::size_t c = round % in.campaigns.size();
  pin.emplace(round + 1, 1);
  t0 = nowSeconds();
  const seu::CampaignResult rc =
      seu::runSeuCampaign(in.net, in.seq, in.campaigns[c], seuOptions());
  t.c = nowSeconds() - t0;
  pin.reset();
  seuCheck.check(report, c, rc);
  return t;
}

// One traced round: the same three jobs, split at the layer boundaries they
// cross, plus probe calls that read a layer on its own. Exact counts go to
// `counts` from round 0 only, so they do not depend on how many rounds fit;
// span durations are read back from the tracer afterwards.
void tracedRound(Tracer& tr, Inputs& in, std::size_t round, Report& report,
                 SeuChecker& seuCheck, std::map<std::string, double>& counts,
                 std::vector<double>& shardedCpu) {
  std::map<std::string, double> scratch;
  std::map<std::string, double>& n = round == 0 ? counts : scratch;
  Tracer::Scope roundSpan(tr, "bench.round");
  const FsimOptions fopts = fsimOptions();

  // (a), driven through the core engine directly for its counters.
  {
    ConcurrentFaultSimulator sim(in.net, in.faults, fopts);
    FaultSimResult r;
    {
      CpuRotation pin(round, 1);
      Tracer::Scope s(tr, "core.fsim");
      r = sim.run(in.seq);
    }
    checkPermanent(report, r, "(a) traced");
    n["core.node_evals"] = static_cast<double>(r.totalNodeEvals);
    n["core.phases"] = static_cast<double>(sim.phaseCount());
    n["core.triggered_events"] =
        static_cast<double>(sim.triggeredEvents());
    n["core.memo_probes"] = static_cast<double>(sim.memoProbes());
    n["core.memo_hits"] = static_cast<double>(sim.memoHits());
    n["core.final_records"] = static_cast<double>(r.finalRecords);
    n["core.max_alive"] = static_cast<double>(r.maxAlive);
  }
  {
    Tracer::Scope s(tr, "switch.good", /*probe=*/true);
    const GoodRunResult g = in.solo->runGood(in.seq);
    n["switch.good_evals"] = static_cast<double>(g.totalNodeEvals);
  }

  // (b): record into a fresh store, plan the batches, replay from the
  // filled store — the steps ShardedRunner::run takes on a cold store.
  auto store = std::make_shared<CheckpointStore>();
  std::shared_ptr<const GoodMachineCheckpoint> ck;
  std::optional<CpuRotation> pin(std::in_place, round, kParJobs);
  {
    Tracer::Scope s(tr, "checkpoint.record");
    ck = store->acquire(in.net, in.seq, fopts);
  }
  {
    Tracer::Scope s(tr, "sched.plan", /*probe=*/true);
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const sched::BatchPlan plan =
        sched::makeSchedule(sched::SchedulePolicy::Contiguous, nullptr)
            ->plan(in.faults.size(), std::min(kParJobs, hw), 0, 1);
    n["sched.batches"] = static_cast<double>(plan.slices.size());
  }
  {
    ShardedRunner runner(in.net, in.faults, fopts, kParJobs, 0, store);
    FaultSimResult r;
    {
      Tracer::Scope s(tr, "sharded.replay");
      r = runner.run(in.seq);
    }
    shardedCpu.push_back(r.totalCpuSeconds);
    checkPermanent(report, r, "(b) traced");
  }
  pin.reset();
  n["checkpoint.good_evals"] = static_cast<double>(ck->totalGoodEvals());
  n["checkpoint.resident_bytes"] = static_cast<double>(ck->memoryBytes());
  n["checkpoint.spill_chunks"] =
      static_cast<double>(ck->spillChunkCount());
  n["checkpoint.max_chunk_bytes"] =
      static_cast<double>(ck->maxChunkBytes());
  n["store.hits"] = static_cast<double>(store->hits());
  n["store.recordings"] = static_cast<double>(store->recordings());

  // (c), plus the per-instant good-state materialization its tails start
  // from.
  const std::size_t c = round % in.campaigns.size();
  const TransientList& campaign = in.campaigns[c];
  {
    seu::CampaignResult rc;
    {
      CpuRotation pin(round + 1, 1);
      Tracer::Scope s(tr, "seu.campaign");
      rc = seu::runSeuCampaign(in.net, in.seq, campaign, seuOptions());
    }
    seuCheck.check(report, c, rc);
    n["seu.injections"] = static_cast<double>(rc.injections.size());
    n["seu.instants"] = static_cast<double>(rc.numGroups);
    n["seu.detected"] = static_cast<double>(rc.numDetected);
    n["seu.silent"] = static_cast<double>(rc.numSilent);
    n["seu.latent"] = static_cast<double>(rc.numLatent);
  }
  {
    Tracer::Scope s(tr, "seu.good_state", /*probe=*/true);
    std::set<std::uint64_t> instants;
    for (const TransientFault& f : campaign) instants.insert(f.atPattern);
    for (const std::uint64_t p : instants) {
      report.check(ck->goodStateAfterPattern(p).size() == in.net.numNodes(),
                   "ram256_grade: good state has the wrong node count");
    }
  }
}

}  // namespace

void runRam256Grade(const Args& args, Report& report) {
  Inputs in;
  const double setup = medianSetupSeconds(
      kSetupReps, true, in, [&] { return setUp(args.seed, nullptr); });
  report.inputs = kFnvOffsetBasis;
  for (const TransientList& campaign : in.campaigns) {
    for (const TransientFault& f : campaign) {
      fnvMix(report.inputs, f.node.value);
      fnvMix(report.inputs, f.atPattern);
      fnvMix(report.inputs, f.pulsePatterns);
    }
  }

  SeuChecker seuCheck(in, args.seed);
  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  std::vector<double> ta, tb, tc, rounds;
  const double end = nowSeconds() + budget;
  do {
    const RoundTimes t = untracedRound(in, ta.size(), report, seuCheck);
    ta.push_back(t.a);
    tb.push_back(t.b);
    tc.push_back(t.c);
    rounds.push_back(t.a + t.b + t.c);
  } while (nowSeconds() < end);

  const double patterns = 3.0 * static_cast<double>(in.seq.size());
  report.endToEnd["setup_s"] = setup;
  report.endToEnd["p50_ms.a"] = rotatedMedian(ta) * 1e3;
  report.endToEnd["p50_ms.b"] = rotatedMedian(tb) * 1e3;
  report.endToEnd["p50_ms.c"] = rotatedMedian(tc) * 1e3;
  report.endToEnd["rate_per_s"] = patterns / rotatedMedian(rounds);
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
    tracedRound(tr, in, round++, report, seuCheck, counts, shardedCpu);
  } while (nowSeconds() < tracedEnd);
  auto& P = report.perLayer;
  for (const auto& [name, value] : counts) P[name] = value;
  P["circuits.build_s"] = tr.totalSeconds("circuits.build");
  P["faults.universe_s"] = tr.totalSeconds("faults.universe");
  P["api.engine_construct_s"] = tr.totalSeconds("api.engine_construct");
  P["core.fsim_s"] = median(tr.durations("core.fsim"));
  P["switch.good_s"] = median(tr.durations("switch.good"));
  P["core.fsim_over_good"] = P["core.fsim_s"] / P["switch.good_s"];
  P["core.memo_hit_ratio"] = P["core.memo_hits"] / P["core.memo_probes"];
  P["checkpoint.record_s"] = median(tr.durations("checkpoint.record"));
  P["store.hit_ratio"] =
      P["store.hits"] / (P["store.hits"] + P["store.recordings"]);
  P["sched.plan_s"] = median(tr.durations("sched.plan"));
  const double replay = median(tr.durations("sharded.replay"));
  P["sharded.replay_s"] = replay;
  P["sharded.cpu_s"] = median(shardedCpu);
  P["sharded.parallelism"] = P["sharded.cpu_s"] / replay;
  P["sharded.efficiency"] = P["sharded.parallelism"] / kParJobs;
  P["seu.campaign_s"] = median(tr.durations("seu.campaign"));
  P["seu.good_state_s"] = median(tr.durations("seu.good_state"));
  P["trace_overhead"] =
      median(tr.childSums("bench.round", {"core.fsim", "checkpoint.record",
                             "sharded.replay", "seu.campaign"})) /
      rotatedMedian(rounds);
  finishTrace(tr, args, report);
}

}  // namespace perfbench
