// ensemble-fleet: one fixed-policy-only Monte-Carlo ensemble, run three
// ways per round — in-process, over a unix-socket fabric and over a
// TCP-loopback fabric — with the result cache and journals off.
//
// Every replication synthesizes its own trimmed trace realization and runs
// its fixed-policy lanes through the batched engine, so trace synthesis
// and shard dispatch carry the work; no Adaptive decision runs. The fleet
// is nproc-1 worker processes (this binary re-executed as fleet-worker)
// plus the coordinator, and each worker gets several one-shard leases, so
// the per-lease round trip shows in the fabric legs.
//
// Correctness: the three legs of every round must print a byte-identical
// EnsembleResult::table (each round replicates under its own seed, and the
// traced run must reproduce the first round's table); no result may come
// from the cache; every shard of a fabric leg must come from the fleet
// (no in-process fallback); every worker must exit 0.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/parallel.hpp"
#include "core/batch/batched_engine.hpp"
#include "ensemble/runner.hpp"
#include "ensemble/seeder.hpp"
#include "ensemble/shard_exec.hpp"
#include "exp/scenario.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/wire.hpp"
#include "fabric/worker.hpp"
#include "journal/run_record.hpp"
#include "layers.hpp"
#include "market/spot_market.hpp"
#include "probes.hpp"
#include "trace/synthetic.hpp"

namespace perfbench {

using namespace redspot;

namespace {

/// Shards per worker: enough one-shard leases that the lease/partial/ack
/// round trip is a visible part of a fabric leg.
constexpr std::size_t kShardsPerWorker = 16;
constexpr std::size_t kReplicationsPerShard = 1;
constexpr int kSetupReps = 9;
/// Rounds the traced run times to estimate per-shard dispatch cost.
constexpr std::size_t kDispatchRounds = 9;

std::size_t fleet_workers() { return nproc() > 1 ? nproc() - 1 : 1; }

/// Round r of a run replicates under its own seed, so a run averages over
/// many trace realizations rather than repeating one.
std::uint64_t round_seed(std::uint64_t seed, std::size_t round) {
  return seed * 1'000'000 + round;
}

/// The ensemble every process builds from the same seed and sizes: three
/// fixed policies on each single zone and on all three zones, plus the
/// best-case redundancy min-group over the three-zone configs.
EnsembleSpec fleet_spec(std::uint64_t seed, std::size_t shards) {
  EnsembleSpec spec;
  spec.window = VolatilityWindow::kHigh;
  spec.slack_fraction = 0.15;
  spec.checkpoint_cost = 300;
  spec.seed = seed;
  spec.num_shards = shards;
  spec.replications = shards * kReplicationsPerShard;
  spec.use_cache = false;
  const PolicyKind policies[] = {PolicyKind::kPeriodic,
                                 PolicyKind::kRisingEdge,
                                 PolicyKind::kThreshold};
  for (const PolicyKind p : policies) {
    for (std::size_t z = 0; z < 3; ++z) {
      EnsembleConfig c;
      c.policy = p;
      c.bid = Money::cents(81);
      c.zones = {z};
      spec.configs.push_back(c);
    }
  }
  MinGroup best{"redundancy (best, N=3)", {}};
  for (const PolicyKind p : policies) {
    EnsembleConfig c;
    c.policy = p;
    c.bid = Money::cents(81);
    c.zones = {0, 1, 2};
    best.members.push_back(spec.configs.size());
    spec.configs.push_back(c);
  }
  spec.min_groups.push_back(best);
  spec.validate();
  return spec;
}

fabric::FabricOptions fleet_options(const std::string& endpoint) {
  fabric::FabricOptions options;
  options.endpoint = endpoint;
  // Generous liveness budgets: this measures throughput, not recovery.
  options.lease.lease_duration_ms = 120'000;
  options.lease.heartbeat_timeout_ms = 60'000;
  options.fallback_wait_ms = 30'000;
  return options;
}

/// Starts `count` copies of this binary as fleet workers; their output
/// goes to fleet-worker.log.
std::vector<pid_t> spawn_workers(const RunArgs& args, std::uint64_t spec_seed,
                                 std::size_t count,
                                 const std::vector<std::string>& extra) {
  std::vector<pid_t> pids;
  const std::string log = "fleet-worker.log";
  const std::string seed = std::to_string(spec_seed);
  const std::string shards = std::to_string(count * kShardsPerWorker);
  std::vector<std::string> argv_s = {args.self_exe, "fleet-worker", "--seed",
                                     seed, "--shards", shards};
  argv_s.insert(argv_s.end(), extra.begin(), extra.end());
  // Everything the child touches is prepared before fork: the parent has
  // pool threads, so the child may only make async-signal-safe calls.
  std::vector<char*> argv_c;
  for (std::string& s : argv_s) argv_c.push_back(s.data());
  argv_c.push_back(nullptr);
  for (std::size_t w = 0; w < count; ++w) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::execv(argv_c[0], argv_c.data());
      ::_exit(127);
    }
    pids.push_back(pid);
  }
  return pids;
}

/// Waits for every pid; true when all exited 0.
bool reap(const std::vector<pid_t>& pids) {
  bool ok = true;
  for (const pid_t pid : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) {
      ok = false;
      continue;
    }
    ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  return ok;
}

struct Leg {
  double seconds = 0.0;
  std::string table;
  bool from_cache = false;
  fabric::CoordinatorReport report;
};

Leg inproc_leg(const EnsembleSpec& spec, ThreadPool& pool, Outcome& out) {
  Leg leg;
  EnsembleResult result;
  leg.seconds = time_s([&] { result = EnsembleRunner(spec).run(pool); });
  leg.from_cache = result.from_cache;
  out.check(!leg.from_cache, "in-process result came from the cache");
  leg.table = result.table("ensemble-fleet");
  return leg;
}

Leg fabric_leg(const RunArgs& args, const EnsembleSpec& spec,
               const std::string& endpoint, Outcome& out) {
  Leg leg;
  fabric::Coordinator coordinator(spec, fleet_options(endpoint), nullptr);
  const std::vector<pid_t> pids =
      spawn_workers(args, spec.seed, fleet_workers(),
                    {"--endpoint", coordinator.endpoint()});
  try {
    leg.seconds = time_s([&] { leg.report = coordinator.run(); });
  } catch (...) {
    for (const pid_t pid : pids) ::kill(pid, SIGKILL);
    reap(pids);
    throw;
  }
  out.check(reap(pids), "a fleet worker exited abnormally on " + endpoint);
  const fabric::CoordinatorReport& r = leg.report;
  leg.from_cache = r.result.from_cache;
  out.check(!leg.from_cache, "fabric result came from the cache");
  out.check(r.shards_fallback == 0 && !r.used_fallback,
            "fabric leg fell back to in-process on " + endpoint);
  out.check(r.shards_from_fleet == spec.num_shards,
            "fabric leg did not take every shard from the fleet on " +
                endpoint);
  leg.table = r.result.table("ensemble-fleet");
  return leg;
}

struct Round {
  Leg inproc, unix_leg, tcp;
};

Round run_round(const RunArgs& args, const EnsembleSpec& spec,
                ThreadPool& pool, Outcome& out) {
  Round r;
  r.inproc = inproc_leg(spec, pool, out);
  r.unix_leg =
      fabric_leg(args, spec, "unix:fleet.sock", out);
  r.tcp = fabric_leg(args, spec, "tcp:127.0.0.1:0", out);
  out.check(r.unix_leg.table == r.inproc.table,
            "unix fabric summary differs from in-process");
  out.check(r.tcp.table == r.inproc.table,
            "tcp fabric summary differs from in-process");
  return r;
}

/// The traced in-process leg: every shard computed serially through
/// ShardExecutor::compute, its replications' trace synthesis and batched
/// lanes redone and timed, and the records folded into the summary, which
/// must equal the untraced one. The tracing overhead is this pass's wall
/// over the untimed compute calls of the same shards.
void traced_shards(const EnsembleSpec& spec, const std::string& reference,
                   Outcome& out) {
  const auto traced_t0 = Clock::now();
  const ShardExecutor exec(spec);
  const ReplicationSeeder seeder(spec.seed);
  const Scenario cell{spec.window, spec.slack_fraction, spec.checkpoint_cost,
                      spec.starts_grid};
  const std::vector<SimTime> starts = cell.starts();
  const SyntheticTraceSpec trace_template =
      trimmed_spec(paper_trace_spec(0), window_end(spec.window));
  const InstanceType instance = cc2_instance();

  std::vector<ShardExecutor::Acc> accs;
  Samples shard_s;
  double generate_s = 0.0, index_s = 0.0, lanes_s = 0.0;
  std::uint64_t generated = 0, lanes = 0;
  CountingObserver counts;
  std::string sample_record;
  for (std::size_t s = 0; s < spec.num_shards; ++s) {
    std::string record;
    shard_s.add(time_s([&] { record = exec.compute(s); }));
    const auto rec = decode_ensemble_shard(record);
    out.check(rec.has_value() && exec.matches(*rec),
              "shard record does not decode or match its spec");
    if (!rec) continue;
    ShardExecutor::Acc acc = exec.make_acc();
    exec.fold(*rec, acc);
    accs.push_back(std::move(acc));
    if (sample_record.empty()) sample_record = record;

    const auto [lo, hi] = exec.bounds(s);
    for (std::size_t r = lo; r < hi; ++r) {
      SyntheticTraceSpec trace_spec = trace_template;
      trace_spec.seed = seeder.seed(r, SeedDomain::kTrace);
      ZoneTraceSet traces;
      generate_s += time_s([&] { traces = generate_traces(trace_spec); });
      ++generated;
      const SpotMarket market(std::move(traces), instance, QueueDelayModel());
      const Experiment experiment = Experiment::paper(
          starts[r % starts.size()], spec.slack_fraction,
          spec.checkpoint_cost, seeder.seed(r, SeedDomain::kQueueDelay));
      const auto t0 = Clock::now();
      const batch::BatchedSweepEngine engine(market, spec.engine);
      index_s += seconds_since(t0);
      std::vector<batch::BatchConfig> configs;
      for (const EnsembleConfig& c : spec.configs)
        configs.push_back({experiment, c.policy, c.bid, c.zones, &counts});
      for (std::size_t g = 0; g < configs.size();
           g += ShardExecutor::kDefaultBatchWidth) {
        const std::size_t n =
            std::min(ShardExecutor::kDefaultBatchWidth, configs.size() - g);
        lanes_s += time_s(
            [&] { (void)engine.run(std::span(configs).subspan(g, n)); });
      }
      lanes += configs.size();
    }
  }
  const EnsembleResult traced = exec.reduce(std::move(accs));
  out.check(traced.table("ensemble-fleet") == reference,
            "traced shard fold differs from the untraced summary");
  out.set("tracing.overhead_ratio", seconds_since(traced_t0) / shard_s.sum(),
          "ratio");

  const double total_s = shard_s.sum();
  out.set("ensemble.shards", static_cast<double>(spec.num_shards), "count");
  out.set("ensemble.shard_ms", shard_s.median() * 1e3, "ms");
  out.set("trace.generate_ms", generate_s * 1e3 / static_cast<double>(generated),
          "ms");
  out.set("batch.index_builds", static_cast<double>(generated), "count");
  out.set("batch.index_build_ms",
          index_s * 1e3 / static_cast<double>(generated), "ms");
  out.set("batch.lanes", static_cast<double>(lanes), "count");
  out.set("batch.lane_us", lanes_s * 1e6 / static_cast<double>(lanes), "us");
  out.set("events.dispatched", static_cast<double>(counts.events), "count");
  out.set("zone.transitions", static_cast<double>(counts.transitions),
          "count");
  out.set("billing.line_items", static_cast<double>(counts.line_items),
          "count");
  out.set("ckpt.commits", static_cast<double>(counts.commits), "count");
  out.set("self_ms.trace", generate_s * 1e3, "ms");
  out.set("self_ms.batch", (index_s + lanes_s) * 1e3, "ms");
  out.set("self_ms.ensemble",
          std::max(0.0, total_s - generate_s - index_s - lanes_s) * 1e3, "ms");
  std::printf("# layer breakdown (serial shards, traced): shards %.1f ms, "
              "trace synthesis %.1f%%, batch index %.1f%%, lanes %.1f%%\n",
              total_s * 1e3, 100.0 * generate_s / total_s,
              100.0 * index_s / total_s, 100.0 * lanes_s / total_s);

  // fabric/wire: one lease/partial/ack exchange per shard, with a real
  // shard record as the partial's payload.
  constexpr int kCodecRounds = 20000;
  std::uint64_t sink = 0;
  const double codec_s = time_s([&] {
    for (int i = 0; i < kCodecRounds; ++i) {
      const auto lease = fabric::decode_lease(fabric::encode_lease(
          {static_cast<std::uint64_t>(i), 0, 1, 1, 10'000}));
      const auto partial = fabric::decode_partial(
          fabric::encode_partial({lease->lease_id, 0, sample_record}));
      const auto ack =
          fabric::decode_ack(fabric::encode_ack({partial->shard, false}));
      sink += ack->shard + partial->record.size();
    }
  });
  out.check(sink == kCodecRounds * sample_record.size(),
            "wire codec round trip lost bytes");
  out.set("fabric.wire_codec_ns", codec_s * 1e9 / kCodecRounds, "ns");
}

}  // namespace

Outcome run_ensemble_fleet(const RunArgs& args) {
  Outcome out;
  declare_per_layer(out, args.trace);
  const std::size_t workers = fleet_workers();
  const std::size_t shards = workers * kShardsPerWorker;
  note("fleet_workers", std::to_string(workers));
  note("inproc_pool_threads", std::to_string(workers));
  note("shards", std::to_string(shards));
  note("replications", std::to_string(shards * kReplicationsPerShard));

  // Set-up: build the first round's spec and executor and compute its
  // shard 0 once, which warms the allocator and caches the way a worker's
  // first shard does. Worker start-up and connection happen per leg,
  // inside the measured leg time.
  Samples setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.add(time_s([&] {
      const EnsembleSpec spec = fleet_spec(round_seed(args.seed, 0), shards);
      const ShardExecutor exec(spec);
      out.check(decode_ensemble_shard(exec.compute(0)).has_value(),
                "set-up shard does not decode");
    }));
  }
  ThreadPool pool(workers);

  std::vector<Round> rounds;
  const CpuTimes cpu0 = cpu_times();
  const auto t0 = Clock::now();
  do {
    const EnsembleSpec spec =
        fleet_spec(round_seed(args.seed, rounds.size()), shards);
    rounds.push_back(run_round(args, spec, pool, out));
  } while (!args.trace && seconds_since(t0) < args.seconds);
  const CpuTimes cpu1 = cpu_times();

  if (args.trace) {
    traced_shards(fleet_spec(round_seed(args.seed, 0), shards),
                  rounds.front().inproc.table, out);
    // Dispatch cost per shard: fabric leg wall minus the in-process wall,
    // medians over kDispatchRounds rounds (the unix figure is small next
    // to run-to-run noise, so it needs the repeats).
    std::vector<double> inproc, unix_s, tcp_s;
    Round last;
    for (std::size_t i = 0; i < kDispatchRounds; ++i) {
      last = run_round(args, fleet_spec(round_seed(args.seed, i), shards),
                       pool, out);
      inproc.push_back(last.inproc.seconds);
      unix_s.push_back(last.unix_leg.seconds);
      tcp_s.push_back(last.tcp.seconds);
    }
    const double n = static_cast<double>(shards);
    const double base = median_of(inproc);
    out.set("fabric.dispatch_us.unix", (median_of(unix_s) - base) * 1e6 / n,
            "us");
    out.set("fabric.dispatch_us.tcp", (median_of(tcp_s) - base) * 1e6 / n,
            "us");
    out.set("self_ms.fabric",
            (median_of(unix_s) + median_of(tcp_s) - 2 * base) * 1e3, "ms");
    const fabric::CoordinatorReport& rep = last.tcp.report;
    out.set("fabric.shards_from_fleet",
            static_cast<double>(rep.shards_from_fleet), "count");
    out.set("fabric.shards_fallback", static_cast<double>(rep.shards_fallback),
            "count");
    out.set("fabric.duplicate_partials",
            static_cast<double>(rep.duplicate_partials), "count");
    out.set("fabric.workers_lost", static_cast<double>(rep.workers_lost),
            "count");
    out.set("transport.rtt_us.unix", probe_transport_rtt_us("unix:echo.sock"),
            "us");
    out.set("transport.rtt_us.tcp", probe_transport_rtt_us("tcp:127.0.0.1:0"),
            "us");
    double cache_hits = 0.0;
    for (const Round& r : rounds)
      for (const Leg* leg : {&r.inproc, &r.unix_leg, &r.tcp})
        cache_hits += leg->from_cache ? 1.0 : 0.0;
    out.set("ensemble.cache_hits", cache_hits, "count");
    return out;
  }

  double inproc_s = 0.0, unix_s = 0.0, tcp_s = 0.0;
  Samples leg_s;
  for (const Round& r : rounds) {
    inproc_s += r.inproc.seconds;
    unix_s += r.unix_leg.seconds;
    tcp_s += r.tcp.seconds;
    for (const Leg* leg : {&r.inproc, &r.unix_leg, &r.tcp})
      leg_s.add(leg->seconds);
  }
  const double reps = static_cast<double>(shards * kReplicationsPerShard) *
                      static_cast<double>(rounds.size());
  note("rounds", std::to_string(rounds.size()));
  note("inproc_reps_per_s", std::to_string(reps / inproc_s) + " replications/s");
  note("unix_reps_per_s", std::to_string(reps / unix_s) + " replications/s");
  note("tcp_reps_per_s", std::to_string(reps / tcp_s) + " replications/s");
  note("ensemble_run", leg_s.describe(1e3, "ms"));
  out.set("ops_per_s", 3.0 * reps / (inproc_s + unix_s + tcp_s), "ops/s");
  // Coordinator, in-process pool and every reaped worker.
  out.set("cpu_ms_per_op",
          (cpu1.self_s - cpu0.self_s + cpu1.children_s - cpu0.children_s) *
              1e3 / (3.0 * reps),
          "ms");
  out.set("setup_s", setup.median(), "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

int fleet_worker_main(int argc, char** argv) {
  std::uint64_t seed = 42;
  std::size_t shards = 0;
  std::string endpoint;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 < argc && a == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (i + 1 < argc && a == "--shards") {
      shards = std::strtoull(argv[++i], nullptr, 10);
    } else if (i + 1 < argc && a == "--endpoint") {
      endpoint = argv[++i];
    } else {
      std::fprintf(stderr, "fleet-worker: bad argument %s\n", a.c_str());
      return 2;
    }
  }
  if (shards == 0) return 2;
  const EnsembleSpec spec = fleet_spec(seed, shards);
  return fabric::run_worker(spec, fleet_options(endpoint), fabric::ChaosPlan{});
}

}  // namespace perfbench
