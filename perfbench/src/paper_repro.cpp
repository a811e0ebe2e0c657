// paper-repro: the traffic the figure benches and redspot-sim send.
//
// One market, SpotMarket(paper_traces(seed)), shared by every call. A
// cycle is the Figure-4 call pattern — four fixed policies x bids
// {0.27, 0.81, 2.40} x (each single zone, and best-case N=3 redundancy)
// over the four t_c=300 cells, 192 run_fixed_sweep calls — followed by
// the Figure-5 half: run_adaptive_sweep plus a large-bid sweep over all
// eight paper_scenarios() cells. Every fixed call rebuilds a batched trace
// index over the whole 14-month trace, and every Adaptive run re-solves
// its decision at each price tick; those are the two costs this workload
// exists to expose.
//
// Correctness: every sweep is audited by RunValidator inside the library,
// every result goes through checked_costs (completed, deadline met), and a
// digest of each run's exact micro-dollar cost, deadline flag and
// completion flag must repeat on every cycle and match the digest recorded
// for the seed when one is recorded.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "core/adaptive/adaptive_runner.hpp"
#include "core/batch/batched_engine.hpp"
#include "core/engine.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "fault/run_validator.hpp"
#include "layers.hpp"
#include "market/spot_market.hpp"
#include "probes.hpp"
#include "trace/synthetic.hpp"

namespace perfbench {

using namespace redspot;

namespace {

/// Chunks per Figure-4 cell. Each fixed call's cost is dominated by its
/// trace-index build, which does not depend on this number.
constexpr std::size_t kFixedExperiments = 16;
/// Chunks per Figure-5 cell; sized so the Adaptive half takes a share of
/// the cycle comparable to the fixed half.
constexpr std::size_t kAdaptiveExperiments = 16;
/// Lanes per lockstep group, as exp/sweep.cpp groups them.
constexpr std::size_t kSweepBatchWidth = 16;
/// Scalar runs per fixed call timed through the Policy decorator.
constexpr std::size_t kScalarSample = 2;
/// Setup repetitions; setup_s is their median.
constexpr int kSetupReps = 9;

constexpr PolicyKind kFixedPolicies[] = {
    PolicyKind::kThreshold, PolicyKind::kRisingEdge, PolicyKind::kPeriodic,
    PolicyKind::kMarkovDaly};

struct FixedCall {
  Scenario scenario;
  PolicyRunSpec spec;
};

std::vector<FixedCall> figure4_calls() {
  const std::vector<Money> bids = {Money::cents(27), Money::cents(81),
                                   Money::dollars(2.40)};
  std::vector<FixedCall> calls;
  for (const VolatilityWindow window :
       {VolatilityWindow::kLow, VolatilityWindow::kHigh}) {
    for (const double slack : {0.15, 0.50}) {
      const Scenario cell{window, slack, 300, kFixedExperiments};
      for (const PolicyKind policy : kFixedPolicies)
        for (const Money bid : bids)
          for (std::size_t zone = 0; zone < 3; ++zone)
            calls.push_back({cell, PolicyRunSpec{policy, bid, {zone}}});
      for (const PolicyKind policy : kFixedPolicies)
        for (const Money bid : bids)
          calls.push_back({cell, PolicyRunSpec{policy, bid, {0, 1, 2}}});
    }
  }
  return calls;
}

std::vector<Scenario> figure5_cells() {
  std::vector<Scenario> cells = paper_scenarios();
  for (Scenario& s : cells) s.num_experiments = kAdaptiveExperiments;
  return cells;
}

void fold(HashStream& h, const std::vector<RunResult>& results) {
  for (const RunResult& r : results) {
    h.i64(r.total_cost.micros());
    h.u64(r.met_deadline ? 1 : 0);
    h.u64(r.completed ? 1 : 0);
  }
}

/// checked_costs, with its failure counted instead of aborting the run.
void check_results(Outcome& out, const std::vector<RunResult>& results,
                   const std::string& what) {
  try {
    (void)checked_costs(results);
    out.check(true, what);
  } catch (const CheckFailure& e) {
    out.check(false, what + ": " + e.what());
  }
}

bool same_run(const RunResult& a, const RunResult& b) {
  return a.total_cost == b.total_cost && a.met_deadline == b.met_deadline &&
         a.completed == b.completed;
}

/// Wall times and work of one untraced cycle.
struct Cycle {
  std::uint64_t digest = 0;
  double fixed_s = 0.0;
  double adaptive_s = 0.0;
  std::uint64_t fixed_runs = 0;
  std::uint64_t adaptive_runs = 0;
  Samples fixed_call_s;
};

Cycle run_cycle(const SpotMarket& market, const std::vector<FixedCall>& calls,
                const std::vector<Scenario>& cells, Outcome& out) {
  Cycle c;
  HashStream h;
  for (const FixedCall& call : calls) {
    std::vector<RunResult> results;
    const double s = time_s(
        [&] { results = run_fixed_sweep(market, call.scenario, call.spec); });
    c.fixed_call_s.add(s);
    c.fixed_s += s;
    c.fixed_runs += results.size();
    check_results(out, results, "fixed sweep " + call.scenario.label());
    fold(h, results);
  }
  for (const Scenario& cell : cells) {
    std::vector<RunResult> adaptive;
    std::vector<RunResult> large_bid;
    c.adaptive_s += time_s([&] {
      adaptive = run_adaptive_sweep(market, cell);
      large_bid = run_large_bid_sweep(market, cell, Money::cents(81), 0);
    });
    c.adaptive_runs += adaptive.size() + large_bid.size();
    check_results(out, adaptive, "adaptive sweep " + cell.label());
    check_results(out, large_bid, "large-bid sweep " + cell.label());
    fold(h, adaptive);
    fold(h, large_bid);
  }
  c.digest = h.digest();
  return c;
}

/// One instrumented cycle: the same sweep calls (so the digest must
/// repeat), each followed by probes that re-run its layers through their
/// public entry points.
void traced_cycle(const SpotMarket& market,
                  const std::vector<FixedCall>& calls,
                  const std::vector<Scenario>& cells, Outcome& out,
                  std::uint64_t expect_digest) {
  HashStream h;
  double fixed_sweep_s = 0.0;
  double adaptive_sweep_s = 0.0;
  std::uint64_t sweep_calls = 0;
  double index_s = 0.0;
  std::uint64_t index_builds = 0;
  double lanes_s = 0.0;
  std::uint64_t lanes = 0;
  double scalar_s = 0.0;
  std::uint64_t scalar_runs = 0;
  double audit_s = 0.0;
  std::uint64_t audits = 0;
  std::uint64_t switchovers = 0;
  CountingObserver counts;
  PolicyTally policy_tally;
  DecisionTally decisions;
  double adaptive_engine_s = 0.0;
  const EngineOptions options;

  for (const FixedCall& call : calls) {
    std::vector<RunResult> results;
    fixed_sweep_s += time_s(
        [&] { results = run_fixed_sweep(market, call.scenario, call.spec); });
    ++sweep_calls;
    check_results(out, results, "traced fixed sweep");
    fold(h, results);

    // core/batch: the index build and lane kernel the sweep ran, redone.
    const auto t0 = Clock::now();
    const batch::BatchedSweepEngine engine(market, options);
    index_s += seconds_since(t0);
    ++index_builds;
    std::vector<batch::BatchConfig> configs;
    for (std::size_t i = 0; i < results.size(); ++i)
      configs.push_back({call.scenario.experiment(i), call.spec.policy,
                         call.spec.bid, call.spec.zones, &counts});
    std::vector<RunResult> lane_results;
    for (std::size_t lo = 0; lo < configs.size(); lo += kSweepBatchWidth) {
      const std::size_t hi = std::min(lo + kSweepBatchWidth, configs.size());
      std::vector<RunResult> group;
      lanes_s += time_s([&] {
        group = engine.run(std::span(configs).subspan(lo, hi - lo));
      });
      lane_results.insert(lane_results.end(), group.begin(), group.end());
    }
    lanes += configs.size();
    bool lanes_match = lane_results.size() == results.size();
    for (std::size_t i = 0; lanes_match && i < results.size(); ++i)
      lanes_match = same_run(lane_results[i], results[i]);
    out.check(lanes_match, "traced lanes differ from the sweep's results");

    // fault: the RunValidator audit the sweep applies to every run.
    for (std::size_t i = 0; i < results.size(); ++i) {
      const RunValidator validator(call.scenario.experiment(i),
                                   market.on_demand_rate());
      std::vector<std::string> problems;
      audit_s += time_s([&] { problems = validator.audit(results[i]); });
      ++audits;
      out.check(problems.empty(), "RunValidator audit failed");
      switchovers += results[i].switched_to_on_demand ? 1 : 0;
    }

    // engine + core/policies: scalar runs through the timing decorator.
    for (std::size_t i = 0; i < kScalarSample && i < results.size(); ++i) {
      FixedStrategy strategy(
          call.spec.bid, call.spec.zones,
          std::make_unique<TimingPolicy>(make_policy(call.spec.policy),
                                         &policy_tally));
      Engine engine_run(market, call.scenario.experiment(i), strategy);
      RunResult r;
      scalar_s += time_s([&] { r = engine_run.run(); });
      ++scalar_runs;
      out.check(same_run(r, results[i]),
                "scalar run differs from the batched sweep result");
    }
  }

  for (const Scenario& cell : cells) {
    std::vector<RunResult> adaptive;
    std::vector<RunResult> large_bid;
    adaptive_sweep_s += time_s([&] {
      adaptive = run_adaptive_sweep(market, cell);
      large_bid = run_large_bid_sweep(market, cell, Money::cents(81), 0);
    });
    sweep_calls += 2;
    check_results(out, adaptive, "traced adaptive sweep");
    check_results(out, large_bid, "traced large-bid sweep");
    fold(h, adaptive);
    fold(h, large_bid);

    // core/adaptive: every chunk again, decisions timed by DecisionPoint.
    for (std::size_t i = 0; i < adaptive.size(); ++i) {
      AdaptiveStrategy inner;
      TimingStrategy strategy(inner, &decisions);
      Engine engine_run(market, cell.experiment(i), strategy);
      RunResult r;
      adaptive_engine_s += time_s([&] { r = engine_run.run(); });
      out.check(same_run(r, adaptive[i]),
                "traced adaptive run differs from the sweep result");
    }
  }

  const std::uint64_t digest = h.digest();
  note("traced_digest", hex64(digest));
  out.check(digest == expect_digest,
            "traced cycle digest differs from the untraced cycle");

  const double fixed_ms = fixed_sweep_s * 1e3;
  out.set("exp.sweep_calls", static_cast<double>(sweep_calls), "count");
  out.set("exp.sweep_ms",
          (fixed_sweep_s + adaptive_sweep_s) * 1e3 /
              static_cast<double>(sweep_calls),
          "ms");
  out.set("batch.index_builds", static_cast<double>(index_builds), "count");
  out.set("batch.index_build_ms", index_s * 1e3 / static_cast<double>(index_builds),
          "ms");
  out.set("batch.index_share", index_s / fixed_sweep_s, "ratio");
  out.set("batch.lanes", static_cast<double>(lanes), "count");
  out.set("batch.lane_us", lanes_s * 1e6 / static_cast<double>(lanes), "us");
  out.set("engine.runs", static_cast<double>(scalar_runs), "count");
  out.set("engine.run_us", scalar_s * 1e6 / static_cast<double>(scalar_runs),
          "us");
  out.set("events.dispatched", static_cast<double>(counts.events), "count");
  out.set("zone.transitions", static_cast<double>(counts.transitions),
          "count");
  out.set("billing.line_items", static_cast<double>(counts.line_items),
          "count");
  out.set("ckpt.commits", static_cast<double>(counts.commits), "count");
  out.set("deadline.switchovers", static_cast<double>(switchovers), "count");
  out.set("policies.calls", static_cast<double>(policy_tally.calls), "count");
  out.set("policies.call_us",
          policy_tally.calls == 0
              ? 0.0
              : policy_tally.seconds * 1e6 /
                    static_cast<double>(policy_tally.calls),
          "us");
  out.set("fault.audit_us", audit_s * 1e6 / static_cast<double>(audits),
          "us");
  out.set("adaptive.decisions", static_cast<double>(decisions.total_calls()),
          "count");
  out.set("adaptive.reconsider_us",
          decisions.total_seconds() * 1e6 /
              static_cast<double>(decisions.total_calls()),
          "us");
  out.set("adaptive.decision_share",
          decisions.total_seconds() / adaptive_engine_s, "ratio");

  // Self time per layer over the cycle, from the probes above: the fixed
  // half splits into index build, lane kernel and the sweep's own dispatch
  // and audit; the Adaptive half into decision time and the rest of the
  // engine (per-run serial times scaled to the parallel sweep's wall).
  out.set("self_ms.exp", std::max(0.0, fixed_ms - (index_s + lanes_s) * 1e3),
          "ms");
  out.set("self_ms.batch", (index_s + lanes_s) * 1e3, "ms");
  const double adaptive_scale =
      adaptive_engine_s > 0.0 ? adaptive_sweep_s / adaptive_engine_s : 0.0;
  out.set("self_ms.adaptive",
          decisions.total_seconds() * adaptive_scale * 1e3, "ms");
  out.set("self_ms.engine",
          (adaptive_engine_s - decisions.total_seconds()) * adaptive_scale *
              1e3,
          "ms");

  std::printf("# layer breakdown (one cycle, traced)\n");
  std::printf("#   fixed half: %.1f ms over %zu calls; index builds %.1f ms "
              "(%.1f%%), lanes %.1f ms\n",
              fixed_ms, calls.size(), index_s * 1e3,
              100.0 * index_s / fixed_sweep_s, lanes_s * 1e3);
  std::printf("#   adaptive half: %.1f ms; decision share of engine time "
              "%.1f%%\n",
              adaptive_sweep_s * 1e3,
              100.0 * decisions.total_seconds() / adaptive_engine_s);
  for (std::size_t p = 0; p < DecisionTally::kPoints; ++p) {
    if (decisions.calls[p] == 0) continue;
    std::printf("#     decision %-16s calls=%llu mean=%.1f us\n",
                decision_point_name(p),
                static_cast<unsigned long long>(decisions.calls[p]),
                decisions.seconds[p] * 1e6 /
                    static_cast<double>(decisions.calls[p]));
  }
}

}  // namespace

Outcome run_paper_repro(const RunArgs& args) {
  Outcome out;
  declare_per_layer(out, args.trace);
  note("pool_threads", std::to_string(default_pool().size()));
  note("fixed_experiments_per_cell", std::to_string(kFixedExperiments));
  note("adaptive_experiments_per_cell", std::to_string(kAdaptiveExperiments));

  // Set-up: synthesize the 14-month trace set and wrap it in a market.
  std::unique_ptr<SpotMarket> market;
  Samples setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup.add(time_s([&] {
      market = std::make_unique<SpotMarket>(paper_traces(args.seed),
                                            cc2_instance(), QueueDelayModel());
    }));
  }
  const std::vector<FixedCall> calls = figure4_calls();
  const std::vector<Scenario> cells = figure5_cells();

  // The first cycle is measured too; the default pool already exists.
  std::vector<Cycle> cycles;
  const CpuTimes cpu0 = cpu_times();
  const auto t0 = Clock::now();
  do {
    cycles.push_back(run_cycle(*market, calls, cells, out));
  } while (!args.trace && seconds_since(t0) < args.seconds);
  const double untraced_s = seconds_since(t0);
  const double cpu_s = cpu_times().self_s - cpu0.self_s;

  const std::uint64_t digest = cycles.front().digest;
  note("digest", hex64(digest));
  for (const Cycle& c : cycles)
    out.check(c.digest == digest, "cycle digest changed between cycles");
  if (!args.expect_digest.empty())
    out.check(hex64(digest) == args.expect_digest,
              "digest " + hex64(digest) + " differs from the recorded " +
                  args.expect_digest);

  if (args.trace) {
    const double traced_s = time_s([&] {
      traced_cycle(*market, calls, cells, out, digest);
    });
    probe_markov(market->traces().zone(0),
                 window_start(VolatilityWindow::kHigh), out);
    out.set("trace.generate_ms", setup.median() * 1e3, "ms");
    out.set("tracing.overhead_ratio", traced_s / untraced_s, "ratio");
    return out;
  }

  Samples fixed_calls;
  double fixed_s = 0.0, adaptive_s = 0.0;
  std::uint64_t fixed_runs = 0, adaptive_runs = 0;
  for (const Cycle& c : cycles) {
    for (const double v : c.fixed_call_s.values) fixed_calls.add(v);
    fixed_s += c.fixed_s;
    adaptive_s += c.adaptive_s;
    fixed_runs += c.fixed_runs;
    adaptive_runs += c.adaptive_runs;
  }
  note("cycles", std::to_string(cycles.size()));
  note("fixed_runs_per_s", std::to_string(static_cast<double>(fixed_runs) / fixed_s) +
                               " runs/s");
  note("adaptive_runs_per_s",
       std::to_string(static_cast<double>(adaptive_runs) / adaptive_s) +
           " runs/s");
  note("fixed_sweep_call", fixed_calls.describe(1e3, "ms"));
  const double runs = static_cast<double>(fixed_runs + adaptive_runs);
  out.set("ops_per_s", runs / (fixed_s + adaptive_s), "ops/s");
  out.set("cpu_ms_per_op", cpu_s * 1e3 / runs, "ms");
  out.set("setup_s", setup.median(), "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

}  // namespace perfbench
