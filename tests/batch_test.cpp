// Batched-vs-scalar bit-identity property suite (DESIGN.md §14).
//
// The BatchedSweepEngine's whole contract is that N lanes advanced in
// lockstep over shared cache-resident state reproduce what N independent
// scalar Engine::run() calls produce, bit-for-bit: costs, termination
// outcome, accounting counters, and (when recorded) the full timeline.
// These tests drive that contract over randomized config grids — mixed
// policies, bids (including never-in-bid and always-in-bid), zone
// subsets, start offsets, compute sizes, and both trace shapes (alphabet
// / unique-mode and random-walk / quantile-binned windows) — plus the SoA
// kernels the lockstep driver is built from, and a ThreadPool stress run
// exercising the engine's many-concurrent-run() thread-safety claim
// (meaningful under TSan), plus a race for a fresh market's lazily built
// trace index (also meaningful under TSan) and exhaustive checks of that
// index's block-decomposed range minimum against a scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/random.hpp"
#include "core/adaptive/adaptive_runner.hpp"
#include "core/batch/batch_state.hpp"
#include "core/batch/batched_engine.hpp"
#include "core/strategy.hpp"
#include "exp/scenario.hpp"
#include "markov/model.hpp"
#include "test_util.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_index.hpp"

namespace redspot {
namespace {

using batch::BatchConfig;
using batch::BatchedSweepEngine;
using batch::BatchState;

// --- SoA kernels -------------------------------------------------------------

TEST(BatchKernels, MinNextMatchesStdMinElementOnRandomArrays) {
  Rng rng(7001);
  for (int trial = 0; trial < 200; ++trial) {
    BatchState state;
    const std::size_t n = 1 + rng.uniform_index(40);
    for (std::size_t i = 0; i < n; ++i) {
      // Small value range so ties are common; some lanes finished.
      state.next_time.push_back(
          rng.bernoulli(0.2) ? kNever
                             : static_cast<SimTime>(rng.uniform_index(12)));
    }
    EXPECT_EQ(batch::min_next(state),
              *std::min_element(state.next_time.begin(),
                                state.next_time.end()));
  }
  BatchState state;
  EXPECT_EQ(batch::min_next(state), kNever);  // no lanes at all
}

TEST(BatchKernels, MapAliveStatesMatchesModelMaxAliveState) {
  Rng rng(7002);
  for (int trial = 0; trial < 50; ++trial) {
    // Random ascending state prices, bids straddling / outside the range.
    MarkovModel model;
    double p = rng.uniform(0.05, 0.40);
    const std::size_t n = 2 + rng.uniform_index(30);
    for (std::size_t i = 0; i < n; ++i) {
      model.state_prices.push_back(p);
      p += rng.uniform(0.01, 0.50);
    }
    std::vector<Money> bids;
    for (int b = 0; b < 12; ++b)
      bids.push_back(Money::dollars(rng.uniform(0.01, p + 0.5)));
    bids.push_back(Money::dollars(model.state_prices.front()));  // exact edge
    bids.push_back(Money::dollars(model.state_prices.back()));
    bids.push_back(Money::cents(1));  // below every state

    std::vector<std::int32_t> alive(bids.size());
    batch::map_alive_states(model.state_prices, bids, alive);
    for (std::size_t j = 0; j < bids.size(); ++j) {
      const std::size_t expected = model.max_alive_state(bids[j]);
      if (expected == SIZE_MAX) {
        EXPECT_EQ(alive[j], -1);
      } else {
        EXPECT_EQ(alive[j], static_cast<std::int32_t>(expected));
      }
    }
  }
}

// --- Batched vs scalar -------------------------------------------------------

PriceSeries alphabet_series(Rng& rng, std::size_t samples) {
  static const double kLevels[] = {0.25, 0.27, 0.30, 0.35,
                                   0.55, 0.81, 1.20, 2.50};
  std::vector<Money> out;
  out.reserve(samples);
  Money cur = Money::dollars(kLevels[rng.uniform_index(8)]);
  for (std::size_t i = 0; i < samples; ++i) {
    if (rng.bernoulli(0.2)) cur = Money::dollars(kLevels[rng.uniform_index(8)]);
    out.push_back(cur);
  }
  return PriceSeries(0, kPriceStep, std::move(out));
}

PriceSeries walk_series(Rng& rng, std::size_t samples) {
  std::vector<Money> out;
  out.reserve(samples);
  double cur = 0.30;
  for (std::size_t i = 0; i < samples; ++i) {
    cur = std::max(0.05, cur + rng.uniform(-0.02, 0.02));
    out.push_back(Money::dollars(cur));
  }
  return PriceSeries(0, kPriceStep, std::move(out));
}

RunResult scalar_run(const SpotMarket& market, const BatchConfig& config,
                     const EngineOptions& options) {
  FixedStrategy strategy(config.bid, config.zones,
                         make_policy(config.policy));
  Engine engine(market, config.experiment, strategy, options);
  return engine.run();
}

void expect_identical(const RunResult& batched, const RunResult& scalar,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(batched.total_cost.micros(), scalar.total_cost.micros());
  EXPECT_EQ(batched.spot_cost.micros(), scalar.spot_cost.micros());
  EXPECT_EQ(batched.on_demand_cost.micros(), scalar.on_demand_cost.micros());
  EXPECT_EQ(batched.completed, scalar.completed);
  EXPECT_EQ(batched.met_deadline, scalar.met_deadline);
  EXPECT_EQ(batched.finish_time, scalar.finish_time);
  EXPECT_EQ(batched.checkpoints_committed, scalar.checkpoints_committed);
  EXPECT_EQ(batched.restarts, scalar.restarts);
  EXPECT_EQ(batched.out_of_bid_terminations, scalar.out_of_bid_terminations);
  EXPECT_EQ(batched.full_outages, scalar.full_outages);
  EXPECT_EQ(batched.spot_instance_seconds, scalar.spot_instance_seconds);
  EXPECT_EQ(batched.on_demand_seconds, scalar.on_demand_seconds);
  EXPECT_EQ(batched.switched_to_on_demand, scalar.switched_to_on_demand);
  EXPECT_EQ(batched.committed_progress, scalar.committed_progress);
  ASSERT_EQ(batched.timeline.size(), scalar.timeline.size());
  for (std::size_t i = 0; i < batched.timeline.size(); ++i) {
    EXPECT_EQ(batched.timeline[i].time, scalar.timeline[i].time);
    EXPECT_EQ(batched.timeline[i].zone, scalar.timeline[i].zone);
    EXPECT_EQ(batched.timeline[i].kind, scalar.timeline[i].kind);
    EXPECT_EQ(batched.timeline[i].detail, scalar.timeline[i].detail);
  }
}

std::vector<BatchConfig> random_grid(Rng& rng, std::size_t num_zones,
                                     std::size_t lanes) {
  static const PolicyKind kPolicies[] = {
      PolicyKind::kPeriodic, PolicyKind::kMarkovDaly, PolicyKind::kRisingEdge,
      PolicyKind::kThreshold};
  // Bids spanning the interesting regimes: never-in-bid (forces the
  // deadline switch to on-demand), contested, and always-in-bid.
  static const double kBids[] = {0.01, 0.26, 0.60, 0.95, 3.50};

  std::vector<BatchConfig> configs;
  for (std::size_t i = 0; i < lanes; ++i) {
    BatchConfig c;
    c.experiment = testing::small_experiment(
        /*compute_hours=*/1.0 + static_cast<double>(rng.uniform_index(3)),
        /*slack_frac=*/0.5 + rng.uniform(0.0, 0.5),
        /*tc=*/5 * kMinute,
        /*start=*/static_cast<SimTime>(rng.uniform_index(4)) * kHour);
    c.policy = kPolicies[rng.uniform_index(4)];
    c.bid = Money::dollars(kBids[rng.uniform_index(5)]);
    c.zones.clear();
    const std::size_t first = rng.uniform_index(num_zones);
    for (std::size_t z = 0; z < num_zones; ++z)
      if (z == first || rng.bernoulli(0.4)) c.zones.push_back(z);
    configs.push_back(std::move(c));
  }
  return configs;
}

TEST(BatchedSweep, RandomGridsMatchScalarBitForBit) {
  Rng rng(9001);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t num_zones = 1 + static_cast<std::size_t>(trial) % 3;
    // Alternate trace shapes: alphabet keeps windows in unique mode,
    // random walks push them into the quantile-binned slide. Vary length
    // so the trace/deadline alignment differs per trial.
    const std::size_t samples = 288 + 48 * static_cast<std::size_t>(trial);
    std::vector<PriceSeries> series;
    for (std::size_t z = 0; z < num_zones; ++z) {
      series.push_back(trial % 2 == 0 ? alphabet_series(rng, samples)
                                      : walk_series(rng, samples));
    }
    const SpotMarket market = testing::make_market(testing::zones(series));

    // Timelines on: the strictest equality the engine can express.
    EngineOptions options;
    options.record_timeline = true;

    const std::vector<BatchConfig> configs =
        random_grid(rng, num_zones, /*lanes=*/12);
    const BatchedSweepEngine batcher(market, options);
    const std::vector<RunResult> batched = batcher.run(configs);
    ASSERT_EQ(batched.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      expect_identical(batched[i], scalar_run(market, configs[i], options),
                       "trial " + std::to_string(trial) + " lane " +
                           std::to_string(i));
    }
  }
}

TEST(BatchedSweep, EdgeGroups) {
  Rng rng(9002);
  std::vector<PriceSeries> series;
  series.push_back(alphabet_series(rng, 288));
  series.push_back(walk_series(rng, 288));
  const SpotMarket market = testing::make_market(testing::zones(series));
  const BatchedSweepEngine batcher(market);

  // Empty group.
  EXPECT_TRUE(batcher.run({}).empty());

  // Single lane.
  std::vector<BatchConfig> one = random_grid(rng, 2, 1);
  expect_identical(batcher.run(one)[0], scalar_run(market, one[0], {}),
                   "single lane");

  // Identical lanes must produce identical results (shared state must not
  // leak one lane's progress into another).
  std::vector<BatchConfig> same(8, one[0]);
  const std::vector<RunResult> results = batcher.run(same);
  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_identical(results[i], results[0],
                     "clone lane " + std::to_string(i));
  }
}

// The width rule: static lanes pack in index order up to the static
// width, every dynamic (Adaptive) lane is a group of its own.
TEST(BatchedSweep, PlanGroupsRunsDynamicLanesAlone) {
  FixedStrategy fixed(Money::cents(81), {0},
                      make_policy(PolicyKind::kPeriodic));
  AdaptiveStrategy adaptive;
  const Experiment e = testing::small_experiment(1.0, 0.5, 5 * kMinute);
  EXPECT_EQ(batch::group_width(fixed, 16), 16u);
  EXPECT_EQ(batch::group_width(adaptive, 16), 1u);
  const batch::Lane s{e, &fixed};
  const batch::Lane d{e, &adaptive};
  const std::vector<batch::Lane> lanes = {s, d, s, s, d, s, s};
  using Groups = std::vector<std::vector<std::size_t>>;
  EXPECT_EQ(batch::plan_groups(lanes, 2),
            (Groups{{1}, {0, 2}, {4}, {3, 5}, {6}}));
  EXPECT_EQ(batch::plan_groups(lanes, 8), (Groups{{1}, {4}, {0, 2, 3, 5, 6}}));
  EXPECT_EQ(batch::plan_groups(lanes, 1),
            (Groups{{0}, {1}, {2}, {3}, {4}, {5}, {6}}));
  EXPECT_TRUE(batch::plan_groups({}, 4).empty());
}

// One immutable BatchedSweepEngine serving many concurrent run() calls:
// the thread-safety claim the sweep fabric relies on. Every concurrent
// result must equal the single-threaded reference; under TSan this also
// proves the shared trace index and per-run state carry no hidden races.
TEST(BatchedSweep, ConcurrentRunsShareOneEngine) {
  Rng rng(9003);
  std::vector<PriceSeries> series;
  series.push_back(alphabet_series(rng, 288));
  series.push_back(walk_series(rng, 288));
  const SpotMarket market = testing::make_market(testing::zones(series));
  const BatchedSweepEngine batcher(market);

  const std::vector<BatchConfig> configs = random_grid(rng, 2, 8);
  const std::vector<RunResult> reference = batcher.run(configs);

  constexpr int kRuns = 8;
  std::vector<std::vector<RunResult>> results(kRuns);
  ThreadPool pool(4);
  for (int r = 0; r < kRuns; ++r) {
    pool.submit([&, r] { results[r] = batcher.run(configs); });
  }
  pool.wait_idle();

  for (int r = 0; r < kRuns; ++r) {
    ASSERT_EQ(results[r].size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expect_identical(results[r][i], reference[i],
                       "run " + std::to_string(r) + " lane " +
                           std::to_string(i));
    }
  }
}

// --- Per-market shared trace index -------------------------------------------

// Every S_min answer the index gives for windows over `market`'s own
// traces equals the linear scan.
void expect_index_matches_scan(const SpotMarket& market, Rng& rng,
                               const std::string& label) {
  SCOPED_TRACE(label);
  const SharedTraceIndex& index = market.trace_index();
  for (int q = 0; q < 200; ++q) {
    const std::size_t zone = rng.uniform_index(market.num_zones());
    const PriceSeries& series = market.traces().zone(zone);
    const std::size_t lo = rng.uniform_index(series.size());
    const std::size_t len = 1 + rng.uniform_index(series.size() - lo);
    const PriceView view = series.view(series.time_of(lo),
                                       series.time_of(lo) +
                                           static_cast<SimTime>(len) *
                                               series.step());
    EXPECT_EQ(index.min_over(zone, view).micros(),
              view.min_price().micros());
  }
}

// Every [lo, hi) over random prices of sizes straddling the 64-sample
// block edges: single-sample, same-block (touching neither edge, one edge
// or both), adjacent-block and multi-block ranges, including a partial
// last block. The reference is *std::min_element over [lo, hi), kept as
// a running minimum while hi grows so the sweep stays O(n^2). Stops at
// the first mismatch.
void expect_every_range_matches_scan(const std::vector<Money>& samples) {
  SCOPED_TRACE("size " + std::to_string(samples.size()));
  RangeMinIndex index;
  index.build(samples);
  ASSERT_EQ(index.size(), samples.size());
  for (std::size_t lo = 0; lo < samples.size(); ++lo) {
    std::int64_t scan = samples[lo].micros();
    for (std::size_t hi = lo + 1; hi <= samples.size(); ++hi) {
      scan = std::min(scan, samples[hi - 1].micros());
      ASSERT_EQ(index.min_in(lo, hi).micros(), scan)
          << "lo " << lo << " hi " << hi;
    }
  }
}

TEST(RangeMinIndex, EveryRangeMatchesScanAcrossBlockEdges) {
  Rng rng(9005);
  for (const std::size_t n : {1, 2, 63, 64, 65, 127, 128, 129, 1000}) {
    std::vector<Money> samples;
    for (std::size_t i = 0; i < n; ++i)
      samples.push_back(Money::from_micros(
          static_cast<std::int64_t>(rng.uniform_index(1'000'000))));
    expect_every_range_matches_scan(samples);
  }
}

// The S_min windows the engine asks for over one replication's trimmed
// high-volatility trace: 10,000 2-day (576-sample) windows at random
// positions, plus every shorter history window at the trace start.
TEST(RangeMinIndex, HistoryWindowsOverATrimmedPaperTraceMatchScan) {
  const ZoneTraceSet traces = generate_traces(trimmed_spec(
      paper_trace_spec(7), window_end(VolatilityWindow::kHigh)));
  const SharedTraceIndex index(traces);
  ASSERT_EQ(index.num_zones(), traces.num_zones());
  constexpr std::size_t kWindow = 576;
  const auto expect_window = [&](std::size_t zone, std::size_t lo,
                                 std::size_t len) {
    const PriceSeries& series = traces.zone(zone);
    const PriceView view(series.time_of(lo), series.step(),
                         series.samples().subspan(lo, len));
    ASSERT_EQ(index.min_over(zone, view).micros(),
              std::min_element(view.samples().begin(), view.samples().end())
                  ->micros())
        << "zone " << zone << " lo " << lo << " len " << len;
  };
  Rng rng(9006);
  for (int q = 0; q < 10'000; ++q) {
    const std::size_t zone = rng.uniform_index(traces.num_zones());
    const std::size_t n = traces.zone(zone).size();
    ASSERT_GE(n, kWindow);
    ASSERT_NO_FATAL_FAILURE(
        expect_window(zone, rng.uniform_index(n - kWindow + 1), kWindow));
  }
  for (std::size_t zone = 0; zone < traces.num_zones(); ++zone) {
    for (std::size_t len = 1; len < kWindow; ++len)
      ASSERT_NO_FATAL_FAILURE(expect_window(zone, 0, len));
  }
}

// Eight threads race for a fresh market's index, half through
// trace_index() and half by constructing (and running) a
// BatchedSweepEngine: one index gets built, everyone sees it, and it
// answers exactly. Under TSan this also proves the lazy build is
// race-free.
TEST(SharedTraceIndex, BuiltOncePerMarketUnderConcurrentFirstUse) {
  Rng rng(9004);
  std::vector<PriceSeries> series;
  series.push_back(alphabet_series(rng, 2000));
  series.push_back(walk_series(rng, 2000));
  series.push_back(walk_series(rng, 2000));
  const SpotMarket market = testing::make_market(testing::zones(series));
  const std::vector<BatchConfig> configs = random_grid(rng, 3, 4);

  constexpr std::size_t kThreads = 8;
  const std::uint64_t builds_before = SharedTraceIndex::builds();
  std::vector<const SharedTraceIndex*> seen(kThreads, nullptr);
  std::vector<std::vector<RunResult>> runs(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      if (t % 2 == 0) {
        seen[t] = &market.trace_index();
      } else {
        const BatchedSweepEngine batcher(market);
        runs[t] = batcher.run(configs);
        seen[t] = &market.trace_index();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(SharedTraceIndex::builds() - builds_before, 1u);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
    if (t % 2 == 0) continue;
    ASSERT_EQ(runs[t].size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      expect_identical(runs[t][i], scalar_run(market, configs[i], {}),
                       "thread " + std::to_string(t) + " lane " +
                           std::to_string(i));
    }
  }
  expect_index_matches_scan(market, rng, "shared market");

  // A copy owns new trace storage, so it gets (and builds) its own index.
  SpotMarket copy(market);
  EXPECT_NE(&copy.trace_index(), &market.trace_index());
  EXPECT_EQ(SharedTraceIndex::builds() - builds_before, 2u);
  expect_index_matches_scan(copy, rng, "copied market");

  // A move keeps the storage, so the built index moves with it.
  const SharedTraceIndex* copy_index = &copy.trace_index();
  const SpotMarket moved(std::move(copy));
  EXPECT_EQ(&moved.trace_index(), copy_index);
  EXPECT_EQ(SharedTraceIndex::builds() - builds_before, 2u);
  expect_index_matches_scan(moved, rng, "moved market");
  const BatchedSweepEngine moved_batcher(moved);
  const std::vector<RunResult> moved_runs = moved_batcher.run(configs);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_identical(moved_runs[i], scalar_run(market, configs[i], {}),
                     "moved lane " + std::to_string(i));
  }
}

}  // namespace
}  // namespace redspot
