// Unit tests for the experiment harness: scenarios, sweep runners and
// report formatting.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/policies/large_bid.hpp"
#include "core/strategy.hpp"
#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "test_util.hpp"
#include "trace/calendar.hpp"
#include "trace/synthetic.hpp"

namespace redspot {
namespace {

using testing::constant_series;
using testing::make_market;

TEST(Scenario, WindowsMapToCalendarMonths) {
  EXPECT_EQ(window_start(VolatilityWindow::kLow),
            month_start(kLowVolatilityMonth));
  EXPECT_EQ(window_end(VolatilityWindow::kHigh),
            month_end(kHighVolatilityMonth));
  EXPECT_EQ(to_string(VolatilityWindow::kLow), "low-volatility");
}

TEST(Scenario, StartsFitInsideWindowWithHistory) {
  const Scenario scenario{VolatilityWindow::kLow, 0.50, 900, 80};
  const auto starts = scenario.starts();
  ASSERT_EQ(starts.size(), 80u);
  const Experiment probe = scenario.experiment(0);
  EXPECT_GE(starts.front(),
            window_start(VolatilityWindow::kLow) + probe.history_span -
                kPriceStep);
  EXPECT_LE(starts.back() + probe.deadline,
            window_end(VolatilityWindow::kLow) + kPriceStep);
}

TEST(Scenario, ExperimentsParameterizedCorrectly) {
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 900, 10};
  const Experiment e = scenario.experiment(3);
  EXPECT_EQ(e.app.total_compute, 20 * kHour);
  EXPECT_EQ(e.deadline, 23 * kHour);
  EXPECT_EQ(e.costs.checkpoint, 900);
  // Distinct chunks get distinct seeds (queue delays decorrelate).
  EXPECT_NE(scenario.experiment(3).seed, scenario.experiment(4).seed);
  EXPECT_THROW(scenario.experiment(10), CheckFailure);
}

TEST(Scenario, PaperGridHasEightCells) {
  const auto cells = paper_scenarios();
  EXPECT_EQ(cells.size(), 8u);
  for (const Scenario& s : cells) EXPECT_EQ(s.num_experiments, 80u);
  EXPECT_FALSE(cells[0].label().empty());
}

TEST(Sweep, FixedSweepRunsEveryChunk) {
  const SpotMarket market =
      make_market(testing::single_zone(constant_series(0.30, 40 * 24 * 12)));
  Scenario scenario{VolatilityWindow::kLow, 0.50, 300, 5};
  // Shrink to the trace we built: use a tiny custom scenario via the
  // generic runner instead.
  scenario.num_experiments = 5;
  // This market's trace doesn't cover March 2013; build a scenario-free
  // check instead through run_fixed_sweep on a market that does.
  const SpotMarket paper_market(paper_traces(3), cc2_instance(),
                                QueueDelayModel(QueueDelayParams::fixed(0)));
  const auto results = run_fixed_sweep(
      paper_market, scenario,
      PolicyRunSpec{PolicyKind::kPeriodic, Money::cents(81), {0}});
  ASSERT_EQ(results.size(), 5u);
  for (const RunResult& r : results) {
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.met_deadline);
  }
  const auto costs = checked_costs(results);
  EXPECT_EQ(costs.size(), 5u);
}

TEST(Sweep, ParallelSweepIsDeterministic) {
  const SpotMarket market(paper_traces(3), cc2_instance(),
                          QueueDelayModel(QueueDelayParams::fixed(200)));
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 6};
  const PolicyRunSpec spec{PolicyKind::kMarkovDaly, Money::cents(81), {1}};
  const auto a = costs_of(run_fixed_sweep(market, scenario, spec));
  const auto b = costs_of(run_fixed_sweep(market, scenario, spec));
  EXPECT_EQ(a, b);
}

TEST(Sweep, MergedSingleZoneTriplesTheSample) {
  const SpotMarket market(paper_traces(3), cc2_instance(),
                          QueueDelayModel(QueueDelayParams::fixed(0)));
  const Scenario scenario{VolatilityWindow::kLow, 0.50, 300, 4};
  const auto merged = merged_single_zone_costs(
      market, scenario, PolicyKind::kPeriodic, Money::cents(81));
  EXPECT_EQ(merged.size(), 12u);  // 3 zones x 4 chunks
}

TEST(Sweep, BestCaseRedundancyIsElementwiseMin) {
  const SpotMarket market(paper_traces(3), cc2_instance(),
                          QueueDelayModel(QueueDelayParams::fixed(0)));
  const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 4};
  const PolicyKind policies[] = {PolicyKind::kPeriodic,
                                 PolicyKind::kMarkovDaly};
  const auto best = best_case_redundancy_costs(market, scenario, policies,
                                               Money::cents(81));
  ASSERT_EQ(best.size(), 4u);
  std::vector<std::size_t> zones{0, 1, 2};
  for (PolicyKind p : policies) {
    const auto single = costs_of(run_fixed_sweep(
        market, scenario, PolicyRunSpec{p, Money::cents(81), zones}));
    for (std::size_t i = 0; i < best.size(); ++i)
      EXPECT_LE(best[i], single[i] + 1e-9);
  }
}

void expect_same_run(const RunResult& a, const RunResult& b,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.total_cost.micros(), b.total_cost.micros());
  EXPECT_EQ(a.spot_cost.micros(), b.spot_cost.micros());
  EXPECT_EQ(a.on_demand_cost.micros(), b.on_demand_cost.micros());
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.met_deadline, b.met_deadline);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.checkpoints_committed, b.checkpoints_committed);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.out_of_bid_terminations, b.out_of_bid_terminations);
  EXPECT_EQ(a.full_outages, b.full_outages);
  EXPECT_EQ(a.spot_instance_seconds, b.spot_instance_seconds);
  EXPECT_EQ(a.on_demand_seconds, b.on_demand_seconds);
  EXPECT_EQ(a.queue_delay_total, b.queue_delay_total);
  EXPECT_EQ(a.switched_to_on_demand, b.switched_to_on_demand);
  EXPECT_EQ(a.config_changes, b.config_changes);
  EXPECT_EQ(a.committed_progress, b.committed_progress);
  EXPECT_EQ(a.faults.ckpt_write_failures, b.faults.ckpt_write_failures);
  EXPECT_EQ(a.faults.ckpt_corruptions, b.faults.ckpt_corruptions);
  EXPECT_EQ(a.faults.restart_failures, b.faults.restart_failures);
  EXPECT_EQ(a.faults.request_rejections, b.faults.request_rejections);
  EXPECT_EQ(a.faults.notices_dropped, b.faults.notices_dropped);
  EXPECT_EQ(a.faults.notices_late, b.faults.notices_late);
  EXPECT_EQ(a.faults.backoff_total, b.faults.backoff_total);
  ASSERT_EQ(a.checkpoint_log.size(), b.checkpoint_log.size());
  for (std::size_t i = 0; i < a.checkpoint_log.size(); ++i) {
    EXPECT_EQ(a.checkpoint_log[i].committed_at,
              b.checkpoint_log[i].committed_at);
    EXPECT_EQ(a.checkpoint_log[i].progress, b.checkpoint_log[i].progress);
    EXPECT_EQ(a.checkpoint_log[i].valid, b.checkpoint_log[i].valid);
  }
  ASSERT_EQ(a.line_items.size(), b.line_items.size());
  for (std::size_t i = 0; i < a.line_items.size(); ++i) {
    EXPECT_EQ(a.line_items[i].kind, b.line_items[i].kind);
    EXPECT_EQ(a.line_items[i].zone, b.line_items[i].zone);
    EXPECT_EQ(a.line_items[i].cycle_start, b.line_items[i].cycle_start);
    EXPECT_EQ(a.line_items[i].charged_at, b.line_items[i].charged_at);
    EXPECT_EQ(a.line_items[i].amount.micros(), b.line_items[i].amount.micros());
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].time, b.timeline[i].time);
    EXPECT_EQ(a.timeline[i].zone, b.timeline[i].zone);
    EXPECT_EQ(a.timeline[i].kind, b.timeline[i].kind);
    EXPECT_EQ(a.timeline[i].detail, b.timeline[i].detail);
  }
}

/// Every chunk of `swept` must equal a scalar Engine::run of the same
/// chunk with a fresh strategy from `make_strategy`. Returns how many of
/// the runs saw an injected fault.
template <typename MakeStrategy>
int expect_matches_scalar(const SpotMarket& market, const Scenario& scenario,
                          const EngineOptions& options,
                          const std::vector<RunResult>& swept,
                          MakeStrategy make_strategy,
                          const std::string& label) {
  EXPECT_EQ(swept.size(), scenario.num_experiments) << label;
  int faulted = 0;
  for (std::size_t i = 0; i < swept.size(); ++i) {
    const auto strategy = make_strategy();
    Engine engine(market, scenario.experiment(i), *strategy, options);
    expect_same_run(swept[i], engine.run(),
                    label + " chunk " + std::to_string(i));
    faulted += swept[i].faults.any() ? 1 : 0;
  }
  return faulted;
}

// Every sweep runs its chunks as lanes of the lockstep driver. Small
// sweeps split into narrower groups so they spread over the pool: the
// chunk counts cover one-lane groups, a remainder group and the full
// 16-lane width. Adaptive lanes run alone and large-bid lanes group like
// fixed ones, with and without injected faults. Whatever the grouping,
// every chunk must match a scalar run of the same chunk exactly —
// timeline, line items and fault stats included.
TEST(Sweep, SmallSweepGroupingMatchesScalarRuns) {
  const SpotMarket market(paper_traces(3), cc2_instance(),
                          QueueDelayModel(QueueDelayParams::fixed(200)));
  EngineOptions plain;
  plain.record_timeline = true;
  plain.record_line_items = true;
  EngineOptions faulted = plain;
  faulted.faults.ckpt_write_failure_rate = 0.2;
  faulted.faults.ckpt_corruption_rate = 0.1;
  faulted.faults.restart_failure_rate = 0.2;
  faulted.faults.request_rejection_rate = 0.2;
  const PolicyRunSpec specs[] = {
      {PolicyKind::kThreshold, Money::cents(81), {1}},
      {PolicyKind::kMarkovDaly, Money::cents(81), {0, 1, 2}}};
  const std::size_t kChunkCounts[] = {2, 3, 5, 16, 17, 33};
  int faulted_runs = 0;
  for (const EngineOptions& options : {plain, faulted}) {
    const std::string mode = options.faults.enabled() ? " faulted" : "";
    for (const std::size_t chunks : kChunkCounts) {
      const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, chunks};
      for (const PolicyRunSpec& spec : specs) {
        faulted_runs += expect_matches_scalar(
            market, scenario, options,
            run_fixed_sweep(market, scenario, spec, options),
            [&spec] {
              return std::make_unique<FixedStrategy>(
                  spec.bid, spec.zones, make_policy(spec.policy));
            },
            to_string(spec.policy) + mode + " chunks=" +
                std::to_string(chunks));
      }
    }
    const Scenario scenario{VolatilityWindow::kHigh, 0.15, 300, 5};
    faulted_runs += expect_matches_scalar(
        market, scenario, options,
        run_adaptive_sweep(market, scenario, {}, options),
        [] { return std::make_unique<AdaptiveStrategy>(); },
        "adaptive" + mode);
    faulted_runs += expect_matches_scalar(
        market, scenario, options,
        run_large_bid_sweep(market, scenario, Money::cents(81), 1, options),
        [] {
          return std::make_unique<FixedStrategy>(
              LargeBidPolicy::large_bid(), std::vector<std::size_t>{1},
              std::make_unique<LargeBidPolicy>(Money::cents(81)));
        },
        "large-bid" + mode);
  }
  EXPECT_GT(faulted_runs, 0) << "the fault plan never fired";
}

TEST(Report, BoxplotTableContainsEverything) {
  std::vector<BoxRow> rows;
  rows.push_back(make_box_row("periodic", std::vector<double>{1, 2, 3, 4}));
  const std::string table = boxplot_table(
      "Demo", rows, Money::dollars(48.0), Money::dollars(5.40));
  EXPECT_NE(table.find("Demo"), std::string::npos);
  EXPECT_NE(table.find("periodic"), std::string::npos);
  EXPECT_NE(table.find("$48.00"), std::string::npos);
  EXPECT_NE(table.find("$5.40"), std::string::npos);
  EXPECT_NE(table.find("median"), std::string::npos);
}

TEST(Report, MakeBoxRowRejectsEmpty) {
  EXPECT_THROW(make_box_row("x", std::vector<double>{}), CheckFailure);
}

TEST(Report, TwoColumnTableAligns) {
  const std::vector<std::pair<std::string, std::string>> rows = {
      {"a", "1"}, {"longer-name", "2"}};
  const std::string t = two_column_table("T", rows);
  EXPECT_NE(t.find("longer-name"), std::string::npos);
  EXPECT_NE(t.find("== T =="), std::string::npos);
}

}  // namespace
}  // namespace redspot
