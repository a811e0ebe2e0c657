#include "core/batch/batched_engine.hpp"

#include <memory>

#include "common/check.hpp"
#include "core/batch/batch_state.hpp"
#include "core/batch/model_pool.hpp"
#include "core/strategy.hpp"

namespace redspot::batch {

std::size_t group_width(const Strategy& lane, std::size_t static_width) {
  REDSPOT_CHECK(static_width >= 1);
  return lane.dynamic() ? 1 : static_width;
}

std::vector<std::vector<std::size_t>> plan_groups(std::span<const Lane> lanes,
                                                  std::size_t static_width) {
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> open;  // the static group being filled
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (group_width(*lanes[i].strategy, static_width) == 1) {
      groups.push_back({i});
      continue;
    }
    open.push_back(i);
    if (open.size() == static_width) {
      groups.push_back(std::move(open));
      open.clear();
    }
  }
  if (!open.empty()) groups.push_back(std::move(open));
  return groups;
}

BatchedSweepEngine::BatchedSweepEngine(const SpotMarket& market,
                                       EngineOptions options)
    : market_(&market), options_(std::move(options)) {}

std::vector<RunResult> BatchedSweepEngine::run_lanes(
    std::span<const Lane> lanes) const {
  const std::size_t n = lanes.size();
  std::vector<RunResult> results(n);
  if (n == 0) return results;

  // Shared state of the group: one model pool, its bid grid spanning
  // every lane's starting bid (set below, once the lanes have begun and
  // before any of them steps) so the prewarm kernel covers the group.
  ZoneModelPool pool;
  std::vector<std::unique_ptr<Engine>> engines;
  engines.reserve(n);
  for (const Lane& lane : lanes) {
    REDSPOT_CHECK(lane.strategy != nullptr);
    lane.strategy->use_model_pool(&pool);
    engines.push_back(std::make_unique<Engine>(*market_, lane.experiment,
                                               *lane.strategy, options_));
    if (lane.observer != nullptr) engines.back()->add_observer(lane.observer);
  }

  BatchState state;
  state.resize(n);
  std::vector<Money> bids;
  bids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    engines[i]->begin();
    state.next_time[i] = engines[i]->next_event_time();
    bids.push_back(engines[i]->bid());
  }
  pool.set_bid_grid(bids);

  // Lockstep, one *instant* at a time: every lane with an event at the
  // group's earliest time t drains its whole same-instant burst, in lane
  // order — exactly the dispatch order a per-event argmin with the
  // lowest-index tie rule produces (lane i's burst at t all precedes lane
  // i+1's), but paying one linear pass per distinct instant instead of
  // one O(lanes) scan per dispatched event. Engines never schedule into
  // the past, so time only moves forward and the shared zone models slide
  // forward once per tick for the whole group. The pass folds the next
  // instant's min into the same loop: every lane it leaves behind is
  // strictly past t.
  SimTime t = min_next(state);
  while (t != kNever) {
    SimTime next_t = kNever;
    for (std::size_t i = 0; i < n; ++i) {
      SimTime ti = state.next_time[i];
      if (ti == t) {
        Engine& engine = *engines[i];
        do {
          engine.step_one();
          ti = engine.finished() ? kNever : engine.next_event_time();
        } while (ti == t);
        state.next_time[i] = ti;
      }
      next_t = ti < next_t ? ti : next_t;
    }
    t = next_t;
  }

  for (std::size_t i = 0; i < n; ++i) results[i] = engines[i]->finalize();
  return results;
}

std::vector<RunResult> BatchedSweepEngine::run(
    std::span<const BatchConfig> configs) const {
  std::vector<std::unique_ptr<Strategy>> strategies;
  std::vector<Lane> lanes;
  strategies.reserve(configs.size());
  lanes.reserve(configs.size());
  for (const BatchConfig& c : configs) {
    strategies.push_back(std::make_unique<FixedStrategy>(
        c.bid, c.zones, make_policy(c.policy)));
    lanes.push_back(Lane{c.experiment, strategies.back().get(), c.observer});
  }
  return run_lanes(lanes);
}

}  // namespace redspot::batch
