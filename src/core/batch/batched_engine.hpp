// BatchedSweepEngine: the one driver every sweep and ensemble shard runs
// its engines through — N lanes advanced in lockstep over one shared view
// of the price trace (DESIGN.md §14).
//
// A lane is any Strategy — a fixed policy, Adaptive or large-bid — run as
// one Experiment under the engine's EngineOptions, fault plans included.
// A scalar run is a width-1 group. The driver advances a group's lanes in
// global event-time order, one instant at a time — a branchless min over
// the SoA next-event array finds the group's earliest event time, and
// every lane with an event at that instant drains its burst in lane order
// — so the group shares, across every lane:
//
//   * the market's SharedTraceIndex (SpotMarket::trace_index(), built
//     once per market), which every Engine answers S_min from;
//   * one ZoneModelPool: each per-zone model slides ONCE per tick for the
//     whole group (windows are pure functions of (zone, now)), and its
//     (state, alive) memo dedupes the closed-form solves across lanes and
//     bids, prewarmed grid-wide through the branchless alive-state kernel.
//
// Each lane is still a full scalar Engine stepped incrementally
// (begin/step_one/finalize), so billing anchors, zone-machine
// transitions, checkpoint coordination, and observers behave exactly as
// in a run() call. Every Engine draws its queue delays and injected
// faults from its own experiment.seed streams, and every shared value is
// a pure function of inputs that do not depend on which lane asks (see
// trace/trace_index.hpp / model_pool.hpp), so a lane's RunResult is
// bit-identical to a scalar Engine::run() of it for ANY grouping and
// interleaving. The time-ordered interleaving is a performance choice
// (models only slide forward), not a correctness requirement.
//
// Width rule (group_width): static strategies share groups, dynamic ones
// (Adaptive) run alone — their decisions touch no shared state, so a
// wider group only adds interleaving overhead.
#pragma once

#include <span>
#include <vector>

#include "core/engine.hpp"

namespace redspot::batch {

/// One lane of a lockstep group: `strategy` run as `experiment`.
struct Lane {
  Experiment experiment;
  /// Non-owning; must outlive the run and serve only this lane.
  Strategy* strategy = nullptr;
  /// Optional observer (e.g. an AuditObserver), attached before the lane
  /// begins; must outlive the run.
  EngineObserver* observer = nullptr;
};

/// A fixed-policy lane, for run(std::span<const BatchConfig>).
struct BatchConfig {
  Experiment experiment;
  PolicyKind policy = PolicyKind::kPeriodic;
  Money bid;
  std::vector<std::size_t> zones{0};
  /// Optional per-lane observer, attached before the lane begins (e.g. an
  /// AuditObserver); must outlive the run() call.
  EngineObserver* observer = nullptr;
};

/// The width rule: how many lanes like `lane` share one lockstep group
/// when static lanes pack `static_width` (>= 1) wide. A dynamic strategy
/// (Strategy::dynamic(), i.e. Adaptive) runs alone. Results never depend
/// on the width, only the speed does.
std::size_t group_width(const Strategy& lane, std::size_t static_width);

/// Splits lanes of mixed kinds into lockstep groups by group_width, each
/// a list of lane indices: static lanes pack in index order, every lane
/// of width 1 is a group of its own.
std::vector<std::vector<std::size_t>> plan_groups(std::span<const Lane> lanes,
                                                  std::size_t static_width);

class BatchedSweepEngine {
 public:
  /// `market` must outlive the engine. The engine is immutable after
  /// construction, so one instance serves many concurrent runs (one per
  /// sweep task).
  explicit BatchedSweepEngine(const SpotMarket& market,
                              EngineOptions options = {});

  /// Runs every lane to completion as ONE lockstep group. Returns one
  /// RunResult per lane, in lane order — each bit-identical to what a
  /// scalar Engine::run() of the same lane produces. Thread-safe.
  std::vector<RunResult> run_lanes(std::span<const Lane> lanes) const;

  /// Shorthand for fixed-policy lanes: builds each config's
  /// FixedStrategy and runs them through run_lanes() as one group.
  std::vector<RunResult> run(std::span<const BatchConfig> configs) const;

 private:
  const SpotMarket* market_;
  EngineOptions options_;
};

}  // namespace redspot::batch
