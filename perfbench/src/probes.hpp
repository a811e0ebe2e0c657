// Tracing probes the traced run attaches through the library's public
// hooks: a counting EngineObserver, and timing decorators around Policy
// and Strategy. None of them changes what a run computes; each forwards
// every call to the wrapped object and only records counts and times.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "bench.hpp"
#include "core/events/observer.hpp"
#include "core/policy.hpp"
#include "core/strategy.hpp"

namespace perfbench {

/// Engine work counts: events dispatched, zone transitions, billing line
/// items and checkpoint commits. These repeat exactly for a given input.
class CountingObserver final : public redspot::EngineObserver {
 public:
  void on_event(const redspot::Event&) override { ++events; }
  void on_transition(redspot::SimTime, std::size_t, redspot::ZoneState,
                     redspot::ZoneState) override {
    ++transitions;
  }
  void on_billing(const redspot::LineItem&) override { ++line_items; }
  void on_checkpoint_commit(const redspot::CheckpointCommit&) override {
    ++commits;
  }

  std::uint64_t events = 0;
  std::uint64_t transitions = 0;
  std::uint64_t line_items = 0;
  std::uint64_t commits = 0;
};

/// Time spent in, and calls made to, one policy's decision hooks.
struct PolicyTally {
  std::uint64_t calls = 0;
  double seconds = 0.0;
};

/// Forwards every hook to `inner` and adds each call's wall time to
/// `tally`. Markov-Daly's model work happens inside these hooks, so its
/// markov cost is counted here.
class TimingPolicy final : public redspot::Policy {
 public:
  TimingPolicy(std::unique_ptr<redspot::Policy> inner, PolicyTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  std::string name() const override { return inner_->name(); }
  bool checkpoint_condition(const redspot::EngineView& view) override;
  redspot::SimTime schedule_next_checkpoint(
      const redspot::EngineView& view) override;
  bool wants_pre_boundary_checks() const override {
    return inner_->wants_pre_boundary_checks();
  }
  bool should_manual_stop(const redspot::EngineView& view,
                          std::size_t zone) override;
  bool should_resume(const redspot::EngineView& view,
                     std::size_t zone) override;
  void use_model_pool(redspot::batch::ZoneModelPool* pool) override {
    inner_->use_model_pool(pool);
  }

 private:
  std::unique_ptr<redspot::Policy> inner_;
  PolicyTally* tally_;
};

/// Decision counts and times per DecisionPoint (index = enum value;
/// kStart counts initial()).
struct DecisionTally {
  static constexpr std::size_t kPoints = 5;
  std::array<std::uint64_t, kPoints> calls{};
  std::array<double, kPoints> seconds{};

  std::uint64_t total_calls() const;
  double total_seconds() const;
};

const char* decision_point_name(std::size_t point);

/// Forwards to `inner` and times initial() and every reconsider(), keyed
/// by DecisionPoint.
class TimingStrategy final : public redspot::Strategy {
 public:
  TimingStrategy(redspot::Strategy& inner, DecisionTally* tally)
      : inner_(inner), tally_(tally) {}

  redspot::EngineConfig initial(const redspot::EngineView& view) override;
  std::optional<redspot::EngineConfig> reconsider(
      const redspot::EngineView& view, redspot::DecisionPoint point) override;
  bool dynamic() const override { return inner_.dynamic(); }

 private:
  redspot::Strategy& inner_;
  DecisionTally* tally_;
};

}  // namespace perfbench
