#include "probes.hpp"

namespace perfbench {

namespace {

/// Adds the wall time of `fn()` to `seconds` and returns its result.
template <typename F>
auto timed(double& seconds, F&& fn) {
  const auto t0 = Clock::now();
  auto result = fn();
  seconds += seconds_since(t0);
  return result;
}

}  // namespace

bool TimingPolicy::checkpoint_condition(const redspot::EngineView& view) {
  ++tally_->calls;
  return timed(tally_->seconds,
               [&] { return inner_->checkpoint_condition(view); });
}

redspot::SimTime TimingPolicy::schedule_next_checkpoint(
    const redspot::EngineView& view) {
  ++tally_->calls;
  return timed(tally_->seconds,
               [&] { return inner_->schedule_next_checkpoint(view); });
}

bool TimingPolicy::should_manual_stop(const redspot::EngineView& view,
                                      std::size_t zone) {
  ++tally_->calls;
  return timed(tally_->seconds,
               [&] { return inner_->should_manual_stop(view, zone); });
}

bool TimingPolicy::should_resume(const redspot::EngineView& view,
                                 std::size_t zone) {
  ++tally_->calls;
  return timed(tally_->seconds,
               [&] { return inner_->should_resume(view, zone); });
}

std::uint64_t DecisionTally::total_calls() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : calls) n += c;
  return n;
}

double DecisionTally::total_seconds() const {
  double s = 0.0;
  for (const double v : seconds) s += v;
  return s;
}

const char* decision_point_name(std::size_t point) {
  switch (static_cast<redspot::DecisionPoint>(point)) {
    case redspot::DecisionPoint::kStart: return "start";
    case redspot::DecisionPoint::kZoneTerminated: return "zone_terminated";
    case redspot::DecisionPoint::kPreBoundary: return "pre_boundary";
    case redspot::DecisionPoint::kCycleEnd: return "cycle_end";
    case redspot::DecisionPoint::kPriceTick: return "price_tick";
  }
  return "unknown";
}

redspot::EngineConfig TimingStrategy::initial(
    const redspot::EngineView& view) {
  constexpr auto k = static_cast<std::size_t>(redspot::DecisionPoint::kStart);
  ++tally_->calls[k];
  return timed(tally_->seconds[k], [&] { return inner_.initial(view); });
}

std::optional<redspot::EngineConfig> TimingStrategy::reconsider(
    const redspot::EngineView& view, redspot::DecisionPoint point) {
  const auto k = static_cast<std::size_t>(point);
  ++tally_->calls[k];
  return timed(tally_->seconds[k],
               [&] { return inner_.reconsider(view, point); });
}

}  // namespace perfbench
