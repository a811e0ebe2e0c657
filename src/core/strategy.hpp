// Strategy: who picks (bid, zone set, policy)?
//
// The policies of Section 4 run with a fixed configuration chosen up front
// (FixedStrategy). The Adaptive scheme of Section 7 re-selects the
// permutation (B, N, policy) at decision points — see
// core/adaptive/adaptive_runner.hpp. The engine consults the strategy at
// the paper's decision points:
//   (1) a zone was terminated out-of-bid,
//   (2) a billing hour ended (and, t_c earlier, a pre-boundary check so a
//       protective checkpoint can complete before a disruptive switch),
//   (3) every price tick — where the engine only applies configurations
//       that keep the bid and every active zone (the paper's rule 3).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/money.hpp"
#include "core/policy.hpp"

namespace redspot {

/// The running configuration: one permutation of (B, zones, policy).
struct EngineConfig {
  Money bid;
  /// Global zone indices; size() is the paper's N.
  std::vector<std::size_t> zones;
  /// Non-owning; must outlive the engine run (strategies own policies).
  Policy* policy = nullptr;

  bool same_as(const EngineConfig& o) const {
    return bid == o.bid && zones == o.zones && policy == o.policy;
  }
};

/// Where in the run a (re)configuration decision happens.
enum class DecisionPoint {
  kStart,
  kZoneTerminated,  ///< an instance went out-of-bid
  kPreBoundary,     ///< t_c before a billing-cycle end
  kCycleEnd,        ///< a billing hour ended
  kPriceTick,       ///< a 5-minute price step
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Configuration at experiment start.
  virtual EngineConfig initial(const EngineView& view) = 0;

  /// Re-decision at later points; nullopt keeps the current configuration.
  virtual std::optional<EngineConfig> reconsider(const EngineView& view,
                                                 DecisionPoint point) {
    (void)view;
    (void)point;
    return std::nullopt;
  }

  /// True when reconsider() can return a change — lets the engine skip
  /// scheduling decision events for fixed strategies. Dynamic lanes run
  /// alone in the lockstep driver (batch::group_width).
  virtual bool dynamic() const { return false; }

  /// Lockstep groups: route the strategy's Markov fits through the
  /// group's shared per-zone models (see Policy::use_model_pool). No-op
  /// for strategies that keep their own models, like Adaptive.
  virtual void use_model_pool(batch::ZoneModelPool* pool) { (void)pool; }
};

/// A constant (bid, zones, policy) for the whole run.
class FixedStrategy final : public Strategy {
 public:
  FixedStrategy(Money bid, std::vector<std::size_t> zones,
                std::unique_ptr<Policy> policy)
      : policy_(std::move(policy)),
        config_{bid, std::move(zones), policy_.get()} {}

  EngineConfig initial(const EngineView&) override { return config_; }
  void use_model_pool(batch::ZoneModelPool* pool) override {
    policy_->use_model_pool(pool);
  }

 private:
  std::unique_ptr<Policy> policy_;
  EngineConfig config_;
};

}  // namespace redspot
