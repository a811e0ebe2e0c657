// Spot-market facade.
//
// Bundles everything the scheduling engine observes about EC2: per-zone
// spot prices (a trace window), the on-demand rate of the instance type,
// and the acquisition-delay model. The engine interacts with prices only
// through this class, keeping the trace representation swappable.
//
// A market is immutable, so state derived from it alone — the range-min
// trace index batched sweeps share and the fingerprint journal keys start
// from — is built once per market, on first use, and reused by every
// later caller on any thread (DESIGN.md §14).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/money.hpp"
#include "common/random.hpp"
#include "common/time.hpp"
#include "market/instance_type.hpp"
#include "market/queue_delay.hpp"
#include "trace/zone_traces.hpp"

namespace redspot {

class SharedTraceIndex;

class SpotMarket {
 public:
  /// `traces` must cover every instant the engine will query.
  SpotMarket(ZoneTraceSet traces, InstanceType instance_type,
             QueueDelayModel delay_model);

  /// A copy owns new trace storage, so it starts with fresh derived state
  /// (the index addresses samples by pointer). A move keeps the storage
  /// and the derived state with it.
  SpotMarket(const SpotMarket& other);
  SpotMarket& operator=(const SpotMarket& other);
  SpotMarket(SpotMarket&&) noexcept = default;
  SpotMarket& operator=(SpotMarket&&) noexcept = default;

  std::size_t num_zones() const { return traces_.num_zones(); }

  /// Spot price of `zone` at `t`.
  Money spot_price(std::size_t zone, SimTime t) const {
    return traces_.price(zone, t);
  }

  /// True when a bid of `bid` keeps (or would get) an instance in `zone`:
  /// bid >= spot price (Section 2.3).
  bool zone_up(std::size_t zone, SimTime t, Money bid) const {
    return spot_price(zone, t) <= bid;
  }

  /// Next instant > t at which any zone's price changes; kNever if prices
  /// are constant for the rest of the trace.
  SimTime next_price_change(SimTime t) const;

  /// Earliest queryable instant.
  SimTime trace_start() const { return traces_.start(); }
  /// One past the last queryable instant.
  SimTime trace_end() const { return traces_.end(); }

  /// Acquisition delay for a fresh spot request.
  Duration sample_queue_delay(Rng& rng) const {
    return delay_model_.sample(rng);
  }

  Money on_demand_rate() const { return instance_type_.on_demand_rate; }
  const InstanceType& instance_type() const { return instance_type_; }
  const ZoneTraceSet& traces() const { return traces_; }
  const QueueDelayModel& delay_model() const { return delay_model_; }

  /// Range-min index over this market's traces, built on the first call
  /// (O(samples log samples)) and shared by every later one. Thread-safe;
  /// the reference lives as long as the market (or the market it is
  /// moved into).
  const SharedTraceIndex& trace_index() const;

  /// HashStream digest of the instance type, delay model and every trace
  /// sample, computed on the first call. Sweep journal keys resume from
  /// it (HashStream::resume), so they equal hashing the market inline.
  /// Thread-safe.
  std::uint64_t fingerprint() const;

 private:
  struct Derived;

  ZoneTraceSet traces_;
  InstanceType instance_type_;
  QueueDelayModel delay_model_;
  std::shared_ptr<Derived> derived_;
};

}  // namespace redspot
