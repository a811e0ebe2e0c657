#include "market/spot_market.hpp"

#include <algorithm>
#include <mutex>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "trace/trace_index.hpp"

namespace redspot {

/// Per-market state derived from the immutable inputs alone, each part
/// built at most once by whichever caller first asks for it.
struct SpotMarket::Derived {
  std::once_flag index_once;
  std::unique_ptr<const SharedTraceIndex> index;
  std::once_flag fingerprint_once;
  std::uint64_t fingerprint = 0;
};

namespace {

std::uint64_t hash_market(const SpotMarket& market) {
  HashStream h;
  const InstanceType& instance = market.instance_type();
  h.str(instance.api_name);
  h.i64(instance.on_demand_rate.micros());
  const QueueDelayParams& delay = market.delay_model().params();
  h.f64(delay.shift_seconds);
  h.f64(delay.mu);
  h.f64(delay.sigma);
  h.i64(static_cast<std::int64_t>(delay.min_delay));
  h.i64(static_cast<std::int64_t>(delay.max_delay));
  const ZoneTraceSet& traces = market.traces();
  h.u64(traces.num_zones());
  for (std::size_t z = 0; z < traces.num_zones(); ++z) {
    h.str(traces.zone_name(z));
    const PriceSeries& series = traces.zone(z);
    h.i64(static_cast<std::int64_t>(series.start()));
    h.i64(static_cast<std::int64_t>(series.step()));
    h.u64(series.size());
    for (const Money price : series.samples()) h.i64(price.micros());
  }
  return h.digest();
}

}  // namespace

SpotMarket::SpotMarket(ZoneTraceSet traces, InstanceType instance_type,
                       QueueDelayModel delay_model)
    : traces_(std::move(traces)),
      instance_type_(std::move(instance_type)),
      delay_model_(delay_model),
      derived_(std::make_shared<Derived>()) {
  REDSPOT_CHECK(traces_.num_zones() > 0);
  REDSPOT_CHECK(instance_type_.on_demand_rate > Money());
}

SpotMarket::SpotMarket(const SpotMarket& other)
    : traces_(other.traces_),
      instance_type_(other.instance_type_),
      delay_model_(other.delay_model_),
      derived_(std::make_shared<Derived>()) {}

SpotMarket& SpotMarket::operator=(const SpotMarket& other) {
  if (this != &other) *this = SpotMarket(other);
  return *this;
}

SimTime SpotMarket::next_price_change(SimTime t) const {
  SimTime next = kNever;
  for (std::size_t z = 0; z < traces_.num_zones(); ++z)
    next = std::min(next, traces_.zone(z).next_change(t));
  return next;
}

const SharedTraceIndex& SpotMarket::trace_index() const {
  REDSPOT_CHECK_MSG(derived_ != nullptr, "market was moved from");
  Derived& d = *derived_;
  std::call_once(d.index_once, [&] {
    d.index = std::make_unique<const SharedTraceIndex>(traces_);
  });
  return *d.index;
}

std::uint64_t SpotMarket::fingerprint() const {
  REDSPOT_CHECK_MSG(derived_ != nullptr, "market was moved from");
  Derived& d = *derived_;
  std::call_once(d.fingerprint_once,
                 [&] { d.fingerprint = hash_market(*this); });
  return d.fingerprint;
}

}  // namespace redspot
