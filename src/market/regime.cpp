#include "market/regime.hpp"

namespace redspot {

MarketRegime MarketRegime::classic_2012() { return MarketRegime{}; }

MarketRegime MarketRegime::per_second() {
  MarketRegime r;
  r.name = "per-second";
  r.billing.granularity = BillingGranularity::kPerSecond;
  r.billing.minimum = kMinute;
  r.billing.refund = RefundRule::kProviderChargesUsage;
  return r;
}

MarketRegime MarketRegime::rebalance() {
  MarketRegime r;
  r.name = "rebalance";
  r.rebalance_notice = 2 * kMinute;
  return r;
}

MarketRegime MarketRegime::per_second_notice() {
  MarketRegime r = per_second();
  r.name = "per-second-notice";
  r.rebalance_notice = 2 * kMinute;
  return r;
}

const MarketRegime& MarketRegime::classic() {
  static const MarketRegime kClassic = classic_2012();
  return kClassic;
}

const std::vector<MarketRegime>& regime_catalog() {
  static const std::vector<MarketRegime> kCatalog = {
      MarketRegime::classic_2012(), MarketRegime::per_second(),
      MarketRegime::rebalance(), MarketRegime::per_second_notice()};
  return kCatalog;
}

void hash_regime(HashStream& h, const MarketRegime& regime) {
  h.str(regime.name);
  h.u64(static_cast<std::uint64_t>(regime.billing.granularity));
  h.i64(regime.billing.minimum);
  h.u64(static_cast<std::uint64_t>(regime.billing.refund));
  h.i64(regime.rebalance_notice);
  // Former instance-type list lengths (always 0): keeps existing keys.
  h.u64(0);
  h.u64(0);
}

std::uint64_t regime_fingerprint(const MarketRegime& regime) {
  HashStream h;
  h.str("market-regime-v1");
  hash_regime(h, regime);
  return h.digest();
}

}  // namespace redspot
