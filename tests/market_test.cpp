// Unit tests for the market substrate: instance catalog, the billing
// ledger's EC2 charging rules, the queue-delay model and the SpotMarket
// facade.
#include <gtest/gtest.h>

#include <limits>

#include "common/check.hpp"
#include "market/billing.hpp"
#include "market/instance_type.hpp"
#include "market/queue_delay.hpp"
#include "market/spot_market.hpp"
#include "stats/descriptive.hpp"
#include "test_util.hpp"

namespace redspot {
namespace {

using testing::constant_series;
using testing::step_series;

// --- Instance types -------------------------------------------------------------

TEST(InstanceType, Cc2IsThePaperInstance) {
  const InstanceType& cc2 = cc2_instance();
  EXPECT_EQ(cc2.api_name, "cc2.8xlarge");
  EXPECT_EQ(cc2.on_demand_rate, Money::dollars(2.40));
}

TEST(InstanceType, CatalogLookup) {
  EXPECT_EQ(cc2_instance().on_demand_rate, Money::dollars(2.40));
  ASSERT_GE(instance_catalog().size(), 3u);
  EXPECT_EQ(instance_catalog().front().api_name, cc2_instance().api_name);
}

// --- BillingLedger ----------------------------------------------------------------

TEST(Billing, CompletedHourChargedAtCycleStartRate) {
  BillingLedger ledger;
  ledger.spot_started(0, 1000, Money::dollars(0.30));
  EXPECT_EQ(ledger.cycle_end(0), 1000 + kHour);
  // Price moved to 0.50 by the boundary; the completed hour still costs
  // the rate locked at cycle start.
  ledger.cycle_boundary(0, Money::dollars(0.50));
  EXPECT_EQ(ledger.total(), Money::dollars(0.30));
  // The new cycle locks the new rate.
  ledger.cycle_boundary(0, Money::dollars(0.30));
  EXPECT_EQ(ledger.total(), Money::dollars(0.80));
}

TEST(Billing, OutOfBidPartialHourIsFree) {
  BillingLedger ledger;
  ledger.spot_started(0, 0, Money::dollars(0.30));
  ledger.spot_terminated(0, 1800, TerminationCause::kOutOfBid);
  EXPECT_EQ(ledger.total(), Money());
  EXPECT_FALSE(ledger.spot_running(0));
}

TEST(Billing, UserTerminationPaysFullHour) {
  BillingLedger ledger;
  ledger.spot_started(0, 0, Money::dollars(0.30));
  ledger.spot_terminated(0, 1, TerminationCause::kUser);
  EXPECT_EQ(ledger.total(), Money::dollars(0.30));
  ASSERT_EQ(ledger.items().size(), 1u);
  EXPECT_EQ(ledger.items()[0].kind, LineItem::Kind::kSpotUserPartial);
}

TEST(Billing, StopAtBoundaryChargesExactlyCompletedCycle) {
  BillingLedger ledger;
  ledger.spot_started(0, 100, Money::dollars(0.81));
  ledger.spot_stopped_at_boundary(0);
  EXPECT_EQ(ledger.total(), Money::dollars(0.81));
  EXPECT_FALSE(ledger.spot_running(0));
}

TEST(Billing, MultipleZonesAreIndependent) {
  BillingLedger ledger;
  ledger.spot_started(0, 0, Money::dollars(0.30));
  ledger.spot_started(2, 500, Money::dollars(0.50));
  EXPECT_TRUE(ledger.spot_running(0));
  EXPECT_FALSE(ledger.spot_running(1));
  EXPECT_TRUE(ledger.spot_running(2));
  ledger.spot_terminated(0, 100, TerminationCause::kOutOfBid);
  ledger.cycle_boundary(2, Money::dollars(0.60));
  EXPECT_EQ(ledger.total(), Money::dollars(0.50));
}

TEST(Billing, RestartAfterTermination) {
  BillingLedger ledger;
  ledger.spot_started(0, 0, Money::dollars(0.30));
  ledger.spot_terminated(0, 600, TerminationCause::kOutOfBid);
  ledger.spot_started(0, 2000, Money::dollars(0.40));
  ledger.cycle_boundary(0, Money::dollars(0.40));
  EXPECT_EQ(ledger.total(), Money::dollars(0.40));
}

TEST(Billing, RejectsDoubleStartAndForeignCycles) {
  BillingLedger ledger;
  ledger.spot_started(0, 0, Money::dollars(0.30));
  EXPECT_THROW(ledger.spot_started(0, 10, Money::dollars(0.30)),
               CheckFailure);
  EXPECT_THROW(ledger.cycle_end(1), CheckFailure);
  EXPECT_THROW(ledger.spot_terminated(1, 10, TerminationCause::kUser),
               CheckFailure);
}

TEST(Billing, RejectsTerminationOutsideCycle) {
  BillingLedger ledger;
  ledger.spot_started(0, 0, Money::dollars(0.30));
  EXPECT_THROW(
      ledger.spot_terminated(0, kHour + 1, TerminationCause::kOutOfBid),
      CheckFailure);
}

TEST(Billing, OnDemandChargesStartedHours) {
  BillingLedger ledger;
  ledger.on_demand_usage(0, kHour, Money::dollars(2.40));
  EXPECT_EQ(ledger.total(), Money::dollars(2.40));
  ledger.on_demand_usage(0, kHour + 1, Money::dollars(2.40));
  EXPECT_EQ(ledger.on_demand_total(), Money::dollars(2.40 + 4.80));
  EXPECT_EQ(ledger.spot_total(), Money());
  EXPECT_THROW(ledger.on_demand_usage(0, 0, Money::dollars(2.40)),
               CheckFailure);
}

TEST(Billing, SpotAndOnDemandTotalsSeparate) {
  BillingLedger ledger;
  ledger.spot_started(0, 0, Money::dollars(0.30));
  ledger.cycle_boundary(0, Money::dollars(0.30));
  ledger.on_demand_usage(7200, 2 * kHour, Money::dollars(2.40));
  EXPECT_EQ(ledger.spot_total(), Money::dollars(0.30));
  EXPECT_EQ(ledger.on_demand_total(), Money::dollars(4.80));
  EXPECT_EQ(ledger.total(), Money::dollars(5.10));
}

TEST(Billing, TwentyHourOnDemandIsFortyEightDollars) {
  // The paper's reference: 20 h at $2.40 = $48.00.
  BillingLedger ledger;
  ledger.on_demand_usage(0, 20 * kHour, Money::dollars(2.40));
  EXPECT_EQ(ledger.total(), Money::dollars(48.00));
}

TEST(Billing, LineItemKindsToString) {
  EXPECT_EQ(to_string(LineItem::Kind::kSpotHour), "spot-hour");
  EXPECT_EQ(to_string(LineItem::Kind::kOnDemandHour), "on-demand-hour");
}

// --- Queue delay -------------------------------------------------------------------

TEST(QueueDelay, FixedModeIsExact) {
  const QueueDelayModel model(QueueDelayParams::fixed(300));
  Rng rng(1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(model.sample(rng), 300);
}

TEST(QueueDelay, SamplesWithinPaperRange) {
  const QueueDelayModel model(QueueDelayParams::paper_calibrated());
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const Duration d = model.sample(rng);
    EXPECT_GE(d, 143);
    EXPECT_LE(d, 880);
  }
}

TEST(QueueDelay, MeanMatchesPaperMeasurement) {
  const QueueDelayModel model(QueueDelayParams::paper_calibrated());
  Rng rng(3);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i)
    stats.add(static_cast<double>(model.sample(rng)));
  EXPECT_NEAR(stats.mean(), 299.6, 20.0);
}

TEST(QueueDelay, RejectsInvalidParams) {
  QueueDelayParams bad;
  bad.min_delay = 100;
  bad.max_delay = 50;
  EXPECT_THROW(QueueDelayModel{bad}, CheckFailure);
  EXPECT_THROW(bad.validate(), CheckFailure);
}

TEST(QueueDelay, ValidateAcceptsFixedAndPaperParams) {
  // fixed() deliberately sets sigma = 0 (degenerate distribution); the
  // validator must accept it, including the zero-delay case.
  EXPECT_NO_THROW(QueueDelayParams::fixed(300).validate());
  EXPECT_NO_THROW(QueueDelayParams::fixed(0).validate());
  EXPECT_NO_THROW(QueueDelayParams::paper_calibrated().validate());
  const QueueDelayParams p = QueueDelayParams::fixed(300);
  EXPECT_EQ(p.sigma, 0.0);
  EXPECT_EQ(p.min_delay, 300);
  EXPECT_EQ(p.max_delay, 300);
}

TEST(QueueDelay, ValidateRejectsEachBadField) {
  {
    QueueDelayParams p;
    p.sigma = -0.1;
    EXPECT_THROW(p.validate(), CheckFailure);
  }
  {
    QueueDelayParams p;
    p.shift_seconds = -1.0;
    EXPECT_THROW(p.validate(), CheckFailure);
  }
  {
    QueueDelayParams p;
    p.min_delay = -5;
    EXPECT_THROW(p.validate(), CheckFailure);
  }
  {
    QueueDelayParams p;
    p.mu = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(p.validate(), CheckFailure);
  }
}

// --- SpotMarket -----------------------------------------------------------------------

TEST(SpotMarket, PriceAndUpQueries) {
  const SpotMarket market =
      testing::make_market(testing::single_zone(step_series(
          {{0.30, 2}, {1.0, 2}})));
  EXPECT_EQ(market.spot_price(0, 0), Money::dollars(0.30));
  EXPECT_TRUE(market.zone_up(0, 0, Money::cents(81)));
  EXPECT_FALSE(market.zone_up(0, 2 * kPriceStep, Money::cents(81)));
  EXPECT_TRUE(market.zone_up(0, 0, Money::dollars(0.30)));  // B == S is up
  EXPECT_EQ(market.on_demand_rate(), Money::dollars(2.40));
}

TEST(SpotMarket, NextPriceChangeAcrossZones) {
  const SpotMarket market = testing::make_market(testing::zones({
      step_series({{0.3, 4}, {0.4, 2}}),
      step_series({{0.5, 2}, {0.6, 4}}),
  }));
  EXPECT_EQ(market.next_price_change(0), 2 * kPriceStep);
  EXPECT_EQ(market.next_price_change(2 * kPriceStep), 4 * kPriceStep);
  EXPECT_EQ(market.next_price_change(4 * kPriceStep), kNever);
}

TEST(SpotMarket, QueueDelaySampling) {
  const SpotMarket market = testing::make_market(
      testing::single_zone(constant_series(0.3, 4)), /*queue_delay=*/250);
  Rng rng(4);
  EXPECT_EQ(market.sample_queue_delay(rng), 250);
}

}  // namespace
}  // namespace redspot
