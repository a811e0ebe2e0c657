#include "exp/sweep.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "core/batch/batched_engine.hpp"
#include "core/policies/large_bid.hpp"
#include "fault/audit_observer.hpp"
#include "fault/run_validator.hpp"
#include "journal/journal.hpp"
#include "journal/run_record.hpp"

namespace redspot {

namespace {

/// Most static lanes per lockstep group in a sweep: wide enough to
/// amortize the shared models across a group.
constexpr std::size_t kSweepGroupWidth = 16;

/// Static lanes per group for `pending` chunks: kSweepGroupWidth, narrowed
/// so a small sweep still spreads over every pool thread. Results do not
/// depend on the width (BatchedSweepEngine contract), only the speed does.
std::size_t sweep_static_width(std::size_t pending) {
  const std::size_t threads = default_pool().size();  // at least 1
  const std::size_t per_thread = (pending + threads - 1) / threads;
  return std::clamp<std::size_t>(per_thread, 1, kSweepGroupWidth);
}

/// Runs one simulation per chunk, each a lane of the lockstep driver
/// (core/batch) with its own strategy from `make_strategy` (strategies are
/// stateful and not shareable); groups of batch::group_width lanes run in
/// parallel. Every result is audited against the run invariants before it
/// is returned, so a broken guarantee surfaces at the sweep instead of
/// skewing a figure.
///
/// `key` fingerprints this sweep for the journal: with a durability
/// journal attached, chunks found under `key` (checksum-intact, passing
/// the kReplay audit) are taken from the journal, and computed chunks are
/// appended under `key` once they pass the full audit.
template <typename MakeStrategy>
std::vector<RunResult> run_sweep(const SpotMarket& market,
                                 const Scenario& scenario,
                                 const EngineOptions& engine_options,
                                 std::uint64_t key,
                                 SweepDurability* durability,
                                 MakeStrategy make_strategy) {
  const std::size_t n = scenario.num_experiments;
  std::vector<RunResult> results(n);
  std::vector<char> replayed(n, 0);
  RunJournal* journal =
      durability != nullptr ? durability->journal : nullptr;
  if (journal != nullptr) {
    for (const std::string& payload : journal->records()) {
      if (record_type(payload) != RecordType::kSweepChunk) continue;
      std::optional<SweepChunkRecord> rec = decode_sweep_chunk(payload);
      if (!rec || rec->sweep_key != key || rec->chunk >= n) continue;
      const std::size_t chunk = static_cast<std::size_t>(rec->chunk);
      const Experiment experiment = scenario.experiment(chunk);
      if (!RunValidator(experiment, market.on_demand_rate(),
                        engine_options.regime)
               .audit(rec->run, AuditMode::kReplay)
               .empty()) {
        LOG_WARN << "journal: sweep chunk " << chunk
                 << " record failed the replay audit; recomputing";
        continue;
      }
      results[chunk] = std::move(rec->run);
      replayed[chunk] = 1;
    }
  }
  std::vector<std::size_t> pending;
  pending.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (replayed[i] == 0) pending.push_back(i);
  // A sweep runs one kind of strategy; one instance tells the width rule
  // which.
  const std::size_t width = batch::group_width(
      *make_strategy(), sweep_static_width(pending.size()));
  const std::size_t groups = (pending.size() + width - 1) / width;
  const batch::BatchedSweepEngine batcher(market, engine_options);
  parallel_for(0, groups, [&](std::size_t g) {
    const std::size_t lo = g * width;
    const std::size_t hi = std::min(lo + width, pending.size());
    // Strategies are built here, on the thread that runs them: built up
    // front on the caller's thread, Adaptive sweeps ran ~10% slower on
    // the paper-repro benchmark.
    std::vector<std::unique_ptr<Strategy>> strategies;
    std::vector<std::unique_ptr<AuditObserver>> audits;
    std::vector<batch::Lane> lanes;
    strategies.reserve(hi - lo);
    audits.reserve(hi - lo);
    lanes.reserve(hi - lo);
    for (std::size_t k = lo; k < hi; ++k) {
      const Experiment experiment = scenario.experiment(pending[k]);
      strategies.push_back(make_strategy());
      audits.push_back(std::make_unique<AuditObserver>(
          experiment, market.on_demand_rate(), AuditMode::kFull,
          engine_options.regime));
      lanes.push_back(batch::Lane{experiment, strategies.back().get(),
                                  audits.back().get()});
    }
    std::vector<RunResult> runs = batcher.run_lanes(lanes);
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t chunk = pending[k];
      results[chunk] = std::move(runs[k - lo]);
      if (journal != nullptr)
        journal->append(encode_sweep_chunk(key, chunk, results[chunk]));
    }
  });
  if (durability != nullptr) {
    const std::size_t hits = static_cast<std::size_t>(
        std::count(replayed.begin(), replayed.end(), char{1}));
    durability->chunks_replayed = hits;
    durability->chunks_recomputed = n - hits;
  }
  return results;
}

}  // namespace

std::uint64_t sweep_base_key(const SpotMarket& market,
                             const Scenario& scenario,
                             const EngineOptions& engine_options) {
  HashStream h = HashStream::resume(market.fingerprint());
  h.u64(static_cast<std::uint64_t>(scenario.window));
  h.f64(scenario.slack_fraction);
  h.i64(static_cast<std::int64_t>(scenario.checkpoint_cost));
  h.u64(scenario.num_experiments);
  hash_engine_options(h, engine_options);
  return h.digest();
}

std::vector<RunResult> run_fixed_sweep(const SpotMarket& market,
                                       const Scenario& scenario,
                                       const PolicyRunSpec& spec,
                                       const EngineOptions& engine_options,
                                       SweepDurability* durability) {
  REDSPOT_CHECK(!spec.zones.empty());
  HashStream h;
  h.u64(sweep_base_key(market, scenario, engine_options));
  h.u64(1);  // sweep kind: fixed policy
  h.u64(static_cast<std::uint64_t>(spec.policy));
  h.i64(spec.bid.micros());
  h.u64(spec.zones.size());
  for (const std::size_t z : spec.zones) h.u64(z);
  return run_sweep(market, scenario, engine_options, h.digest(), durability,
                   [&spec] {
    return std::make_unique<FixedStrategy>(spec.bid, spec.zones,
                                           make_policy(spec.policy));
  });
}

std::vector<RunResult> run_adaptive_sweep(
    const SpotMarket& market, const Scenario& scenario,
    const AdaptiveStrategy::Options& options,
    const EngineOptions& engine_options,
    SweepDurability* durability) {
  HashStream h;
  h.u64(sweep_base_key(market, scenario, engine_options));
  h.u64(2);  // sweep kind: adaptive
  h.u64(options.bid_grid.size());
  for (const Money bid : options.bid_grid) h.i64(bid.micros());
  h.u64(options.candidate_policies.size());
  for (const PolicyKind p : options.candidate_policies)
    h.u64(static_cast<std::uint64_t>(p));
  h.u64(options.max_zones);
  h.f64(options.switch_ratio);
  h.i64(static_cast<std::int64_t>(options.mean_queue_delay));
  h.u64(options.charge_switch_penalty ? 1 : 0);
  return run_sweep(market, scenario, engine_options, h.digest(), durability,
                   [&options] {
    return std::make_unique<AdaptiveStrategy>(options);
  });
}

std::vector<RunResult> run_large_bid_sweep(const SpotMarket& market,
                                           const Scenario& scenario,
                                           Money threshold,
                                           std::size_t zone,
                                           const EngineOptions& engine_options,
                                           SweepDurability* durability) {
  HashStream h;
  h.u64(sweep_base_key(market, scenario, engine_options));
  h.u64(3);  // sweep kind: large-bid
  h.i64(threshold.micros());
  h.u64(zone);
  return run_sweep(market, scenario, engine_options, h.digest(), durability,
                   [threshold, zone] {
    return std::make_unique<FixedStrategy>(
        LargeBidPolicy::large_bid(), std::vector<std::size_t>{zone},
        std::make_unique<LargeBidPolicy>(threshold));
  });
}

std::vector<double> costs_of(std::span<const RunResult> results) {
  std::vector<double> costs;
  costs.reserve(results.size());
  for (const RunResult& r : results)
    costs.push_back(r.total_cost.to_double());
  return costs;
}

std::vector<double> checked_costs(std::span<const RunResult> results) {
  for (const RunResult& r : results) {
    REDSPOT_CHECK_MSG(r.completed, "run did not complete");
    REDSPOT_CHECK_MSG(r.met_deadline, "run missed its deadline");
  }
  return costs_of(results);
}

std::vector<double> merged_single_zone_costs(const SpotMarket& market,
                                             const Scenario& scenario,
                                             PolicyKind policy, Money bid) {
  std::vector<double> merged;
  for (std::size_t zone = 0; zone < market.num_zones(); ++zone) {
    const std::vector<RunResult> results = run_fixed_sweep(
        market, scenario, PolicyRunSpec{policy, bid, {zone}});
    const std::vector<double> costs = checked_costs(results);
    merged.insert(merged.end(), costs.begin(), costs.end());
  }
  return merged;
}

std::vector<double> best_case_redundancy_costs(
    const SpotMarket& market, const Scenario& scenario,
    std::span<const PolicyKind> policies, Money bid) {
  REDSPOT_CHECK(!policies.empty());
  std::vector<std::size_t> all_zones(market.num_zones());
  for (std::size_t z = 0; z < all_zones.size(); ++z) all_zones[z] = z;

  std::vector<double> best;
  for (PolicyKind policy : policies) {
    const std::vector<RunResult> results = run_fixed_sweep(
        market, scenario, PolicyRunSpec{policy, bid, all_zones});
    const std::vector<double> costs = checked_costs(results);
    if (best.empty()) {
      best = costs;
    } else {
      REDSPOT_CHECK(best.size() == costs.size());
      for (std::size_t i = 0; i < costs.size(); ++i)
        best[i] = std::min(best[i], costs[i]);
    }
  }
  return best;
}

}  // namespace redspot
