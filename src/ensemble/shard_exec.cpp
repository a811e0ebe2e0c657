#include "ensemble/shard_exec.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"
#include "core/batch/batched_engine.hpp"
#include "core/experiment.hpp"
#include "exp/scenario.hpp"
#include "fault/audit_observer.hpp"
#include "fault/run_validator.hpp"
#include "market/spot_market.hpp"

namespace redspot {

ShardExecutor::ShardExecutor(const EnsembleSpec& spec)
    : spec_(spec),
      spec_hash_(spec.spec_hash()),
      trace_template_(
          trimmed_spec(paper_trace_spec(0), window_end(spec.window))),
      seeder_(spec.seed),
      instance_(cc2_instance()) {
  // starts() is a pure function of the scenario cell; the trace spec
  // template covers the evaluation window and is re-seeded and cut to
  // each replication's deadline in compute().
  const Scenario scenario{spec_.window, spec_.slack_fraction,
                          spec_.checkpoint_cost, spec_.starts_grid};
  starts_ = scenario.starts();
}

std::pair<std::size_t, std::size_t> ShardExecutor::bounds(
    std::size_t s) const {
  return shard_bounds(spec_.replications, spec_.num_shards, s);
}

ShardExecutor::Acc ShardExecutor::make_acc() const {
  Acc acc;
  // Identical estimator options on every shard: the bootstrap seed is per
  // config/group, derived from the spec seed, and must agree across shards
  // for the shard merge to be a valid single-stream bootstrap.
  auto opts = [this](std::uint64_t stream) {
    return StreamingSummaryOptions{spec_.bootstrap_replicates, spec_.ci_level,
                                   seeder_.seed(stream,
                                                SeedDomain::kBootstrap)};
  };
  for (std::size_t c = 0; c < spec_.configs.size(); ++c)
    acc.configs.emplace_back(spec_.configs[c].display_label(), opts(c));
  for (std::size_t g = 0; g < spec_.min_groups.size(); ++g)
    acc.groups.emplace_back(spec_.min_groups[g].label,
                            opts(spec_.configs.size() + g));
  return acc;
}

Experiment ShardExecutor::make_experiment(std::size_t r) const {
  return Experiment::paper(starts_[r % starts_.size()], spec_.slack_fraction,
                           spec_.checkpoint_cost,
                           seeder_.seed(r, SeedDomain::kQueueDelay));
}

std::string ShardExecutor::compute(std::size_t s,
                                   const ProgressFn& progress) const {
  const auto [lo, hi] = bounds(s);
  ShardRecordBuilder builder(spec_hash_, s, lo, hi,
                             static_cast<std::uint32_t>(num_configs()));
  const std::size_t configs = num_configs();
  for (std::size_t r = lo; r < hi; ++r) {
    // This replication's independent substreams. The run reads no price
    // after its deadline (the tick chain stops there and every history
    // window looks back), so its trace ends at the sample covering it:
    // the generator draws in step order, so that prefix is bit-identical.
    const Experiment experiment = make_experiment(r);
    SyntheticTraceSpec trace_spec = trimmed_spec(
        trace_template_, std::min(experiment.deadline_time() + 1,
                                  window_end(spec_.window)));
    trace_spec.seed = seeder_.seed(r, SeedDomain::kTrace);
    const SpotMarket market(generate_traces(trace_spec), instance_,
                            QueueDelayModel());
    // One observer audits every lane: it acts only per finished result,
    // so lane interleaving is invisible to it.
    AuditObserver audit_obs(experiment, instance_.on_demand_rate,
                            AuditMode::kFull, spec_.engine.regime);
    std::vector<std::unique_ptr<Strategy>> strategies;
    std::vector<batch::Lane> lanes;
    strategies.reserve(configs);
    lanes.reserve(configs);
    for (const EnsembleConfig& cfg : spec_.configs) {
      strategies.push_back(cfg.make_strategy());
      lanes.push_back(
          batch::Lane{experiment, strategies.back().get(), &audit_obs});
    }
    // Every config is a lane over this replication's trace; results land
    // in config order, the canonical add_run order.
    const batch::BatchedSweepEngine batcher(market, spec_.engine);
    std::vector<RunResult> results(configs);
    for (const std::vector<std::size_t>& group :
         batch::plan_groups(lanes, kDefaultBatchWidth)) {
      std::vector<batch::Lane> group_lanes;
      group_lanes.reserve(group.size());
      for (const std::size_t c : group) group_lanes.push_back(lanes[c]);
      std::vector<RunResult> runs = batcher.run_lanes(group_lanes);
      for (std::size_t j = 0; j < group.size(); ++j)
        results[group[j]] = std::move(runs[j]);
    }
    for (const RunResult& run : results) builder.add_run(run);
    if (progress) progress(r - lo + 1);
  }
  return builder.payload();
}

bool ShardExecutor::matches(const EnsembleShardRecord& rec) const {
  if (rec.spec_hash != spec_hash_) return false;
  if (rec.shard >= spec_.num_shards) return false;
  if (rec.num_configs != num_configs()) return false;
  const auto [lo, hi] = bounds(static_cast<std::size_t>(rec.shard));
  return rec.lo == lo && rec.hi == hi;
}

bool ShardExecutor::audit(const EnsembleShardRecord& rec) const {
  const std::size_t configs = num_configs();
  for (std::size_t r = static_cast<std::size_t>(rec.lo);
       r < static_cast<std::size_t>(rec.hi); ++r) {
    const RunResult* results =
        rec.runs.data() + (r - static_cast<std::size_t>(rec.lo)) * configs;
    const RunValidator validator(make_experiment(r), instance_.on_demand_rate,
                                 spec_.engine.regime);
    for (std::size_t c = 0; c < configs; ++c) {
      if (!validator.audit(results[c], AuditMode::kReplay).empty())
        return false;
    }
  }
  return true;
}

void ShardExecutor::fold(const EnsembleShardRecord& rec, Acc& acc) const {
  REDSPOT_CHECK_MSG(matches(rec), "folding a foreign shard record");
  const std::size_t configs = num_configs();
  for (std::size_t r = static_cast<std::size_t>(rec.lo);
       r < static_cast<std::size_t>(rec.hi); ++r) {
    const RunResult* results =
        rec.runs.data() + (r - static_cast<std::size_t>(rec.lo)) * configs;
    // The canonical fold order — configs in index order, then min-groups,
    // per replication — is what makes every consumer bit-identical.
    for (std::size_t c = 0; c < configs; ++c)
      acc.configs[c].fold(r, results[c]);
    for (std::size_t g = 0; g < spec_.min_groups.size(); ++g) {
      const MinGroup& group = spec_.min_groups[g];
      std::size_t best = group.members.front();
      for (const std::size_t m : group.members) {
        if (results[m].total_cost < results[best].total_cost) best = m;
      }
      acc.groups[g].fold(r, results[best]);
    }
  }
}

EnsembleResult ShardExecutor::reduce(std::vector<Acc>&& shards) const {
  REDSPOT_CHECK(!shards.empty());
  EnsembleResult result;
  result.ci_level = spec_.ci_level;
  Acc merged = std::move(shards.front());
  for (std::size_t s = 1; s < shards.size(); ++s) {
    for (std::size_t c = 0; c < merged.configs.size(); ++c)
      merged.configs[c].merge(shards[s].configs[c]);
    for (std::size_t g = 0; g < merged.groups.size(); ++g)
      merged.groups[g].merge(shards[s].groups[g]);
  }
  result.configs = std::move(merged.configs);
  result.groups = std::move(merged.groups);
  return result;
}

}  // namespace redspot
