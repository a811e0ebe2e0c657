// Flat SoA state + branchless kernels of the batched sweep engine
// (DESIGN.md §14).
//
// The lockstep driver keeps NOTHING per engine on the heap at decision
// granularity: one contiguous array of next-event times is the whole
// scheduling state, and finding the next instant is a min reduction over
// it. The bid-grid × state-price inner loop of
// the model-pool prewarm is likewise a flat two-array sweep with a
// branchless bid-vs-price mask — no data-dependent branches, so both
// loops autovectorize.
//
// FP-determinism contract: this translation unit is compiled with
// -ffp-contract=off (enforced — the .cpp #errors without the matching
// REDSPOT_BATCH_FP_STRICT define that src/core/CMakeLists.txt sets
// alongside the flag), and every reduction here has a fixed left-to-right
// order, so batched results cannot drift from the scalar engine's through
// fused multiply-adds or reassociation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/money.hpp"
#include "common/time.hpp"

namespace redspot::batch {

/// SoA per-lane scheduling state of one lockstep group: next_time[i] is
/// the time of engine i's next calendar event, kNever once it finished.
struct BatchState {
  std::vector<SimTime> next_time;

  void resize(std::size_t n) { next_time.assign(n, 0); }
  std::size_t size() const { return next_time.size(); }
};

/// Plain min over next_time — the group's next event instant, kNever once
/// every lane finished. No index tracking, so the reduction is a bare
/// vectorizable min; the lockstep driver visits the lanes at that instant
/// in index order itself (one linear pass), which reproduces the
/// lowest-index FIFO tie rule of a per-event argmin. Integer-only
/// (SimTime), so it lives here inline — the FP-determinism contract only
/// binds the kernels doing double arithmetic.
inline SimTime min_next(const BatchState& state) {
  const SimTime* times = state.next_time.data();
  const std::size_t n = state.next_time.size();
  SimTime best = kNever;
  for (std::size_t i = 0; i < n; ++i) best = times[i] < best ? times[i] : best;
  return best;
}

/// Branchless bid-grid alive-state map: out_alive[j] is the largest state
/// index whose price is <= bids[j] (+1e-9 conversion tolerance), or -1
/// when the bid is below every state — exactly
/// MarkovModel::max_alive_state with -1 standing in for SIZE_MAX.
/// `state_prices` ascending; computed as a flat count of mask bits per
/// bid, so the inner loop is a vectorizable compare-and-accumulate.
void map_alive_states(std::span<const double> state_prices,
                      std::span<const Money> bids,
                      std::span<std::int32_t> out_alive);

}  // namespace redspot::batch
