// The batch FP kernel TU. Must be compiled with -ffp-contract=off: the
// matching define below is set by src/core/CMakeLists.txt alongside the
// flag, so dropping either breaks the build instead of silently breaking
// the batched-vs-scalar bit-identity contract. The integer min kernel
// lives inline in the header — only double arithmetic needs this TU.
#ifndef REDSPOT_BATCH_FP_STRICT
#error "batch kernel TU requires -ffp-contract=off (src/core/CMakeLists.txt)"
#endif

#include "core/batch/batch_state.hpp"

#include "common/check.hpp"

namespace redspot::batch {

void map_alive_states(std::span<const double> state_prices,
                      std::span<const Money> bids,
                      std::span<std::int32_t> out_alive) {
  REDSPOT_CHECK(out_alive.size() == bids.size());
  const double* prices = state_prices.data();
  const std::size_t n = state_prices.size();
  for (std::size_t j = 0; j < bids.size(); ++j) {
    // Same tolerance expression as MarkovModel::max_alive_state; a plain
    // add, so -ffp-contract=off guarantees the identical double.
    const double cut = bids[j].to_double() + 1e-9;
    std::int32_t alive = -1;
    for (std::size_t i = 0; i < n; ++i)
      alive += static_cast<std::int32_t>(prices[i] <= cut);
    out_alive[j] = alive;
  }
}

}  // namespace redspot::batch
