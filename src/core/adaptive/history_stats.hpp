// Trailing-history statistics for the Adaptive policy (Section 7.1).
//
// At each decision point Adaptive "simulates cost and computation for each
// permutation of B, N, and policy" over the price history. HistoryStats is
// that replay's engine room: one snapshot of the trailing window, from
// which availability, expected paid price, interruption rates, full-outage
// rates and mean up-spell lengths can be read for any (bid, zone-subset)
// without re-touching the trace.
//
// Internals (DESIGN.md §10): all per-(zone, bid) aggregates are held as
// exact integer counters — up-sample counts, paid micro-dollar sums,
// interior spell-start / interruption pair counts — filled by ONE fused
// pass per zone over the window. Because the bid thresholds are processed
// in ascending order, each sample contributes to a contiguous bid range
// [cut, end) found by binary search, so one pass covers the whole grid.
// The same counters slide under advance(): evicted and appended samples
// adjust them exactly, and integer arithmetic makes the slid state equal
// the from-scratch state bit-for-bit (property-tested).
//
// Subset statistics (combined availability / full-outage rate) are
// memoized per zone bitmask, filled by one scan of the window on the first
// read of that subset, and then slide with the window too: each entry
// keeps integer up / outage counters per bid over the subset's cheapest
// price, adjusted over the evicted and appended samples like the per-zone
// counters. A steady-state advance plus reads of every memoized subset
// allocates nothing. The memo is dropped only where the per-zone counters
// are rebuilt (a backward move, no overlap, different storage). A subset
// naming a zone >= 64 has no mask; it is computed fresh on every read and
// never kept.
//
// Lifetime: HistoryStats BORROWS the trace storage passed to the
// constructor and to advance() — the ZoneTraceSet must outlive it (true
// for the engine's market traces, which live for the whole run).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/money.hpp"
#include "common/time.hpp"
#include "trace/zone_traces.hpp"

namespace redspot {

/// Per (zone, bid) statistics over the window.
struct ZoneBidStats {
  double availability = 0.0;     ///< fraction of samples with S <= B
  double mean_paid_price = 0.0;  ///< E[S | S <= B] in dollars (0 if never up)
  double interruptions_per_hour = 0.0;  ///< up->down transitions per hour
  double mean_up_spell = 0.0;    ///< mean length of an up-run, seconds
};

class HistoryStats {
 public:
  /// Snapshots [from, to) of `traces` and precomputes per-zone stats for
  /// every bid in `bid_grid`. Borrows `traces` (see file comment).
  HistoryStats(const ZoneTraceSet& traces, SimTime from, SimTime to,
               std::vector<Money> bid_grid);

  /// Slides the window to [from, to). When `traces` is the same storage
  /// and the window moved forward with overlap, the counters — per zone
  /// and per memoized subset — are adjusted incrementally in O(samples
  /// moved); otherwise everything is rebuilt and the subset memo dropped.
  /// Either way the resulting state equals a fresh construction exactly.
  void advance(const ZoneTraceSet& traces, SimTime from, SimTime to);

  std::size_t num_zones() const { return base_.size(); }
  const std::vector<Money>& bid_grid() const { return bid_grid_; }
  Duration window_length() const { return window_length_; }

  const ZoneBidStats& stats(std::size_t zone, std::size_t bid_idx) const;

  /// Fraction of the window during which at least one zone of `zones` has
  /// S <= bid_grid()[bid_idx].
  double combined_availability(const std::vector<std::size_t>& zones,
                               std::size_t bid_idx) const;

  /// Any-up -> none-up transitions per hour for the subset (the events
  /// that force a rollback to the previous checkpoint).
  double full_outage_rate(const std::vector<std::size_t>& zones,
                          std::size_t bid_idx) const;

  // Introspection for tests and benchmarks.
  std::uint64_t full_rebuilds() const { return full_rebuilds_; }
  std::uint64_t incremental_advances() const { return incremental_advances_; }
  /// Distinct (mask-addressable) subsets read since the last rebuild.
  std::size_t memoized_subsets() const { return combined_memo_.size(); }

 private:
  /// Exact window aggregates for one (zone, sorted-bid) pair.
  struct BidCounters {
    std::int64_t up = 0;           ///< samples with S <= B
    std::int64_t paid_micros = 0;  ///< sum of S over up samples, micro-$
    std::int64_t starts = 0;       ///< interior down->up pairs
    std::int64_t interrupts = 0;   ///< interior up->down pairs
  };
  /// Statistics of one zone subset: exact counters per sorted bid over the
  /// subset's cheapest price, and the doubles derived from them per
  /// original bid index.
  struct CombinedEntry {
    std::uint64_t mask = 0;
    std::vector<std::size_t> zones;
    std::vector<std::int64_t> up;       ///< samples with min S <= B
    std::vector<std::int64_t> outages;  ///< interior any-up -> none-up pairs
    std::vector<double> availability;
    std::vector<double> outage_rate;
  };

  void rebuild(const ZoneTraceSet& traces, SimTime from, SimTime to);
  bool try_advance(const ZoneTraceSet& traces, SimTime from, SimTime to);
  void refresh_stats();
  /// First sorted-bid position whose threshold admits `s` (S <= B).
  std::size_t cut_of(double s) const;
  double sample_dollars(std::size_t zone, std::size_t abs_i) const {
    return base_[zone][abs_i].to_double();
  }
  /// cut_of the subset's cheapest price at absolute sample `abs_i`: any
  /// zone is up at bid B <=> the cheapest zone is within B.
  std::size_t subset_cut(const CombinedEntry& e, std::size_t abs_i) const;
  /// Counts `e` over the whole window, from scratch.
  void fill_combined(CombinedEntry& e) const;
  /// Adjusts `e` from window [old_lo, old_hi) to the current one.
  void slide_combined(CombinedEntry& e, std::size_t old_lo,
                      std::size_t old_hi) const;
  /// Recomputes `e`'s doubles from its counters.
  void finish_combined(CombinedEntry& e) const;
  const CombinedEntry& combined_entry(
      const std::vector<std::size_t>& zones) const;
  double hours() const;

  std::vector<Money> bid_grid_;
  std::vector<double> sorted_thr_;   ///< bid + 1e-9, ascending
  std::vector<std::size_t> order_;   ///< sorted position -> original index
  Duration step_ = kPriceStep;
  Duration window_length_ = 0;

  // Identity of the borrowed window: per-zone storage base plus the
  // absolute sample range [abs_lo_, abs_lo_ + n_).
  std::vector<const Money*> base_;
  SimTime series_start_ = 0;
  std::size_t series_size_ = 0;
  std::size_t abs_lo_ = 0;
  std::size_t n_ = 0;

  std::vector<std::vector<BidCounters>> counters_;  ///< [zone][sorted bid]
  std::vector<std::size_t> first_cut_;              ///< per zone
  std::vector<std::vector<ZoneBidStats>> stats_;    ///< [zone][original bid]

  /// Lazily filled per subset mask; slid by try_advance, cleared by
  /// rebuild. Mutable: HistoryStats is a per-strategy, single-threaded
  /// object.
  mutable std::vector<CombinedEntry> combined_memo_;
  /// Scratch for a subset with a zone >= 64, refilled on every read.
  mutable CombinedEntry uncached_;

  std::uint64_t full_rebuilds_ = 0;
  std::uint64_t incremental_advances_ = 0;
};

}  // namespace redspot
