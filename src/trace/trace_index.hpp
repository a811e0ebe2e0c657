// Range-minimum index over a market's price traces (DESIGN.md §14).
//
// Every engine in a lockstep batch group walks the SAME market traces, and
// the Threshold policy's S_min query — min price over the trailing 2-day
// window — re-scans those shared samples once per engine per tick. A
// SharedTraceIndex precomputes a block-decomposed range-minimum over each
// zone's samples: fixed 64-sample blocks, each sample's in-block prefix
// and suffix minimum, and a sparse table over the block minima. Building
// it is O(n) in time and ~17 bytes per sample; a query spanning blocks is
// at most four loads (suffix, prefix and two block-table entries), and a
// query inside one block that touches neither block edge scans its fewer
// than 64 raw samples. SpotMarket::trace_index() builds one lazily per
// market and hands the same instance to every sweep on that market.
//
// Bit-identity: prices are integer micro-dollars, and min over integers is
// associative with a unique value, so every answer equals
// *std::min_element over the same span bit-for-bit, however the range is
// split. The index is immutable after construction and safe to share
// across threads and engines.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/money.hpp"
#include "trace/price_view.hpp"
#include "trace/zone_traces.hpp"

namespace redspot {

/// Block-decomposed range minimum over one sample array it borrows (the
/// samples must outlive the index): O(n) build, O(1) query across blocks.
class RangeMinIndex {
 public:
  /// Samples per block: a layout constant, not a tuning knob.
  static constexpr std::size_t kBlock = 64;

  void build(std::span<const Money> samples);

  /// Exact minimum over sample indices [lo, hi); requires lo < hi <= size.
  Money min_in(std::size_t lo, std::size_t hi) const;

  std::size_t size() const { return samples_.size(); }
  std::span<const Money> samples() const { return samples_; }

  /// Bytes of index storage, not counting the borrowed samples.
  std::size_t bytes() const;

 private:
  std::span<const Money> samples_;
  /// prefix_[i] = min from i's block start through i; suffix_[i] = min
  /// from i through i's block end (the array end for the last block).
  std::vector<std::int64_t> prefix_;
  std::vector<std::int64_t> suffix_;
  std::size_t num_blocks_ = 0;
  /// block_table_[k * num_blocks_ + b] = min over blocks [b, b + 2^k),
  /// level-major so a query's two loads share a level row.
  std::vector<std::int64_t> block_table_;
};

/// One RangeMinIndex per market zone, addressed by the PriceViews the
/// engine hands out (views alias the zone trace, so the view's data
/// pointer locates its sample range in O(1)).
class SharedTraceIndex {
 public:
  explicit SharedTraceIndex(const ZoneTraceSet& traces);

  /// Minimum over the samples `view` covers; `view` must alias the trace
  /// of `zone` this index was built over.
  Money min_over(std::size_t zone, const PriceView& view) const;

  std::size_t num_zones() const { return zones_.size(); }

  /// Bytes of index storage over every zone.
  std::size_t bytes() const;

  /// Indexes constructed in this process so far: lets a caller confirm
  /// that repeated sweeps over one market reuse its index.
  static std::uint64_t builds();

 private:
  std::vector<RangeMinIndex> zones_;
};

}  // namespace redspot
