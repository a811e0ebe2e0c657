// Range-minimum index over a market's price traces (DESIGN.md §14).
//
// Every engine in a lockstep batch group walks the SAME market traces, and
// the Threshold policy's S_min query — min price over the trailing 2-day
// window — re-scans those shared samples once per engine per tick. A
// SharedTraceIndex precomputes a sparse-table range-minimum over each
// zone's samples, turning every S_min query from an O(window) scan into
// two table loads. SpotMarket::trace_index() builds one lazily per market
// and hands the same instance to every sweep on that market.
//
// Bit-identity: prices are integer micro-dollars, and min over integers is
// associative with a unique value, so the sparse-table answer equals
// *std::min_element over the same span bit-for-bit. The index is immutable
// after construction and safe to share across threads and engines.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/money.hpp"
#include "trace/price_view.hpp"
#include "trace/zone_traces.hpp"

namespace redspot {

/// Sparse-table (binary-lifting) range minimum over one sample array:
/// O(n log n) build, O(1) query, flat level-major storage.
class RangeMinIndex {
 public:
  void build(std::span<const Money> samples);

  /// Exact minimum over sample indices [lo, hi); requires lo < hi <= size.
  Money min_in(std::size_t lo, std::size_t hi) const;

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
  std::size_t levels_ = 0;
  /// table_[k * n_ + i] = min over [i, i + 2^k), level-major so each
  /// query's two loads share a level row.
  std::vector<std::int64_t> table_;
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

  /// Indexes constructed in this process so far: lets a caller confirm
  /// that repeated sweeps over one market reuse its index.
  static std::uint64_t builds();

 private:
  struct ZoneIndex {
    const Money* base = nullptr;
    std::size_t size = 0;
    RangeMinIndex idx;
  };
  std::vector<ZoneIndex> zones_;
};

}  // namespace redspot
