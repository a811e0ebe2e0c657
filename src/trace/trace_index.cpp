#include "trace/trace_index.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "common/check.hpp"

namespace redspot {

namespace {
std::atomic<std::uint64_t> g_index_builds{0};
}  // namespace

void RangeMinIndex::build(std::span<const Money> samples) {
  n_ = samples.size();
  levels_ = n_ == 0 ? 0 : static_cast<std::size_t>(std::bit_width(n_));
  table_.assign(levels_ * n_, 0);
  for (std::size_t i = 0; i < n_; ++i) table_[i] = samples[i].micros();
  for (std::size_t k = 1; k < levels_; ++k) {
    const std::size_t half = std::size_t{1} << (k - 1);
    const std::int64_t* prev = table_.data() + (k - 1) * n_;
    std::int64_t* cur = table_.data() + k * n_;
    for (std::size_t i = 0; i + 2 * half <= n_; ++i)
      cur[i] = std::min(prev[i], prev[i + half]);
  }
}

Money RangeMinIndex::min_in(std::size_t lo, std::size_t hi) const {
  REDSPOT_CHECK(lo < hi && hi <= n_);
  const std::size_t k =
      static_cast<std::size_t>(std::bit_width(hi - lo)) - 1;
  const std::int64_t* row = table_.data() + k * n_;
  const std::int64_t a = row[lo];
  const std::int64_t b = row[hi - (std::size_t{1} << k)];
  return Money::from_micros(a < b ? a : b);
}

SharedTraceIndex::SharedTraceIndex(const ZoneTraceSet& traces) {
  zones_.resize(traces.num_zones());
  for (std::size_t z = 0; z < traces.num_zones(); ++z) {
    const std::span<const Money> samples = traces.zone(z).samples();
    zones_[z].base = samples.data();
    zones_[z].size = samples.size();
    zones_[z].idx.build(samples);
  }
  g_index_builds.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t SharedTraceIndex::builds() {
  return g_index_builds.load(std::memory_order_relaxed);
}

Money SharedTraceIndex::min_over(std::size_t zone,
                                 const PriceView& view) const {
  REDSPOT_CHECK(zone < zones_.size());
  const ZoneIndex& z = zones_[zone];
  REDSPOT_CHECK_MSG(!view.empty(), "min over an empty window");
  REDSPOT_CHECK_MSG(view.data() >= z.base &&
                        view.data() + view.size() <= z.base + z.size,
                    "view does not alias the indexed trace");
  const std::size_t lo = static_cast<std::size_t>(view.data() - z.base);
  return z.idx.min_in(lo, lo + view.size());
}

}  // namespace redspot
