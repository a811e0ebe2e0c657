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
  samples_ = samples;
  const std::size_t n = samples.size();
  prefix_.resize(n);
  suffix_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t v = samples[i].micros();
    prefix_[i] = i % kBlock == 0 ? v : std::min(prefix_[i - 1], v);
  }
  for (std::size_t i = n; i-- > 0;) {
    const std::int64_t v = samples[i].micros();
    const bool block_end = i % kBlock == kBlock - 1 || i + 1 == n;
    suffix_[i] = block_end ? v : std::min(suffix_[i + 1], v);
  }

  num_blocks_ = (n + kBlock - 1) / kBlock;
  const std::size_t levels =
      static_cast<std::size_t>(std::bit_width(num_blocks_));
  block_table_.assign(levels * num_blocks_, 0);
  for (std::size_t b = 0; b < num_blocks_; ++b)
    block_table_[b] = suffix_[b * kBlock];
  for (std::size_t k = 1; k < levels; ++k) {
    const std::size_t half = std::size_t{1} << (k - 1);
    const std::int64_t* prev = block_table_.data() + (k - 1) * num_blocks_;
    std::int64_t* cur = block_table_.data() + k * num_blocks_;
    for (std::size_t b = 0; b + 2 * half <= num_blocks_; ++b)
      cur[b] = std::min(prev[b], prev[b + half]);
  }
}

Money RangeMinIndex::min_in(std::size_t lo, std::size_t hi) const {
  REDSPOT_CHECK(lo < hi && hi <= samples_.size());
  const std::size_t back = hi - 1;
  const std::size_t first_block = lo / kBlock;
  const std::size_t last_block = back / kBlock;
  if (first_block != last_block) {
    std::int64_t m = std::min(suffix_[lo], prefix_[back]);
    const std::size_t whole = last_block - first_block - 1;
    if (whole > 0) {
      // Two overlapping power-of-two runs cover the whole blocks between.
      const std::size_t k = static_cast<std::size_t>(std::bit_width(whole)) - 1;
      const std::int64_t* row = block_table_.data() + k * num_blocks_;
      m = std::min({m, row[first_block + 1],
                    row[last_block - (std::size_t{1} << k)]});
    }
    return Money::from_micros(m);
  }
  if (back % kBlock == kBlock - 1 || hi == samples_.size())
    return Money::from_micros(suffix_[lo]);
  if (lo % kBlock == 0) return Money::from_micros(prefix_[back]);
  std::int64_t m = samples_[lo].micros();
  for (std::size_t i = lo + 1; i < hi; ++i)
    m = std::min(m, samples_[i].micros());
  return Money::from_micros(m);
}

std::size_t RangeMinIndex::bytes() const {
  return (prefix_.size() + suffix_.size() + block_table_.size()) *
         sizeof(std::int64_t);
}

SharedTraceIndex::SharedTraceIndex(const ZoneTraceSet& traces) {
  zones_.resize(traces.num_zones());
  for (std::size_t z = 0; z < traces.num_zones(); ++z)
    zones_[z].build(traces.zone(z).samples());
  g_index_builds.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t SharedTraceIndex::builds() {
  return g_index_builds.load(std::memory_order_relaxed);
}

std::size_t SharedTraceIndex::bytes() const {
  std::size_t total = 0;
  for (const RangeMinIndex& z : zones_) total += z.bytes();
  return total;
}

Money SharedTraceIndex::min_over(std::size_t zone,
                                 const PriceView& view) const {
  REDSPOT_CHECK(zone < zones_.size());
  const RangeMinIndex& index = zones_[zone];
  const std::span<const Money> samples = index.samples();
  REDSPOT_CHECK_MSG(!view.empty(), "min over an empty window");
  REDSPOT_CHECK_MSG(view.data() >= samples.data() &&
                        view.data() + view.size() <=
                            samples.data() + samples.size(),
                    "view does not alias the indexed trace");
  const std::size_t lo =
      static_cast<std::size_t>(view.data() - samples.data());
  return index.min_in(lo, lo + view.size());
}

}  // namespace redspot
