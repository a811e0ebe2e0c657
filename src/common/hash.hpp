// Shared fingerprinting primitives.
//
// HashStream is the order-sensitive 64-bit fingerprint accumulator used to
// key the ensemble result cache (EnsembleSpec::spec_hash), the sweep
// journal (exp/sweep's sweep_key) and the engine-option fingerprint. crc32
// is the IEEE 802.3 polynomial used to checksum journal records
// (src/journal/). Neither is cryptographic: they detect accidental
// corruption and distinguish configurations, nothing more.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/random.hpp"

namespace redspot {

/// Order-sensitive 64-bit fingerprint accumulator (SplitMix64 cascade).
class HashStream {
 public:
  /// Continues a stream whose digest() was `digest`: feeding it X yields
  /// the digest the original stream would reach after X. Lets a memoized
  /// prefix (SpotMarket::fingerprint) stand in for re-hashing its inputs.
  static HashStream resume(std::uint64_t digest) {
    HashStream h;
    h.state_ = digest;
    return h;
  }

  void u64(std::uint64_t v) {
    state_ ^= v + 0x9E3779B97F4A7C15ULL + (state_ << 6) + (state_ >> 2);
    state_ = splitmix64(state_);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s)
      u64(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = 0x243F6A8885A308D3ULL;  // pi
};

/// CRC-32 (IEEE, reflected, init/xorout 0xFFFFFFFF) of `len` bytes.
std::uint32_t crc32(const void* data, std::size_t len);

}  // namespace redspot
