// Exact monetary arithmetic.
//
// Spot-market billing must be exact: the paper's cost comparisons hinge on
// sums of hourly charges like $0.27 that have no finite binary
// representation. Money stores an integer count of micro-dollars (1e-6 $),
// giving an exact representation of every price on EC2's $0.001 grid and
// headroom for ~9.2e12 dollars.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/check.hpp"

namespace redspot {

/// An exact amount of US dollars (may be negative for adjustments).
class Money {
 public:
  /// Zero dollars.
  constexpr Money() = default;

  /// From an exact count of micro-dollars.
  static constexpr Money from_micros(std::int64_t micros) {
    Money m;
    m.micros_ = micros;
    return m;
  }

  /// From a dollar amount, rounded to the nearest micro-dollar.
  /// `Money::dollars(0.27)` is exactly 270000 micro-dollars.
  static Money dollars(double d);

  /// From whole cents.
  static constexpr Money cents(std::int64_t c) {
    return from_micros(c * 10'000);
  }

  /// Parses "1.23", "$1.23", "-0.27". Throws CheckFailure on bad input,
  /// including a magnitude whose micros do not fit in int64 and a nonzero
  /// digit past the sixth decimal (trailing zeros are fine).
  static Money parse(const std::string& text);

  constexpr std::int64_t micros() const { return micros_; }

  /// Value in dollars as a double (for statistics, not billing).
  constexpr double to_double() const {
    return static_cast<double>(micros_) / 1e6;
  }

  /// Renders as "$1.23" (always two decimals, more if needed).
  std::string str() const;

  constexpr Money operator+(Money o) const {
    return from_micros(micros_ + o.micros_);
  }
  constexpr Money operator-(Money o) const {
    return from_micros(micros_ - o.micros_);
  }
  constexpr Money operator-() const { return from_micros(-micros_); }
  constexpr Money& operator+=(Money o) {
    micros_ += o.micros_;
    return *this;
  }
  constexpr Money& operator-=(Money o) {
    micros_ -= o.micros_;
    return *this;
  }

  /// Scales by an integer factor (e.g. hours billed).
  constexpr Money operator*(std::int64_t k) const {
    return from_micros(micros_ * k);
  }

  /// Scales by a real factor, rounding to nearest micro-dollar.
  Money scaled(double k) const;

  /// Ratio of two amounts (e.g. cost normalized to on-demand cost).
  constexpr double ratio(Money denom) const {
    REDSPOT_CHECK(denom.micros_ != 0);
    return static_cast<double>(micros_) / static_cast<double>(denom.micros_);
  }

  constexpr auto operator<=>(const Money&) const = default;

 private:
  std::int64_t micros_ = 0;
};

constexpr Money operator*(std::int64_t k, Money m) { return m * k; }

std::ostream& operator<<(std::ostream& os, Money m);

namespace money_literals {
/// `0.27_usd` — exact dollar literal.
Money operator""_usd(long double d);
/// `27_usd` — whole-dollar literal.
Money operator""_usd(unsigned long long d);
}  // namespace money_literals

}  // namespace redspot
