#include "common/money.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>

namespace redspot {

Money Money::dollars(double d) {
  REDSPOT_CHECK_MSG(std::isfinite(d), "Money::dollars(" << d << ")");
  return from_micros(std::llround(d * 1e6));
}

Money Money::scaled(double k) const {
  REDSPOT_CHECK_MSG(std::isfinite(k), "Money::scaled(" << k << ")");
  return from_micros(std::llround(static_cast<double>(micros_) * k));
}

Money Money::parse(const std::string& text) {
  std::size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
    ++i;
  bool negative = false;
  if (i < text.size() && (text[i] == '-' || text[i] == '+')) {
    negative = text[i] == '-';
    ++i;
  }
  if (i < text.size() && text[i] == '$') ++i;
  // Digits past what int64 micros can hold are flagged, not accumulated:
  // the signed overflow would be undefined behaviour.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::int64_t whole = 0;
  bool too_large = false;
  bool any_digit = false;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
    const int d = text[i] - '0';
    if (whole > (kMax - d) / 10)
      too_large = true;
    else
      whole = whole * 10 + d;
    any_digit = true;
    ++i;
  }
  std::int64_t frac = 0;
  bool below_micro = false;
  if (i < text.size() && text[i] == '.') {
    ++i;
    std::int64_t scale = 100'000;  // first fractional digit is 1e-1 dollars
    while (i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i]))) {
      // A digit past the sixth is finer than Money can hold: zeros are
      // exact, anything else would be silently shaved off.
      if (scale == 0)
        below_micro |= text[i] != '0';
      else
        frac += (text[i] - '0') * scale;
      scale /= 10;
      any_digit = true;
      ++i;
    }
  }
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
    ++i;
  REDSPOT_CHECK_MSG(any_digit && i == text.size(),
                    "Money::parse(\"" << text << "\")");
  REDSPOT_CHECK_MSG(!below_micro, "Money::parse(\"" << text
                                                    << "\"): finer than $1e-6");
  REDSPOT_CHECK_MSG(!too_large && whole <= (kMax - frac) / 1'000'000,
                    "Money::parse(\"" << text << "\"): out of range");
  const std::int64_t micros = whole * 1'000'000 + frac;
  return from_micros(negative ? -micros : micros);
}

std::string Money::str() const {
  std::int64_t m = micros_;
  const char* sign = "";
  if (m < 0) {
    sign = "-";
    m = -m;
  }
  const std::int64_t whole = m / 1'000'000;
  std::int64_t frac = m % 1'000'000;
  char buf[48];
  if (frac % 10'000 == 0) {
    std::snprintf(buf, sizeof(buf), "%s$%lld.%02lld", sign,
                  static_cast<long long>(whole),
                  static_cast<long long>(frac / 10'000));
  } else {
    // Trim trailing zeros beyond two decimals.
    int digits = 6;
    while (frac % 10 == 0) {
      frac /= 10;
      --digits;
    }
    std::snprintf(buf, sizeof(buf), "%s$%lld.%0*lld", sign,
                  static_cast<long long>(whole), digits,
                  static_cast<long long>(frac));
  }
  return buf;
}

std::ostream& operator<<(std::ostream& os, Money m) { return os << m.str(); }

namespace money_literals {

Money operator""_usd(long double d) {
  return Money::dollars(static_cast<double>(d));
}

Money operator""_usd(unsigned long long d) {
  return Money::from_micros(static_cast<std::int64_t>(d) * 1'000'000);
}

}  // namespace money_literals
}  // namespace redspot
