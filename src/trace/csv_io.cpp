#include "trace/csv_io.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/check.hpp"
#include "common/fs.hpp"

namespace redspot {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("trace CSV line " + std::to_string(line) + ": " +
                           what);
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) {
      out.push_back(s.substr(pos));
      return out;
    }
    out.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
}

// A whole time field as a base-10 integer, surrounding whitespace allowed.
// Anything else — trailing text ("300abc"), exponents ("1e3"), overflow —
// is nullopt rather than a silently truncated prefix.
std::optional<SimTime> parse_time(const std::string& field) {
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  const char* first = field.data();
  const char* last = first + field.size();
  while (first != last && is_space(*first)) ++first;
  while (last != first && is_space(last[-1])) --last;
  SimTime t = 0;
  const auto [end, ec] = std::from_chars(first, last, t);
  if (ec != std::errc() || end != last) return std::nullopt;
  return t;
}

}  // namespace

void write_csv(std::ostream& os, const ZoneTraceSet& traces) {
  os << "time";
  for (std::size_t z = 0; z < traces.num_zones(); ++z)
    os << ',' << traces.zone_name(z);
  os << '\n';
  const PriceSeries& first = traces.zone(0);
  for (std::size_t i = 0; i < first.size(); ++i) {
    os << first.time_of(i);
    for (std::size_t z = 0; z < traces.num_zones(); ++z) {
      const Money m = traces.zone(z).sample(i);
      // Dollars with three decimals (EC2 price grid).
      os << ',' << m.to_double();
    }
    os << '\n';
  }
}

void write_csv_file(const std::string& path, const ZoneTraceSet& traces) {
  // Render in memory, then publish atomically (write-temp → fsync →
  // rename): a crash mid-export can never leave a torn CSV at `path`.
  std::ostringstream buf;
  write_csv(buf, traces);
  if (!buf) throw std::runtime_error("write failed: " + path);
  atomic_write_file(path, buf.str());
}

ZoneTraceSet read_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) fail(1, "missing header");
  std::vector<std::string> header = split_commas(line);
  if (header.size() < 2 || header[0] != "time")
    fail(1, "header must be 'time,<zone>,...'");
  const std::size_t num_zones = header.size() - 1;
  std::vector<std::string> names(header.begin() + 1, header.end());
  for (std::size_t z = 0; z < names.size(); ++z) {
    if (names[z].empty()) fail(1, "empty zone name in header");
    for (std::size_t other = 0; other < z; ++other) {
      if (names[other] == names[z])
        fail(1, "duplicate zone name '" + names[z] + "'");
    }
  }

  std::vector<std::vector<Money>> cols(num_zones);
  SimTime start = 0;
  Duration step = 0;
  SimTime prev_time = 0;
  std::size_t line_no = 1;
  std::size_t rows = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_commas(line);
    if (fields.size() != num_zones + 1)
      fail(line_no, "expected " + std::to_string(num_zones + 1) + " fields");
    const std::optional<SimTime> parsed = parse_time(fields[0]);
    if (!parsed) fail(line_no, "bad time '" + fields[0] + "'");
    const SimTime t = *parsed;
    if (rows == 0) {
      start = t;
    } else if (t <= prev_time) {
      fail(line_no, "non-monotone time " + std::to_string(t) + " after " +
                        std::to_string(prev_time));
    } else if (rows == 1) {
      step = t - prev_time;
    } else if (t - prev_time != step) {
      fail(line_no, "irregular time step");
    }
    prev_time = t;
    for (std::size_t z = 0; z < num_zones; ++z) {
      Money price;
      try {
        // Money::parse rejects non-numeric text (including NaN/inf
        // spellings, which have no digits to parse), values too large
        // for its int64 micros and nonzero digits finer than a micro.
        price = Money::parse(fields[z + 1]);
      } catch (const CheckFailure&) {
        fail(line_no, "bad price '" + fields[z + 1] + "'");
      }
      if (price < Money())
        fail(line_no, "negative price '" + fields[z + 1] + "'");
      cols[z].push_back(price);
    }
    ++rows;
  }
  if (rows < 2) fail(line_no, "need at least two data rows");

  std::vector<PriceSeries> series;
  series.reserve(num_zones);
  for (auto& col : cols) series.emplace_back(start, step, std::move(col));
  return ZoneTraceSet(std::move(names), std::move(series));
}

ZoneTraceSet read_csv_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open: " + path);
  return read_csv(f);
}

}  // namespace redspot
