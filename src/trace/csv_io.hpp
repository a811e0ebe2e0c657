// CSV import/export for trace sets.
//
// Format (one header line, then one row per sampling step):
//   time,<zone-name>,<zone-name>,...
//   0,0.270,0.271,0.270
//   300,0.270,0.275,0.270
// Times are whole seconds since the trace epoch (base-10 integers) and
// must advance by a constant step; prices are dollars. Real EC2 price
// histories resampled to a fixed grid can be dropped in through this path.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/zone_traces.hpp"

namespace redspot {

/// Writes `traces` as CSV.
void write_csv(std::ostream& os, const ZoneTraceSet& traces);
void write_csv_file(const std::string& path, const ZoneTraceSet& traces);

/// Parses a trace-set CSV. Throws std::runtime_error with a line-numbered
/// message on malformed input.
ZoneTraceSet read_csv(std::istream& is);
ZoneTraceSet read_csv_file(const std::string& path);

}  // namespace redspot
