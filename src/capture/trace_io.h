#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "capture/trace.h"

namespace ppsim::capture {

/// Serialization of packet traces to a line-based text format, so captures
/// can be archived and re-analyzed without re-running the simulation (the
/// simulated analogue of saving the paper's 130 GB of Wireshark captures).
///
/// Format: one record per line,
///
///   <time_us>,<dir>,<local>,<remote>,<bytes>,<type>,<fields...>
///
/// where <dir> is "out"/"in", <type> is the message name, and <fields> are
/// type-specific (chunk/subpieces/payload for data, the listed addresses
/// for list replies, etc.). The format is self-contained: read_trace
/// reconstructs records exactly (round-trip identity), which the tests
/// assert.

/// Writes the whole trace; returns the number of records written.
std::size_t write_trace(std::ostream& os, const PacketTrace& trace);

/// Convenience: writes to a file, returning false on I/O failure.
bool write_trace_file(const std::string& path, const PacketTrace& trace);

/// Parses one serialized record; nullopt on malformed input. Every number
/// must fit its field's own width as plain decimal digits, element and bit
/// counts must fit what the rest of the line holds, and nothing may follow
/// the type's last field.
std::optional<TraceRecord> parse_record(std::string_view line);

/// Reads records until EOF; malformed lines are skipped and counted in
/// `dropped` when provided.
PacketTrace read_trace(std::istream& is, std::size_t* dropped = nullptr);

std::optional<PacketTrace> read_trace_file(const std::string& path);

}  // namespace ppsim::capture
