// Trace files.
//
// Lets downstream users capture address traces from real programs (any
// tool that can emit this format) and run them through the simulator, and
// lets the CLI and the differential oracle snapshot traces.
//
// A trace file is the trace store's compressed blob behind a small header
// (little-endian):
//   magic    u64  'STTTRACE'
//   version  u32  kTraceFormatVersion
//   checksum u64  util::Hash64 of the blob
//   blob          serialize_compressed(compress(trace)), to end of file
// The reader rejects a bad magic, any other version, a checksum mismatch
// and a malformed blob (decompress()'s checks) with TraceIoError.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "sttsim/cpu/decoded_trace.hpp"

namespace sttsim::cpu {

/// Trace format version: the trace-file header's version, and the version
/// of the compressed stream the trace store keeps. Also mixed into
/// persistent result-store and trace-store keys: a format bump invalidates
/// memoized results and stored traces whose semantics may have changed
/// with it.
inline constexpr std::uint32_t kTraceFormatVersion = 3;

/// Serializes `trace` to a stream / file. Throws TraceIoError on failure.
void write_trace(std::ostream& out, const DecodedTrace& trace);
void write_trace_file(const std::string& path, const DecodedTrace& trace);

/// Deserializes a trace. Throws TraceIoError on malformed input.
DecodedTrace read_trace(std::istream& in);
DecodedTrace read_trace_file(const std::string& path);

}  // namespace sttsim::cpu
