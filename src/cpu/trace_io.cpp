#include "sttsim/cpu/trace_io.hpp"

#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <vector>

#include "sttsim/util/hash.hpp"
#include "sttsim/util/text.hpp"

namespace sttsim::cpu {
namespace {

constexpr std::uint64_t kMagic = 0x4543415254545453ULL;  // "STTTRACE"

template <typename T>
void put(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw TraceIoError("truncated trace header");
  return v;
}

}  // namespace

void write_trace(std::ostream& out, const DecodedTrace& trace) {
  const std::vector<std::uint8_t> blob = serialize_compressed(compress(trace));
  put(out, kMagic);
  put(out, kTraceFormatVersion);
  put(out, util::hash_bytes(blob.data(), blob.size()));
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  if (!out) throw TraceIoError("trace write failed");
}

void write_trace_file(const std::string& path, const DecodedTrace& trace) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw TraceIoError("cannot open '" + path + "' for writing");
  write_trace(out, trace);
}

DecodedTrace read_trace(std::istream& in) {
  if (get<std::uint64_t>(in) != kMagic) {
    throw TraceIoError("bad magic: not an sttsim trace");
  }
  const auto version = get<std::uint32_t>(in);
  if (version != kTraceFormatVersion) {
    throw TraceIoError(strprintf("unsupported trace version %u (expected %u)",
                                 version, kTraceFormatVersion));
  }
  const auto checksum = get<std::uint64_t>(in);
  const std::vector<std::uint8_t> blob{std::istreambuf_iterator<char>(in),
                                       std::istreambuf_iterator<char>()};
  if (util::hash_bytes(blob.data(), blob.size()) != checksum) {
    throw TraceIoError("trace checksum mismatch");
  }
  CompressedTrace compressed;
  if (!deserialize_compressed(blob.data(), blob.size(), compressed)) {
    throw TraceIoError("malformed trace blob");
  }
  return decompress(compressed);
}

DecodedTrace read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceIoError("cannot open '" + path + "' for reading");
  return read_trace(in);
}

}  // namespace sttsim::cpu
