#include "src/snap/snapshot_io.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <vector>

namespace essat::snap {
namespace {

// Reads to end of file rather than trusting tellg(), which reports a bogus
// size for a directory; the failed read of one sets badbit.
std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw SnapError{"cannot open for read: " + path};
  std::vector<std::uint8_t> bytes;
  char chunk[4096];
  do {
    in.read(chunk, sizeof chunk);
    bytes.insert(bytes.end(), chunk, chunk + in.gcount());
  } while (in);
  if (in.bad()) throw SnapError{"cannot read: " + path};
  return bytes;
}

void write_file_bytes(const std::string& path,
                      const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  const auto fail = [&tmp](const std::string& what) {
    std::remove(tmp.c_str());
    throw SnapError{what};
  };
  std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
  if (!out) fail("cannot open for write: " + tmp);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) fail("short write: " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail("rename failed: " + tmp + " -> " + path);
  }
}

}  // namespace

Snapshot read_snapshot_file(const std::string& path) {
  const std::vector<std::uint8_t> bytes = read_file_bytes(path);
  try {
    return Snapshot::from_bytes(bytes);
  } catch (const SnapError& e) {
    throw SnapError{path + ": " + e.what()};
  }
}

void write_snapshot_file(const std::string& path, const Snapshot& snap) {
  write_file_bytes(path, snap.to_bytes());
}

}  // namespace essat::snap
