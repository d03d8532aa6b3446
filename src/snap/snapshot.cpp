#include "src/snap/snapshot.h"

#include <cstring>

namespace essat::snap {
namespace {

constexpr char kMagic[9] = "ESSATSNP";  // 8 payload bytes + NUL

}  // namespace

const char* snapshot_kind_name(SnapshotKind kind) {
  switch (kind) {
    case SnapshotKind::kTrial:
      return "trial";
  }
  return "unknown";
}

std::vector<std::uint8_t> Snapshot::to_bytes() const {
  Serializer out;
  out.bytes(kMagic, 8);
  out.u32(version);
  out.u32(static_cast<std::uint32_t>(kind));
  out.u64(payload.size());
  out.bytes(payload.data(), payload.size());
  out.u32(crc32(payload.data(), payload.size()));
  return out.take();
}

Snapshot Snapshot::from_bytes(const std::uint8_t* data, std::size_t size) {
  Deserializer in{data, size};
  char magic[8];
  in.bytes(magic, 8);
  if (std::memcmp(magic, kMagic, 8) != 0) {
    throw SnapError{"not a snapshot: bad magic"};
  }
  Snapshot snap;
  snap.version = in.u32();
  if (snap.version != kFormatVersion) {
    throw SnapError{"snapshot format version " + std::to_string(snap.version) +
                    " != supported " + std::to_string(kFormatVersion) +
                    " (no migrations; re-run the prefix)"};
  }
  const std::uint32_t kind = in.u32();
  if (kind != static_cast<std::uint32_t>(SnapshotKind::kTrial)) {
    throw SnapError{"unknown snapshot kind " + std::to_string(kind)};
  }
  snap.kind = static_cast<SnapshotKind>(kind);
  const std::uint64_t len = in.u64();
  if (in.remaining() < len + 4) {
    throw SnapError{"snapshot truncated: payload overruns file"};
  }
  snap.payload.resize(static_cast<std::size_t>(len));
  in.bytes(snap.payload.data(), snap.payload.size());
  const std::uint32_t stored = in.u32();
  const std::uint32_t computed = crc32(snap.payload.data(), snap.payload.size());
  if (stored != computed) {
    throw SnapError{"snapshot payload CRC mismatch (torn or corrupted write)"};
  }
  if (!in.at_end()) {
    throw SnapError{"trailing bytes after snapshot"};
  }
  return snap;
}

}  // namespace essat::snap
