// Unit tests for the snapshot wire layer: the deterministic byte
// (de)serializer, the framed Snapshot container, and file I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/snap/serializer.h"
#include "src/snap/snapshot.h"
#include "src/snap/snapshot_io.h"

namespace essat::snap {
namespace {

TEST(Serializer, PrimitivesRoundTrip) {
  Serializer out;
  out.u8(0xAB);
  out.u16(0xBEEF);
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFull);
  out.i32(-7);
  out.i64(-1234567890123ll);
  out.f64(3.141592653589793);
  out.boolean(true);
  out.boolean(false);
  out.time(util::Time::milliseconds(250));
  out.str("hello");
  out.str("");

  Deserializer in{out.data()};
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u16(), 0xBEEF);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i32(), -7);
  EXPECT_EQ(in.i64(), -1234567890123ll);
  EXPECT_EQ(in.f64(), 3.141592653589793);
  EXPECT_TRUE(in.boolean());
  EXPECT_FALSE(in.boolean());
  EXPECT_EQ(in.time(), util::Time::milliseconds(250));
  EXPECT_EQ(in.str(), "hello");
  EXPECT_EQ(in.str(), "");
  EXPECT_TRUE(in.at_end());
}

TEST(Serializer, DoublesRoundTripByBitPattern) {
  Serializer out;
  out.f64(-0.0);
  out.f64(std::numeric_limits<double>::quiet_NaN());
  out.f64(std::numeric_limits<double>::infinity());
  out.f64(std::numeric_limits<double>::denorm_min());

  Deserializer in{out.data()};
  const double neg_zero = in.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_TRUE(std::isnan(in.f64()));
  EXPECT_TRUE(std::isinf(in.f64()));
  EXPECT_EQ(in.f64(), std::numeric_limits<double>::denorm_min());
}

TEST(Serializer, LittleEndianOnTheWire) {
  Serializer out;
  out.u32(0x01020304u);
  ASSERT_EQ(out.data().size(), 4u);
  EXPECT_EQ(out.data()[0], 0x04);
  EXPECT_EQ(out.data()[3], 0x01);
}

TEST(Serializer, SameWritesSameBytes) {
  auto make = [] {
    Serializer out;
    out.begin("SECT");
    out.u64(42);
    out.str("abc");
    out.end();
    return out.take();
  };
  EXPECT_EQ(make(), make());
}

TEST(Serializer, NestedSectionsEnterFinishAndSkip) {
  Serializer out;
  out.begin("OUTR");
  out.u32(1);
  out.begin("INNR");
  out.str("payload");
  out.end();
  out.u32(2);
  out.end();
  const auto bytes = out.take();

  {
    Deserializer in{bytes};
    in.enter("OUTR");
    EXPECT_EQ(in.u32(), 1u);
    in.enter("INNR");
    EXPECT_EQ(in.str(), "payload");
    in.finish();
    EXPECT_EQ(in.u32(), 2u);
    in.finish();
    EXPECT_TRUE(in.at_end());
  }
  {
    // A reader that does not understand INNR can hop over it.
    Deserializer in{bytes};
    in.enter("OUTR");
    EXPECT_EQ(in.u32(), 1u);
    in.skip();
    EXPECT_EQ(in.u32(), 2u);
    in.finish();
  }
}

TEST(Serializer, ErrorsThrowSnapError) {
  Serializer open_section;
  open_section.begin("SECT");
  EXPECT_THROW(open_section.take(), SnapError);

  Serializer ok;
  ok.begin("SECT");
  ok.u32(5);
  ok.end();
  const auto bytes = ok.take();

  {
    Deserializer in{bytes};
    EXPECT_THROW(in.enter("OTHR"), SnapError);  // tag mismatch
  }
  {
    Deserializer in{bytes};
    in.enter("SECT");
    EXPECT_THROW(in.finish(), SnapError);  // not fully consumed
  }
  {
    Deserializer in{bytes.data(), bytes.size() - 2};
    EXPECT_THROW(in.enter("SECT"), SnapError);  // section overruns buffer
  }
  {
    Deserializer in{bytes};
    in.enter("SECT");
    in.u32();
    EXPECT_THROW(in.u32(), SnapError);  // read past section end
  }
}

TEST(Crc32, MatchesKnownVector) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Snapshot, FramedRoundTrip) {
  Snapshot snap;
  snap.kind = SnapshotKind::kTrial;
  snap.payload = {1, 2, 3, 4, 5};
  const auto bytes = snap.to_bytes();

  const Snapshot back = Snapshot::from_bytes(bytes);
  EXPECT_EQ(back.kind, SnapshotKind::kTrial);
  EXPECT_EQ(back.version, kFormatVersion);
  EXPECT_EQ(back.payload, snap.payload);
}

TEST(Snapshot, RejectsBadMagicVersionKindCrcAndTruncation) {
  Snapshot snap;
  snap.payload = {9, 9, 9};
  auto bytes = snap.to_bytes();

  {
    auto bad = bytes;
    bad[0] ^= 0xFF;
    EXPECT_THROW(Snapshot::from_bytes(bad), SnapError);
  }
  {
    auto bad = bytes;
    bad[8] = 99;  // version field
    EXPECT_THROW(Snapshot::from_bytes(bad), SnapError);
  }
  // Kind field: only trial snapshots (kind 1) decode.
  for (const int kind : {0, 2, 3, 77}) {
    SCOPED_TRACE("kind " + std::to_string(kind));
    auto bad = bytes;
    bad[12] = static_cast<std::uint8_t>(kind);
    EXPECT_THROW(Snapshot::from_bytes(bad), SnapError);
  }
  {
    auto bad = bytes;
    bad[bad.size() - 5] ^= 0x01;  // payload byte: CRC must catch it
    EXPECT_THROW(Snapshot::from_bytes(bad), SnapError);
  }
  {
    auto bad = bytes;
    bad.pop_back();  // torn write
    EXPECT_THROW(Snapshot::from_bytes(bad), SnapError);
  }
  {
    auto bad = bytes;
    bad.push_back(0);  // trailing garbage
    EXPECT_THROW(Snapshot::from_bytes(bad), SnapError);
  }
}

TEST(SnapshotIo, FileRoundTripAndTornFileDetection) {
  const std::string path = ::testing::TempDir() + "snap_io_test.snap";
  Snapshot snap;
  snap.kind = SnapshotKind::kTrial;
  for (int i = 0; i < 1000; ++i) snap.payload.push_back(i & 0xFF);

  write_snapshot_file(path, snap);
  const Snapshot back = read_snapshot_file(path);
  EXPECT_EQ(back.payload, snap.payload);

  // Truncate the file to simulate a torn write that bypassed the
  // tmp+rename protocol (e.g. a partial copy).
  const auto bytes = snap.to_bytes();
  {
    std::ofstream torn{path, std::ios::binary | std::ios::trunc};
    torn.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size() - 100));
  }
  EXPECT_THROW(read_snapshot_file(path), SnapError);

  std::filesystem::remove(path);
  EXPECT_THROW(read_snapshot_file(path), SnapError);

  // A directory is neither a readable snapshot nor a rename target. Both
  // fail with SnapError, and the failed write leaves no temporary behind.
  const std::string dir = ::testing::TempDir() + "snap_io_test.dir";
  std::filesystem::create_directory(dir);
  EXPECT_THROW(read_snapshot_file(dir), SnapError);
  EXPECT_THROW(write_snapshot_file(dir, snap), SnapError);
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  std::filesystem::remove(dir);
}

}  // namespace
}  // namespace essat::snap
