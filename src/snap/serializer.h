// Deterministic binary (de)serialization for simulator snapshots.
//
// The byte stream is a pure function of the written values: fixed-width
// little-endian integers, IEEE-754 doubles by bit pattern, length-prefixed
// strings, and 4-byte-tagged length-prefixed sections. No pointers, no
// padding, no host-order dependence — two runs that write the same logical
// state produce identical bytes, which is what lets the restore path verify
// a replayed simulator against a snapshot byte-for-byte (and the
// conformance checks diff restored-vs-straight-run RunMetrics the same
// way).
//
// Sections nest: begin(tag) writes the tag and a length placeholder that
// end() patches, so a reader can skip or enumerate sections it does not
// understand (the replay tool's --dump does exactly that). Errors on the
// read side (overrun, tag mismatch, bad magic) throw snap::SnapError; the
// write side never fails.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/util/time.h"

namespace essat::snap {

class SnapError : public std::runtime_error {
 public:
  explicit SnapError(const std::string& what) : std::runtime_error(what) {}
};

// CRC-32 (IEEE 802.3 polynomial, reflected). Used by the snapshot container
// to detect torn or corrupted payloads.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                    std::uint32_t seed = 0);

class Serializer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  // IEEE-754 bit pattern: round-trips NaNs and signed zeros exactly.
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void time(util::Time t) { i64(t.ns()); }
  void str(const std::string& s);
  void bytes(const void* data, std::size_t size);

  // Opens a section: 4-byte tag + u64 length patched by end(). Sections
  // nest; every begin() must be matched before the buffer is consumed.
  void begin(const char (&tag)[5]);
  void end();

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take();

 private:
  std::vector<std::uint8_t> buf_;
  std::vector<std::size_t> open_;  // offsets of unpatched length fields
};

class Deserializer {
 public:
  // Non-owning view; the buffer must outlive the Deserializer.
  Deserializer(const std::uint8_t* data, std::size_t size)
      : data_{data}, size_{size} {}
  explicit Deserializer(const std::vector<std::uint8_t>& buf)
      : Deserializer(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }
  // Not libc time(): reads a sim::Time encoded by Serializer::time.
  util::Time time() {  // essat-lint: allow(no-wallclock)
    return util::Time::nanoseconds(i64());
  }
  std::string str();
  void bytes(void* out, std::size_t size);

  // Enters a section, checking its tag; finish() checks the section was
  // consumed exactly. skip() jumps over one whole section.
  void enter(const char (&tag)[5]);
  void finish();
  void skip();

  std::size_t offset() const { return at_; }
  std::size_t remaining() const {
    return (ends_.empty() ? size_ : ends_.back()) - at_;
  }
  bool at_end() const { return remaining() == 0; }

 private:
  const std::uint8_t* need_(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t at_ = 0;
  std::vector<std::size_t> ends_;  // end offsets of entered sections
};

}  // namespace essat::snap
