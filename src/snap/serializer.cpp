#include "src/snap/serializer.h"

#include <cstring>

namespace essat::snap {
namespace {

struct CrcTable {
  std::uint32_t v[256];
  CrcTable() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      v[i] = c;
    }
  }
};

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                    std::uint32_t seed) {
  static const CrcTable table;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table.v[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void Serializer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Serializer::u32(std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Serializer::u64(std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    buf_.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void Serializer::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Serializer::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

void Serializer::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + size);
}

void Serializer::begin(const char (&tag)[5]) {
  bytes(tag, 4);
  open_.push_back(buf_.size());
  u64(0);  // placeholder patched by end()
}

void Serializer::end() {
  if (open_.empty()) throw SnapError{"Serializer::end: no open section"};
  const std::size_t at = open_.back();
  open_.pop_back();
  const std::uint64_t len = buf_.size() - (at + 8);
  for (int i = 0; i < 8; ++i) {
    buf_[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  }
}

std::vector<std::uint8_t> Serializer::take() {
  if (!open_.empty()) throw SnapError{"Serializer::take: unclosed section"};
  return std::move(buf_);
}

const std::uint8_t* Deserializer::need_(std::size_t n) {
  if (remaining() < n) {
    throw SnapError{"snapshot truncated: need " + std::to_string(n) +
                    " bytes at offset " + std::to_string(at_)};
  }
  const std::uint8_t* p = data_ + at_;
  at_ += n;
  return p;
}

std::uint8_t Deserializer::u8() { return *need_(1); }

std::uint16_t Deserializer::u16() {
  const std::uint8_t* p = need_(2);
  return static_cast<std::uint16_t>(p[0] | p[1] << 8);
}

std::uint32_t Deserializer::u32() {
  const std::uint8_t* p = need_(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t Deserializer::u64() {
  const std::uint8_t* p = need_(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

double Deserializer::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Deserializer::str() {
  const std::uint64_t n = u64();
  if (remaining() < n) throw SnapError{"snapshot truncated: string overruns"};
  const std::uint8_t* p = need_(static_cast<std::size_t>(n));
  return std::string(reinterpret_cast<const char*>(p),
                     static_cast<std::size_t>(n));
}

void Deserializer::bytes(void* out, std::size_t size) {
  std::memcpy(out, need_(size), size);
}

void Deserializer::enter(const char (&tag)[5]) {
  char got[5] = {};
  bytes(got, 4);
  if (std::memcmp(got, tag, 4) != 0) {
    throw SnapError{std::string{"section tag mismatch: expected '"} + tag +
                    "', found '" + got + "'"};
  }
  const std::uint64_t len = u64();
  if (remaining() < len) throw SnapError{"section overruns its container"};
  ends_.push_back(at_ + static_cast<std::size_t>(len));
}

void Deserializer::finish() {
  if (ends_.empty()) throw SnapError{"Deserializer::finish: no open section"};
  if (at_ != ends_.back()) {
    throw SnapError{"section not fully consumed: " +
                    std::to_string(ends_.back() - at_) + " bytes left"};
  }
  ends_.pop_back();
}

void Deserializer::skip() {
  char tag[5] = {};
  bytes(tag, 4);
  const std::uint64_t len = u64();
  if (remaining() < len) throw SnapError{"section overruns its container"};
  at_ += static_cast<std::size_t>(len);
}

}  // namespace essat::snap
