// Type-directed field codec: a struct's wire format is one list of its
// members, and the same list both writes and reads it.
//
// Each encoded struct S gets one overload in namespace essat::snap (where
// argument-dependent lookup through IO finds it),
//
//   template <typename IO>
//   void fields(IO& io, Field<IO, S>& s) { io(s.a, s.b, s.c); }
//
// Writer encodes the listed members in list order; Reader decodes them
// back into the same members. List order is wire order (it need not be
// declaration order), and any change to a list is a snap::kFormatVersion
// bump. A member is encoded by its C++ type:
//
//   double -> f64          int32 -> i32          uint64 / size_t -> u64
//   bool, util::Time, std::string -> Serializer::boolean / time / str
//   enum -> u8             std::pair -> both members
//   std::vector -> u64 count, then the elements
//   std::optional -> presence flag, then the value (or a default one)
//   any other type -> its own fields() overload
//
// Any other arithmetic type fails to compile rather than being converted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/snap/serializer.h"
#include "src/util/time.h"

namespace essat::snap {

// The struct parameter of a fields() overload: const S when writing, S when
// reading. It is a non-deduced context: IO is deduced from the first
// argument, and the struct type then leaves exactly one overload viable.
template <typename IO, typename S>
using Field = typename IO::template Of<S>;

class Writer {
 public:
  template <typename S>
  using Of = const S;

  explicit Writer(Serializer& out) : out(out) {}

  template <typename... Ts>
  void operator()(const Ts&... vs) { (put(vs), ...); }

  Serializer& out;

 private:
  void put(double v) { out.f64(v); }
  void put(bool v) { out.boolean(v); }
  void put(std::int32_t v) { out.i32(v); }
  void put(std::uint64_t v) { out.u64(v); }
  void put(util::Time v) { out.time(v); }
  void put(const std::string& v) { out.str(v); }
  template <typename T>
  void put(const std::vector<T>& v) {
    out.u64(v.size());
    for (const T& e : v) put(e);
  }
  template <typename T>
  void put(const std::optional<T>& v) {
    out.boolean(v.has_value());
    put(v.value_or(T{}));
  }
  template <typename A, typename B>
  void put(const std::pair<A, B>& v) {
    put(v.first);
    put(v.second);
  }
  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_enum_v<T>) {
      out.u8(static_cast<std::uint8_t>(v));
    } else {
      fields(*this, v);
    }
  }
};

class Reader {
 public:
  template <typename S>
  using Of = S;

  explicit Reader(Deserializer& in) : in(in) {}

  template <typename... Ts>
  void operator()(Ts&... vs) { (get(vs), ...); }

  Deserializer& in;

 private:
  void get(double& v) { v = in.f64(); }
  void get(bool& v) { v = in.boolean(); }
  void get(std::int32_t& v) { v = in.i32(); }
  void get(std::uint64_t& v) { v = in.u64(); }
  void get(util::Time& v) { v = in.time(); }
  void get(std::string& v) { v = in.str(); }
  template <typename T>
  void get(std::vector<T>& v) {
    v.resize(static_cast<std::size_t>(in.u64()));
    for (T& e : v) get(e);
  }
  template <typename T>
  void get(std::optional<T>& v) {
    const bool present = in.boolean();
    T value{};
    get(value);
    if (present) {
      v = std::move(value);
    } else {
      v.reset();
    }
  }
  template <typename A, typename B>
  void get(std::pair<A, B>& v) {
    get(v.first);
    get(v.second);
  }
  template <typename T>
  void get(T& v) {
    if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(in.u8());
    } else {
      fields(*this, v);
    }
  }
};

// One struct as one tagged section (Serializer::begin / Deserializer::enter).
template <typename S>
void write_section(Serializer& out, const char (&tag)[5], const S& s) {
  out.begin(tag);
  Writer{out}(s);
  out.end();
}

template <typename S>
S read_section(Deserializer& in, const char (&tag)[5]) {
  in.enter(tag);
  S s;
  Reader{in}(s);
  in.finish();
  return s;
}

}  // namespace essat::snap
