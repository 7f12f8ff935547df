// The byte format of everything this system serializes: wire messages, WAL
// records, the snapshot / seal / exchange-metadata blobs, and the state
// machines' command, result and snapshot bodies. Little-endian fixed-width
// integers; bools and enums one byte; strings and byte blobs a u32 length
// and the bytes.
//
// Each serialized type states its format once, as one field walk found by
// argument-dependent lookup:
//
//   template <class Io>
//   void Walk(Io& io, RequestVote& v) {
//     io(v.et, v.candidate, v.last_idx, v.last_term);
//   }
//
// and three Io kinds run every walk: codec::Writer appends the fields to an
// Encoder, codec::Sizer only counts them (a measured length is exactly the
// written length, and measuring allocates nothing), and codec::Reader fills
// them from a Decoder. Adding a field is one line in one walk. A field is
// encoded by its C++ type: integers at their own width (1, 4 or 8 bytes);
// enums as one byte; other sequences and maps as a u32 element count and
// the elements (Long(seq) for a u64 count); optionals and shared pointers
// as a presence bool and the value; Tagged<Table>(variant) as a u8 tag and
// the alternative; any other type through its own Walk.
//
// Tags are append-only: never renumber one, retire one by skipping it. A
// TagTable that misses an alternative, or repeats a tag, does not compile.
//
// Bytes from a socket or a disk are untrusted, and the Reader never trusts
// them: the first error sticks (later fields read as zero and the caller
// sees that one error); an enum byte beyond the enum's last enumerator
// (EnumLast, declared beside each enum) is an error; and a count larger
// than the remaining bytes could hold, at the element type's smallest
// encoding, is an error before anything is allocated.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace recraft {

/// A growable byte buffer that codec::Writer appends to.
class Encoder {
 public:
  void PutRaw(const void* p, size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    if (n > 0) std::memcpy(buf_.data() + at, p, n);
  }
  void Reserve(size_t n) { buf_.reserve(n); }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// A bounds-checked read cursor over bytes it does not own: the buffer must
/// outlive the decoder.
class Decoder {
 public:
  explicit Decoder(const std::vector<uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Decoder(const std::string& buf)
      : data_(reinterpret_cast<const uint8_t*>(buf.data())),
        size_(buf.size()) {}

  /// The next `n` bytes, consumed; nullptr, consuming nothing, when fewer
  /// remain.
  const uint8_t* Take(size_t n) {
    if (n > size_ - pos_) return nullptr;
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

namespace codec {

// --- field adaptors ---------------------------------------------------------

/// A sequence or map encoded with a u64 element count.
template <class Seq>
struct LongRef {
  Seq& seq;
};
template <class Seq>
LongRef<Seq> Long(Seq& seq) {
  return {seq};
}

/// A Status encoded as its code byte alone (its message is not kept).
template <class S>
struct CodeRef {
  S& status;
};
template <class S>
CodeRef<S> CodeOnly(S& status) {
  return {status};
}

/// One tag <-> alternative row of a TagTable.
template <uint8_t kTag, class T>
struct Tag {
  static constexpr uint8_t kValue = kTag;
  using Type = T;
};

template <class A, class... Tags>
constexpr int RowsFor() {
  return (0 + ... + (std::is_same_v<A, typename Tags::Type> ? 1 : 0));
}

template <class Variant, class... Tags>
constexpr bool TagsCoverVariant() {
  constexpr uint8_t tags[] = {Tags::kValue...};
  for (size_t i = 0; i < sizeof...(Tags); ++i) {
    for (size_t j = i + 1; j < sizeof...(Tags); ++j) {
      if (tags[i] == tags[j]) return false;
    }
  }
  return sizeof...(Tags) == std::variant_size_v<Variant>;
}

/// The tag of every alternative of a std::variant: exactly one row per
/// alternative, tags distinct — checked at compile time.
template <class Variant, class... Tags>
class TagTable;

template <class... Alts, class... Tags>
class TagTable<std::variant<Alts...>, Tags...> {
 public:
  using Variant = std::variant<Alts...>;

  template <class A>
  static constexpr uint8_t TagOf() {
    static_assert(RowsFor<A, Tags...>() == 1,
                  "a variant alternative has no tag");
    uint8_t tag = 0;
    ((std::is_same_v<A, typename Tags::Type> ? (void)(tag = Tags::kValue)
                                              : (void)0),
     ...);
    return tag;
  }

  /// Make the alternative tagged `tag` the value of `v` and pass it to
  /// `fn`; false for an unknown tag.
  template <class Fn>
  static bool Emplace(uint8_t tag, Variant& v, Fn&& fn) {
    return ((tag == Tags::kValue
                 ? (fn(v.template emplace<typename Tags::Type>()), true)
                 : false) ||
            ...);
  }

 private:
  static_assert(((RowsFor<Alts, Tags...>() == 1) && ...) &&
                    TagsCoverVariant<Variant, Tags...>(),
                "every alternative needs exactly one tag, and tags must be "
                "distinct");
};

/// A variant encoded as its u8 tag from `Table` and the alternative; also
/// one alternative on its own, written with its tag (never read as such).
template <class Table, class V>
struct TaggedRef {
  V& value;
};
template <class Table, class V>
TaggedRef<Table, V> Tagged(V& value) {
  return {value};
}

// --- type classification ----------------------------------------------------

/// True when T is an instance of the class template Tmpl.
template <class T, template <class...> class Tmpl>
constexpr bool kIsA = false;
template <template <class...> class Tmpl, class... Args>
constexpr bool kIsA<Tmpl<Args...>, Tmpl> = true;

template <class T>
constexpr bool kIsBytes = std::is_same_v<T, std::string> ||
                          std::is_same_v<T, std::vector<uint8_t>>;

template <class T>
concept Sequence = !kIsBytes<T> && requires(T& t) {
  typename T::value_type;
  t.begin();
  t.end();
  t.size();
};

template <class T>
concept Map = Sequence<T> && requires { typename T::mapped_type; };

/// The element a sequence or map decodes into (a map's key not const).
template <class T>
struct ElementOf {
  using Type = typename T::value_type;
};
template <Map T>
struct ElementOf<T> {
  using Type = std::pair<typename T::key_type, typename T::mapped_type>;
};

// --- writer and sizer -------------------------------------------------------

/// Appends to an Encoder.
struct BufferSink {
  static constexpr bool kMinimum = false;
  Encoder* enc;
  void Raw(const void* p, size_t n) { enc->PutRaw(p, n); }
};

/// Counts bytes only. With kMin, a variant counts as its smallest
/// alternative — the smallest encoding of a type, which bounds how many
/// elements a count may claim.
template <bool kMin>
struct CountSink {
  static constexpr bool kMinimum = kMin;
  size_t n = 0;
  void Raw(const void*, size_t k) { n += k; }
};

template <class T>
size_t MinSize();

/// The smallest encoding among all of a variant's alternatives, whichever
/// one a value holds.
template <class... Alts>
size_t SmallestAlternative(const std::variant<Alts...>*) {
  return std::min({MinSize<Alts>()...});
}

/// Runs a walk over values it never modifies (walks take T&; the writer and
/// sizer only read through it).
template <class Sink>
class Out {
 public:
  static constexpr bool kReads = false;

  Out() = default;
  explicit Out(Sink sink) : sink_(sink) {}

  template <class... F>
  void operator()(F&&... fields) {
    (Field(fields), ...);
  }
  void Check(bool, const char*) {}
  void Format(uint8_t byte, const char*) { sink_.Raw(&byte, 1); }

  const Sink& sink() const { return sink_; }

 private:
  template <class N, class C>
  void Count(const C& c) {
    const N n = static_cast<N>(c.size());
    sink_.Raw(&n, sizeof(n));
  }

  template <class T>
  void Field(T& v) {
    using U = std::remove_const_t<T>;
    if constexpr (std::is_same_v<U, bool>) {
      const uint8_t b = v ? 1 : 0;
      sink_.Raw(&b, 1);
    } else if constexpr (std::is_enum_v<U>) {
      static_assert(sizeof(U) == 1, "enums are encoded as one byte");
      sink_.Raw(&v, 1);
    } else if constexpr (std::is_integral_v<U>) {
      static_assert(sizeof(U) == 1 || sizeof(U) == 4 || sizeof(U) == 8);
      sink_.Raw(&v, sizeof(U));
    } else if constexpr (kIsBytes<U>) {
      Count<uint32_t>(v);
      sink_.Raw(v.data(), v.size());
    } else if constexpr (kIsA<U, LongRef>) {
      Elements<uint64_t>(v.seq);
    } else if constexpr (kIsA<U, CodeRef>) {
      const Code code = v.status.code();
      Field(code);
    } else if constexpr (kIsA<U, TaggedRef>) {
      TaggedField(v);
    } else if constexpr (kIsA<U, std::optional> ||
                         kIsA<U, std::shared_ptr>) {
      const bool has = static_cast<bool>(v);
      Field(has);
      if (has) Field(*v);
    } else if constexpr (kIsA<U, std::pair>) {
      Field(v.first);
      Field(v.second);
    } else if constexpr (Sequence<U>) {
      Elements<uint32_t>(v);
    } else {
      Walk(*this, const_cast<U&>(v));
    }
  }

  template <class N, class S>
  void Elements(S& seq) {
    Count<N>(seq);
    for (auto& e : seq) Field(e);
  }

  template <class Table, class V>
  void TaggedField(const TaggedRef<Table, V>& t) {
    using U = std::remove_const_t<V>;
    if constexpr (!std::is_same_v<U, typename Table::Variant>) {
      const uint8_t tag = Table::template TagOf<U>();
      Field(tag);
      Field(t.value);
    } else if constexpr (Sink::kMinimum) {
      sink_.n += 1 + SmallestAlternative(static_cast<U*>(nullptr));
    } else {
      std::visit(
          [this](auto& alt) {
            const uint8_t tag =
                Table::template TagOf<std::decay_t<decltype(alt)>>();
            Field(tag);
            Field(alt);
          },
          t.value);
    }
  }

  Sink sink_{};
};

using Writer = Out<BufferSink>;
using Sizer = Out<CountSink<false>>;

/// The smallest encoding of a T, measured once: a default-constructed value
/// (empty sequences, absent options) with its variants at their smallest
/// alternative. Zero for a type that encodes to nothing, such as an empty
/// struct.
template <class T>
size_t MinSize() {
  static const size_t kBytes = [] {
    Out<CountSink<true>> sizer;
    T value{};
    sizer(value);
    return sizer.sink().n;
  }();
  return kBytes;
}

// --- reader -----------------------------------------------------------------

class Reader {
 public:
  static constexpr bool kReads = true;

  explicit Reader(Decoder& dec) : dec_(dec) {}

  template <class... F>
  void operator()(F&&... fields) {
    (Field(fields), ...);
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  void Check(bool cond, const char* what) {
    if (!cond) Fail(Internal(what));
  }
  /// A leading format byte: any other value means the body is not this
  /// format at all (kRejected, not corruption).
  void Format(uint8_t byte, const char* what) {
    uint8_t got = 0;
    Field(got);
    if (ok() && got != byte) Fail(Rejected(what));
  }

  /// An N-wide element count, checked against the bytes left at E's
  /// smallest encoding (at least one byte, so a count of elements that
  /// encode to nothing is still bounded by the input); 0 after an error.
  template <class N, class E>
  size_t Count() {
    N n = 0;
    Field(n);
    if (ok() && n > dec_.remaining() / std::max<size_t>(MinSize<E>(), 1)) {
      Fail(Internal("codec: count exceeds the remaining input"));
    }
    return ok() ? static_cast<size_t>(n) : 0;
  }

 private:
  void Fail(Status s) {
    if (status_.ok()) status_ = std::move(s);
  }

  const uint8_t* Take(size_t n) {
    if (!ok()) return nullptr;
    const uint8_t* p = dec_.Take(n);
    if (p == nullptr) Fail(Internal("codec: truncated input"));
    return p;
  }

  template <class T>
  void Field(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      uint8_t b = 0;
      Field(b);
      v = b != 0;
    } else if constexpr (std::is_enum_v<T>) {
      static_assert(sizeof(T) == 1, "enums are encoded as one byte");
      uint8_t raw = 0;
      Field(raw);
      if (raw > static_cast<uint8_t>(EnumLast(T{}))) {
        Fail(Internal("codec: enum value out of range"));
      }
      v = ok() ? static_cast<T>(raw) : T{};
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
      const uint8_t* p = Take(sizeof(T));
      v = 0;
      if (p != nullptr) std::memcpy(&v, p, sizeof(T));
    } else if constexpr (kIsBytes<T>) {
      const size_t n = Count<uint32_t, uint8_t>();
      const uint8_t* p = Take(n);
      v.clear();
      if (p == nullptr) return;
      if constexpr (std::is_same_v<T, std::string>) {
        v.assign(reinterpret_cast<const char*>(p), n);
      } else {
        v.assign(p, p + n);
      }
    } else if constexpr (kIsA<T, LongRef>) {
      Elements<uint64_t>(v.seq);
    } else if constexpr (kIsA<T, CodeRef>) {
      Code code = Code::kOk;
      Field(code);
      v.status = Status(code);
    } else if constexpr (kIsA<T, TaggedRef>) {
      TaggedField(v);
    } else if constexpr (kIsA<T, std::optional>) {
      bool has = false;
      Field(has);
      v.reset();
      if (has && ok()) Field(v.emplace());
    } else if constexpr (kIsA<T, std::shared_ptr>) {
      bool has = false;
      Field(has);
      v = nullptr;
      if (has && ok()) {
        using E = std::remove_const_t<typename T::element_type>;
        auto p = std::make_shared<E>();
        Field(*p);
        v = std::move(p);
      }
    } else if constexpr (kIsA<T, std::pair>) {
      Field(v.first);
      Field(v.second);
    } else if constexpr (Sequence<T>) {
      Elements<uint32_t>(v);
    } else {
      Walk(*this, v);
    }
  }

  template <class N, class S>
  void Elements(S& seq) {
    using E = typename ElementOf<S>::Type;
    const size_t n = Count<N, E>();
    seq.clear();
    if constexpr (requires { seq.reserve(n); }) seq.reserve(n);
    for (size_t i = 0; i < n && ok(); ++i) {
      if constexpr (Map<S>) {
        E e;
        Field(e);
        if (ok() && !seq.emplace(std::move(e)).second) {
          Fail(Internal("codec: duplicate map key"));
        }
      } else {
        Field(seq.emplace_back());
      }
    }
  }

  template <class Table, class V>
  void TaggedField(TaggedRef<Table, V>& t) {
    static_assert(std::is_same_v<V, typename Table::Variant>);
    uint8_t tag = 0;
    Field(tag);
    if (!ok()) return;
    if (!Table::Emplace(tag, t.value, [this](auto& alt) { Field(alt); })) {
      Fail(Internal("codec: unknown tag"));
    }
  }

  Decoder& dec_;
  Status status_;
};

// --- entry points -----------------------------------------------------------

/// Append the fields' encoding to `enc`.
template <class... F>
void Write(Encoder& enc, const F&... fields) {
  Writer w(BufferSink{&enc});
  w(fields...);
}

/// Exactly the number of bytes Write appends for the same fields.
template <class... F>
size_t Size(const F&... fields) {
  Sizer s;
  s(fields...);
  return s.sink().n;
}

/// The fields' encoding in a buffer of exactly its size.
template <class... F>
std::vector<uint8_t> Encode(const F&... fields) {
  Encoder enc;
  enc.Reserve(Size(fields...));
  Write(enc, fields...);
  return enc.Take();
}

/// Read the fields from `dec`, which is left after the last byte read.
template <class... F>
Status Read(Decoder& dec, F&&... fields) {
  Reader r(dec);
  r(fields...);
  return r.status();
}

/// Read the fields from `dec`, which must hold exactly their encoding.
template <class... F>
Status ReadAll(Decoder dec, F&&... fields) {
  Status s = Read(dec, fields...);
  if (s.ok() && !dec.AtEnd()) return Internal("codec: trailing bytes");
  return s;
}

}  // namespace codec
}  // namespace recraft
