// Bounded little-endian cursor over a byte span, shared by the wire codecs
// (SFAV updates, SFQP payloads, SFEV envelopes, SFQT quantized states).
//
// Every read checks the bytes left first and throws CheckError naming the
// caller's context ("truncated update", "truncated message", …) on underrun,
// so a decoder that bounds a header's claims against remaining() before it
// allocates can never read or allocate past what actually arrived.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/check.h"

namespace subfed {

class ByteReader {
 public:
  /// `context` names the message kind in errors; it must outlive the reader.
  ByteReader(std::span<const std::uint8_t> bytes, const char* context)
      : bytes_(bytes), context_(context) {}

  std::uint8_t u8() { return raw(1)[0]; }

  std::uint16_t u16() {
    const std::span<const std::uint8_t> b = raw(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }

  std::uint32_t u32() {
    const std::span<const std::uint8_t> b = raw(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v = u32();
    v |= static_cast<std::uint64_t>(u32()) << 32;
    return v;
  }

  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }

  std::string str(std::size_t n) {
    const std::span<const std::uint8_t> b = raw(n);
    return std::string(reinterpret_cast<const char*>(b.data()), n);
  }

  /// The next `n` bytes, in place.
  std::span<const std::uint8_t> raw(std::size_t n) {
    SUBFEDAVG_CHECK(n <= remaining(), "truncated " << context_ << ": " << n << " bytes wanted, "
                                                   << remaining() << " left");
    const std::span<const std::uint8_t> s = bytes_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool done() const noexcept { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  const char* context_;
  std::size_t pos_ = 0;
};

/// Most extents a tensor header on the wire may claim.
inline constexpr std::uint32_t kMaxWireRank = 8;

/// Reads a tensor header's u32 rank and u32 extents. The rank is refused
/// above kMaxWireRank before the extents are allocated, and an element count
/// that overflows size_t is refused; `numel` receives it (0 for rank 0, as
/// Shape::numel counts).
inline std::vector<std::size_t> read_dims(ByteReader& reader, const std::string& name,
                                          std::size_t& numel) {
  const std::uint32_t rank = reader.u32();
  SUBFEDAVG_CHECK(rank <= kMaxWireRank, "tensor '" << name << "' has rank " << rank << " (max "
                                                   << kMaxWireRank << ")");
  std::vector<std::size_t> dims(rank);
  numel = rank == 0 ? 0 : 1;
  for (std::size_t& d : dims) {
    d = reader.u32();
    SUBFEDAVG_CHECK(d == 0 || numel <= SIZE_MAX / d,
                    "tensor '" << name << "' element count overflows");
    numel *= d;
  }
  return dims;
}

}  // namespace subfed
