#include "comm/serialize.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "comm/quantize.h"
#include "util/check.h"

namespace subfed {

namespace {

constexpr std::uint32_t kMagic = 0x53464156;  // "SFAV"

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void store_u32(std::uint8_t* p, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return value;
}

std::size_t value_bytes(QuantCodec codec) {
  return codec == QuantCodec::kNone ? 4 : codec == QuantCodec::kFp16 ? 2 : 1;
}

std::size_t bitmap_bytes(std::size_t numel) { return numel / 8 + (numel % 8 != 0); }

/// Packs the keep flags (mask entry != 0) of `n` entries LSB-first.
void pack_bitmap(const float* mask, std::size_t n, std::uint8_t* bits) {
  const std::size_t full = n / 8;
  for (std::size_t j = 0; j < full; ++j) {
    const float* m = mask + 8 * j;
    std::uint8_t byte = 0;
    for (int b = 0; b < 8; ++b) byte |= static_cast<std::uint8_t>((m[b] != 0.0f) << b);
    bits[j] = byte;
  }
  if (n % 8 != 0) {
    std::uint8_t byte = 0;
    for (std::size_t b = 0; b < n % 8; ++b) {
      byte |= static_cast<std::uint8_t>((mask[8 * full + b] != 0.0f) << b);
    }
    bits[full] = byte;
  }
}

/// Word `w` of an LSB-first bitmap over `n` entries, its bits past `n` clear
/// (a decoder ignores whatever a sender left in the last byte's padding).
std::uint64_t bitmap_word(const std::uint8_t* bits, std::size_t n, std::size_t w) {
  const std::uint8_t* first = bits + 8 * w;
  const std::size_t bytes = std::min<std::size_t>(8, bitmap_bytes(n) - 8 * w);
  std::uint64_t word = 0;
  if (bytes == 8 && std::endian::native == std::endian::little) {
    std::memcpy(&word, first, 8);
  } else {
    for (std::size_t k = 0; k < bytes; ++k) word |= std::uint64_t{first[k]} << (8 * k);
  }
  const std::size_t valid = n - 64 * w;
  return valid < 64 ? word & ((std::uint64_t{1} << valid) - 1) : word;
}

std::size_t count_kept(const std::uint8_t* bits, std::size_t n) {
  std::size_t kept = 0;
  for (std::size_t w = 0; 64 * w < n; ++w) kept += std::popcount(bitmap_word(bits, n, w));
  return kept;
}

/// Calls visit(i) for each kept index i < n in ascending order: the set bits
/// of the bitmap, or every index when `bits` is null (an uncovered tensor).
template <class Visit>
void for_each_kept(const std::uint8_t* bits, std::size_t n, Visit&& visit) {
  if (bits == nullptr) {
    for (std::size_t i = 0; i < n; ++i) visit(i);
    return;
  }
  for (std::size_t w = 0; 64 * w < n; ++w) {
    for (std::uint64_t word = bitmap_word(bits, n, w); word != 0; word &= word - 1) {
      visit(64 * w + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
}

/// The int8 step nearest x / scale, clamped to ±127. A NaN quotient (a NaN
/// value, or an infinite one over an infinite scale) sends 0, since
/// converting NaN to an integer is undefined.
std::uint8_t quantize_int8(float x, float scale) {
  const float q = std::round(x / scale);
  if (std::isnan(q)) return 0;
  return static_cast<std::uint8_t>(static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f)));
}

}  // namespace

void encode_entries(std::vector<std::uint8_t>& out, const StateDict& state,
                    const ModelMask* mask, QuantCodec codec) {
  const std::size_t width = value_bytes(codec);
  const std::size_t scale_bytes = codec == QuantCodec::kInt8 ? 4 : 0;
  // Coverage and kept counts first, so the output grows exactly once.
  std::vector<std::pair<const Tensor*, std::size_t>> kept(state.size());
  std::size_t size = out.size() + 4;
  for (std::size_t e = 0; e < state.size(); ++e) {
    const auto& [name, tensor] = state[e];
    const Tensor* m = mask != nullptr ? mask->find(name) : nullptr;
    if (m != nullptr) SUBFEDAVG_CHECK(m->shape() == tensor.shape(), "mask shape for " << name);
    const std::size_t values = m != nullptr ? m->numel() - m->count_zero() : tensor.numel();
    kept[e] = {m, values};
    size += 4 + name.size() + 4 + 4 * tensor.shape().rank() + 1 + scale_bytes + values * width +
            (m != nullptr ? bitmap_bytes(tensor.numel()) : 0);
  }
  out.reserve(size);

  put_u32(out, static_cast<std::uint32_t>(state.size()));
  for (std::size_t e = 0; e < state.size(); ++e) {
    const auto& [name, tensor] = state[e];
    const auto [m, values] = kept[e];
    put_u32(out, static_cast<std::uint32_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
    put_u32(out, static_cast<std::uint32_t>(tensor.shape().rank()));
    for (const std::size_t d : tensor.shape().dims()) put_u32(out, static_cast<std::uint32_t>(d));
    out.push_back(m != nullptr ? 1 : 0);

    const std::size_t n = tensor.numel();
    const std::size_t bitmap_at = out.size();
    if (m != nullptr) {
      out.resize(bitmap_at + bitmap_bytes(n));
      pack_bitmap(m->data(), n, out.data() + bitmap_at);
    }
    const float* t = tensor.data();
    float scale = 1.0f;
    if (codec == QuantCodec::kInt8) {
      // Per-tensor affine over the transmitted values.
      float peak = 0.0f;
      for_each_kept(m != nullptr ? out.data() + bitmap_at : nullptr, n,
                    [&](std::size_t i) { peak = std::max(peak, std::fabs(t[i])); });
      scale = peak > 0.0f ? peak / 127.0f : 1.0f;
    }
    const std::size_t values_at = out.size();
    out.resize(values_at + scale_bytes + values * width);
    const std::uint8_t* bits = m != nullptr ? out.data() + bitmap_at : nullptr;
    std::uint8_t* p = out.data() + values_at;
    switch (codec) {
      case QuantCodec::kNone:
        for_each_kept(bits, n, [&](std::size_t i) {
          store_u32(p, std::bit_cast<std::uint32_t>(t[i]));
          p += 4;
        });
        break;
      case QuantCodec::kFp16:
        for_each_kept(bits, n, [&](std::size_t i) {
          const std::uint16_t half = fp32_to_fp16(t[i]);
          p[0] = static_cast<std::uint8_t>(half & 0xFF);
          p[1] = static_cast<std::uint8_t>(half >> 8);
          p += 2;
        });
        break;
      case QuantCodec::kInt8:
        store_u32(p, std::bit_cast<std::uint32_t>(scale));
        p += 4;
        for_each_kept(bits, n, [&](std::size_t i) { *p++ = quantize_int8(t[i], scale); });
        break;
    }
  }
}

StateDict decode_entries(ByteReader& reader, QuantCodec codec, ModelMask* mask_out) {
  const std::size_t width = value_bytes(codec);
  const std::size_t scale_bytes = codec == QuantCodec::kInt8 ? 4 : 0;
  const std::uint32_t entries = reader.u32();

  StateDict state;
  for (std::uint32_t e = 0; e < entries; ++e) {
    std::string name = reader.str(reader.u32());
    std::size_t n = 0;
    std::vector<std::size_t> dims = read_dims(reader, name, n);
    // Bound the header's claims by the bytes left before allocating anything:
    // a covered tensor needs its bitmap, an uncovered one every value.
    const bool masked = reader.u8() != 0;
    const std::size_t left = reader.remaining();
    const bool fits = scale_bytes <= left && (masked ? bitmap_bytes(n) <= left - scale_bytes
                                                     : n <= (left - scale_bytes) / width);
    SUBFEDAVG_CHECK(fits, "tensor '" << name << "' claims " << n
                                     << " values, more than the remaining " << left
                                     << " bytes hold");
    const std::uint8_t* bits = masked ? reader.raw(bitmap_bytes(n)).data() : nullptr;
    const std::size_t values = masked ? count_kept(bits, n) : n;
    const float scale = codec == QuantCodec::kInt8 ? reader.f32() : 1.0f;
    const std::uint8_t* p = reader.raw(values * width).data();

    Tensor tensor{Shape(std::move(dims))};
    float* t = tensor.data();
    switch (codec) {
      case QuantCodec::kNone:
        for_each_kept(bits, n, [&](std::size_t i) {
          t[i] = std::bit_cast<float>(load_u32(p));
          p += 4;
        });
        break;
      case QuantCodec::kFp16:
        for_each_kept(bits, n, [&](std::size_t i) {
          t[i] = fp16_to_fp32(static_cast<std::uint16_t>(p[0] | (p[1] << 8)));
          p += 2;
        });
        break;
      case QuantCodec::kInt8:
        for_each_kept(bits, n, [&](std::size_t i) {
          t[i] = static_cast<float>(static_cast<std::int8_t>(*p++)) * scale;
        });
        break;
    }
    if (masked && mask_out != nullptr) {
      Tensor keep{tensor.shape()};
      float* k = keep.data();
      for_each_kept(bits, n, [&](std::size_t i) { k[i] = 1.0f; });
      mask_out->set(name, std::move(keep));
    }
    state.add(std::move(name), std::move(tensor));
  }
  return state;
}

std::vector<std::uint8_t> encode_update(const StateDict& state, const ModelMask* mask) {
  std::vector<std::uint8_t> out;
  put_u32(out, kMagic);
  encode_entries(out, state, mask, QuantCodec::kNone);
  return out;
}

StateDict decode_update(std::span<const std::uint8_t> bytes, ModelMask* mask_out) {
  ByteReader reader(bytes, "update");
  SUBFEDAVG_CHECK(reader.u32() == kMagic, "bad update magic");
  StateDict state = decode_entries(reader, QuantCodec::kNone, mask_out);
  SUBFEDAVG_CHECK(reader.done(), "trailing bytes in update");
  return state;
}

std::size_t encoded_header_bytes(const StateDict& state) {
  std::size_t bytes = 8;  // magic + entry count
  for (const auto& [name, tensor] : state) {
    bytes += 4 + name.size();                       // name length + name
    bytes += 4 + 4 * tensor.shape().rank();         // rank + dims
    bytes += 1;                                     // coverage flag
  }
  return bytes;
}

std::size_t payload_bytes(const StateDict& state, const ModelMask* mask) {
  std::size_t bytes = 0;
  for (const auto& [name, tensor] : state) {
    const Tensor* m = mask != nullptr ? mask->find(name) : nullptr;
    bytes += m == nullptr ? tensor.numel() * 4
                          : (m->numel() - m->count_zero()) * 4 + bitmap_bytes(tensor.numel());
  }
  return bytes;
}

}  // namespace subfed
