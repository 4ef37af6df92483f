#include "comm/quantize.h"

#include <cmath>
#include <cstring>

#include "util/byte_reader.h"
#include "util/check.h"

namespace subfed {

std::uint16_t fp32_to_fp16(float value) noexcept {
  std::uint32_t bits;
  std::memcpy(&bits, &value, 4);
  const std::uint32_t sign = (bits >> 16) & 0x8000u;
  const std::int32_t exponent = static_cast<std::int32_t>((bits >> 23) & 0xFF) - 127 + 15;
  std::uint32_t mantissa = bits & 0x7FFFFFu;

  if (exponent >= 31) return static_cast<std::uint16_t>(sign | 0x7C00u);  // inf/overflow
  if (exponent <= 0) {
    // Subnormal or underflow to zero.
    if (exponent < -10) return static_cast<std::uint16_t>(sign);
    mantissa |= 0x800000u;
    const std::uint32_t shift = static_cast<std::uint32_t>(14 - exponent);
    const std::uint32_t rounded = (mantissa + (1u << (shift - 1))) >> shift;
    return static_cast<std::uint16_t>(sign | rounded);
  }
  // Round mantissa to 10 bits (nearest, ties away — adequate here).
  const std::uint32_t rounded = (mantissa + 0x1000u) >> 13;
  if (rounded == 0x400u) {
    // Mantissa overflow bumps the exponent.
    return static_cast<std::uint16_t>(sign |
                                      ((static_cast<std::uint32_t>(exponent) + 1) << 10));
  }
  return static_cast<std::uint16_t>(sign | (static_cast<std::uint32_t>(exponent) << 10) |
                                    rounded);
}

float fp16_to_fp32(std::uint16_t half) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(half & 0x8000u) << 16;
  const std::uint32_t exponent = (half >> 10) & 0x1F;
  const std::uint32_t mantissa = half & 0x3FFu;

  std::uint32_t bits;
  if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;  // ±0
    } else {
      // Subnormal: normalize.
      int e = -1;
      std::uint32_t m = mantissa;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400u) == 0);
      bits = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) | ((m & 0x3FFu) << 13);
    }
  } else if (exponent == 31) {
    bits = sign | 0x7F800000u | (mantissa << 13);  // inf/nan
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  float value;
  std::memcpy(&value, &bits, 4);
  return value;
}

namespace {

constexpr std::uint32_t kMagic = 0x53465154;  // "SFQT"

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f32(std::vector<std::uint8_t>& out, float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, 4);
  put_u32(out, bits);
}

}  // namespace

std::vector<std::uint8_t> quantize_state(const StateDict& state, QuantKind kind) {
  std::vector<std::uint8_t> out;
  put_u32(out, kMagic);
  out.push_back(kind == QuantKind::kFp16 ? 0 : 1);
  put_u32(out, static_cast<std::uint32_t>(state.size()));

  for (const auto& [name, tensor] : state) {
    put_u32(out, static_cast<std::uint32_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
    put_u32(out, static_cast<std::uint32_t>(tensor.shape().rank()));
    for (const std::size_t d : tensor.shape().dims()) {
      put_u32(out, static_cast<std::uint32_t>(d));
    }

    if (kind == QuantKind::kFp16) {
      for (std::size_t i = 0; i < tensor.numel(); ++i) {
        const std::uint16_t h = fp32_to_fp16(tensor[i]);
        out.push_back(static_cast<std::uint8_t>(h & 0xFF));
        out.push_back(static_cast<std::uint8_t>(h >> 8));
      }
    } else {
      const float scale = tensor.abs_max() / 127.0f;
      put_f32(out, scale);
      for (std::size_t i = 0; i < tensor.numel(); ++i) {
        const float q = scale > 0.0f ? std::round(tensor[i] / scale) : 0.0f;
        out.push_back(static_cast<std::uint8_t>(static_cast<std::int8_t>(
            std::max(-127.0f, std::min(127.0f, q)))));
      }
    }
  }
  return out;
}

StateDict dequantize_state(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes, "quantized update");
  SUBFEDAVG_CHECK(reader.u32() == kMagic, "bad quantized-update magic");
  const QuantKind kind = reader.u8() == 0 ? QuantKind::kFp16 : QuantKind::kInt8;
  const std::uint32_t entries = reader.u32();

  StateDict state;
  for (std::uint32_t e = 0; e < entries; ++e) {
    std::string name = reader.str(reader.u32());
    std::size_t numel = 0;
    std::vector<std::size_t> dims = read_dims(reader, name, numel);
    // Every value is on the wire (2 bytes, or 1 after a 4-byte scale): bound
    // the claim by the bytes left before allocating.
    const std::size_t left = reader.remaining();
    const bool fits =
        kind == QuantKind::kFp16 ? numel <= left / 2 : left >= 4 && numel <= left - 4;
    SUBFEDAVG_CHECK(fits, "quantized tensor '" << name << "' claims " << numel
                                               << " values, more than the remaining " << left
                                               << " bytes hold");
    Tensor tensor{Shape(std::move(dims))};

    if (kind == QuantKind::kFp16) {
      for (std::size_t i = 0; i < tensor.numel(); ++i) {
        tensor[i] = fp16_to_fp32(reader.u16());
      }
    } else {
      const float scale = reader.f32();
      for (std::size_t i = 0; i < tensor.numel(); ++i) {
        tensor[i] = scale * static_cast<float>(static_cast<std::int8_t>(reader.u8()));
      }
    }
    state.add(std::move(name), std::move(tensor));
  }
  SUBFEDAVG_CHECK(reader.done(), "trailing bytes in quantized update");
  return state;
}

std::size_t quantized_payload_bytes(const StateDict& state, QuantKind kind) {
  std::size_t bytes = 0;
  for (const auto& [name, tensor] : state) {
    if (kind == QuantKind::kFp16) {
      bytes += tensor.numel() * 2;
    } else {
      bytes += tensor.numel() + 4;  // int8 values + per-tensor scale
    }
  }
  return bytes;
}

}  // namespace subfed
