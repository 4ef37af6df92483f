// Wire format for model updates.
//
// Clients upload (masked weights, mask); the server downloads aggregated
// state. The encoding is what the paper's cost model charges for:
// 32-bit floats for kept values, 1 bit per mask entry (§4.2.2), plus a
// small self-describing header (entry names/shapes) that the closed-form
// model ignores. encode/decode round-trip exactly, so the byte ledger
// measures real, reconstructible traffic — not an estimate.
//
// The work scales with what is kept, like the bytes: a covered tensor costs
// one pass that packs (or, decoding, counts) its bitmap, plus work per kept
// value found by walking the bitmap's set bits; pruned values are never
// visited. The output is sized exactly once per message. A decoder bounds each
// tensor header's claims (rank, element count, bitmap and value bytes)
// against the bytes left once per section, before it allocates anything.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/parameter.h"
#include "pruning/mask.h"
#include "util/byte_reader.h"

namespace subfed {

/// Precision of the values on the wire: f32 (the SFAV update format), or the
/// fp16 / int8 of comm/channel.h's quantized payload.
enum class QuantCodec : std::uint8_t { kNone = 0, kFp16 = 1, kInt8 = 2 };

/// Serializes `state`. For entries covered by `mask` (nullable), only kept
/// values are written, preceded by a packed bitmap; uncovered entries are
/// written dense.
std::vector<std::uint8_t> encode_update(const StateDict& state, const ModelMask* mask);

/// Inverse of encode_update. Masked-out positions decode as exact zeros.
/// When `mask_out` is non-null, the per-entry keep bitmaps are reconstructed
/// into it (covered entries only) — the wire format carries the mask, so a
/// receiver that never saw the sender's ModelMask recovers it exactly.
StateDict decode_update(std::span<const std::uint8_t> bytes, ModelMask* mask_out = nullptr);

/// The entry table every update format shares, appended to `out` (which is
/// grown once, to its exact final size): u32 entry count, then per entry its
/// name, rank and extents, a coverage flag, the LSB-first keep bitmap when
/// `mask` covers it, and the kept values (all values when uncovered) at
/// `codec` precision, int8 ones after their f32 scale.
void encode_entries(std::vector<std::uint8_t>& out, const StateDict& state,
                    const ModelMask* mask, QuantCodec codec);

/// Inverse of encode_entries, reading from `reader`'s position.
StateDict decode_entries(ByteReader& reader, QuantCodec codec, ModelMask* mask_out);

/// Payload bytes the paper's cost model would charge for this update:
/// kept·4 + ⌈covered/8⌉ (mask bitmap) + uncovered·4. No header overhead.
std::size_t payload_bytes(const StateDict& state, const ModelMask* mask);

/// Self-describing header bytes encode_update spends on top of payload_bytes:
/// magic + entry count, and per entry its name, shape, and coverage flag.
/// Invariant (tested): encode_update(s, m).size() ==
///     payload_bytes(s, m) + encoded_header_bytes(s).
std::size_t encoded_header_bytes(const StateDict& state);

}  // namespace subfed
