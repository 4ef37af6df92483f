// Wire format round-trips, payload accounting, ledger, closed-form model.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "comm/channel.h"
#include "comm/ledger.h"
#include "comm/quantize.h"
#include "comm/serialize.h"
#include "nn/model_zoo.h"
#include "pruning/unstructured.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {
namespace {

StateDict sample_state() {
  Rng rng(1);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  return m.state();
}

TEST(Serialize, DenseRoundTrip) {
  const StateDict state = sample_state();
  const std::vector<std::uint8_t> bytes = encode_update(state, nullptr);
  const StateDict decoded = decode_update(bytes);
  ASSERT_EQ(decoded.size(), state.size());
  for (std::size_t e = 0; e < state.size(); ++e) {
    EXPECT_EQ(decoded[e].first, state[e].first);
    EXPECT_EQ(decoded[e].second, state[e].second);
  }
}

TEST(Serialize, MaskedRoundTripZeroesPruned) {
  Rng rng(2);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
  mask = derive_magnitude_mask(m, mask, 0.5);
  mask.apply_to_weights(m);
  const StateDict state = m.state();

  const std::vector<std::uint8_t> bytes = encode_update(state, &mask);
  const StateDict decoded = decode_update(bytes);
  for (std::size_t e = 0; e < state.size(); ++e) {
    EXPECT_EQ(decoded[e].second, state[e].second) << state[e].first;
  }
}

TEST(Serialize, MaskedSmallerThanDense) {
  Rng rng(3);
  Model m = ModelSpec::lenet5(10).build_init(rng);
  ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
  mask = derive_magnitude_mask(m, mask, 0.7);
  const StateDict state = m.state();

  const std::size_t dense = encode_update(state, nullptr).size();
  const std::size_t sparse = encode_update(state, &mask).size();
  EXPECT_LT(sparse, dense);
  // 70% of covered weights drop to 1 bit from 32 bits; expect a big cut.
  EXPECT_LT(static_cast<double>(sparse), 0.55 * static_cast<double>(dense));
}

TEST(Serialize, PayloadBytesMatchesFormula) {
  Rng rng(4);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  const StateDict state = m.state();

  // Dense: 4 bytes per scalar.
  EXPECT_EQ(payload_bytes(state, nullptr), state.numel() * 4);

  ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
  mask = derive_magnitude_mask(m, mask, 0.5);
  std::size_t expected = 0;
  for (const auto& [name, tensor] : state) {
    if (const Tensor* mt = mask.find(name)) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < mt->numel(); ++i) kept += ((*mt)[i] != 0.0f);
      expected += kept * 4 + (tensor.numel() + 7) / 8;
    } else {
      expected += tensor.numel() * 4;
    }
  }
  EXPECT_EQ(payload_bytes(state, &mask), expected);
}

TEST(Serialize, EncodedSizeTracksPayloadPlusSmallHeader) {
  const StateDict state = sample_state();
  const std::size_t payload = payload_bytes(state, nullptr);
  const std::size_t encoded = encode_update(state, nullptr).size();
  EXPECT_GE(encoded, payload);
  EXPECT_LT(encoded - payload, 1024u);  // names + shapes only
}

TEST(Serialize, PayloadBytesEqualsEncodedSizeMinusHeaderEverywhere) {
  // The ledger charges payload_bytes while the channel materializes
  // encode_update — this exact identity is what keeps the two from
  // diverging, including on the degenerate shapes.
  Rng rng(11);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  ModelMask mask = ModelMask::ones_like(m, MaskScope::kAllPrunable);
  mask = derive_magnitude_mask(m, mask, 0.5);

  auto expect_identity = [](const StateDict& state, const ModelMask* mask_ptr) {
    EXPECT_EQ(encode_update(state, mask_ptr).size(),
              payload_bytes(state, mask_ptr) + encoded_header_bytes(state));
  };

  const StateDict state = m.state();
  expect_identity(state, nullptr);
  expect_identity(state, &mask);

  // Empty mask object: every entry is uncovered (dense).
  const ModelMask empty_mask;
  expect_identity(state, &empty_mask);

  // Empty state: header only.
  const StateDict empty_state;
  expect_identity(empty_state, nullptr);
  EXPECT_EQ(payload_bytes(empty_state, nullptr), 0u);

  // Zero-dim tensors: a [0]-shaped entry and a mask covering it.
  StateDict degenerate;
  degenerate.add("empty", Tensor(Shape{0}));
  degenerate.add("tiny", Tensor(Shape{3}, 1.5f));
  ModelMask degenerate_mask;
  degenerate_mask.set("empty", Tensor(Shape{0}));
  expect_identity(degenerate, nullptr);
  expect_identity(degenerate, &degenerate_mask);

  // Fully-pruned entry: bitmap transmitted, zero values.
  StateDict pruned_state;
  pruned_state.add("w", Tensor(Shape{9}, 2.0f));
  ModelMask pruned_mask;
  pruned_mask.set("w", Tensor(Shape{9}));  // all zeros
  expect_identity(pruned_state, &pruned_mask);
  EXPECT_EQ(payload_bytes(pruned_state, &pruned_mask), 2u);  // ⌈9/8⌉ bitmap only

  // And the degenerate payloads still round-trip through decode.
  const StateDict decoded = decode_update(encode_update(pruned_state, &pruned_mask));
  ASSERT_EQ(decoded.size(), 1u);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(decoded[0].second[i], 0.0f);
}

TEST(Serialize, RejectsCorruptBuffers) {
  const StateDict state = sample_state();
  std::vector<std::uint8_t> bytes = encode_update(state, nullptr);
  bytes[0] ^= 0xFF;  // break magic
  EXPECT_THROW(decode_update(bytes), CheckError);

  std::vector<std::uint8_t> truncated = encode_update(state, nullptr);
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(decode_update(truncated), CheckError);

  std::vector<std::uint8_t> padded = encode_update(state, nullptr);
  padded.push_back(0);
  EXPECT_THROW(decode_update(padded), CheckError);
}

/// Little-endian u32 words, the header fields of an SFAV update payload.
std::vector<std::uint8_t> le_words(std::initializer_list<std::uint32_t> words) {
  std::vector<std::uint8_t> out;
  for (const std::uint32_t w : words) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
  }
  return out;
}

TEST(Serialize, RejectsHeadersClaimingMoreThanThePayloadHolds) {
  constexpr std::uint32_t kMagic = 0x53464156;  // "SFAV"
  // Magic, 1 entry, empty name, rank 4, dims 0x4000 ×4: a 2^56-element tensor
  // claimed by a 32-byte payload. It must fail as a CheckError, not bad_alloc.
  const std::vector<std::uint8_t> huge_dims =
      le_words({kMagic, 1, 0, 4, 0x4000, 0x4000, 0x4000, 0x4000});
  ASSERT_EQ(huge_dims.size(), 32u);
  EXPECT_THROW(decode_update(huge_dims), CheckError);
  for (const std::uint8_t masked : {0, 1}) {
    std::vector<std::uint8_t> flagged = huge_dims;
    flagged.push_back(masked);
    EXPECT_THROW(decode_update(flagged), CheckError) << "masked " << int(masked);
  }

  // A huge rank is refused before its dims vector is allocated.
  EXPECT_THROW(decode_update(le_words({kMagic, 1, 0, 0xFFFFFFFFu})), CheckError);
  // Eight maximal dims overflow the element count.
  std::vector<std::uint8_t> overflow = le_words({kMagic, 1, 0, 8});
  for (int d = 0; d < 8; ++d) {
    const std::vector<std::uint8_t> dim = le_words({0xFFFFFFFFu});
    overflow.insert(overflow.end(), dim.begin(), dim.end());
  }
  overflow.push_back(0);
  EXPECT_THROW(decode_update(overflow), CheckError);
  // 2^63 dense values: their byte count wraps size_t to 0.
  std::vector<std::uint8_t> wraps = le_words({kMagic, 1, 0, 3, 0x80000000u, 0x80000000u, 2});
  wraps.push_back(0);
  EXPECT_THROW(decode_update(wraps), CheckError);

  // One value short of a dense [2×2] tensor.
  std::vector<std::uint8_t> short_dense = le_words({kMagic, 1, 0, 2, 2, 2});
  short_dense.push_back(0);
  const std::vector<std::uint8_t> values = le_words({0, 0, 0});
  short_dense.insert(short_dense.end(), values.begin(), values.end());
  EXPECT_THROW(decode_update(short_dense), CheckError);
}

// ---------------------------------------------------------------------------
// Golden wire bytes: encode_payload's bytes and decode_payload's floats for a
// fixed state, hashed, for every codec × coverage. The expected hashes were
// recorded from the per-entry codec the bitmap-walk codec replaced, so any
// byte or bit it changes fails here.

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ull) {
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t fnv1a_floats(const Tensor& tensor, std::uint64_t hash) {
  for (std::size_t i = 0; i < tensor.numel(); ++i) {
    const auto bits = std::bit_cast<std::array<std::uint8_t, 4>>(tensor.data()[i]);
    hash = fnv1a(bits, hash);
  }
  return hash;
}

/// Names, values and (when given) recovered masks, hashed bit for bit.
std::uint64_t hash_decoded(const StateDict& state, const ModelMask& mask) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const auto& [name, tensor] : state) {
    hash = fnv1a({reinterpret_cast<const std::uint8_t*>(name.data()), name.size()}, hash);
    hash = fnv1a_floats(tensor, hash);
  }
  for (const auto& [name, tensor] : mask) {
    hash = fnv1a({reinterpret_cast<const std::uint8_t*>(name.data()), name.size()}, hash);
    hash = fnv1a_floats(tensor, hash);
  }
  return hash;
}

/// A fixed-seed LeNet-5 state with a fixed random mask keeping 10% of every
/// prunable weight, plus edge tensors: sizes off multiples of 8 and 64, fully
/// pruned and fully kept entries, ±0, exact ±k.5 ties in units of the int8
/// scale (1.0 here), ±127·scale, subnormals, and NaN / ±Inf both kept and
/// pruned, covered and uncovered.
struct GoldenCase {
  StateDict state;
  ModelMask mask;
};

GoldenCase golden_case() {
  Rng rng(17);
  Model model = ModelSpec::lenet5(10).build_init(rng);
  GoldenCase golden{model.state(), ModelMask::ones_like(model, MaskScope::kAllPrunable)};
  Rng pick(18);
  for (const auto& [name, ones] : ModelMask::ones_like(model, MaskScope::kAllPrunable)) {
    Tensor keep(ones.shape());
    for (std::size_t i = 0; i < keep.numel(); ++i) keep[i] = pick.bernoulli(0.1) ? 1.0f : 0.0f;
    golden.mask.set(name, std::move(keep));
  }

  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float sub = std::numeric_limits<float>::denorm_min();
  auto add = [&](const std::string& name, std::vector<float> values,
                 const std::vector<float>* keep) {
    const std::size_t n = values.size();
    golden.state.add(name, Tensor(Shape{n}, std::move(values)));
    if (keep != nullptr) golden.mask.set(name, Tensor(Shape{n}, *keep));
  };
  auto pattern = [](std::size_t n, auto kept) {
    std::vector<float> keep(n);
    for (std::size_t i = 0; i < n; ++i) keep[i] = kept(i) ? 1.0f : 0.0f;
    return keep;
  };

  // 77 values (not a multiple of 8 or 64), peak exactly 127 so the int8
  // scale is 1 and the ±k.5 entries are exact ties; every third one pruned
  // (−0.0 pruned, +0.0 kept, and so on through the specials).
  std::vector<float> ties = {127.0f, -127.0f, 0.5f,    -0.5f,   1.5f,        -1.5f,
                             2.5f,   -2.5f,   126.5f,  -126.5f, 0.0f,        -0.0f,
                             sub,    -sub,    1e-40f,  -1e-40f, 6e-8f,       -3e-5f,
                             1.0f + 0x1p-11f, 1.0f + 0x1p-10f + 0x1p-11f, 65504.0f / 1024.0f};
  for (std::size_t i = ties.size(); i < 77; ++i) {
    ties.push_back(static_cast<float>(static_cast<int>(i) - 38) * 0.37f);
  }
  const std::vector<float> ties_keep = pattern(77, [](std::size_t i) { return i % 3 != 2; });
  add("edge.ties", ties, &ties_keep);
  add("edge.ties_dense", ties, nullptr);

  // Non-finite values kept (the int8 scale goes infinite) and pruned.
  const std::vector<float> nonfinite = {nan, 1.25f, inf, -2.0f, -inf, -0.0f, 3.5f,
                                        -nan, 0.75f, 7.0f, -1.0f, 2.0f, 0.1f};
  const std::vector<float> all_kept13(13, 1.0f);
  add("edge.nonfinite_kept", nonfinite, &all_kept13);
  add("edge.nonfinite_dense", nonfinite, nullptr);
  std::vector<float> hidden(70);
  std::vector<float> hidden_keep(70);
  for (std::size_t i = 0; i < 70; ++i) {
    const bool pruned = i % 4 == 1;
    hidden_keep[i] = pruned ? 0.0f : 1.0f;
    hidden[i] = pruned ? (i % 3 == 0 ? nan : i % 3 == 1 ? inf : -inf)
                       : static_cast<float>(i) * -0.11f;
  }
  add("edge.nonfinite_pruned", hidden, &hidden_keep);

  // Fully pruned (bitmap only) and fully kept (past one 64-bit word).
  const std::vector<float> none9(9, 0.0f);
  add("edge.all_pruned", {1.0f, -2.0f, nan, 4.0f, 5.0f, inf, 7.0f, 8.0f, 9.0f}, &none9);
  std::vector<float> full(130);
  for (std::size_t i = 0; i < full.size(); ++i) full[i] = std::sin(static_cast<float>(i));
  const std::vector<float> all130(130, 1.0f);
  add("edge.all_kept", full, &all130);
  return golden;
}

TEST(PayloadCodec, GoldenBytesAndFloatsPerCodec) {
  const GoldenCase golden = golden_case();
  struct Expected {
    QuantCodec codec;
    bool masked;
    std::uint64_t bytes_hash;
    std::uint64_t floats_hash;
  };
  const Expected expected[] = {
      {QuantCodec::kNone, false, 0x8305b8459e3fb30eull, 0xd03d318871372f14ull},
      {QuantCodec::kNone, true, 0x50fa02815abf7899ull, 0x6ae1601443436ec3ull},
      {QuantCodec::kFp16, false, 0xdac6763fd41b3a7cull, 0x6e0bdf2e0d9ff0aaull},
      {QuantCodec::kFp16, true, 0x42001b928cfda1a6ull, 0x1878d88380cea620ull},
      {QuantCodec::kInt8, false, 0x18cd6ee08a5dd8b4ull, 0xa24eb414595cc4e4ull},
      {QuantCodec::kInt8, true, 0x271db46d8f694b06ull, 0x95c9b76c20689939ull},
  };
  for (const Expected& want : expected) {
    const ModelMask* mask = want.masked ? &golden.mask : nullptr;
    const std::vector<std::uint8_t> bytes = encode_payload(golden.state, mask, want.codec);
    ModelMask recovered;
    const StateDict decoded = decode_payload(bytes, &recovered);
    EXPECT_EQ(fnv1a(bytes), want.bytes_hash)
        << quant_codec_name(want.codec) << (want.masked ? " masked" : " dense");
    EXPECT_EQ(hash_decoded(decoded, recovered), want.floats_hash)
        << quant_codec_name(want.codec) << (want.masked ? " masked" : " dense");
  }
}

TEST(PayloadCodec, EncodersSizeTheirOutputOnce) {
  // Exact sizing: no growth slack is left in any encoded message.
  const GoldenCase golden = golden_case();
  for (const QuantCodec codec : {QuantCodec::kNone, QuantCodec::kFp16, QuantCodec::kInt8}) {
    for (const ModelMask* mask : {static_cast<const ModelMask*>(nullptr), &golden.mask}) {
      const std::vector<std::uint8_t> bytes = encode_payload(golden.state, mask, codec);
      EXPECT_EQ(bytes.capacity(), bytes.size()) << quant_codec_name(codec);
      Envelope envelope;
      envelope.sections = {bytes, bytes};
      const std::vector<std::uint8_t> framed = encode_envelope(envelope);
      EXPECT_EQ(framed.capacity(), framed.size());
      EXPECT_EQ(decode_envelope(framed).sections, envelope.sections);
    }
  }
}

TEST(PayloadCodec, DecoderIgnoresBitmapPadding) {
  // A 9-entry tensor's bitmap has 7 padding bits in its second byte; whatever
  // a sender leaves there must neither add values nor mask entries.
  StateDict state;
  state.add("w", Tensor(Shape{9}, {1, 2, 3, 4, 5, 6, 7, 8, 9}));
  ModelMask mask;
  mask.set("w", Tensor(Shape{9}, {1, 0, 1, 0, 1, 0, 1, 0, 1}));
  for (const QuantCodec codec : {QuantCodec::kNone, QuantCodec::kFp16, QuantCodec::kInt8}) {
    std::vector<std::uint8_t> bytes = encode_payload(state, &mask, codec);
    ModelMask clean_mask;
    const StateDict clean = decode_payload(bytes, &clean_mask);
    // The bitmap follows the header: magic (+ quant tag), count, name, rank,
    // dim, coverage flag.
    const std::size_t bitmap_at = (codec == QuantCodec::kNone ? 8 : 9) + 4 + 1 + 4 + 4 + 1;
    ASSERT_EQ(bytes[bitmap_at + 1], 0x01) << quant_codec_name(codec);
    bytes[bitmap_at + 1] = 0xFF;
    ModelMask padded_mask;
    const StateDict padded = decode_payload(bytes, &padded_mask);
    EXPECT_EQ(padded[0].second, clean[0].second) << quant_codec_name(codec);
    EXPECT_EQ(*padded_mask.find("w"), *clean_mask.find("w")) << quant_codec_name(codec);
  }
}

TEST(PayloadCodec, ReferencePassesMatchTheScalarSumBitForBit) {
  // subtract_reference / apply_reference against the scalar t + s·r: a kept
  // entry gets exactly its bits, a pruned one keeps its own (−0.0 and NaN
  // payloads included). 23 covered entries leave a tail past the 4-wide
  // select; "b" is uncovered.
  const float qnan = std::bit_cast<float>(0x7FC01234u);
  const float rnan = std::bit_cast<float>(0xFFC04321u);
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> t = {-0.0f, 0.0f,  -0.0f, qnan, 1.5f, -2.25f, 3.0f, qnan,
                                -0.0f, 1e-40f, 5.0f, 6.0f, inf,  -inf,  0.0f, -0.0f,
                                2.0f,  3.0f,  qnan,  5.0f, -0.0f, 7.0f,  8.0f};
  const std::vector<float> r = {0.0f, -0.0f, -0.0f, 1.0f, rnan,  2.0f,  -0.0f, 1.0f,
                                0.0f, 1e-40f, rnan, 6.0f, 1.0f,  -inf,  -0.0f, 0.0f,
                                2.0f, 0.5f,  1.0f,  rnan, 0.0f,  -7.0f, 1.0f};
  const std::vector<float> keep = {1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0,
                                   1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0};
  StateDict state;
  state.add("w", Tensor(Shape{23}, t));
  state.add("b", Tensor(Shape{5}, {-0.0f, qnan, 1.0f, 0.0f, 2.0f}));
  StateDict reference;
  reference.add("w", Tensor(Shape{23}, r));
  reference.add("b", Tensor(Shape{5}, {0.0f, 1.0f, rnan, -0.0f, 2.0f}));
  ModelMask mask;
  mask.set("w", Tensor(Shape{23}, keep));

  for (const float sign : {-1.0f, 1.0f}) {
    StateDict got = state;
    if (sign < 0.0f) {
      subtract_reference(got, &mask, reference);
    } else {
      apply_reference(got, &mask, reference);
    }
    for (std::size_t e = 0; e < state.size(); ++e) {
      const Tensor& before = state[e].second;
      const Tensor& ref = reference[e].second;
      const Tensor* m = mask.find(state[e].first);
      for (std::size_t i = 0; i < before.numel(); ++i) {
        const bool kept = m == nullptr || (*m)[i] != 0.0f;
        const float want = kept ? before[i] + sign * ref[i] : before[i];
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got[e].second[i]),
                  std::bit_cast<std::uint32_t>(want))
            << state[e].first << "[" << i << "] sign " << sign;
      }
    }
  }
}

/// A quantized header: magic, one tag byte, then u32 words.
std::vector<std::uint8_t> tagged_header(std::uint32_t magic, std::uint8_t tag,
                                        std::initializer_list<std::uint32_t> words) {
  std::vector<std::uint8_t> out = le_words({magic});
  out.push_back(tag);
  const std::vector<std::uint8_t> rest = le_words(words);
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

TEST(PayloadCodec, RejectsHeadersClaimingMoreThanThePayloadHolds) {
  // The SFQP twin of Serialize.RejectsHeadersClaimingMoreThanThePayloadHolds,
  // fp16 and int8, covered and uncovered: each claim fails as a CheckError
  // before anything is allocated for it.
  constexpr std::uint32_t kQuantMagic = 0x53465150;  // "SFQP"
  for (const QuantCodec codec : {QuantCodec::kFp16, QuantCodec::kInt8}) {
    const auto tag = static_cast<std::uint8_t>(codec);
    for (const std::uint8_t masked : {0, 1}) {
      std::vector<std::uint8_t> huge =
          tagged_header(kQuantMagic, tag, {1, 0, 4, 0x4000, 0x4000, 0x4000, 0x4000});
      huge.push_back(masked);
      EXPECT_THROW(decode_payload(huge), CheckError) << int{tag} << " masked " << int{masked};

      std::vector<std::uint8_t> overflow = tagged_header(kQuantMagic, tag, {1, 0, 8});
      for (int d = 0; d < 8; ++d) {
        const std::vector<std::uint8_t> dim = le_words({0xFFFFFFFFu});
        overflow.insert(overflow.end(), dim.begin(), dim.end());
      }
      overflow.push_back(masked);
      EXPECT_THROW(decode_payload(overflow), CheckError) << int{tag} << " masked " << int{masked};

      // 2^63 values: as fp16 their byte count wraps size_t to 0.
      std::vector<std::uint8_t> wraps =
          tagged_header(kQuantMagic, tag, {1, 0, 3, 0x80000000u, 0x80000000u, 2});
      wraps.push_back(masked);
      EXPECT_THROW(decode_payload(wraps), CheckError) << int{tag} << " masked " << int{masked};

      // A [2×2] tensor one value byte short (all four kept when covered).
      std::vector<std::uint8_t> short_values = tagged_header(kQuantMagic, tag, {1, 0, 2, 2, 2});
      short_values.push_back(masked);
      if (masked != 0) short_values.push_back(0x0F);
      if (codec == QuantCodec::kInt8) {
        const std::vector<std::uint8_t> scale = le_words({0x3F800000u});
        short_values.insert(short_values.end(), scale.begin(), scale.end());
      }
      short_values.resize(short_values.size() + 4 * (codec == QuantCodec::kFp16 ? 2 : 1) - 1);
      EXPECT_THROW(decode_payload(short_values), CheckError)
          << int{tag} << " masked " << int{masked};
      short_values.push_back(0);  // the full value block decodes
      EXPECT_EQ(decode_payload(short_values)[0].second.numel(), 4u);
    }
    EXPECT_THROW(decode_payload(tagged_header(kQuantMagic, tag, {1, 0, 0xFFFFFFFFu})),
                 CheckError);
  }
}

TEST(Quantize, RejectsHeadersClaimingMoreThanThePayloadHolds) {
  constexpr std::uint32_t kMagic = 0x53465154;  // "SFQT"
  for (const std::uint8_t kind : {0, 1}) {  // fp16, int8
    EXPECT_THROW(dequantize_state(tagged_header(kMagic, kind, {1, 0, 0xFFFFFFFFu})), CheckError);
    EXPECT_THROW(dequantize_state(
                     tagged_header(kMagic, kind, {1, 0, 4, 0x4000, 0x4000, 0x4000, 0x4000})),
                 CheckError);
    std::vector<std::uint8_t> overflow = tagged_header(kMagic, kind, {1, 0, 8});
    for (int d = 0; d < 8; ++d) {
      const std::vector<std::uint8_t> dim = le_words({0xFFFFFFFFu});
      overflow.insert(overflow.end(), dim.begin(), dim.end());
    }
    EXPECT_THROW(dequantize_state(overflow), CheckError);
    // A [2×2] tensor one byte short, then whole.
    std::vector<std::uint8_t> short_values = tagged_header(kMagic, kind, {1, 0, 2, 2, 2});
    short_values.resize(short_values.size() + (kind == 0 ? 8 : 4 + 4) - 1);
    EXPECT_THROW(dequantize_state(short_values), CheckError);
    short_values.push_back(0);
    EXPECT_EQ(dequantize_state(short_values)[0].second.numel(), 4u);
  }
}

TEST(Envelope, RejectsASectionCountThePayloadCannotHold) {
  Envelope envelope;
  envelope.sections = {{1, 2, 3}};
  std::vector<std::uint8_t> bytes = encode_envelope(envelope);
  ASSERT_EQ(bytes.size(), 28u + 4 + 3);
  // Section count (bytes 24..27) claims 2^32 − 1 sections in 7 bytes.
  for (std::size_t i = 24; i < 28; ++i) bytes[i] = 0xFF;
  EXPECT_THROW(decode_envelope(bytes), CheckError);
}

TEST(Ledger, AccumulatesPerRoundAndTotals) {
  CommLedger ledger;
  ledger.record(0, 100, 200);
  ledger.record(0, 50, 25);
  ledger.record(2, 1, 1);
  EXPECT_EQ(ledger.rounds(), 3u);
  EXPECT_EQ(ledger.round_up(0), 150u);
  EXPECT_EQ(ledger.round_down(0), 225u);
  EXPECT_EQ(ledger.round_up(1), 0u);
  EXPECT_EQ(ledger.total_up(), 151u);
  EXPECT_EQ(ledger.total_down(), 226u);
  EXPECT_EQ(ledger.total(), 377u);
  EXPECT_THROW(ledger.round_up(5), CheckError);
}

TEST(ClosedForm, MatchesPaperFormula) {
  // FedAvg MNIST-style: R rounds × 10 clients × |W|·32bit × 2.
  const std::uint64_t cost = closed_form_cost_bytes(300, 10, 21900);
  EXPECT_EQ(cost, 300ull * 10 * 21900 * 4 * 2);
  // With masks, each direction adds ⌈bits/8⌉.
  const std::uint64_t masked = closed_form_cost_bytes(1, 1, 100, 64);
  EXPECT_EQ(masked, (100ull * 4 + 8) * 2);
}

TEST(LinkModel, AsymmetricTransferTime) {
  LinkModel link;  // 1 MB/s up, 8 MB/s down
  const double t = link.transfer_seconds(2 * 1024 * 1024, 8 * 1024 * 1024);
  EXPECT_NEAR(t, 2.0 + 1.0, 1e-9);
  // Uplink dominates for symmetric payloads — the paper's bottleneck claim.
  const double sym = link.transfer_seconds(1024 * 1024, 1024 * 1024);
  EXPECT_GT(1.0, 0.125);
  EXPECT_NEAR(sym, 1.0 + 0.125, 1e-9);
}

}  // namespace
}  // namespace subfed
