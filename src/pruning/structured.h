// Structured (channel-level) pruning via BatchNorm scaling factors
// (network slimming, Liu et al. 2017 — the method the paper adopts, §3.5).
//
// Channel importance = |γ| of the BN layer that follows each conv. Pruning
// removes whole output channels: the conv filter, its BN affine terms, and
// every downstream consumer of that channel (next conv's input planes, or
// the first FC layer's input columns when the conv feeds the flatten).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/model.h"
#include "pruning/mask.h"

namespace subfed {

/// Per-conv-block channel keep flags. Blocks follow Model::topology() order.
class ChannelMask {
 public:
  ChannelMask() = default;

  /// All-channels-kept mask matching `model`'s conv blocks.
  static ChannelMask ones_like(const Model& model);

  std::size_t num_blocks() const noexcept { return keep_.size(); }
  const std::vector<std::uint8_t>& block(std::size_t b) const;
  std::vector<std::uint8_t>& block(std::size_t b);
  /// Every block's keep flags, in the form Model::set_kept_channels takes.
  const std::vector<std::vector<std::uint8_t>>& blocks() const noexcept { return keep_; }

  /// Throws CheckError unless every flag is 0 or 1 and every block keeps at
  /// least one channel — the masks derive_channel_mask produces. Restores of
  /// outside bytes (checkpoints, mirrors) call this before installing a mask.
  void check_valid() const;

  std::size_t total_channels() const noexcept;
  std::size_t kept_channels() const noexcept;
  double pruned_fraction() const noexcept;

  /// Fraction of differing channel bits (the structured Δ of Algorithm 2).
  static double hamming_distance(const ChannelMask& a, const ChannelMask& b);

  /// Expands the channel mask into per-parameter {0,1} tensors covering the
  /// conv weights/biases, BN affine terms... — everything a pruned channel
  /// silences, including the next layer's view of that channel. The result
  /// composes with unstructured masks via ModelMask::intersected.
  ModelMask to_model_mask(Model& model) const;

 private:
  std::vector<std::vector<std::uint8_t>> keep_;
};

/// Derives the next channel mask by pruning the smallest-|γ| kept channels
/// (global percentile across all BN layers) until `target_fraction` of ALL
/// channels are pruned. Monotone w.r.t. `current`; always keeps ≥1 channel
/// per block.
ChannelMask derive_channel_mask(Model& model, const ChannelMask& current,
                                double target_fraction);

/// Zeroes the masked-out weights in place (conv filters, BN γ/β, downstream
/// planes/columns). Equivalent to to_model_mask().apply_to_weights(model).
void apply_channel_mask(Model& model, const ChannelMask& mask);

}  // namespace subfed
