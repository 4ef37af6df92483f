// Channel compaction: index maps from a layer's compacted view onto its
// full-shape parameters.
//
// When structured pruning removes channels (pruning/structured.h), the layers
// of a conv block can run on the kept channels only: conv output rows, the
// next conv's input planes, BatchNorm statistics and the first FC layer's
// input columns all shrink. Parameters, gradients and the optimizer stay
// full-shape; a layer reaches them by gathering its kept block into a
// contiguous view and scattering gradients back. Every dropped term is an
// exact zero of the masked full-width computation and the kept terms keep
// their ascending-k order, so compacted and masked runs are bit-identical
// (tests/test_compaction.cpp pins it).
#pragma once

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/device.h"
#include "util/check.h"

namespace subfed {

/// Kept channel indices of one side of a layer, ascending. Empty means every
/// channel is kept: the layer then reads its parameters in place, with no
/// gather — the uncompacted model is exactly this all-kept case.
using KeptChannels = std::vector<std::size_t>;

/// Channels a side runs at: the kept count, or `full` when all are kept.
inline std::size_t kept_count(const KeptChannels& kept, std::size_t full) noexcept {
  return kept.empty() ? full : kept.size();
}

/// Full-layer index of compacted channel `c`.
inline std::size_t full_index(const KeptChannels& kept, std::size_t c) noexcept {
  return kept.empty() ? c : kept[c];
}

/// Checks that `kept` ascends strictly below `full`, then normalizes a list
/// naming every channel to the empty all-kept form.
inline KeptChannels checked_kept(KeptChannels kept, std::size_t full, const std::string& layer) {
  for (std::size_t c = 0; c < kept.size(); ++c) {
    SUBFEDAVG_CHECK(kept[c] < full && (c == 0 || kept[c - 1] < kept[c]),
                    layer << ": kept channels must ascend strictly below " << full);
  }
  if (kept.size() == full) kept.clear();
  return kept;
}

/// A row-major [rows × groups·width] parameter — a conv filter bank
/// (rows = output channels, groups = input channels of K·K taps) or an FC
/// weight (groups = input channels of `width` flattened pixels) — seen
/// through its kept rows and kept column groups.
struct CompactedMatrix {
  const KeptChannels& rows;
  std::size_t full_rows;
  const KeptChannels& groups;
  std::size_t full_groups;
  std::size_t width;

  /// True when nothing is dropped: callers use the full tensor directly.
  bool in_place() const noexcept { return rows.empty() && groups.empty(); }
  std::size_t view_rows() const noexcept { return kept_count(rows, full_rows); }
  std::size_t view_cols() const noexcept { return kept_count(groups, full_groups) * width; }
  std::size_t view_size() const noexcept { return view_rows() * view_cols(); }

  /// The entries a GEMM reads: `full` itself when in place, else the kept
  /// block gathered into `scratch` (leased from `dev` as needed).
  const float* gathered(const float* full, WorkspaceLease& scratch, const Device& dev) const {
    if (in_place()) return full;
    if (scratch.size() < view_size()) scratch = dev.lease(view_size());
    gather(full, scratch.data());
    return scratch.data();
  }

  /// Runs `fn(grad)` on the kept entries of `full_grad`: in place, or on a
  /// gathered copy scattered back afterwards, so an accumulating GEMM keeps
  /// its own accumulate semantics.
  template <typename Fn>
  void accumulate(float* full_grad, const Device& dev, const Fn& fn) const {
    if (in_place()) {
      fn(full_grad);
      return;
    }
    WorkspaceLease view = dev.lease(view_size());
    gather(full_grad, view.data());
    fn(view.data());
    scatter(view.data(), full_grad);
  }

 private:
  /// view[r, g·width + w] ← full[kept row r, kept group g, w].
  void gather(const float* full, float* view) const noexcept { copy<true>(full, view); }
  /// Inverse of gather: writes the view back over the kept entries of `full`.
  void scatter(const float* view, float* full) const noexcept { copy<false>(view, full); }

  template <bool kToView>
  void copy(const float* src, float* dst) const noexcept {
    const std::size_t ng = kept_count(groups, full_groups);
    for (std::size_t r = 0; r < view_rows(); ++r) {
      for (std::size_t g = 0; g < ng; ++g) {
        const std::size_t f =
            (full_index(rows, r) * full_groups + full_index(groups, g)) * width;
        const std::size_t v = (r * ng + g) * width;
        std::memcpy(dst + (kToView ? v : f), src + (kToView ? f : v), width * sizeof(float));
      }
    }
  }
};

}  // namespace subfed
