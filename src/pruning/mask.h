// Binary masks over model parameters.
//
// A ModelMask stores one {0,1} tensor per *covered* parameter (by name).
// Parameters outside the coverage are implicitly fully kept. Masks are the
// unit of exchange in Sub-FedAvg: clients upload (masked weights, mask) and
// the server averages each entry over the clients that retained it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/model.h"
#include "tensor/tensor.h"

namespace subfed {

/// Which parameters a mask (and a pruner) covers.
enum class MaskScope {
  kAllPrunable,  ///< every prunable weight tensor (Algorithm 1)
  kFcOnly,       ///< only fully-connected weights (Algorithm 2's unstructured half)
};

class ModelMask {
 public:
  ModelMask() = default;

  /// All-ones mask over the scope's prunable parameters of `model`.
  static ModelMask ones_like(Model& model, MaskScope scope);

  std::size_t num_entries() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  const Tensor* find(const std::string& name) const;
  Tensor* find(const std::string& name);

  /// Adds/replaces the mask for one parameter (values must be 0 or 1).
  void set(const std::string& name, Tensor mask);

  /// Throws CheckError unless every entry is exactly 0 or 1 (an entry of 2
  /// would scale a weight at apply_to_weights). Restores of outside bytes
  /// call this before installing a mask.
  void check_binary() const;

  /// weights ← weights ⊙ mask, for covered parameters.
  void apply_to_weights(Model& model) const;
  /// grads ← grads ⊙ mask; keeps pruned weights frozen at zero across
  /// momentum updates.
  void apply_to_grads(Model& model) const;

  /// Covered scalar count and kept (mask==1) count.
  std::size_t covered() const noexcept;
  std::size_t kept() const noexcept;
  /// 1 − kept/covered (0 when nothing is covered).
  double pruned_fraction() const noexcept;

  /// Fraction of covered positions whose bits differ. Masks must cover the
  /// same names/shapes. This is the paper's normalized "mask distance" Δ.
  static double hamming_distance(const ModelMask& a, const ModelMask& b);

  /// Positionwise AND across the union of coverage: entries covered by only
  /// one operand adopt that operand's bits.
  ModelMask intersected(const ModelMask& other) const;

  /// Fraction of positions kept by BOTH masks among positions kept by
  /// EITHER (Jaccard) — used to quantify subnetwork similarity between
  /// clients (the paper's "partner" observation).
  static double jaccard_overlap(const ModelMask& a, const ModelMask& b);

  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  // Sorted-by-insertion list of (parameter name, {0,1} tensor).
  std::vector<std::pair<std::string, Tensor>> entries_;
};

}  // namespace subfed
