#include "core/aggregate.h"

#include <vector>

#include "util/check.h"

namespace subfed {

namespace {

void check_aligned(std::span<const ClientUpdate> updates, const StateDict& reference) {
  SUBFEDAVG_CHECK(!updates.empty(), "aggregate needs at least one update");
  for (const ClientUpdate& u : updates) {
    SUBFEDAVG_CHECK(u.state.size() == reference.size(), "update entry count mismatch");
    for (std::size_t e = 0; e < reference.size(); ++e) {
      SUBFEDAVG_CHECK(u.state[e].first == reference[e].first,
                      "update entry name mismatch at " << e);
      SUBFEDAVG_CHECK(u.state[e].second.shape() == reference[e].second.shape(),
                      "update entry shape mismatch for " << reference[e].first);
    }
  }
}

enum class CoveredRule { kCounting, kStrictIntersection };

StateDict masked_aggregate(std::span<const ClientUpdate> updates,
                           const StateDict& previous_global, CoveredRule rule) {
  check_aligned(updates, previous_global);

  StateDict out;
  std::vector<float> sums, weight_sums;  // per element of a covered entry
  std::vector<std::size_t> keepers;
  for (std::size_t e = 0; e < previous_global.size(); ++e) {
    const auto& [name, prev] = previous_global[e];
    Tensor merged(prev.shape());

    // Covered by any client's mask? (All clients share mask coverage sets by
    // construction; tolerate per-client differences by checking each.)
    bool any_covered = false;
    for (const ClientUpdate& u : updates) {
      if (u.mask.find(name) != nullptr) {
        any_covered = true;
        break;
      }
    }

    // Staleness multipliers ride every rule: each contribution is scaled by
    // its update's weight and the normalizer sums the weights, so weight 1.0
    // everywhere (the synchronous case) reproduces the unweighted math
    // bit-for-bit (×1.0 and Σ1.0-counts are exact in float).
    if (!any_covered) {
      // Weighted average (biases, BN affine terms, running stats).
      float weight_sum = 0.0f;
      for (const ClientUpdate& u : updates) {
        const float w = static_cast<float>(u.weight);
        merged.axpy_(w, *u.state.find(name));
        weight_sum += w;
      }
      SUBFEDAVG_CHECK(weight_sum > 0.0f, "zero total aggregation weight");
      merged.scale_(1.0f / weight_sum);
      out.add(name, std::move(merged));
      continue;
    }

    // Update-outer: each update streams its values and mask once, and every
    // element still sums its keepers in ascending update order. The kept
    // test is a select, not a multiply by the mask, so a NaN/Inf in a pruned
    // entry never reaches the output.
    const std::size_t numel = merged.numel();
    sums.assign(numel, 0.0f);
    weight_sums.assign(numel, 0.0f);
    keepers.assign(numel, 0);
    for (const ClientUpdate& u : updates) {
      const float* value = u.state.find(name)->data();
      const float w = static_cast<float>(u.weight);
      const Tensor* m = u.mask.find(name);
      if (m == nullptr) {
        for (std::size_t i = 0; i < numel; ++i) {
          sums[i] += w * value[i];
          weight_sums[i] += w;
          ++keepers[i];
        }
        continue;
      }
      SUBFEDAVG_CHECK(m->numel() == numel, "mask size mismatch for " << name);
      const float* keep = m->data();
      for (std::size_t i = 0; i < numel; ++i) {
        const bool kept = keep[i] != 0.0f;
        sums[i] = kept ? sums[i] + w * value[i] : sums[i];
        weight_sums[i] = kept ? weight_sums[i] + w : weight_sums[i];
        keepers[i] += kept ? 1 : 0;
      }
    }
    const float* prev_value = prev.data();
    float* merged_value = merged.data();
    for (std::size_t i = 0; i < numel; ++i) {
      const bool use_average = rule == CoveredRule::kCounting
                                   ? keepers[i] > 0 && weight_sums[i] > 0.0f
                                   : keepers[i] == updates.size() && weight_sums[i] > 0.0f;
      merged_value[i] = use_average ? sums[i] / weight_sums[i] : prev_value[i];
    }
    out.add(name, std::move(merged));
  }
  return out;
}

}  // namespace

StateDict sub_fedavg_aggregate(std::span<const ClientUpdate> updates,
                               const StateDict& previous_global) {
  return masked_aggregate(updates, previous_global, CoveredRule::kCounting);
}

StateDict sub_fedavg_aggregate_strict(std::span<const ClientUpdate> updates,
                                      const StateDict& previous_global) {
  return masked_aggregate(updates, previous_global, CoveredRule::kStrictIntersection);
}

StateDict fedavg_aggregate(std::span<const ClientUpdate> updates) {
  SUBFEDAVG_CHECK(!updates.empty(), "aggregate needs at least one update");
  check_aligned(updates, updates.front().state);

  // Example counts × staleness weights; weight 1.0 everywhere degenerates to
  // the plain example-count mean bit-for-bit.
  double total_weight = 0.0;
  for (const ClientUpdate& u : updates) {
    total_weight += u.weight * static_cast<double>(u.num_examples);
  }
  SUBFEDAVG_CHECK(total_weight > 0, "zero total aggregation weight");

  StateDict out;
  const StateDict& reference = updates.front().state;
  for (std::size_t e = 0; e < reference.size(); ++e) {
    const auto& [name, first] = reference[e];
    Tensor merged(first.shape());
    for (const ClientUpdate& u : updates) {
      const float w =
          static_cast<float>(u.weight * static_cast<double>(u.num_examples) / total_weight);
      merged.axpy_(w, *u.state.find(name));
    }
    out.add(name, std::move(merged));
  }
  return out;
}

}  // namespace subfed
