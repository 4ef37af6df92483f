// Sub-FedAvg aggregation semantics (the paper's server-side rule).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "nn/linear.h"
#include "nn/model_zoo.h"
#include "util/check.h"
#include "util/rng.h"

namespace subfed {
namespace {

// Tiny single-entry federation helpers.
StateDict state_of(std::vector<float> w) {
  const std::size_t n = w.size();  // read before the move below
  StateDict s;
  s.add("fc.weight", Tensor({1, n}, std::move(w)));
  return s;
}

ModelMask mask_of(std::vector<float> bits) {
  const std::size_t n = bits.size();
  ModelMask m;
  m.set("fc.weight", Tensor({1, n}, std::move(bits)));
  return m;
}

TEST(SubFedAvgAggregate, AveragesOverRetainingClientsOnly) {
  const StateDict prev = state_of({100, 100, 100, 100});
  std::vector<ClientUpdate> updates;
  updates.push_back({state_of({2, 4, 0, 8}), mask_of({1, 1, 0, 1}), 1});
  updates.push_back({state_of({6, 0, 0, 4}), mask_of({1, 0, 0, 1}), 1});

  const StateDict out = sub_fedavg_aggregate(updates, prev);
  const Tensor& w = *out.find("fc.weight");
  EXPECT_FLOAT_EQ(w[0], 4.0f);    // both keep: (2+6)/2
  EXPECT_FLOAT_EQ(w[1], 4.0f);    // only client 0 keeps: 4/1
  EXPECT_FLOAT_EQ(w[2], 100.0f);  // nobody keeps → previous global
  EXPECT_FLOAT_EQ(w[3], 6.0f);    // both keep: (8+4)/2
}

TEST(SubFedAvgAggregate, StrictIntersectionVariant) {
  const StateDict prev = state_of({100, 100, 100, 100});
  std::vector<ClientUpdate> updates;
  updates.push_back({state_of({2, 4, 0, 8}), mask_of({1, 1, 0, 1}), 1});
  updates.push_back({state_of({6, 0, 0, 4}), mask_of({1, 0, 0, 1}), 1});

  const StateDict out = sub_fedavg_aggregate_strict(updates, prev);
  const Tensor& w = *out.find("fc.weight");
  EXPECT_FLOAT_EQ(w[0], 4.0f);    // unanimous → averaged
  EXPECT_FLOAT_EQ(w[1], 100.0f);  // not unanimous → previous global
  EXPECT_FLOAT_EQ(w[2], 100.0f);
  EXPECT_FLOAT_EQ(w[3], 6.0f);
}

TEST(SubFedAvgAggregate, UncoveredEntriesAverageUniformly) {
  StateDict prev;
  prev.add("fc.bias", Tensor({2}, std::vector<float>{0, 0}));
  std::vector<ClientUpdate> updates;
  ClientUpdate u1, u2;
  u1.state.add("fc.bias", Tensor({2}, std::vector<float>{2, 4}));
  u2.state.add("fc.bias", Tensor({2}, std::vector<float>{6, 0}));
  updates = {u1, u2};

  const StateDict out = sub_fedavg_aggregate(updates, prev);
  EXPECT_FLOAT_EQ((*out.find("fc.bias"))[0], 4.0f);
  EXPECT_FLOAT_EQ((*out.find("fc.bias"))[1], 2.0f);
}

TEST(SubFedAvgAggregate, SingleClientPassesThroughKeptEntries) {
  const StateDict prev = state_of({9, 9});
  std::vector<ClientUpdate> updates;
  updates.push_back({state_of({1, 0}), mask_of({1, 0}), 1});
  const StateDict out = sub_fedavg_aggregate(updates, prev);
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[0], 1.0f);
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[1], 9.0f);
}

TEST(SubFedAvgAggregate, FullMasksReduceToPlainMean) {
  const StateDict prev = state_of({0, 0});
  std::vector<ClientUpdate> updates;
  updates.push_back({state_of({1, 3}), mask_of({1, 1}), 7});
  updates.push_back({state_of({3, 5}), mask_of({1, 1}), 99});  // weights ignored
  const StateDict out = sub_fedavg_aggregate(updates, prev);
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[0], 2.0f);
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[1], 4.0f);
}

TEST(SubFedAvgAggregate, ValidatesAlignment) {
  const StateDict prev = state_of({0, 0});
  std::vector<ClientUpdate> updates;
  ClientUpdate bad;
  bad.state.add("other.weight", Tensor({1, 2}));
  updates.push_back(bad);
  EXPECT_THROW(sub_fedavg_aggregate(updates, prev), CheckError);
  updates.clear();
  EXPECT_THROW(sub_fedavg_aggregate(updates, prev), CheckError);
}

TEST(FedAvgAggregate, ExampleWeightedMean) {
  std::vector<ClientUpdate> updates;
  updates.push_back({state_of({0, 10}), {}, 1});
  updates.push_back({state_of({4, 0}), {}, 3});
  const StateDict out = fedavg_aggregate(updates);
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[0], 3.0f);   // (0·1 + 4·3)/4
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[1], 2.5f);   // (10·1 + 0·3)/4
}

TEST(FedAvgAggregate, EqualWeightsIsPlainMean) {
  std::vector<ClientUpdate> updates;
  updates.push_back({state_of({1, 2}), {}, 5});
  updates.push_back({state_of({3, 6}), {}, 5});
  const StateDict out = fedavg_aggregate(updates);
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[0], 2.0f);
  EXPECT_FLOAT_EQ((*out.find("fc.weight"))[1], 4.0f);
}

TEST(FedAvgAggregate, FullModelStateRoundTrips) {
  // Aggregating two identical LeNet states returns that state exactly.
  Rng rng(1);
  Model m = ModelSpec::lenet5(10).build_init(rng);
  const StateDict s = m.state();
  std::vector<ClientUpdate> updates;
  updates.push_back({s, {}, 10});
  updates.push_back({s, {}, 20});
  const StateDict out = fedavg_aggregate(updates);
  for (std::size_t e = 0; e < s.size(); ++e) {
    const Tensor& expect = s[e].second;
    const Tensor& got = out[e].second;
    for (std::size_t i = 0; i < expect.numel(); ++i) {
      EXPECT_NEAR(expect[i], got[i], 1e-6f) << s[e].first;
    }
  }
}

// --- bitwise against a per-element reference --------------------------------

/// The masked rule spelled out one element at a time: every update that
/// keeps element i adds weight·value in ascending update order.
Tensor reference_masked_mean(const std::vector<ClientUpdate>& updates, const Tensor& prev,
                             const std::string& name, bool strict) {
  Tensor out(prev.shape());
  for (std::size_t i = 0; i < prev.numel(); ++i) {
    float sum = 0.0f;
    float weight_sum = 0.0f;
    std::size_t keepers = 0;
    for (const ClientUpdate& u : updates) {
      const Tensor* m = u.mask.find(name);
      if (m == nullptr || (*m)[i] != 0.0f) {
        const float w = static_cast<float>(u.weight);
        sum += w * (*u.state.find(name))[i];
        weight_sum += w;
        ++keepers;
      }
    }
    const bool average = weight_sum > 0.0f && (strict ? keepers == updates.size() : keepers > 0);
    out[i] = average ? sum / weight_sum : prev[i];
  }
  return out;
}

::testing::AssertionResult bitwise_equal(const Tensor& want, const Tensor& got) {
  if (want.shape() != got.shape()) return ::testing::AssertionFailure() << "shape differs";
  for (std::size_t i = 0; i < want.numel(); ++i) {
    if (std::bit_cast<std::uint32_t>(want[i]) != std::bit_cast<std::uint32_t>(got[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << want[i] << " vs " << got[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// 64 updates of two masked entries with random masks (every fifth element
/// kept by all, so the strict rule averages somewhere) and staleness weights
/// 1/√(1+s), plus one dense update with no mask. `poison` writes NaN/±Inf
/// into every pruned entry of every update.
std::vector<ClientUpdate> wide_cohort_updates(Rng& rng, const StateDict& prev, bool poison) {
  const float poisons[] = {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity()};
  std::vector<ClientUpdate> updates(64);
  for (std::size_t u = 0; u < updates.size(); ++u) {
    ClientUpdate& update = updates[u];
    update.weight = 1.0 / std::sqrt(1.0 + static_cast<double>(rng.uniform_index(5)));
    for (std::size_t e = 0; e < prev.size(); ++e) {
      const auto& [name, tensor] = prev[e];
      Tensor value(tensor.shape());
      value.fill_normal(rng, 0.0f, 1.0f);
      if (u == 7) {  // the dense update
        update.state.add(name, std::move(value));
        continue;
      }
      Tensor keep(tensor.shape());
      for (std::size_t i = 0; i < keep.numel(); ++i) {
        keep[i] = i % 5 == 0 || rng.bernoulli(0.5) ? 1.0f : 0.0f;
        if (poison && keep[i] == 0.0f) value[i] = poisons[(u + i) % 3];
      }
      update.state.add(name, std::move(value));
      update.mask.set(name, std::move(keep));
    }
  }
  return updates;
}

StateDict two_entry_global(Rng& rng) {
  StateDict prev;
  for (const char* name : {"conv.weight", "fc.weight"}) {
    Tensor t({37, 11});
    t.fill_normal(rng, 0.0f, 1.0f);
    prev.add(name, std::move(t));
  }
  return prev;
}

TEST(SubFedAvgAggregate, BitwiseMatchesPerElementReferenceOver64Updates) {
  Rng rng(17);
  const StateDict prev = two_entry_global(rng);
  const std::vector<ClientUpdate> updates = wide_cohort_updates(rng, prev, /*poison=*/false);
  for (const bool strict : {false, true}) {
    const StateDict out = strict ? sub_fedavg_aggregate_strict(updates, prev)
                                 : sub_fedavg_aggregate(updates, prev);
    for (std::size_t e = 0; e < prev.size(); ++e) {
      const auto& [name, tensor] = prev[e];
      EXPECT_TRUE(bitwise_equal(reference_masked_mean(updates, tensor, name, strict),
                                *out.find(name)))
          << name << (strict ? " strict" : " counting");
    }
  }
}

TEST(SubFedAvgAggregate, NonFiniteValuesInPrunedEntriesNeverReachTheOutput) {
  Rng rng(19);
  const StateDict prev = two_entry_global(rng);
  const std::vector<ClientUpdate> updates = wide_cohort_updates(rng, prev, /*poison=*/true);
  for (const bool strict : {false, true}) {
    const StateDict out = strict ? sub_fedavg_aggregate_strict(updates, prev)
                                 : sub_fedavg_aggregate(updates, prev);
    for (std::size_t e = 0; e < prev.size(); ++e) {
      const auto& [name, tensor] = prev[e];
      const Tensor& got = *out.find(name);
      for (std::size_t i = 0; i < got.numel(); ++i) {
        ASSERT_TRUE(std::isfinite(got[i])) << name << " element " << i;
      }
      EXPECT_TRUE(bitwise_equal(reference_masked_mean(updates, tensor, name, strict), got))
          << name << (strict ? " strict" : " counting");
    }
  }
}

TEST(SubFedAvgAggregate, PreservesEntryOrderAndNames) {
  Rng rng(2);
  Model m = ModelSpec::cnn5(10).build_init(rng);
  const StateDict prev = m.state();
  std::vector<ClientUpdate> updates;
  updates.push_back({prev, ModelMask::ones_like(m, MaskScope::kAllPrunable), 1});
  const StateDict out = sub_fedavg_aggregate(updates, prev);
  ASSERT_EQ(out.size(), prev.size());
  for (std::size_t e = 0; e < prev.size(); ++e) {
    EXPECT_EQ(out[e].first, prev[e].first);
    EXPECT_EQ(out[e].second.shape(), prev[e].second.shape());
  }
}

}  // namespace
}  // namespace subfed
