#include "fl/subfedavg.h"

#include <string>
#include <utility>

#include "fl/robust.h"
#include "util/check.h"

namespace subfed {

namespace {

/// Weight mask as a StateDict section (0/1 float tensors, entry-per-entry).
StateDict mask_state(const ModelMask& mask) {
  StateDict state;
  for (const auto& [name, tensor] : mask) state.add(name, tensor);
  return state;
}

/// Channel mask as a StateDict section: one "block<b>" keep-vector per block.
StateDict channel_state(const ChannelMask& mask) {
  StateDict state;
  for (std::size_t b = 0; b < mask.num_blocks(); ++b) {
    std::vector<float> keep(mask.block(b).begin(), mask.block(b).end());
    const Shape shape{keep.size()};
    state.add("block" + std::to_string(b), Tensor(shape, std::move(keep)));
  }
  return state;
}

/// A client's mirror decoded into SubFedAvgClient::restore arguments.
struct ClientMirror {
  StateDict personal;
  ModelMask weight_mask;
  ChannelMask channel_mask;
};

/// Decodes a 3-section mirror {personal, weight mask, channel mask} (the
/// inverse of SubFedAvg::sections_of), taking the architecture's block sizes
/// from `channel_mask`. Malformed masks throw here, so a caller restoring
/// many clients can reject the input before installing any. Consumes
/// `sections`.
ClientMirror decode_mirror(std::size_t k, std::span<StateDict> sections,
                           ChannelMask channel_mask) {
  SUBFEDAVG_CHECK(sections.size() == 3, "client " << k << " state expects 3 sections, got "
                                                  << sections.size());
  ModelMask weight_mask;
  for (auto& [name, tensor] : sections[1]) weight_mask.set(name, std::move(tensor));
  weight_mask.check_binary();
  const StateDict& channels = sections[2];
  SUBFEDAVG_CHECK(channels.size() == channel_mask.num_blocks(), "channel mask block count");
  for (std::size_t b = 0; b < channel_mask.num_blocks(); ++b) {
    const Tensor* keep = channels.find("block" + std::to_string(b));
    SUBFEDAVG_CHECK(keep != nullptr && keep->numel() == channel_mask.block(b).size(),
                    "channel mask block size");
    for (std::size_t c = 0; c < channel_mask.block(b).size(); ++c) {
      const float flag = (*keep)[c];
      SUBFEDAVG_CHECK(flag == 0.0f || flag == 1.0f, "client " << k << " channel mask block "
                                                              << b << " holds " << flag
                                                              << " (not 0 or 1)");
      channel_mask.block(b)[c] = flag != 0.0f ? 1 : 0;
    }
  }
  channel_mask.check_valid();
  return {std::move(sections[0]), std::move(weight_mask), std::move(channel_mask)};
}

void restore_mirror(SubFedAvgClient& client, ClientMirror mirror) {
  client.restore(std::move(mirror.personal), std::move(mirror.weight_mask),
                 std::move(mirror.channel_mask));
}

/// Installs a 3-section mirror into a live client. Consumes `sections`.
void restore_into(SubFedAvgClient& client, std::span<StateDict> sections) {
  restore_mirror(client, decode_mirror(client.id(), sections, client.channel_mask()));
}

}  // namespace

SubFedAvg::SubFedAvg(FlContext ctx, SubFedAvgConfig config)
    : FederatedAlgorithm(std::move(ctx)), config_(config) {
  config_.train = ctx_.train;
  config_.sgd = ctx_.sgd;
  global_ = initial_state();

  // A never-sampled client's mirror is the seeded initial global plus
  // all-ones masks — shared once here instead of materialized per client, so
  // construction is O(1) in the population.
  Model model = ctx_.spec.build();
  const ModelMask weight_ones = ModelMask::ones_like(
      model, config_.hybrid ? MaskScope::kFcOnly : MaskScope::kAllPrunable);
  const ChannelMask channel_ones = ChannelMask::ones_like(model);
  store_.init(num_clients(),
              {global_, mask_state(weight_ones), channel_state(channel_ones)},
              ctx_.client_cache);
  frac_us_.assign(num_clients(), 0.0);
  frac_s_.assign(num_clients(), 0.0);
}

std::string SubFedAvg::name() const {
  return config_.hybrid ? "Sub-FedAvg (Hy)" : "Sub-FedAvg (Un)";
}

std::shared_ptr<SubFedAvgClient> SubFedAvg::acquire(std::size_t k) {
  SUBFEDAVG_CHECK(k < num_clients(), "client " << k);
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = live_.find(k);
    if (it != live_.end()) {
      lru_.splice(lru_.begin(), lru_, lru_it_[k]);
      return it->second;
    }
  }

  // Build outside the lock: model construction and (possibly lazy) data
  // materialization dominate, and parallel evaluation touches distinct k.
  Rng client_rng = Rng(ctx_.seed).split("subfed-client", k);
  auto built = std::make_shared<SubFedAvgClient>(k, ctx_.spec, config_,
                                                 ctx_.data->client_ptr(k), client_rng);
  bool refaulted = false;
  if (store_.touched(k)) {
    // Evicted earlier: reinstall the exact spilled mirror (restore recomputes
    // the pruned fractions from the masks, so nothing else is needed).
    StateSections sections = *store_.peek(k);
    restore_into(*built, sections);
    refaulted = true;
  } else {
    // First touch ever: seed with the initial global, as the eager
    // constructor did before round 0.
    built->seed_personal(initial_state());
  }

  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto [it, inserted] = live_.try_emplace(k, built);
  if (!inserted) {
    // Another thread materialized k while we built; both copies are
    // bit-identical (state is deterministic between rounds) — keep theirs.
    lru_.splice(lru_.begin(), lru_, lru_it_[k]);
    return it->second;
  }
  lru_.push_front(k);
  lru_it_[k] = lru_.begin();
  if (refaulted) ++refaults_;
  evict_overflow_locked(k);
  return built;
}

void SubFedAvg::evict_overflow_locked(std::size_t keep) {
  const std::size_t cap = ctx_.client_cache;
  if (cap == 0) return;
  auto it = lru_.end();
  while (live_.size() > cap && it != lru_.begin()) {
    --it;
    const std::size_t victim = *it;
    const auto live_it = live_.find(victim);
    SUBFEDAVG_CHECK(live_it != live_.end(), "LRU entry without live client");
    // use_count > 1 means a round, an evaluation or the pin still holds the
    // object — skip it; it becomes evictable once released.
    if (victim == keep || live_it->second.use_count() > 1) continue;
    frac_us_[victim] = live_it->second->unstructured_pruned();
    frac_s_[victim] = live_it->second->structured_pruned();
    store_.put(victim, sections_of(*live_it->second));
    live_.erase(live_it);
    lru_it_.erase(victim);
    it = lru_.erase(it);
  }
}

SubFedAvgClient& SubFedAvg::client(std::size_t k) {
  std::shared_ptr<SubFedAvgClient> c = acquire(k);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  pinned_ = std::move(c);
  return *pinned_;
}

void SubFedAvg::run_round(std::size_t round, std::span<const std::size_t> sampled) {
  // Pin the round's cohort so eviction cannot recycle an object mid-round
  // (loopback run_client re-acquires the same live objects).
  std::vector<std::shared_ptr<SubFedAvgClient>> cohort(sampled.size());

  // Download: each client needs only the entries its pre-round mask keeps
  // (the client re-applies θ_g ⊙ m_k on arrival, so the masked broadcast is
  // exactly what it would have computed from the full global).
  std::vector<ModelMask> pre_masks(sampled.size());
  std::vector<ClientJob> jobs(sampled.size());
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    cohort[i] = acquire(sampled[i]);
    pre_masks[i] = cohort[i]->combined_mask();
    jobs[i] = {sampled[i], &global_, &pre_masks[i], 1, {}};
  }

  std::vector<Exchange> exchanges = exchange_round(round, jobs);

  std::vector<ClientUpdate> updates;
  updates.reserve(exchanges.size());
  for (Exchange& exchange : exchanges) {
    // A detached round mutated a worker-process copy of the client; its
    // side-band sections bring this process's mirror up to date.
    if (!exchange.state.empty()) {
      restore_client_sections(exchange.client, exchange.state);
    }
    updates.push_back(std::move(exchange.update));
  }

  // Mask-aware server defense: distances count only entries each update
  // actually uploaded, so honest heavily-pruned clients are not mistaken for
  // outliers (ROADMAP robustness knob, extended to the masked path).
  if (ctx_.robust_filter > 0.0) {
    const std::vector<std::size_t> passed =
        filter_updates_by_norm(updates, global_, ctx_.robust_filter);
    if (!passed.empty() && passed.size() < updates.size()) {
      filtered_updates_ += updates.size() - passed.size();
      std::vector<ClientUpdate> kept;
      kept.reserve(passed.size());
      for (const std::size_t i : passed) kept.push_back(std::move(updates[i]));
      updates = std::move(kept);
    }
  }

  global_ = strict_ ? sub_fedavg_aggregate_strict(updates, global_)
                    : sub_fedavg_aggregate(updates, global_);
}

ClientResult SubFedAvg::run_client(std::size_t round, const ClientJob& job,
                                   const StateDict& received, bool detached) {
  const std::shared_ptr<SubFedAvgClient> client = acquire(job.client);
  if (!job.state.empty()) {
    // Remote exchange: install the coordinator's client mirror — personal
    // model, weight mask, channel mask — before computing. The round RNG is
    // split deterministically from (seed, client, round), so the mirror plus
    // these sections is the client's complete state.
    std::vector<StateDict> inbound(job.state);
    restore_into(*client, inbound);
  }
  ClientResult result;
  result.update = client->run_round(received, round);
  if (detached) result.state = sections_of(*client);
  return result;
}

std::vector<StateDict> SubFedAvg::client_state_sections(std::size_t k) {
  return client_sections(k);
}

double SubFedAvg::client_test_accuracy(std::size_t k) {
  return acquire(k)->evaluate_test().accuracy;
}

double SubFedAvg::average_unstructured_pruned() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  double sum = 0.0;
  for (std::size_t k = 0; k < frac_us_.size(); ++k) {
    const auto it = live_.find(k);
    sum += it != live_.end() ? it->second->unstructured_pruned() : frac_us_[k];
  }
  return frac_us_.empty() ? 0.0 : sum / static_cast<double>(frac_us_.size());
}

double SubFedAvg::average_structured_pruned() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  double sum = 0.0;
  for (std::size_t k = 0; k < frac_s_.size(); ++k) {
    const auto it = live_.find(k);
    sum += it != live_.end() ? it->second->structured_pruned() : frac_s_[k];
  }
  return frac_s_.empty() ? 0.0 : sum / static_cast<double>(frac_s_.size());
}

ReductionReport SubFedAvg::client_reduction(std::size_t k) {
  const std::shared_ptr<SubFedAvgClient> c = acquire(k);
  Model model = ctx_.spec.build();
  model.load_state(c->personal_state());
  const ChannelMask* channel = config_.hybrid ? &c->channel_mask() : nullptr;
  const ModelMask& weights = c->weight_mask();
  return reduction_report(model, channel, &weights);
}


std::vector<StateDict> SubFedAvg::sections_of(const SubFedAvgClient& client) {
  std::vector<StateDict> sections;
  sections.reserve(3);
  sections.push_back(client.personal_state());
  sections.push_back(mask_state(client.weight_mask()));
  sections.push_back(channel_state(client.channel_mask()));
  return sections;
}

std::vector<StateDict> SubFedAvg::client_sections(std::size_t k) {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = live_.find(k);
    if (it != live_.end()) return sections_of(*it->second);
  }
  // Evicted (exact spilled mirror) or never touched (shared initial
  // sections) — either way the store answers without materializing k.
  return *store_.peek(k);
}

void SubFedAvg::restore_client_sections(std::size_t k, std::span<StateDict> sections) {
  const std::shared_ptr<SubFedAvgClient> client = acquire(k);
  restore_into(*client, sections);
}

std::vector<StateDict> SubFedAvg::checkpoint_state() {
  std::vector<StateDict> sections;
  sections.reserve(1 + 3 * num_clients());
  sections.push_back(global_);
  for (std::size_t k = 0; k < num_clients(); ++k) {
    std::vector<StateDict> client = client_sections(k);
    for (StateDict& section : client) sections.push_back(std::move(section));
  }
  return sections;
}

void SubFedAvg::restore_checkpoint_state(std::vector<StateDict> sections) {
  SUBFEDAVG_CHECK(sections.size() == 1 + 3 * num_clients(),
                  name() << " checkpoint expects " << 1 + 3 * num_clients()
                         << " sections, got " << sections.size());
  // Decode and check every client's masks before installing anything.
  const ChannelMask blocks = ChannelMask::ones_like(ctx_.spec.build());
  std::vector<ClientMirror> mirrors;
  mirrors.reserve(num_clients());
  for (std::size_t k = 0; k < num_clients(); ++k) {
    mirrors.push_back(decode_mirror(k, {sections.data() + 1 + 3 * k, 3}, blocks));
  }
  global_ = std::move(sections[0]);
  for (std::size_t k = 0; k < num_clients(); ++k) {
    restore_mirror(*acquire(k), std::move(mirrors[k]));
  }
}

}  // namespace subfed
