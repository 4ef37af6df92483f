// fedbench: end-to-end and per-layer federation benchmark.
//
//   fedbench --workload hybrid_cifar|dense_fedavg|wide_cohort --seed N
//            --seconds S --trace 0|1 [--tiny] [--force-digest-mismatch]
//
// Every setting comes from this command line: the workload name and seed
// build one ExperimentSpec, and the library receives only that spec (through
// FederationSession::from_spec). Each workload is a closed loop — a batch
// federation whose next round starts when the previous one ends — repeated
// from scratch ("repetitions"): one per kRepetitionSeconds of --seconds, two
// at least, so every run checks that the accuracy curve, the final accuracy
// and the digest of the final global model's encode_payload bytes repeat
// exactly.
//
// --trace 0 prints the end-to-end metrics with telemetry off. --trace 1 runs
// an untraced, a traced (telemetry=counters) and an untraced repetition, then
// probes each layer from outside by timing calls into its public functions on
// a cohort client's pruned state. No tracing is added inside the library.
//
// Output, one record per stdout line (fedbench/run.py turns it into JSON):
//   metric <name> <value> <unit> n=<samples> [detail]
//   check <name> ok|FAIL <detail>
//   digest <hex> repetitions=<k> matched=yes|no
//   ops attempted=<a> failed=<f>
// The exit status is 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/channel.h"
#include "core/aggregate.h"
#include "core/eval.h"
#include "core/subfedavg_client.h"
#include "fl/experiment.h"
#include "fl/subfedavg.h"
#include "metrics/flops.h"
#include "metrics/sparsity.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "nn/trainer.h"
#include "pruning/mask.h"
#include "pruning/structured.h"
#include "pruning/unstructured.h"
#include "serve/session.h"
#include "telemetry/telemetry.h"
#include "tensor/device.h"
#include "util/rng.h"

using namespace subfed;

namespace {

using Clock = std::chrono::steady_clock;

/// Wall time one repetition takes on a 4-core x86 host: --seconds buys one
/// repetition per this many seconds.
constexpr double kRepetitionSeconds = 15.0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Wall seconds of one call.
double time_call(const std::function<void()>& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median wall seconds of `reps` calls of `fn`, after `warmup` untimed calls.
/// `prepare`, when set, runs untimed before every call.
double median_time(std::size_t reps, const std::function<void()>& fn,
                   const std::function<void()>& prepare = {}, std::size_t warmup = 1) {
  std::vector<double> samples;
  for (std::size_t i = 0; i < warmup + reps; ++i) {
    if (prepare) prepare();
    const double t = time_call(fn);
    if (i >= warmup) samples.push_back(t);
  }
  return median(samples);
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Output records

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit, std::size_t n,
              const std::string& detail = "") {
    std::printf("metric %s %.17g %s n=%zu%s%s\n", name.c_str(), value, unit.c_str(), n,
                detail.empty() ? "" : " ", detail.c_str());
  }
  /// Counts one attempted operation; a false `ok` counts it as failed.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    op(ok);
    std::printf("check %s %s %s\n", name.c_str(), ok ? "ok" : "FAIL", detail.c_str());
  }
};

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  ExperimentSpec spec;
  std::size_t rounds = 0;       ///< rounds per repetition
  double acc_target = 0.0;      ///< time_to_acc_s threshold (avg personalized accuracy)
  double acc_floor = 0.0;       ///< final_acc must stay at or above this
  // Sub-FedAvg pruning targets and per-round steps. dense_fedavg carries the
  // hybrid workload's values, so its probes time the same pruning calls on
  // the dense model.
  double weight_target = 0.0;
  double channel_target = 0.0;
  double weight_step = 0.0;
  double channel_step = 0.0;
  double acc_threshold = 0.5;   ///< pruning gate's validation-accuracy floor
  bool hybrid = false;
};

/// The three workloads. `tiny` shrinks each to a few seconds for the
/// benchmark's own tests; its figures are not comparable with full runs.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
  Workload w;
  ExperimentSpec& s = w.spec;
  s.dataset = "cifar10";
  s.model = "lenet5";
  s.partition = "shards";
  s.shards_per_client = 2;
  s.test_per_class = 40;
  s.batch = 10;
  s.lr = 0.01;
  s.momentum = 0.5;
  s.seed = seed;
  s.eval_every = 0;
  s.transport = "memory";
  if (name == "hybrid_cifar" || name == "dense_fedavg") {
    s.clients = 20;
    s.shard = 50;
    s.epochs = 5;
    s.sample = 0.5;
    w.rounds = 12;
    w.weight_target = 0.7;
    w.channel_target = 0.5;
    w.weight_step = 0.5;
    w.channel_step = 0.5;
    if (name == "hybrid_cifar") {
      s.algo = "subfedavg_hy";
      w.hybrid = true;
      w.acc_target = 0.675;
      w.acc_floor = 0.8;
    } else {
      s.algo = "fedavg";
      w.acc_target = 0.05;
      w.acc_floor = 0.35;
    }
  } else if (name == "wide_cohort") {
    s.clients = 64;
    s.shard = 10;
    s.epochs = 2;
    s.sample = 1.0;
    s.transport = "loopback";
    s.codec = "delta";
    s.quantize = "int8";
    s.test_per_class = 20;
    s.algo = "subfedavg_un";
    w.rounds = 12;
    w.weight_target = 0.9;
    w.channel_target = 0.5;
    w.weight_step = 0.5;
    w.channel_step = 0.5;
    w.acc_target = 0.4;
    w.acc_floor = 0.4;
    // Two validation examples per client make a 0.5 accuracy gate a coin
    // flip; without it every client prunes on schedule to the target.
    w.acc_threshold = 0.0;
  } else {
    throw std::runtime_error("unknown workload '" + name +
                             "' (hybrid_cifar | dense_fedavg | wide_cohort)");
  }
  if (tiny) {
    s.clients = name == "wide_cohort" ? 8 : 6;
    s.shard = 10;
    s.test_per_class = 8;
    s.epochs = 2;
    w.rounds = 3;
    w.acc_target = 0.0;
    w.acc_floor = 0.0;
  }
  s.rounds = w.rounds;
  s.target = w.weight_target;
  s.step = w.weight_step;
  s.algo_params.set_double("acc_threshold", w.acc_threshold);
  if (w.hybrid) {
    s.algo_params.set_double("channel_target", w.channel_target);
    s.algo_params.set_double("channel_step", w.channel_step);
  }
  return w;
}

// ---------------------------------------------------------------------------
// One repetition

/// Counts train examples per round and, when tracking the gate, which
/// below-target client rounds committed a prune.
class RoundTally final : public RoundObserver {
 public:
  RoundTally(FederatedAlgorithm& algorithm, const Workload& w, bool track_gate)
      : w_(w), sub_(track_gate ? dynamic_cast<SubFedAvg*>(&algorithm) : nullptr) {
    const FederatedData& data = *algorithm.context().data;
    train_size_.resize(data.num_clients());
    for (std::size_t k = 0; k < train_size_.size(); ++k) {
      train_size_[k] = data.client_ptr(k)->train_labels.size();
    }
  }

  void on_round_begin(std::size_t, std::span<const std::size_t> sampled) override {
    last_cohort.assign(sampled.begin(), sampled.end());
    client_rounds += sampled.size();
    for (const std::size_t k : sampled) {
      examples += static_cast<double>(train_size_[k] * w_.spec.epochs);
    }
    before_.clear();
    if (sub_ == nullptr) return;
    for (const std::size_t k : sampled) {
      const SubFedAvgClient& c = sub_->client(k);
      const Fractions f{c.unstructured_pruned(), c.structured_pruned()};
      const bool below = f.us < w_.weight_target - 1e-9 ||
                         (w_.hybrid && f.s < w_.channel_target - 1e-9);
      if (below) before_.emplace_back(k, f);
    }
  }

  void on_round_end(const RoundEndInfo&) override {
    if (sub_ == nullptr) return;
    below_target_rounds += before_.size();
    for (const auto& [k, f] : before_) {
      const SubFedAvgClient& c = sub_->client(k);
      if (c.unstructured_pruned() > f.us || c.structured_pruned() > f.s) ++committed_prunes;
    }
  }

  double examples = 0.0;
  std::size_t client_rounds = 0;
  std::size_t below_target_rounds = 0;
  std::size_t committed_prunes = 0;
  std::vector<std::size_t> last_cohort;

 private:
  struct Fractions {
    double us = 0.0;
    double s = 0.0;
  };
  const Workload& w_;
  SubFedAvg* sub_;
  std::vector<std::size_t> train_size_;
  std::vector<std::pair<std::size_t, Fractions>> before_;
};

struct Repetition {
  bool traced = false;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> round_s;
  std::vector<double> eval_s;
  std::vector<double> curve;
  double final_acc = 0.0;
  double time_to_acc_s = -1.0;  ///< < 0 when the target was never reached
  double examples = 0.0;
  std::size_t client_rounds = 0;
  std::uint64_t bytes = 0;
  std::uint64_t digest = 0;
  std::size_t skipped_rounds = 0;
  std::size_t below_target_rounds = 0;
  std::size_t committed_prunes = 0;
  FederationSession::RoundPhases phases;
  DeviceStats device_before;
  DeviceStats device_after;
  double compression_ratio = 0.0;
  std::unique_ptr<FederationSession> session;  ///< kept alive for the probes
  std::vector<std::size_t> last_cohort;
};

/// Builds the federation from the spec and runs it for w.rounds, evaluating
/// after every round. A traced repetition runs at telemetry=counters, counts
/// pruning-gate outcomes and keeps its session for the probes.
Repetition run_repetition(const Workload& w, bool traced) {
  Repetition rep;
  rep.traced = traced;
  ExperimentSpec spec = w.spec;
  spec.telemetry = traced ? "counters" : "off";

  const auto setup_start = Clock::now();
  std::unique_ptr<FederationSession> session = FederationSession::from_spec(spec);
  rep.setup_s = seconds_since(setup_start);

  RoundTally tally(session->algorithm(), w, traced);
  rep.device_before = default_device().stats();
  const auto run_start = Clock::now();
  double round_sum = 0.0;
  for (std::size_t r = 0; r < w.rounds; ++r) {
    const auto round_start = Clock::now();
    const bool ran = session->advance_round(&tally);
    const double round_time = seconds_since(round_start);
    if (!ran) ++rep.skipped_rounds;
    rep.round_s.push_back(round_time);
    round_sum += round_time;

    const auto eval_start = Clock::now();
    const double acc = session->evaluate();
    rep.eval_s.push_back(seconds_since(eval_start));
    rep.curve.push_back(acc);
    if (rep.time_to_acc_s < 0.0 && acc >= w.acc_target) rep.time_to_acc_s = round_sum;
  }
  const RunResult result = session->finish();
  rep.run_s = seconds_since(run_start);
  rep.device_after = default_device().stats();

  rep.final_acc = result.final_avg_accuracy;
  rep.examples = tally.examples;
  rep.client_rounds = tally.client_rounds;
  rep.below_target_rounds = tally.below_target_rounds;
  rep.committed_prunes = tally.committed_prunes;
  rep.last_cohort = tally.last_cohort;
  rep.bytes = session->total_up_bytes() + session->total_down_bytes();
  rep.phases = session->total_phases();
  rep.compression_ratio = session->algorithm().channel().compression_ratio();
  rep.digest = fnv1a(encode_payload(session->algorithm().global_model(), nullptr,
                                    QuantCodec::kNone));
  if (traced) rep.session = std::move(session);
  return rep;
}

// ---------------------------------------------------------------------------
// End-to-end metrics

/// The highest percentile with at least ten samples beyond it — the 11th
/// largest sample, at percentile 100·(n−10)/n by nearest rank. Runs of ten
/// samples or fewer fall back to the median.
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n <= 10) return {median(v), 50.0, n / 2};
  std::sort(v.begin(), v.end());
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n), 10};
}

std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

void report_end_to_end(Report& out, const std::vector<Repetition>& reps,
                       const std::vector<double>& setup_samples) {
  std::vector<double> rounds, evals, run_s, tta;
  double examples = 0.0, round_total = 0.0, bytes = 0.0, client_rounds = 0.0;
  for (const Repetition& rep : reps) {
    rounds.insert(rounds.end(), rep.round_s.begin(), rep.round_s.end());
    evals.insert(evals.end(), rep.eval_s.begin(), rep.eval_s.end());
    run_s.push_back(rep.run_s);
    if (rep.time_to_acc_s >= 0.0) tta.push_back(rep.time_to_acc_s);
    examples += rep.examples;
    round_total += std::accumulate(rep.round_s.begin(), rep.round_s.end(), 0.0);
    bytes += static_cast<double>(rep.bytes);
    client_rounds += static_cast<double>(rep.client_rounds);
  }
  const Tail tail = tail_of(rounds);
  out.metric("setup_s", median(setup_samples), "s", setup_samples.size());
  out.metric("run_s", median(run_s), "s", run_s.size());
  out.metric("round_s.p50", median(rounds), "s", rounds.size());
  out.metric("round_s.tail", tail.value, "s", rounds.size(),
             "percentile=" + fmt("%g", tail.percentile) +
                 " beyond=" + std::to_string(tail.beyond));
  out.metric("train_examples_per_s", round_total > 0.0 ? examples / round_total : 0.0,
             "examples/s", rounds.size());
  out.metric("eval_s", median(evals), "s", evals.size());
  out.metric("time_to_acc_s", median(tta), "s", tta.size());
  out.metric("final_acc", reps.front().final_acc, "fraction", reps.size());
  out.metric("bytes_per_client_round", client_rounds > 0.0 ? bytes / client_rounds : 0.0, "B",
             static_cast<std::size_t>(client_rounds));
  out.metric("peak_rss_mib", static_cast<double>(peak_rss_kib()) / 1024.0, "MiB", 1);
}

// ---------------------------------------------------------------------------
// Correctness

/// Every repetition against the first: accuracy curve, final accuracy and
/// the final global model's digest must repeat exactly; the accuracy floor
/// and target must hold.
void check_repetitions(Report& out, const Workload& w, std::vector<Repetition>& reps,
                       bool force_mismatch) {
  if (force_mismatch && reps.size() > 1) reps.back().digest ^= 1;
  const Repetition& first = reps.front();
  bool matched = true;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Repetition& rep = reps[i];
    const std::string tag = "repetition" + std::to_string(i);
    out.check(tag + ".rounds_ran", rep.skipped_rounds == 0,
              "skipped=" + std::to_string(rep.skipped_rounds));
    out.check(tag + ".acc_floor", rep.final_acc >= w.acc_floor,
              "final_acc=" + fmt("%.6f", rep.final_acc) + " floor=" + fmt("%g", w.acc_floor));
    out.check(tag + ".acc_target_reached", rep.time_to_acc_s >= 0.0,
              "target=" + fmt("%g", w.acc_target));
    if (i == 0) continue;
    const bool same_curve = rep.curve == first.curve && rep.final_acc == first.final_acc;
    const bool same_digest = rep.digest == first.digest;
    out.check(tag + ".curve_repeats", same_curve, "against repetition0");
    out.check(tag + ".digest_repeats", same_digest, "against repetition0");
    matched = matched && same_curve && same_digest;
  }
  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::printf("repetition %zu traced=%d setup_s=%.6f run_s=%.6f\n", i, reps[i].traced ? 1 : 0,
                reps[i].setup_s, reps[i].run_s);
  }
  std::printf("curve");
  for (const double acc : first.curve) std::printf(" %.6f", acc);
  std::printf("\n");
  std::printf("digest %016llx repetitions=%zu matched=%s\n",
              static_cast<unsigned long long>(first.digest), reps.size(),
              matched ? "yes" : "no");
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced run only)

const std::vector<std::string> kMaskedLayers = {"conv1", "conv2", "fc1", "fc2", "fc3"};
const std::vector<std::string> kTimedLayers = {"conv1", "bn1", "conv2", "bn2",
                                               "fc1",   "fc2", "fc3"};

/// "conv1" for a layer owning "conv1.weight"; empty for stateless layers.
std::string layer_name(Layer& layer) {
  const std::vector<Parameter*> params = layer.parameters();
  if (params.empty()) return "";
  const std::string& full = params.front()->name;
  return full.substr(0, full.find('.'));
}

SubFedAvgConfig probe_client_config(const Workload& w, const FlContext& ctx) {
  SubFedAvgConfig config;
  config.hybrid = w.hybrid;
  config.unstructured = {w.acc_threshold, w.weight_target, 1e-4, w.weight_step};
  config.structured = {w.acc_threshold, w.channel_target, 0.05, w.channel_step};
  config.train = ctx.train;
  config.sgd = ctx.sgd;
  return config;
}

void probe_layers(Report& out, const Workload& w, Repetition& traced,
                  const std::vector<const Repetition*>& untraced) {
  FederationSession& session = *traced.session;
  FederatedAlgorithm& algorithm = session.algorithm();
  const FlContext& ctx = algorithm.context();
  const ModelSpec model_spec = ctx.spec;
  auto* sub = dynamic_cast<SubFedAvg*>(&algorithm);
  const std::size_t k = traced.last_cohort.empty() ? 0 : traced.last_cohort.front();
  const ClientDataPtr data = ctx.data->client_ptr(k);
  const StateDict global = algorithm.global_model();
  const std::size_t rounds = traced.round_s.size();

  // The cohort client's state: its pruned personal model and masks (a dense
  // model with all-ones masks on dense_fedavg).
  Model model = model_spec.build();
  StateDict state;
  ModelMask weight_mask;
  ChannelMask channel_mask;
  ModelMask combined;
  if (sub != nullptr) {
    SubFedAvgClient& client = sub->client(k);
    state = client.personal_state();
    weight_mask = client.weight_mask();
    channel_mask = client.channel_mask();
    combined = client.combined_mask();
  } else {
    state = global;
    weight_mask = ModelMask::ones_like(model, MaskScope::kAllPrunable);
    channel_mask = ChannelMask::ones_like(model);
    combined = weight_mask;
  }
  model.load_state(state);

  // --- serve: the session's phase split at telemetry=counters.
  const FederationSession::RoundPhases& ph = traced.phases;
  out.metric("serve.phase.sample_s", ph.sample, "s", rounds);
  out.metric("serve.phase.broadcast_encode_s", ph.broadcast_encode, "s", rounds);
  out.metric("serve.phase.transport_exchange_s", ph.transport_exchange, "s", rounds);
  out.metric("serve.phase.collect_s", ph.collect, "s", rounds);
  out.metric("serve.phase.aggregate_s", ph.aggregate, "s", rounds);
  out.metric("serve.phase.eval_s", ph.eval, "s", rounds);
  // The probes below time the library with telemetry off, like the timed
  // untraced repetitions.
  telemetry::set_level(telemetry::Level::kOff);

  // --- data: synthesis and one lazily built client.
  {
    const std::size_t reps = 3;
    const double synth = median_time(reps, [&] {
      const FederatedData fresh(w.spec.dataset_spec(), w.spec.data_config());
    }, {}, 0);
    out.metric("data.synthesize_s", synth, "s", reps);
    FederatedDataConfig lazy_config = w.spec.data_config();
    lazy_config.client_cache = 1;
    const FederatedData lazy(w.spec.dataset_spec(), lazy_config);
    std::vector<double> builds;
    const std::size_t n = std::min<std::size_t>(lazy.num_clients(), 16);
    for (std::size_t c = 0; c < n; ++c) {
      builds.push_back(time_call([&] { (void)lazy.client_ptr(c); }));
    }
    out.metric("data.client_build_ms", median(builds) * 1e3, "ms", builds.size());
  }

  // --- core: one client's local training, round, evaluation, and one
  // cohort's aggregation.
  {
    const std::size_t reps = 5;
    Model train_model = model_spec.build();
    const GradHook hook = [&](Model& m) { combined.apply_to_grads(m); };
    Rng rng(w.spec.seed);
    const double train = median_time(
        reps,
        [&] {
          Sgd optimizer(train_model.parameters(), ctx.sgd);
          train_local(train_model, optimizer, data->train_images, data->train_labels, ctx.train,
                      rng, {}, sub != nullptr ? hook : GradHook{});
        },
        [&] { train_model.load_state(state); });
    out.metric("core.local_train_ms", train * 1e3, "ms", reps);

    double client_round = 0.0;
    if (sub != nullptr) {
      SubFedAvgClient probe(k, model_spec, probe_client_config(w, ctx), data, Rng(w.spec.seed));
      client_round = median_time(
          reps, [&] { (void)probe.run_round(global, rounds + 1); },
          [&] { probe.restore(state, weight_mask, channel_mask); });
    } else {
      ClientJob job;
      job.client = k;
      job.broadcast = &global;
      client_round = median_time(
          reps, [&] { (void)algorithm.run_client(rounds + 1, job, global, false); });
    }
    out.metric("core.client_round_ms", client_round * 1e3, "ms", reps);

    const std::size_t eval_reps = 21;
    const double val = median_time(
        eval_reps, [&] { (void)evaluate(model, data->val_images, data->val_labels); });
    const double test =
        median_time(eval_reps, [&] { (void)evaluate_client_test(model, *data); });
    out.metric("core.eval_val_ms", val * 1e3, "ms", eval_reps);
    out.metric("core.eval_test_ms", test * 1e3, "ms", eval_reps);

    std::vector<ClientUpdate> updates;
    for (const std::size_t c : traced.last_cohort) {
      ClientUpdate u;
      if (sub != nullptr) {
        SubFedAvgClient& client = sub->client(c);
        u.state = client.personal_state();
        u.mask = client.combined_mask();
      } else {
        u.state = global;
      }
      u.num_examples = ctx.data->client_ptr(c)->train_labels.size();
      updates.push_back(std::move(u));
    }
    const std::size_t agg_reps = 11;
    const double agg = median_time(agg_reps, [&] {
      if (sub != nullptr) {
        (void)sub_fedavg_aggregate(updates, global);
      } else {
        (void)fedavg_aggregate(updates);
      }
    });
    out.metric("core.aggregate_ms", agg * 1e3, "ms", agg_reps,
               "updates=" + std::to_string(updates.size()));
  }

  // --- nn: each layer's train-mode forward/backward at the workload's batch,
  // eval forward at batch 64, the optimizer step and the gradient mask.
  {
    const std::size_t n_train = data->train_labels.size();
    auto batch_of = [&](std::size_t size) {
      std::vector<std::size_t> idx(size);
      for (std::size_t i = 0; i < size; ++i) idx[i] = i % n_train;
      std::vector<std::int32_t> labels(size);
      for (std::size_t i = 0; i < size; ++i) labels[i] = data->train_labels[idx[i]];
      return std::make_pair(gather_rows(data->train_images, idx), labels);
    };
    const auto [images, labels] = batch_of(w.spec.batch);
    const std::size_t layers = model.num_layers();
    const std::size_t iters = 200;
    const std::size_t warmup = 10;
    std::vector<std::vector<double>> fwd(layers), bwd(layers);
    for (std::size_t it = 0; it < warmup + iters; ++it) {
      Tensor x = images;
      std::vector<double> f(layers), b(layers);
      for (std::size_t i = 0; i < layers; ++i) {
        const auto start = Clock::now();
        x = model.layer(i).forward(x, true);
        f[i] = seconds_since(start);
      }
      Tensor g = softmax_cross_entropy(x, labels).grad_logits;
      for (std::size_t i = layers; i-- > 0;) {
        const auto start = Clock::now();
        g = model.layer(i).backward(g);
        b[i] = seconds_since(start);
      }
      model.zero_grad();
      if (it < warmup) continue;
      for (std::size_t i = 0; i < layers; ++i) {
        fwd[i].push_back(f[i]);
        bwd[i].push_back(b[i]);
      }
    }
    std::map<std::string, std::size_t> index;
    std::vector<double> stateless_f(iters, 0.0), stateless_b(iters, 0.0);
    for (std::size_t i = 0; i < layers; ++i) {
      const std::string name = layer_name(model.layer(i));
      if (!name.empty()) {
        index[name] = i;
        continue;
      }
      for (std::size_t it = 0; it < iters; ++it) {
        stateless_f[it] += fwd[i][it];
        stateless_b[it] += bwd[i][it];
      }
    }
    for (const std::string& name : kTimedLayers) {
      const std::size_t i = index.at(name);
      out.metric("nn." + name + ".fwd_us", median(fwd[i]) * 1e6, "us", iters);
      out.metric("nn." + name + ".bwd_us", median(bwd[i]) * 1e6, "us", iters);
    }
    out.metric("nn.stateless.fwd_us", median(stateless_f) * 1e6, "us", iters);
    out.metric("nn.stateless.bwd_us", median(stateless_b) * 1e6, "us", iters);

    const auto eval_batch = batch_of(64).first;
    const double eval_fwd =
        median_time(iters, [&] { (void)model.forward(eval_batch, false); }, {}, warmup);
    out.metric("nn.eval_fwd_us", eval_fwd * 1e6, "us", iters);

    Model step_model = model_spec.build();
    step_model.load_state(state);
    Sgd optimizer(step_model.parameters(), ctx.sgd);
    const double step = median_time(iters, [&] { optimizer.step(); }, {}, warmup);
    out.metric("nn.sgd_step_us", step * 1e6, "us", iters);
    const double mask_grads =
        median_time(iters, [&] { combined.apply_to_grads(step_model); }, {}, warmup);
    out.metric("nn.mask_grads_us", mask_grads * 1e6, "us", iters);
  }

  // --- kept FLOPs and density per layer, with the library's own counts as
  // the self-check.
  {
    const ModelTopology& topo = model.topology();
    double conv_sum = 0.0;
    std::size_t prev_kept = topo.conv_blocks.front().conv->in_channels();
    for (std::size_t b = 0; b < topo.conv_blocks.size(); ++b) {
      const Conv2d& conv = *topo.conv_blocks[b].conv;
      const std::vector<std::uint8_t>& keep = channel_mask.block(b);
      const std::size_t kept = static_cast<std::size_t>(std::count(keep.begin(), keep.end(), 1));
      const auto [oh, ow] = topo.conv_out_hw[b];
      const double flops = 2.0 * static_cast<double>(oh * ow * kept * prev_kept *
                                                     conv.kernel() * conv.kernel());
      conv_sum += flops;
      out.metric("nn.conv" + std::to_string(b + 1) + ".kept_mflop", flops / 1e6, "MFLOP", 1);
      prev_kept = kept;
    }
    const double library = static_cast<double>(pruned_conv_flops(model, channel_mask));
    out.check("kept_mflop_sum", conv_sum == library,
              "probe=" + fmt("%.0f", conv_sum) + " pruned_conv_flops=" + fmt("%.0f", library));

    const std::vector<LayerSparsity> rows = layer_sparsity(model, combined);
    for (const std::string& name : kMaskedLayers) {
      const std::string param = name + ".weight";
      const Tensor* mask = combined.find(param);
      std::size_t total = 0, kept = 0;
      for (Parameter* p : model.parameters()) {
        if (p->name == param) total = p->value.numel();
      }
      if (mask == nullptr) {
        kept = total;
      } else {
        for (std::size_t i = 0; i < mask->numel(); ++i) kept += ((*mask)[i] != 0.0f);
      }
      const double density = total == 0 ? 0.0 : static_cast<double>(kept) / total;
      if (name.rfind("fc", 0) == 0) {
        out.metric("nn." + name + ".kept_mflop", 2.0 * static_cast<double>(kept) / 1e6,
                   "MFLOP", 1);
      }
      out.metric("nn." + name + ".density", density, "fraction", 1);
      const auto row = std::find_if(rows.begin(), rows.end(),
                                    [&](const LayerSparsity& r) { return r.name == param; });
      const double library_density =
          row == rows.end() ? -1.0 : 1.0 - row->pruned_fraction();
      out.check("density." + name, row != rows.end() && row->kept == kept && row->total == total,
                "probe=" + fmt("%.6f", density) + " layer_sparsity=" +
                    fmt("%.6f", library_density));
    }
  }

  // --- pruning: the mask derivations and applications one client round
  // performs, on the cohort client's model.
  {
    const std::size_t reps = 21;
    Model prune_model = model_spec.build();
    prune_model.load_state(state);
    const double magnitude = median_time(
        reps, [&] { (void)derive_magnitude_mask(prune_model, weight_mask, w.weight_target); });
    const double channel = median_time(
        reps, [&] { (void)derive_channel_mask(prune_model, channel_mask, w.channel_target); });
    const double to_model =
        median_time(reps, [&] { (void)channel_mask.to_model_mask(prune_model); });
    const double apply = median_time(reps, [&] { combined.apply_to_weights(prune_model); });
    out.metric("pruning.magnitude_mask_ms", magnitude * 1e3, "ms", reps);
    out.metric("pruning.channel_mask_ms", channel * 1e3, "ms", reps);
    out.metric("pruning.to_model_mask_ms", to_model * 1e3, "ms", reps);
    out.metric("pruning.apply_weights_ms", apply * 1e3, "ms", reps);
    out.metric("pruning.gate_open_ratio",
               traced.below_target_rounds == 0
                   ? 0.0
                   : static_cast<double>(traced.committed_prunes) / traced.below_target_rounds,
               "fraction", traced.below_target_rounds);
    out.metric("pruning.channels_kept", static_cast<double>(channel_mask.kept_channels()),
               "count", 1);
  }

  // --- tensor: device counter deltas over the traced repetition's rounds.
  {
    const DeviceStats& a = traced.device_before;
    const DeviceStats& b = traced.device_after;
    const double hits = static_cast<double>(b.plan_hits - a.plan_hits);
    const double misses = static_cast<double>(b.plan_misses - a.plan_misses);
    const double leases = static_cast<double>(b.workspace_leases - a.workspace_leases);
    const double reuses = static_cast<double>(b.workspace_reuses - a.workspace_reuses);
    const double r = static_cast<double>(std::max<std::size_t>(rounds, 1));
    out.metric("tensor.plan_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
               "fraction", static_cast<std::size_t>(hits + misses));
    out.metric("tensor.density_scans_per_round",
               static_cast<double>(b.density_scans - a.density_scans) / r, "count", rounds);
    out.metric("tensor.workspace_reuse_ratio", leases > 0 ? reuses / leases : 0.0, "fraction",
               static_cast<std::size_t>(leases));
    out.metric("tensor.alloc_bytes_per_round",
               static_cast<double>(b.bytes_allocated - a.bytes_allocated) / r, "B", rounds);
  }

  // --- comm: one cohort update through the payload codec.
  {
    const std::size_t reps = 51;
    const QuantCodec codec = parse_quant_codec(w.spec.quantize);
    const ModelMask* mask = sub != nullptr ? &combined : nullptr;
    std::vector<std::uint8_t> bytes;
    const double encode = median_time(reps, [&] { bytes = encode_payload(state, mask, codec); });
    const double decode = median_time(reps, [&] { (void)decode_payload(bytes); });
    out.metric("comm.encode_ms", encode * 1e3, "ms", reps, "bytes=" + std::to_string(bytes.size()));
    out.metric("comm.decode_ms", decode * 1e3, "ms", reps);
    out.metric("comm.compression_ratio", traced.compression_ratio, "ratio", 1);
  }

  double untraced_run_s = 0.0;
  for (const Repetition* rep : untraced) untraced_run_s += rep->run_s / untraced.size();
  out.metric("telemetry.trace_overhead", traced.run_s / untraced_run_s, "ratio",
             untraced.size() + 1);
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
  bool force_mismatch = false;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = std::stoi(value());
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--force-digest-mismatch") {
      a.force_mismatch = true;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1)) {
    throw std::runtime_error(
        "usage: fedbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny] "
        "[--force-digest-mismatch]");
  }
  return a;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed, args.tiny);
  Report out;
  const bool traced_run = args.trace == 1;

  // Extra set-ups give setup_s a median over several samples.
  std::vector<double> setup_samples;
  if (!traced_run) {
    for (int i = 0; i < 3; ++i) {
      ExperimentSpec spec = w.spec;
      spec.telemetry = "off";
      setup_samples.push_back(
          time_call([&] { (void)FederationSession::from_spec(spec); }));
    }
  }

  // A fixed number of repetitions, so every run of a workload pools the same
  // number of rounds: one per kRepetitionSeconds of --seconds, two at least.
  // The traced run is untraced, traced, untraced.
  const std::size_t count =
      traced_run ? 3
                 : std::max<std::size_t>(2, static_cast<std::size_t>(args.seconds /
                                                                     kRepetitionSeconds));
  std::vector<Repetition> reps;
  for (std::size_t i = 0; i < count; ++i) {
    try {
      reps.push_back(run_repetition(w, traced_run && i == 1));
      out.op(true);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "repetition %zu failed: %s\n", i, e.what());
      out.op(false);
      break;
    }
  }
  if (reps.size() < count) {
    std::printf("ops attempted=%zu failed=%zu\n", out.attempted, out.failed);
    return 1;
  }

  for (const Repetition& rep : reps) setup_samples.push_back(rep.setup_s);
  check_repetitions(out, w, reps, args.force_mismatch);

  if (!traced_run) {
    report_end_to_end(out, reps, setup_samples);
  } else {
    std::vector<const Repetition*> untraced = {&reps[0], &reps[2]};
    probe_layers(out, w, reps[1], untraced);
  }
  // ok_frac: the share of attempted operations (repetitions, correctness
  // checks) that succeeded; failed_frac is its complement.
  const double failed_frac = static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  if (!traced_run) {
    out.metric("ok_frac", 1.0 - failed_frac, "fraction", out.attempted,
               "failed_frac=" + fmt("%.17g", failed_frac));
  }
  std::printf("ops attempted=%zu failed=%zu\n", out.attempted, out.failed);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fedbench: %s\n", e.what());
    return 2;
  }
}
