// Device API: registry (and the refusal of unknown names), concurrent
// callers, GEMM-plan counters, workspace leases (and a pool that does not grow with the
// number of models), fork safety, fused conv→bn→relu epilogues
// (bit-identical to the unfused chain), and the registered env-knob table
// (asserted against the README in both directions).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fl/experiment.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/sgd.h"
#include "pruning/unstructured.h"
#include "telemetry/telemetry.h"
#include "tensor/device.h"
#include "util/check.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace subfed {
namespace {

// The pool must have several workers even on single-core CI runners or the
// devices would never actually fan a GEMM out. Runs before main(), i.e.
// before anything touches ThreadPool::global().
const bool kPoolEnvReady = [] {
  setenv("SUBFEDAVG_THREADS", "4", /*overwrite=*/0);
  return true;
}();

std::vector<float> random_vec(Rng& rng, std::size_t n) {
  std::vector<float> out(n);
  for (auto& x : out) x = static_cast<float>(rng.normal());
  return out;
}

/// Reference result through the naive oracle.
std::vector<float> naive_nn(const std::vector<float>& a, const std::vector<float>& b,
                            std::size_t m, std::size_t k, std::size_t n) {
  std::vector<float> c(m * n, 0.0f);
  gemm(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

// ---------------------------------------------------------------------------
// Registry

TEST(DeviceRegistry, BackendNamesAliasOntoSingletonDevices) {
  const Device& blocked = get_device("blocked");
  EXPECT_EQ(blocked.name(), "blocked");
  EXPECT_EQ(&blocked, &get_device("blocked"));
  EXPECT_NE(&blocked, &get_device("naive"));

  EXPECT_TRUE(has_device("naive"));
  EXPECT_FALSE(has_device("cublas"));

  const std::vector<std::string> names = list_devices();
  EXPECT_EQ(names, (std::vector<std::string>{"blocked", "naive"}));
}

/// "sparse" named a device that no longer exists; old specs and env settings
/// naming it fail like any other unknown name.
TEST(DeviceRegistry, UnknownNamesFailListingTheValidOnes) {
  for (const char* name : {"cublas", "sparse"}) {
    EXPECT_FALSE(has_device(name)) << name;
    try {
      get_device(name);
      FAIL() << "expected CheckError for " << name;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("blocked | naive"), std::string::npos) << e.what();
    }
  }
}

TEST(DeviceRegistry, SpecValidationListsTheDevices) {
  ExperimentSpec bogus;
  bogus.clients = 4;
  bogus.shards_per_client = 2;
  bogus.shard = 20;
  bogus.test_per_class = 4;
  const FederatedData data(bogus.dataset_spec(), bogus.data_config());
  for (const char* name : {"cublas", "sparse"}) {
    bogus.backend = name;
    try {
      bogus.make_context(data);
      FAIL() << "expected CheckError for " << name;
    } catch (const CheckError& e) {
      const std::string what = e.what();
      // The message enumerates the device registry.
      EXPECT_NE(what.find("auto | blocked | naive"), std::string::npos) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency

TEST(DeviceConcurrency, ConcurrentCallersShareTheDeviceSafely) {
  const Device& dev = get_device("blocked");
  const std::size_t m = 41, k = 67, n = 31;
  Rng rng(12);
  const std::vector<float> a = random_vec(rng, m * k);
  const std::vector<float> b = random_vec(rng, k * n);
  const std::vector<float> want = naive_nn(a, b, m, k, n);

  constexpr std::size_t kThreads = 8, kCallsPerThread = 50;
  std::vector<std::thread> workers;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<float> c(m * n);
      for (std::size_t i = 0; i < kCallsPerThread; ++i) {
        dev.gemm(GemmOp::kNN, a.data(), b.data(), c.data(), m, k, n, false);
      }
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (std::fabs(c[i] - want[i]) > 1e-4 * (1.0 + std::fabs(want[i]))) return;
      }
      ok[t] = 1;
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
}

/// No plan is cached: every blocked GEMM computes its row-chunk plan (one
/// miss per call, never a hit), naive runs unplanned, and no device scans
/// weight densities.
TEST(DeviceConcurrency, EveryBlockedGemmCountsOnePlanMiss) {
  const std::size_t m = 9, k = 13, n = 7;
  Rng rng(5);
  const std::vector<float> a = random_vec(rng, m * k);
  const std::vector<float> b = random_vec(rng, k * n);
  std::vector<float> c(m * n);
  for (const char* name : {"blocked", "naive"}) {
    SCOPED_TRACE(name);
    const Device& dev = get_device(name);
    const DeviceStats before = dev.stats();
    for (int i = 0; i < 3; ++i) {
      dev.gemm(GemmOp::kNN, a.data(), b.data(), c.data(), m, k, n, false);
    }
    const DeviceStats after = dev.stats();
    EXPECT_EQ(after.plan_misses - before.plan_misses, std::string(name) == "blocked" ? 3u : 0u);
    EXPECT_EQ(after.plan_hits, 0u);
    EXPECT_EQ(after.density_scans, 0u);
  }
}

// ---------------------------------------------------------------------------
// Workspace leases

TEST(Workspace, LeasesRecycleThroughTheDevicePool) {
  const Device& dev = get_device("naive");  // quiet pool, stats readable
  const DeviceStats before = dev.stats();
  float* first = nullptr;
  {
    WorkspaceLease lease = dev.lease(1000);
    ASSERT_TRUE(lease);
    EXPECT_GE(lease.size(), 1000u);
    first = lease.data();
    lease.data()[0] = 1.0f;  // writable
  }
  WorkspaceLease again = dev.lease(900);  // same size class (1024)
  EXPECT_EQ(again.data(), first);
  const DeviceStats after = dev.stats();
  EXPECT_EQ(after.workspace_leases, before.workspace_leases + 2);
  EXPECT_GE(after.workspace_reuses, before.workspace_reuses + 1);

  // Moves transfer ownership; reset is idempotent.
  WorkspaceLease moved = std::move(again);
  EXPECT_EQ(moved.data(), first);
  EXPECT_FALSE(again);  // NOLINT(bugprone-use-after-move)
  moved.reset();
  moved.reset();
  EXPECT_FALSE(moved);
}

/// Conv layers lease scratch per call and hold none between calls, so the
/// device pool a federation draws on does not grow with its client count:
/// once one LeNet-5 has run an eval forward and a train step, seven more
/// models — all kept alive, as a federation's clients are — run on the same
/// pooled buffers. (A layer that kept its batch's patch matrix held 15 MB at
/// the eval batch of 64.)
TEST(Workspace, DevicePoolDoesNotGrowWithTheModelCount) {
  Rng rng(15);
  Tensor eval_batch({64, 3, 32, 32});
  eval_batch.fill_normal(rng, 0.0f, 1.0f);
  Tensor train_batch({10, 3, 32, 32});
  train_batch.fill_normal(rng, 0.0f, 1.0f);
  std::vector<std::int32_t> labels(10);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<std::int32_t>(i);
  for (const char* backend : {"blocked", "naive"}) {
    ModelSpec spec = ModelSpec::lenet5(10);
    spec.backend = backend;
    const Device& dev = get_device(backend);
    std::vector<Model> models;
    std::uint64_t after_first = 0;
    for (int i = 0; i < 8; ++i) {
      models.push_back(spec.build_init(rng));
      Model& model = models.back();
      model.forward(eval_batch, /*train=*/false);
      Sgd optimizer(model.parameters(), SgdConfig{});
      const Tensor logits = model.forward(train_batch, /*train=*/true);
      model.backward(softmax_cross_entropy(logits, labels).grad_logits);
      optimizer.step();
      if (i == 0) after_first = dev.stats().bytes_allocated;
    }
    EXPECT_EQ(dev.stats().bytes_allocated, after_first)
        << backend << ": the device pool grew with the number of models";
  }
}

// ---------------------------------------------------------------------------
// Fork safety

/// The subprocess transport forks while other threads (other sweep runs) keep
/// leasing and computing on the shared devices. A child forked while one of
/// them holds a device's pool mutex, or a telemetry registry mutex,
/// must still find it unlocked: each child leases, runs a GEMM and exits. The
/// parent reaps against a deadline, so a regression fails instead of hanging.
TEST(ForkSafety, ChildrenForkedWhileThreadsHammerADeviceNeverBlock) {
  const Device& dev = get_device("blocked");
  constexpr std::size_t kDim = 16;
  constexpr int kHammers = 3, kChildren = 200;
  std::atomic<bool> stop{false};
  std::vector<std::thread> hammers;
  for (int t = 0; t < kHammers; ++t) {
    hammers.emplace_back([&dev, &stop, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      const std::vector<float> a = random_vec(rng, kDim * kDim);
      const std::vector<float> b = random_vec(rng, kDim * kDim);
      std::vector<float> c(kDim * kDim);
      while (!stop.load(std::memory_order_relaxed)) {
        WorkspaceLease lease = dev.lease(std::size_t{256} << t);
        dev.gemm(GemmOp::kNN, a.data(), b.data(), c.data(), kDim, kDim, kDim, false);
        telemetry::counter("test.fork_hammer").add();
      }
    });
  }

  std::vector<pid_t> children;
  for (int i = 0; i < kChildren; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ThreadPool::enter_forked_child();
      WorkspaceLease lease = dev.lease(512);
      std::vector<float> a(kDim * kDim, 1.0f), c(kDim * kDim);
      dev.gemm(GemmOp::kNN, a.data(), a.data(), c.data(), kDim, kDim, kDim, false);
      telemetry::counter("test.fork_child").add();
      ::_exit(c[0] == static_cast<float>(kDim) ? 0 : 2);
    }
    if (pid < 0) break;
    children.push_back(pid);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : hammers) t.join();
  EXPECT_EQ(children.size(), static_cast<std::size_t>(kChildren)) << "fork() failed";

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::size_t hung = 0, failed = 0;
  for (const pid_t pid : children) {
    int status = 0;
    for (;;) {
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failed;
        break;
      }
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        ++hung;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(hung, 0u) << "children blocked on a lock inherited across fork()";
  EXPECT_EQ(failed, 0u);
}

// ---------------------------------------------------------------------------
// Fused epilogues

/// A model with nonzero conv biases and moved BN running stats, so the fused
/// epilogue exercises every term (bias, γ/β/mean/var, relu).
Model warmed_model(const ModelSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  Model model = spec.build_init(rng);
  Rng brng = rng.split("bias");
  for (Parameter* p : model.parameters()) {
    if (p->name.find(".bias") != std::string::npos) p->value.fill_normal(brng, 0.0f, 0.1f);
  }
  Tensor warm({4, spec.in_channels, spec.input_hw, spec.input_hw});
  warm.fill_normal(brng, 0.0f, 1.0f);
  model.forward(warm, /*train=*/true);  // move BN running stats off their init
  return model;
}

TEST(FusedEpilogue, EvalForwardIsBitIdenticalToTheUnfusedChain) {
  struct Net {
    const char* name;
    ModelSpec spec;
  };
  const Net nets[] = {{"cnn5", ModelSpec::cnn5(10)},
                      {"lenet5", ModelSpec::lenet5(10)},
                      {"cnn_deep", ModelSpec::cnn_deep(10)}};
  for (const Net& net : nets) {
    for (const char* backend : {"naive", "blocked"}) {
      ModelSpec spec = net.spec;
      spec.backend = backend;
      Model model = warmed_model(spec, 21);
      Rng rng(22);
      Tensor batch({3, spec.in_channels, spec.input_hw, spec.input_hw});
      batch.fill_normal(rng, 0.0f, 1.0f);

      model.set_fusion(false);
      const Tensor unfused = model.forward(batch, /*train=*/false);
      model.set_fusion(true);
      const Tensor fused = model.forward(batch, /*train=*/false);

      ASSERT_EQ(unfused.shape(), fused.shape());
      EXPECT_EQ(std::memcmp(unfused.data(), fused.data(), unfused.numel() * sizeof(float)), 0)
          << net.name << " on " << backend;

      // Pruned weights: still bit-identical.
      ModelMask mask = ModelMask::ones_like(model, MaskScope::kAllPrunable);
      mask = derive_magnitude_mask(model, mask, 0.85);
      mask.apply_to_weights(model);
      model.set_fusion(false);
      const Tensor pruned_unfused = model.forward(batch, /*train=*/false);
      model.set_fusion(true);
      const Tensor pruned_fused = model.forward(batch, /*train=*/false);
      EXPECT_EQ(std::memcmp(pruned_unfused.data(), pruned_fused.data(),
                            pruned_unfused.numel() * sizeof(float)),
                0)
          << net.name << " pruned on " << backend;
    }
  }
}

TEST(FusedEpilogue, BackwardAfterFusedEvalStillFailsLoudly) {
  Model model = warmed_model(ModelSpec::cnn5(10), 23);
  model.set_fusion(true);
  Rng rng(24);
  Tensor batch({2, 1, 28, 28});
  batch.fill_normal(rng, 0.0f, 1.0f);
  const Tensor out = model.forward(batch, /*train=*/false);
  Tensor grad(out.shape());
  grad.fill_normal(rng, 0.0f, 1.0f);
  EXPECT_THROW(model.backward(grad), CheckError);
}

// ---------------------------------------------------------------------------
// Env-knob registry

TEST(EnvKnobs, AccessorsRejectUnregisteredNames) {
  EXPECT_THROW(env_int("SUBFEDAVG_NOT_A_KNOB", 1), CheckError);
  EXPECT_THROW(env_string("TOTALLY_UNKNOWN", "x"), CheckError);
  // Registered names work, test-only ones stay out of the documented set.
  EXPECT_EQ(env_string("SUBFEDAVG_BACKEND", "blocked").empty(), false);
  bool found_test_knob = false;
  for (const EnvKnob& knob : list_env_knobs()) {
    if (std::string(knob.name) == "SUBFEDAVG_TEST_ENV") {
      found_test_knob = true;
      EXPECT_FALSE(knob.documented);
    }
  }
  EXPECT_TRUE(found_test_knob);
}

std::string unescape_cell(std::string cell) {
  std::size_t pos = 0;
  while ((pos = cell.find("\\|", pos)) != std::string::npos) cell.erase(pos, 1);
  return cell;
}

TEST(EnvKnobs, ReadmeTableMatchesTheRegistryBothWays) {
  const char* repo = std::getenv("SUBFED_REPO_DIR");
  if (repo == nullptr || *repo == '\0') {
    GTEST_SKIP() << "SUBFED_REPO_DIR not set (ctest sets it; set it manually otherwise)";
  }
  std::ifstream readme(std::filesystem::path(repo) / "README.md");
  ASSERT_TRUE(readme.good());

  // Parse `| \`SUBFEDAVG_*\` | default | doc |` rows.
  struct Row {
    std::string name, fallback, doc;
  };
  std::vector<Row> rows;
  std::string line;
  while (std::getline(readme, line)) {
    if (line.rfind("| `SUBFEDAVG_", 0) != 0) continue;
    ASSERT_GE(line.size(), 4u) << line;
    std::string body = line.substr(2, line.size() - 4);  // strip "| " and " |"
    std::vector<std::string> cells;
    std::size_t start = 0;
    while (true) {
      const std::size_t sep = body.find(" | ", start);
      if (sep == std::string::npos) {
        cells.push_back(body.substr(start));
        break;
      }
      cells.push_back(body.substr(start, sep - start));
      start = sep + 3;
    }
    ASSERT_EQ(cells.size(), 3u) << line;
    Row row;
    row.name = cells[0].substr(1, cells[0].size() - 2);  // strip backticks
    row.fallback = unescape_cell(cells[1]);
    row.doc = unescape_cell(cells[2]);
    rows.push_back(row);
  }
  ASSERT_FALSE(rows.empty());

  // Every documented knob has a row with the exact default and doc string —
  // and the README has no rows the registry doesn't know about.
  std::size_t documented = 0;
  for (const EnvKnob& knob : list_env_knobs()) {
    if (!knob.documented) continue;
    ++documented;
    bool found = false;
    for (const Row& row : rows) {
      if (row.name != knob.name) continue;
      found = true;
      EXPECT_EQ(row.fallback, knob.fallback) << knob.name;
      EXPECT_EQ(row.doc, knob.doc) << knob.name;
    }
    EXPECT_TRUE(found) << knob.name << " missing from the README env table";
  }
  EXPECT_EQ(rows.size(), documented) << "README rows without a registered knob";
  for (const Row& row : rows) {
    bool known = false;
    for (const EnvKnob& knob : list_env_knobs()) {
      if (row.name == knob.name) known = true;
    }
    EXPECT_TRUE(known) << row.name << " is in the README but not util/env.cpp";
  }
}

}  // namespace
}  // namespace subfed
