#include "tensor/device.h"

#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <pthread.h>
#include <unordered_map>
#include <utility>

#include "util/check.h"
#include "util/env.h"

namespace subfed {
namespace {

enum class Kind : std::uint8_t { kNaive, kBlocked };

/// The single name→kind table that construction, validation and listing
/// share (sorted by name).
constexpr std::pair<const char*, Kind> kDeviceTable[] = {{"blocked", Kind::kBlocked},
                                                         {"naive", Kind::kNaive}};

const Kind* find_kind(const std::string& name) noexcept {
  for (const auto& [known, kind] : kDeviceTable) {
    if (name == known) return &kind;
  }
  return nullptr;
}

constexpr std::size_t kMinLeaseFloats = 256;

std::size_t lease_class(std::size_t floats) noexcept {
  std::size_t c = kMinLeaseFloats;
  while (c < floats) c <<= 1;
  return c;
}

}  // namespace

// -- Impl ---------------------------------------------------------------------

struct Device::Impl {
  mutable std::mutex pool_mu;
  std::unordered_map<std::size_t, std::vector<float*>> pool;  // size class → free buffers

  std::atomic<std::uint64_t> gemm_plans{0};
  std::atomic<std::uint64_t> workspace_leases{0};
  std::atomic<std::uint64_t> workspace_reuses{0};
  std::atomic<std::uint64_t> bytes_allocated{0};

  Kind kind = Kind::kBlocked;
};

// -- WorkspaceLease -----------------------------------------------------------

WorkspaceLease::WorkspaceLease(WorkspaceLease&& other) noexcept
    : device_(other.device_), data_(other.data_), size_(other.size_) {
  other.device_ = nullptr;
  other.data_ = nullptr;
  other.size_ = 0;
}

WorkspaceLease& WorkspaceLease::operator=(WorkspaceLease&& other) noexcept {
  if (this != &other) {
    reset();
    device_ = other.device_;
    data_ = other.data_;
    size_ = other.size_;
    other.device_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

WorkspaceLease::~WorkspaceLease() { reset(); }

void WorkspaceLease::reset() noexcept {
  if (data_ != nullptr) device_->release(data_, size_);
  device_ = nullptr;
  data_ = nullptr;
  size_ = 0;
}

// -- Device -------------------------------------------------------------------

Device::Device(const std::string& name) : name_(name), impl_(new Impl) {
  impl_->kind = *find_kind(name);
}

Device::~Device() {
  std::lock_guard<std::mutex> lock(impl_->pool_mu);
  for (auto& [size_class, buffers] : impl_->pool) {
    for (float* data : buffers) {
      ::operator delete(data, std::align_val_t{64});
    }
  }
}

float* Device::allocate(std::size_t floats) const {
  if (floats == 0) floats = 1;
  impl_->bytes_allocated.fetch_add(floats * sizeof(float), std::memory_order_relaxed);
  return static_cast<float*>(::operator new(floats * sizeof(float), std::align_val_t{64}));
}

void Device::deallocate(float* data, std::size_t /*floats*/) const noexcept {
  if (data != nullptr) ::operator delete(data, std::align_val_t{64});
}

WorkspaceLease Device::lease(std::size_t floats) const {
  const std::size_t size_class = lease_class(floats);
  impl_->workspace_leases.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl_->pool_mu);
    auto it = impl_->pool.find(size_class);
    if (it != impl_->pool.end() && !it->second.empty()) {
      float* data = it->second.back();
      it->second.pop_back();
      impl_->workspace_reuses.fetch_add(1, std::memory_order_relaxed);
      return WorkspaceLease(this, data, size_class);
    }
  }
  return WorkspaceLease(this, allocate(size_class), size_class);
}

void Device::release(float* data, std::size_t floats) const noexcept {
  std::lock_guard<std::mutex> lock(impl_->pool_mu);
  impl_->pool[floats].push_back(data);
}

DeviceStats Device::stats() const noexcept {
  DeviceStats s;
  s.plan_misses = impl_->gemm_plans.load(std::memory_order_relaxed);
  s.workspace_leases = impl_->workspace_leases.load(std::memory_order_relaxed);
  s.workspace_reuses = impl_->workspace_reuses.load(std::memory_order_relaxed);
  s.bytes_allocated = impl_->bytes_allocated.load(std::memory_order_relaxed);
  return s;
}

void Device::gemm(GemmOp op, const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n, bool accumulate,
                  const GemmEpilogue* ep) const {
  if (kern::handle_trivial(c, m, k, n, accumulate)) {
    if (ep != nullptr && m > 0 && n > 0) kern::apply_epilogue_rows(c, n, 0, m, *ep);
    return;
  }
  if (impl_->kind == Kind::kNaive) {
    switch (op) {
      case GemmOp::kNN:
        accumulate ? gemm_accumulate(a, b, c, m, k, n) : subfed::gemm(a, b, c, m, k, n);
        break;
      case GemmOp::kTN:
        accumulate ? gemm_at_b_accumulate(a, b, c, m, k, n) : gemm_at_b(a, b, c, m, k, n);
        break;
      case GemmOp::kNT:
        accumulate ? gemm_a_bt_accumulate(a, b, c, m, k, n) : gemm_a_bt(a, b, c, m, k, n);
        break;
    }
    if (ep != nullptr) kern::apply_epilogue_rows(c, n, 0, m, *ep);
    return;
  }

  const std::size_t chunks = kern::plan_chunks(m, 2 * m * k * n);
  impl_->gemm_plans.fetch_add(1, std::memory_order_relaxed);
  switch (op) {
    case GemmOp::kNN:
      if (ep != nullptr) {
        kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
          kern::gemm_panel_nn_fused(a, b, c, /*lda=*/k, k, n, i0, i1, accumulate, *ep);
        });
        return;
      }
      kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
        kern::gemm_panel_nn(a, b, c, /*lda=*/k, k, n, i0, i1, accumulate);
      });
      return;
    case GemmOp::kTN:
      kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
        kern::gemm_panel_tn(a, b, c, /*lda=*/m, k, n, i0, i1, accumulate);
      });
      break;
    case GemmOp::kNT:
      kern::run_row_chunks(m, chunks, [&](std::size_t i0, std::size_t i1) {
        kern::gemm_panel_nt(a, b, c, k, n, i0, i1, accumulate);
      });
      break;
  }
  if (ep != nullptr) kern::apply_epilogue_rows(c, n, 0, m, *ep);
}

void Device::conv_forward(const float* weight, std::size_t m, const float* input,
                          std::size_t batch, const ConvGeometry& g, float* output,
                          const GemmEpilogue* epilogue) const {
  const std::size_t k = g.patch_size(), spatial = g.out_h() * g.out_w(), cols = batch * spatial;
  if (m == 0 || cols == 0) return;
  if (impl_->kind != Kind::kNaive) {
    kern::conv_forward(weight, m, input, batch, g, output, epilogue);
    return;
  }
  // Unrolled: the whole batch's patch matrix, one GEMM, then a regroup of
  // [m, N·spatial] into [N, m, spatial].
  const std::size_t in_plane = g.in_channels * g.in_h * g.in_w;
  WorkspaceLease columns = lease(k * cols);
  WorkspaceLease product = lease(m * cols);
  for (std::size_t n = 0; n < batch; ++n) {
    im2col_strided(input + n * in_plane, g, columns.data(), cols, n * spatial);
  }
  gemm(GemmOp::kNN, weight, columns.data(), product.data(), m, k, cols, /*accumulate=*/false,
       epilogue);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t row = 0; row < m; ++row) {
      std::memcpy(output + (n * m + row) * spatial, product.data() + row * cols + n * spatial,
                  spatial * sizeof(float));
    }
  }
}

void Device::conv_weight_grad(const float* grad_output, std::size_t m, const float* input,
                              std::size_t batch, const ConvGeometry& g, float* dw) const {
  const std::size_t k = g.patch_size(), spatial = g.out_h() * g.out_w(), cols = batch * spatial;
  if (m == 0 || k == 0 || cols == 0) return;
  if (impl_->kind != Kind::kNaive) {
    kern::conv_weight_grad(grad_output, m, input, batch, g, dw);
    return;
  }
  // Unrolled: dY regrouped to [m, N·spatial] against the batch's patches.
  const std::size_t in_plane = g.in_channels * g.in_h * g.in_w;
  WorkspaceLease columns = lease(k * cols);
  WorkspaceLease dy = lease(m * cols);
  for (std::size_t n = 0; n < batch; ++n) {
    im2col_strided(input + n * in_plane, g, columns.data(), cols, n * spatial);
    for (std::size_t row = 0; row < m; ++row) {
      std::memcpy(dy.data() + row * cols + n * spatial, grad_output + (n * m + row) * spatial,
                  spatial * sizeof(float));
    }
  }
  gemm_a_bt_accumulate(dy.data(), columns.data(), dw, m, cols, k);
}

// -- registry -----------------------------------------------------------------

namespace {

std::mutex& registry_mutex() {
  static std::mutex mu;
  return mu;
}

std::map<std::string, Device*>& registry() {
  // Heap-allocated and never destroyed — not a plain static — so the devices
  // stay *reachable* through it at exit: LSan would otherwise report every
  // device (and its pooled workspaces) once the map's nodes were freed.
  static auto* reg = new std::map<std::string, Device*>;
  return *reg;
}

}  // namespace

void Device::lock_for_fork() noexcept {
  registry_mutex().lock();
  for (auto& [key, device] : registry()) {
    device->impl_->pool_mu.lock();
  }
}

void Device::unlock_after_fork() noexcept {
  for (auto& [key, device] : registry()) {
    device->impl_->pool_mu.unlock();
  }
  registry_mutex().unlock();
}

// Registered during static initialization, before any thread can fork.
const bool Device::fork_handlers_registered_ =
    ::pthread_atfork(&Device::lock_for_fork, &Device::unlock_after_fork,
                     &Device::unlock_after_fork) == 0;

const Device& get_device(const std::string& name) {
  SUBFEDAVG_CHECK(find_kind(name) != nullptr,
                  "unknown device '" << name << "' (blocked | naive)");
  std::lock_guard<std::mutex> lock(registry_mutex());
  Device*& slot = registry()[name];
  // Intentionally never destroyed: leases held by static-lifetime objects may
  // drain back into the pool during any phase of shutdown.
  if (slot == nullptr) slot = new Device(name);
  return *slot;
}

bool has_device(const std::string& name) { return find_kind(name) != nullptr; }

std::vector<std::string> list_devices() {
  std::vector<std::string> names;
  for (const auto& [name, kind] : kDeviceTable) names.emplace_back(name);
  return names;
}

const Device& default_device() {
  static const Device& device = get_device(env_string("SUBFEDAVG_BACKEND", "blocked"));
  return device;
}

}  // namespace subfed
