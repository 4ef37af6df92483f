// Storage-owning compute devices — the single compute seam every GEMM and
// convolution in the layer hot path goes through.
//
// A device is one of two kernel sets, chosen by name from the registry
// below, plus the execution state the raw kernels (tensor/kernels.h,
// tensor/gemm.h) cannot hold:
//
//   * "naive"   — the reference loops in tensor/gemm.h, the correctness
//                 oracle the equivalence suite compares the other against;
//   * "blocked" — cache-blocked, register-tiled panels parallelized over row
//                 chunks (the process default).
//
// On top of the kernels each device owns:
//
//   * workspace leases — scratch comes from a per-device pooled allocator
//     (RAII WorkspaceLease), leased per call and returned on scope exit: the
//     blocked conv is an implicit GEMM that reads its patches from the input
//     tensor, so no layer holds a patch matrix between calls;
//   * fused conv→batchnorm→activation epilogues applied in the blocked
//     GEMM's register tiles (see tensor/kernels.h, GemmEpilogue).
//
// Devices are process-lifetime singletons, safe to share across threads.
// Determinism: per device, results are bit-identical for any math_threads
// value (the thread fan-out only splits rows and kernels accumulate in
// ascending-k order); against naive the equivalence suite compares within
// floating-point contraction tolerance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/kernels.h"

namespace subfed {

/// Caps the number of row panels a single GEMM fans out to on the global
/// thread pool. 0 (the default) means "pool size". Values only affect
/// wall-clock time, never results — kernels accumulate each output element in
/// a thread-count-independent order. Initialized from SUBFEDAVG_MATH_THREADS.
void set_math_threads(std::size_t n) noexcept;
std::size_t math_threads() noexcept;

/// GEMM orientation. All matrices are row-major:
/// kNN: C = A[m×k]·B[k×n]; kTN: A stored [k×m]; kNT: B stored [n×k].
enum class GemmOp : std::uint8_t { kNN, kTN, kNT };

class Device;

/// RAII lease of device-owned scratch. The granted capacity (`size()`, in
/// floats, ≥ the request) comes from a pooled size-class allocator; returning
/// the lease (destructor or reset()) recycles the buffer without freeing it,
/// so steady-state training does no per-call allocation. Contents are
/// uninitialized. Movable, not copyable; may outlive arbitrary other leases
/// but not the device (devices live for the process).
class WorkspaceLease {
 public:
  WorkspaceLease() = default;
  WorkspaceLease(WorkspaceLease&& other) noexcept;
  WorkspaceLease& operator=(WorkspaceLease&& other) noexcept;
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;
  ~WorkspaceLease();

  /// Returns the buffer to the device pool now (idempotent).
  void reset() noexcept;

  float* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  explicit operator bool() const noexcept { return data_ != nullptr; }

 private:
  friend class Device;
  WorkspaceLease(const Device* device, float* data, std::size_t size) noexcept
      : device_(device), data_(data), size_(size) {}

  const Device* device_ = nullptr;
  float* data_ = nullptr;
  std::size_t size_ = 0;  ///< granted capacity in floats
};

/// Always-on (relaxed-atomic) GEMM-plan and workspace-pool counters,
/// independent of the telemetry level — tests assert device behaviour
/// through these.
struct DeviceStats {
  /// Always 0: devices cache no GEMM plans, so no plan is ever a hit.
  std::uint64_t plan_hits = 0;
  /// Row-chunk plans computed — one per blocked gemm() call that reaches the
  /// kernels (every plan is computed afresh; naive runs unplanned).
  std::uint64_t plan_misses = 0;
  /// Always 0: devices never scan weight densities.
  std::uint64_t density_scans = 0;
  std::uint64_t workspace_leases = 0; ///< lease() calls
  std::uint64_t workspace_reuses = 0; ///< leases served from the pool
  std::uint64_t bytes_allocated = 0;  ///< cumulative raw buffer allocations
};

/// A compute device: one kernel set + the owned state described above. All
/// methods are const and thread-safe; the workspace pool is internally
/// synchronized. Obtain one through get_device().
class Device {
 public:
  ~Device();
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// "naive" | "blocked".
  const std::string& name() const noexcept { return name_; }

  // --- storage ---------------------------------------------------------------

  /// Raw 64-byte-aligned buffer of `floats` elements (uninitialized). Pair
  /// with deallocate. Most callers want lease() instead.
  float* allocate(std::size_t floats) const;
  void deallocate(float* data, std::size_t floats) const noexcept;

  /// Leases pooled scratch of at least `floats` elements (see WorkspaceLease).
  WorkspaceLease lease(std::size_t floats) const;

  // --- compute ---------------------------------------------------------------

  /// GEMM: C[m×n] (+)= op(A)·op(B), fanned out over row chunks on blocked.
  /// `epilogue` fuses a conv→bn→activation tail into the store-back
  /// (bit-identical to the unfused layer chain, any device).
  void gemm(GemmOp op, const float* a, const float* b, float* c, std::size_t m,
            std::size_t k, std::size_t n, bool accumulate,
            const GemmEpilogue* epilogue = nullptr) const;

  /// Conv forward: output[N, m, oh, ow] = W[m × g.patch_size()] applied to
  /// each sample of input[N, C, H, W], then `epilogue` (the conv bias and any
  /// fused bn/activation; nullptr = none). Blocked is the implicit GEMM of
  /// tensor/kernels.h on the calling thread; naive unrolls the batch into a
  /// per-call lease and runs its GEMM. Bit-identical to im2col_strided +
  /// gemm(kNN) on the same device.
  void conv_forward(const float* weight, std::size_t m, const float* input, std::size_t batch,
                    const ConvGeometry& g, float* output, const GemmEpilogue* epilogue) const;
  /// Conv weight gradient: dw[m × g.patch_size()] += dY · patchesᵀ, dY the
  /// [N, m, oh, ow] output gradient — gemm(kNT, accumulate) over the batch's
  /// patch matrix, implicit on blocked, unrolled on naive.
  void conv_weight_grad(const float* grad_output, std::size_t m, const float* input,
                        std::size_t batch, const ConvGeometry& g, float* dw) const;

  DeviceStats stats() const noexcept;

 private:
  friend class WorkspaceLease;
  friend const Device& get_device(const std::string& name);
  struct Impl;

  /// Registry-only: `name` must be a registered kernel set.
  explicit Device(const std::string& name);

  /// pthread_atfork handlers: a fork() landing while another thread holds a
  /// registered device's pool mutex would leave the single-threaded child
  /// blocked forever in lease(). The prepare handler takes the registry
  /// mutex, then every registered device's pool_mu; the parent and child
  /// handlers release them.
  static void lock_for_fork() noexcept;
  static void unlock_after_fork() noexcept;
  static const bool fork_handlers_registered_;

  void release(float* data, std::size_t floats) const noexcept;

  std::string name_;
  std::unique_ptr<Impl> impl_;
};

/// Device registry: "naive" | "blocked" resolve to process-lifetime
/// singletons. Throws CheckError listing the valid names on an unknown one.
const Device& get_device(const std::string& name);

/// True when `name` names a registered device.
bool has_device(const std::string& name);

/// Every device name the registry resolves, sorted.
std::vector<std::string> list_devices();

/// The process-wide default device: SUBFEDAVG_BACKEND (default "blocked").
/// Resolved once; a bad env value throws on first use
/// (ExperimentSpec::make_context resolves eagerly).
const Device& default_device();

}  // namespace subfed
