#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

namespace subfed {

namespace {

// Accumulating micro-kernel: C[m×n] += A[m×k]·B[k×n], ikj order so the inner
// loop streams B and C rows (unit stride, auto-vectorizable).
void gemm_ikj(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
              std::size_t n) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;  // masked weights are exact zeros; skip the row
      const float* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

}  // namespace

void gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
          std::size_t n) noexcept {
  std::memset(c, 0, m * n * sizeof(float));
  gemm_ikj(a, b, c, m, k, n);
}

void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) noexcept {
  gemm_ikj(a, b, c, m, k, n);
}

void gemm_at_b(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n) noexcept {
  std::memset(c, 0, m * n * sizeof(float));
  gemm_at_b_accumulate(a, b, c, m, k, n);
}

void gemm_at_b_accumulate(const float* a, const float* b, float* c, std::size_t m,
                          std::size_t k, std::size_t n) noexcept {
  // C[i,j] += sum_p A[p,i] * B[p,j] — stream rows of A and B together.
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_a_bt(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n) noexcept {
  // C[i,j] = dot(A row i, B row j); both rows are unit-stride.
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

void gemm_a_bt_accumulate(const float* a, const float* b, float* c, std::size_t m,
                          std::size_t k, std::size_t n) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

void im2col(const float* image, const ConvGeometry& g, float* columns) noexcept {
  im2col_strided(image, g, columns, g.out_h() * g.out_w(), 0);
}

void col2im(const float* columns, const ConvGeometry& g, float* image) noexcept {
  col2im_strided(columns, g, image, g.out_h() * g.out_w(), 0);
}

namespace {

/// Output columns [lo, hi) whose tap at kernel offset `k` lands inside an
/// input extent of `in` at stride 1 (input index = out + k − pad); empty
/// (lo == hi) when the tap only ever reads the padded halo.
struct InBounds {
  std::size_t lo, hi;
};

InBounds stride1_span(std::size_t k, std::size_t pad, std::size_t in, std::size_t out) noexcept {
  const std::size_t lo = std::min(out, pad > k ? pad - k : 0);
  const std::size_t end = in + pad > k ? in + pad - k : 0;  // first out-of-bounds column
  return {lo, std::max(lo, std::min(out, end))};
}

}  // namespace

void im2col_strided(const float* image, const ConvGeometry& g, float* columns,
                    std::size_t col_stride, std::size_t col_offset) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* plane = image + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        float* out = columns + row * col_stride + col_offset;
        if (g.stride == 1) {
          // Each output row is one contiguous input span plus a zero halo.
          const InBounds ys = stride1_span(ky, g.pad, g.in_h, oh);
          const InBounds xs = stride1_span(kx, g.pad, g.in_w, ow);
          if (xs.lo == xs.hi) {
            std::memset(out, 0, oh * ow * sizeof(float));
            continue;
          }
          const std::size_t x0 = xs.lo + kx - g.pad;  // input column of the first kept tap
          std::memset(out, 0, ys.lo * ow * sizeof(float));
          for (std::size_t y = ys.lo; y < ys.hi; ++y) {
            float* dst = out + y * ow;
            std::memset(dst, 0, xs.lo * sizeof(float));
            std::memcpy(dst + xs.lo, plane + (y + ky - g.pad) * g.in_w + x0,
                        (xs.hi - xs.lo) * sizeof(float));
            std::memset(dst + xs.hi, 0, (ow - xs.hi) * sizeof(float));
          }
          std::memset(out + ys.hi * ow, 0, (oh - ys.hi) * ow * sizeof(float));
          continue;
        }
        for (std::size_t y = 0; y < oh; ++y) {
          // Input row for this output row; may fall in the padded halo.
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride + ky) - static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) {
            std::memset(out + y * ow, 0, ow * sizeof(float));
            continue;
          }
          const float* src = plane + static_cast<std::size_t>(iy) * g.in_w;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(x * g.stride + kx) -
                                      static_cast<std::ptrdiff_t>(g.pad);
            out[y * ow + x] = (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w))
                                  ? 0.0f
                                  : src[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

void col2im_strided(const float* columns, const ConvGeometry& g, float* image,
                    std::size_t col_stride, std::size_t col_offset) noexcept {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  std::memset(image, 0, g.in_channels * g.in_h * g.in_w * sizeof(float));
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* plane = image + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* in = columns + row * col_stride + col_offset;
        if (g.stride == 1) {
          // Same (y, x) order and additions as below, minus the bounds tests.
          const InBounds ys = stride1_span(ky, g.pad, g.in_h, oh);
          const InBounds xs = stride1_span(kx, g.pad, g.in_w, ow);
          const std::size_t x0 = xs.lo + kx - g.pad;  // as in im2col_strided
          const std::size_t width = xs.hi - xs.lo;
          for (std::size_t y = ys.lo; y < ys.hi && width > 0; ++y) {
            float* dst = plane + (y + ky - g.pad) * g.in_w + x0;
            const float* src = in + y * ow + xs.lo;
            for (std::size_t x = 0; x < width; ++x) dst[x] += src[x];
          }
          continue;
        }
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride + ky) - static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          float* dst = plane + static_cast<std::size_t>(iy) * g.in_w;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(x * g.stride + kx) -
                                      static_cast<std::ptrdiff_t>(g.pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            dst[static_cast<std::size_t>(ix)] += in[y * ow + x];
          }
        }
      }
    }
  }
}

}  // namespace subfed
