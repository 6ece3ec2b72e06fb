#pragma once
// Structured tensor operations: matrix products, transposes, im2col/col2im
// (the workhorses behind Conv2d), and row-wise reductions used by losses and
// accuracy computation.

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "tensor/tensor.hpp"

namespace bayesft {

/// C = A @ B for A:[m,k], B:[k,n] -> C:[m,n].
/// Register-blocked, cache-tiled, and parallelized over tile-aligned panels
/// of C via the global thread pool; bit-identical for any thread count.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C += A @ B on raw row-major buffers (A:[m,k], B:[k,n], C:[m,n], leading
/// dimensions equal to the logical widths).  The blocked kernel behind
/// matmul and the batched convolution path, exposed so layers can reuse
/// persistent scratch buffers instead of allocating per call.
void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n);

/// C = A @ B on the same raw buffers, overwriting C: every element's fma
/// chain starts from +0, exactly as gemm_accumulate's does on a zero-filled
/// C, so callers producing a fresh output skip the zero fill.
void gemm_overwrite(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n);

/// C = A^T @ B for A:[k,m], B:[k,n] -> C:[m,n].  Materializes A^T (an
/// O(km) copy) and runs the row-major GEMM on it.
Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// C = A @ B^T for A:[m,k], B:[n,k] -> C:[m,n].  Materializes B^T (an
/// O(kn) copy) and runs the row-major GEMM on it.
Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// Transposed copy of a 2-d tensor.
Tensor transpose(const Tensor& a);

/// Raw-buffer transpose: dst[j, i] = src[i, j] for src:[m,n], through the
/// SIMD layer's register-tile kernel (simd::KernelTable::transpose_f32).
void transpose_into(const float* src, std::size_t m, std::size_t n,
                    float* dst);

/// Element-type-generic cache-blocked transpose (dst[j, i] = src[i, j]);
/// used by the fixed-point conv path to transpose int16 code matrices.
template <typename T>
void transpose_into_t(const T* src, std::size_t m, std::size_t n, T* dst) {
    constexpr std::size_t kTile = 32;
    for (std::size_t i0 = 0; i0 < m; i0 += kTile) {
        const std::size_t i1 = std::min(m, i0 + kTile);
        for (std::size_t j0 = 0; j0 < n; j0 += kTile) {
            const std::size_t j1 = std::min(n, j0 + kTile);
            for (std::size_t i = i0; i < i1; ++i) {
                for (std::size_t j = j0; j < j1; ++j) {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
    }
}

/// Geometry of a 2-d convolution / pooling window sweep.
struct ConvGeometry {
    std::size_t channels = 0;
    std::size_t in_h = 0;
    std::size_t in_w = 0;
    std::size_t kernel_h = 0;
    std::size_t kernel_w = 0;
    std::size_t stride = 1;
    std::size_t pad = 0;

    std::size_t out_h() const {
        return (in_h + 2 * pad - kernel_h) / stride + 1;
    }
    std::size_t out_w() const {
        return (in_w + 2 * pad - kernel_w) / stride + 1;
    }
    /// Throws std::invalid_argument if the window does not fit.
    void validate() const;
};

/// Unfolds one image [C,H,W] (given as a flat pointer) into a matrix
/// [C*kh*kw, out_h*out_w].  Out-of-bounds (padding) positions read as 0.
/// `out` must have out_rows() x out_cols() elements.
void im2col(const float* image, const ConvGeometry& g, float* out);

/// Strided variant: writes the unfolded image into a sub-block of a wider
/// row-major matrix whose rows are `out_stride` floats apart.  This lets a
/// whole batch share one [C*kh*kw, N*out_h*out_w] scratch matrix, with
/// sample s occupying the column slice starting at s*out_h*out_w.  Both
/// overloads run the SIMD layer's kernel (simd::KernelTable::im2col_f32),
/// which writes exactly the sample's columns of each row.
void im2col(const float* image, const ConvGeometry& g, float* out,
            std::size_t out_stride);

namespace detail {

/// Output positions o in [lo, hi) of one window sweep axis whose input
/// index o * stride + offset - pad lies inside [0, extent): the span a
/// kernel offset reads without touching padding.  Empty when lo == hi.
struct ValidSpan {
    std::size_t lo = 0;
    std::size_t hi = 0;
};

inline ValidSpan valid_span(std::size_t extent, std::size_t out,
                            std::size_t stride, std::size_t offset,
                            std::size_t pad) {
    const auto ceil_div = [stride](std::size_t x) {
        return (x + stride - 1) / stride;
    };
    const std::size_t lo =
        std::min(out, offset >= pad ? 0 : ceil_div(pad - offset));
    const std::size_t hi = extent + pad <= offset
                               ? 0
                               : std::min(out, ceil_div(extent + pad - offset));
    return {lo, std::max(lo, hi)};
}

}  // namespace detail

/// Element-type-generic unfold with im2col's layout, kept for the
/// fixed-point forward pass (nn/quant.hpp), which unfolds int16 quantized
/// codes with it; float images go through im2col's SIMD kernel, as
/// transpose_into_t stands beside transpose_into.  Each (channel, ky, kx)
/// row computes its valid output spans once (detail::valid_span), so every
/// output row is zero-fill / copy / zero-fill with no per-element bounds
/// check; the copy is one memcpy when stride == 1.
template <typename T>
void im2col_into(const T* image, const ConvGeometry& g, T* out,
                 std::size_t out_stride) {
    const std::size_t oh = g.out_h(), ow = g.out_w();
    std::size_t row = 0;
    for (std::size_t c = 0; c < g.channels; ++c) {
        const T* plane = image + c * g.in_h * g.in_w;
        for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
            const detail::ValidSpan ys =
                detail::valid_span(g.in_h, oh, g.stride, ky, g.pad);
            for (std::size_t kx = 0; kx < g.kernel_w; ++kx, ++row) {
                const detail::ValidSpan xs =
                    detail::valid_span(g.in_w, ow, g.stride, kx, g.pad);
                T* dst = out + row * out_stride;
                std::fill(dst, dst + ys.lo * ow, T{});
                for (std::size_t oy = ys.lo; oy < ys.hi; ++oy) {
                    T* drow = dst + oy * ow;
                    const T* irow =
                        plane + (oy * g.stride + ky - g.pad) * g.in_w;
                    std::fill(drow, drow + xs.lo, T{});
                    if (g.stride == 1 && xs.lo < xs.hi) {
                        std::memcpy(drow + xs.lo, irow + (xs.lo + kx - g.pad),
                                    (xs.hi - xs.lo) * sizeof(T));
                    } else {
                        for (std::size_t ox = xs.lo; ox < xs.hi; ++ox) {
                            drow[ox] = irow[ox * g.stride + kx - g.pad];
                        }
                    }
                    std::fill(drow + xs.hi, drow + ow, T{});
                }
                std::fill(dst + ys.hi * ow, dst + oh * ow, T{});
            }
        }
    }
}

/// Adjoint of im2col: folds the column matrix back, accumulating into
/// `image_grad` (which must be pre-zeroed by the caller when appropriate).
/// Runs the SIMD layer's kernel (simd::KernelTable::col2im_f32): each
/// image element receives its additions in (ky, kx) order, the order of a
/// per-element bounds-checked scatter, so the bits match that scatter's.
void col2im(const float* cols, const ConvGeometry& g, float* image_grad);

/// Strided variant matching the strided im2col layout.
void col2im(const float* cols, const ConvGeometry& g, float* image_grad,
            std::size_t cols_stride);

/// Rows of a [N, F] tensor: index of the max entry per row.
std::vector<std::size_t> argmax_rows(const Tensor& logits);

/// Row-wise softmax of a [N, F] tensor (numerically stabilized).
Tensor softmax_rows(const Tensor& logits);

/// Row-wise log-softmax of a [N, F] tensor.
Tensor log_softmax_rows(const Tensor& logits);

/// Classification accuracy of logits [N, K] against labels (size N), in [0,1].
double accuracy(const Tensor& logits, const std::vector<int>& labels);

}  // namespace bayesft
