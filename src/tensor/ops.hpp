#pragma once
// Structured tensor operations: matrix products, transposes, im2col/col2im
// (the workhorses behind Conv2d), and row-wise reductions used by losses and
// accuracy computation.

#include <cstddef>
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
