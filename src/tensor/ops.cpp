#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "simd/kernels.hpp"
#include "tensor/gemm.hpp"

namespace bayesft {

namespace {

void require_rank2(const Tensor& t, const char* who) {
    if (t.rank() != 2) {
        throw std::invalid_argument(std::string(who) + ": expected rank-2, got " +
                                    shape_to_string(t.shape()));
    }
}

simd::Unfold unfold_of(const ConvGeometry& g) {
    return {g.channels, g.in_h,   g.in_w,    g.kernel_h, g.kernel_w,
            g.stride,   g.pad,    g.out_h(), g.out_w()};
}

}  // namespace

void transpose_into(const float* src, std::size_t m, std::size_t n,
                    float* dst) {
    simd::kernels().transpose_f32(src, m, n, dst);
}

void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) {
    detail::gemm_parallel_f32(a, k, b, n, c, n, m, k, n, true);
}

void gemm_overwrite(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n) {
    detail::gemm_parallel_f32(a, k, b, n, c, n, m, k, n, false);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
    require_rank2(a, "matmul(a)");
    require_rank2(b, "matmul(b)");
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    if (b.dim(0) != k) {
        throw std::invalid_argument("matmul: inner dims " +
                                    shape_to_string(a.shape()) + " x " +
                                    shape_to_string(b.shape()));
    }
    Tensor c({m, n}, for_overwrite);
    gemm_overwrite(a.data(), b.data(), c.data(), m, k, n);
    return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
    require_rank2(a, "matmul_tn(a)");
    require_rank2(b, "matmul_tn(b)");
    const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
    if (b.dim(0) != k) {
        throw std::invalid_argument("matmul_tn: inner dims " +
                                    shape_to_string(a.shape()) + " x " +
                                    shape_to_string(b.shape()));
    }
    // Materializing A^T costs O(km) against the O(kmn) product and lets the
    // blocked kernel stream contiguous rows.
    Tensor at({m, k}, for_overwrite);
    transpose_into(a.data(), k, m, at.data());
    Tensor c({m, n}, for_overwrite);
    gemm_overwrite(at.data(), b.data(), c.data(), m, k, n);
    return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
    require_rank2(a, "matmul_nt(a)");
    require_rank2(b, "matmul_nt(b)");
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    if (b.dim(1) != k) {
        throw std::invalid_argument("matmul_nt: inner dims " +
                                    shape_to_string(a.shape()) + " x " +
                                    shape_to_string(b.shape()));
    }
    Tensor bt({k, n}, for_overwrite);
    transpose_into(b.data(), n, k, bt.data());
    Tensor c({m, n}, for_overwrite);
    gemm_overwrite(a.data(), bt.data(), c.data(), m, k, n);
    return c;
}

Tensor transpose(const Tensor& a) {
    require_rank2(a, "transpose");
    const std::size_t m = a.dim(0), n = a.dim(1);
    Tensor t({n, m}, for_overwrite);
    transpose_into(a.data(), m, n, t.data());
    return t;
}

void ConvGeometry::validate() const {
    if (channels == 0 || in_h == 0 || in_w == 0 || kernel_h == 0 ||
        kernel_w == 0 || stride == 0) {
        throw std::invalid_argument("ConvGeometry: zero extent");
    }
    if (in_h + 2 * pad < kernel_h || in_w + 2 * pad < kernel_w) {
        throw std::invalid_argument("ConvGeometry: kernel larger than padded input");
    }
}

void im2col(const float* image, const ConvGeometry& g, float* out) {
    im2col(image, g, out, g.out_h() * g.out_w());
}

void im2col(const float* image, const ConvGeometry& g, float* out,
            std::size_t out_stride) {
    simd::kernels().im2col_f32(image, unfold_of(g), out, out_stride);
}

void col2im(const float* cols_mat, const ConvGeometry& g, float* image_grad) {
    col2im(cols_mat, g, image_grad, g.out_h() * g.out_w());
}

void col2im(const float* cols_mat, const ConvGeometry& g, float* image_grad,
            std::size_t cols_stride) {
    simd::kernels().col2im_f32(cols_mat, unfold_of(g), image_grad,
                               cols_stride);
}

std::vector<std::size_t> argmax_rows(const Tensor& logits) {
    require_rank2(logits, "argmax_rows");
    const std::size_t n = logits.dim(0), f = logits.dim(1);
    if (f == 0) throw std::invalid_argument("argmax_rows: zero-width rows");
    std::vector<std::size_t> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        const float* row = logits.data() + i * f;
        out[i] = static_cast<std::size_t>(
            std::max_element(row, row + f) - row);
    }
    return out;
}

Tensor softmax_rows(const Tensor& logits) {
    Tensor out = log_softmax_rows(logits);
    for (float& v : out.values()) v = std::exp(v);
    return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
    require_rank2(logits, "log_softmax_rows");
    const std::size_t n = logits.dim(0), f = logits.dim(1);
    Tensor out({n, f}, for_overwrite);
    for (std::size_t i = 0; i < n; ++i) {
        const float* row = logits.data() + i * f;
        float* dst = out.data() + i * f;
        const float row_max = *std::max_element(row, row + f);
        double denom = 0.0;
        for (std::size_t j = 0; j < f; ++j) {
            denom += std::exp(static_cast<double>(row[j] - row_max));
        }
        const float log_denom = static_cast<float>(std::log(denom));
        for (std::size_t j = 0; j < f; ++j) {
            dst[j] = row[j] - row_max - log_denom;
        }
    }
    return out;
}

double accuracy(const Tensor& logits, const std::vector<int>& labels) {
    if (logits.dim(0) != labels.size()) {
        throw std::invalid_argument("accuracy: batch size mismatch");
    }
    if (labels.empty()) return 0.0;
    const auto pred = argmax_rows(logits);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (pred[i] == static_cast<std::size_t>(labels[i])) ++hits;
    }
    return static_cast<double>(hits) / static_cast<double>(labels.size());
}

}  // namespace bayesft
