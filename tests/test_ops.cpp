// Tests for structured tensor operations: matrix products, im2col/col2im,
// and row-wise reductions.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "simd/kernels.hpp"
#include "simd_tiers.hpp"
#include "tensor/ops.hpp"
#include "utils/rng.hpp"

namespace bayesft {
namespace {

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor c({m, n});
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk) {
                acc += static_cast<double>(a(i, kk)) * b(kk, j);
            }
            c(i, j) = static_cast<float>(acc);
        }
    }
    return c;
}

TEST(Ops, MatmulKnownValues) {
    Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
    Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
    const Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c(0, 0), 58.0F);
    EXPECT_FLOAT_EQ(c(0, 1), 64.0F);
    EXPECT_FLOAT_EQ(c(1, 0), 139.0F);
    EXPECT_FLOAT_EQ(c(1, 1), 154.0F);
}

TEST(Ops, MatmulMatchesNaiveOnRandom) {
    Rng rng(1);
    const Tensor a = Tensor::randn({7, 13}, rng);
    const Tensor b = Tensor::randn({13, 5}, rng);
    EXPECT_TRUE(matmul(a, b).allclose(naive_matmul(a, b), 1e-4F));
}

TEST(Ops, MatmulDimensionMismatchThrows) {
    Tensor a({2, 3});
    Tensor b({4, 2});
    EXPECT_THROW(matmul(a, b), std::invalid_argument);
    EXPECT_THROW(matmul(a, Tensor({3})), std::invalid_argument);
}

TEST(Ops, MatmulTnEqualsExplicitTranspose) {
    Rng rng(2);
    const Tensor a = Tensor::randn({6, 4}, rng);
    const Tensor b = Tensor::randn({6, 5}, rng);
    EXPECT_TRUE(matmul_tn(a, b).allclose(matmul(transpose(a), b), 1e-4F));
}

TEST(Ops, MatmulNtEqualsExplicitTranspose) {
    Rng rng(3);
    const Tensor a = Tensor::randn({6, 4}, rng);
    const Tensor b = Tensor::randn({5, 4}, rng);
    EXPECT_TRUE(matmul_nt(a, b).allclose(matmul(a, transpose(b)), 1e-4F));
}

TEST(Ops, TransposeInvolution) {
    Rng rng(4);
    const Tensor a = Tensor::randn({3, 7}, rng);
    EXPECT_TRUE(transpose(transpose(a)).equals(a));
}

TEST(Ops, ConvGeometryOutputSize) {
    ConvGeometry g{3, 16, 16, 3, 3, 1, 1};
    EXPECT_EQ(g.out_h(), 16U);
    EXPECT_EQ(g.out_w(), 16U);
    ConvGeometry strided{3, 16, 16, 3, 3, 2, 1};
    EXPECT_EQ(strided.out_h(), 8U);
    ConvGeometry invalid{3, 2, 2, 5, 5, 1, 0};
    EXPECT_THROW(invalid.validate(), std::invalid_argument);
}

TEST(Ops, Im2ColIdentityKernel) {
    // 1x1 kernel, stride 1, no pad: im2col is the identity layout.
    Rng rng(5);
    const Tensor img = Tensor::randn({2, 4, 4}, rng);
    ConvGeometry g{2, 4, 4, 1, 1, 1, 0};
    Tensor cols({2, 16});
    im2col(img.data(), g, cols.data());
    for (std::size_t i = 0; i < img.size(); ++i) {
        EXPECT_FLOAT_EQ(cols[i], img[i]);
    }
}

TEST(Ops, Im2ColPaddingReadsZero) {
    const Tensor img = Tensor::ones({1, 2, 2});
    ConvGeometry g{1, 2, 2, 3, 3, 1, 1};
    Tensor cols({9, 4});
    im2col(img.data(), g, cols.data());
    // Top-left output position, top-left kernel cell reads the padding.
    EXPECT_FLOAT_EQ(cols(0, 0), 0.0F);
    // Center kernel cell reads the image.
    EXPECT_FLOAT_EQ(cols(4, 0), 1.0F);
}

TEST(Ops, Col2ImIsAdjointOfIm2Col) {
    // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining adjoint
    // property that makes the convolution backward pass correct.
    Rng rng(6);
    ConvGeometry g{3, 6, 5, 3, 2, 2, 1};
    const std::size_t rows = g.channels * g.kernel_h * g.kernel_w;
    const std::size_t cols_n = g.out_h() * g.out_w();
    const Tensor x = Tensor::randn({g.channels, g.in_h, g.in_w}, rng);
    const Tensor y = Tensor::randn({rows, cols_n}, rng);

    Tensor unfolded({rows, cols_n});
    im2col(x.data(), g, unfolded.data());
    Tensor folded({g.channels, g.in_h, g.in_w});
    col2im(y.data(), g, folded.data());

    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < unfolded.size(); ++i) {
        lhs += static_cast<double>(unfolded[i]) * y[i];
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
        rhs += static_cast<double>(x[i]) * folded[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

/// The bounds-checked per-element loops im2col/col2im replace: a gather
/// that reads padding as 0, and a scatter that skips padding.  col2im must
/// match the scatter bit for bit (same additions, same order).
void naive_im2col(const float* image, const ConvGeometry& g, float* cols,
                  std::size_t cols_stride) {
    const std::size_t oh = g.out_h(), ow = g.out_w();
    std::size_t row = 0;
    for (std::size_t c = 0; c < g.channels; ++c) {
        for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
            for (std::size_t kx = 0; kx < g.kernel_w; ++kx, ++row) {
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        const long iy = static_cast<long>(oy * g.stride + ky) -
                                        static_cast<long>(g.pad);
                        const long ix = static_cast<long>(ox * g.stride + kx) -
                                        static_cast<long>(g.pad);
                        const bool inside =
                            iy >= 0 && iy < static_cast<long>(g.in_h) &&
                            ix >= 0 && ix < static_cast<long>(g.in_w);
                        cols[row * cols_stride + oy * ow + ox] =
                            inside ? image[(c * g.in_h + iy) * g.in_w + ix]
                                   : 0.0F;
                    }
                }
            }
        }
    }
}

void naive_col2im(const float* cols, const ConvGeometry& g, float* image,
                  std::size_t cols_stride) {
    const std::size_t oh = g.out_h(), ow = g.out_w();
    std::size_t row = 0;
    for (std::size_t c = 0; c < g.channels; ++c) {
        for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
            for (std::size_t kx = 0; kx < g.kernel_w; ++kx, ++row) {
                for (std::size_t oy = 0; oy < oh; ++oy) {
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        const long iy = static_cast<long>(oy * g.stride + ky) -
                                        static_cast<long>(g.pad);
                        const long ix = static_cast<long>(ox * g.stride + kx) -
                                        static_cast<long>(g.pad);
                        if (iy < 0 || iy >= static_cast<long>(g.in_h) ||
                            ix < 0 || ix >= static_cast<long>(g.in_w)) {
                            continue;
                        }
                        image[(c * g.in_h + iy) * g.in_w + ix] +=
                            cols[row * cols_stride + oy * ow + ox];
                    }
                }
            }
        }
    }
}

/// im2col and col2im against the naive loops, bit for bit, on every SIMD
/// tier this build and CPU can run (the kernels live in simd/).  Besides
/// odd kernels, strides and paddings, the geometries put W - 1, W, W + 1
/// and 2W + 1 positions in a row for each tier's vector width W (1, 4, 8,
/// 16), and include the detector's first layer (3 x 32 x 32, k3 p1), a
/// 1 x 1 stride-2 shortcut conv, and a kernel wider than the 16 kx one
/// col2im sweep takes.  The unfold's rows sit `positions + 3`
/// floats apart, as in Conv2d's batch slab, and sentinels fill the gaps
/// and the floats past the block: a kernel writes only its positions.  The
/// image carries -0 and a NaN payload, and so does the col2im target, whose
/// elements no position reaches (and the sentinels past it) must keep
/// their bits.
TEST(Ops, Im2ColAndCol2ImMatchNaiveLoopsBitwise) {
    // {channels, in_h, in_w, kernel_h, kernel_w, stride, pad}
    std::vector<ConvGeometry> geometries = {
        {2, 7, 7, 3, 3, 1, 0},   {2, 7, 7, 3, 3, 1, 1},
        {2, 7, 7, 3, 3, 1, 2},   {1, 8, 6, 3, 3, 2, 0},
        {1, 8, 6, 3, 3, 2, 1},   {3, 9, 9, 5, 5, 2, 2},
        {2, 6, 9, 2, 4, 1, 1},   {2, 6, 9, 4, 2, 2, 0},
        {1, 7, 5, 3, 1, 2, 2},   {2, 5, 4, 5, 4, 1, 0},
        {1, 3, 4, 7, 8, 1, 2},   {1, 3, 3, 5, 5, 2, 1},
        {1, 1, 1, 5, 5, 1, 2},   {1, 9, 1, 5, 5, 1, 2},
        {2, 9, 2, 3, 5, 2, 2},   {1, 16, 16, 5, 5, 1, 2},
        {6, 8, 8, 3, 3, 1, 1},   {3, 32, 32, 3, 3, 1, 1},
        {4, 8, 8, 1, 1, 2, 0},   {3, 7, 7, 1, 1, 2, 0},
        {1, 3, 20, 3, 19, 1, 2}};
    for (const std::size_t w : {1, 4, 8, 16}) {
        for (const std::size_t ow : {w - 1, w, w + 1, 2 * w + 1}) {
            if (ow == 0) continue;
            geometries.push_back({2, 4, ow, 3, 3, 1, 1});      // pad < k
            geometries.push_back({1, 6, ow + 4, 5, 5, 1, 0});  // no padding
            geometries.push_back({1, 2, ow, 5, 5, 1, 2});      // pad 2
        }
    }
    constexpr std::size_t kPad = 19;
    constexpr float kSentinel = -12345.5F;
    const float nan_payload = std::bit_cast<float>(std::uint32_t{0x7FC01234U});
    const std::vector<simd::Tier> tiers = bayesft::testing::runnable_tiers();
    Rng rng(11);
    for (const ConvGeometry& g : geometries) {
        g.validate();
        const std::size_t rows = g.channels * g.kernel_h * g.kernel_w;
        const std::size_t positions = g.out_h() * g.out_w();
        const std::size_t stride = positions + 3;
        const std::size_t image_size = g.channels * g.in_h * g.in_w;
        std::vector<float> image(image_size);
        std::vector<float> cols(rows * stride);
        std::vector<float> base(image_size + kPad, kSentinel);
        for (float& v : image) v = static_cast<float>(rng.normal());
        for (float& v : cols) v = static_cast<float>(rng.normal());
        for (std::size_t i = 0; i < image_size; ++i) {
            base[i] = static_cast<float>(rng.normal());
        }
        for (std::size_t i = 0; i < image_size; i += 5) {
            image[i] = -0.0F;
            base[i] = -0.0F;
        }
        for (std::size_t i = 0; i < cols.size(); i += 7) cols[i] = -0.0F;
        image.back() = nan_payload;
        base[image_size / 2] = nan_payload;
        base[image_size - 1] = nan_payload;
        const std::string what =
            "c" + std::to_string(g.channels) + " " + std::to_string(g.in_h) +
            "x" + std::to_string(g.in_w) + " k" + std::to_string(g.kernel_h) +
            "x" + std::to_string(g.kernel_w) + " s" +
            std::to_string(g.stride) + " p" + std::to_string(g.pad);

        std::vector<float> expected_cols(rows * stride + kPad, kSentinel);
        naive_im2col(image.data(), g, expected_cols.data(), stride);
        std::vector<float> expected_image = base;
        naive_col2im(cols.data(), g, expected_image.data(), stride);
        for (const simd::Tier t : tiers) {
            simd::TierOverride tier(t);
            std::vector<float> unfolded(rows * stride + kPad, kSentinel);
            im2col(image.data(), g, unfolded.data(), stride);
            EXPECT_EQ(std::memcmp(unfolded.data(), expected_cols.data(),
                                  unfolded.size() * sizeof(float)),
                      0)
                << "im2col " << what << " tier " << simd::tier_name(t);

            std::vector<float> folded = base;
            col2im(cols.data(), g, folded.data(), stride);
            EXPECT_EQ(std::memcmp(folded.data(), expected_image.data(),
                                  folded.size() * sizeof(float)),
                      0)
                << "col2im " << what << " tier " << simd::tier_name(t);
        }
    }
}

TEST(Ops, ArgmaxRows) {
    Tensor t({2, 3}, std::vector<float>{1, 5, 2, 9, 0, 3});
    const auto idx = argmax_rows(t);
    EXPECT_EQ(idx[0], 1U);
    EXPECT_EQ(idx[1], 0U);
}

TEST(Ops, SoftmaxRowsSumToOne) {
    Rng rng(7);
    const Tensor logits = Tensor::randn({5, 8}, rng, 3.0F);
    const Tensor probs = softmax_rows(logits);
    for (std::size_t i = 0; i < 5; ++i) {
        double row_sum = 0.0;
        for (std::size_t j = 0; j < 8; ++j) {
            EXPECT_GE(probs(i, j), 0.0F);
            row_sum += probs(i, j);
        }
        EXPECT_NEAR(row_sum, 1.0, 1e-5);
    }
}

TEST(Ops, SoftmaxShiftInvariance) {
    Tensor a({1, 3}, std::vector<float>{1, 2, 3});
    Tensor b({1, 3}, std::vector<float>{101, 102, 103});
    EXPECT_TRUE(softmax_rows(a).allclose(softmax_rows(b), 1e-5F));
}

TEST(Ops, SoftmaxHandlesLargeLogitsWithoutOverflow) {
    Tensor t({1, 2}, std::vector<float>{1000.0F, 999.0F});
    const Tensor p = softmax_rows(t);
    EXPECT_TRUE(std::isfinite(p(0, 0)));
    EXPECT_GT(p(0, 0), p(0, 1));
}

TEST(Ops, LogSoftmaxMatchesLogOfSoftmax) {
    Rng rng(8);
    const Tensor logits = Tensor::randn({3, 4}, rng);
    const Tensor log_probs = log_softmax_rows(logits);
    const Tensor probs = softmax_rows(logits);
    for (std::size_t i = 0; i < log_probs.size(); ++i) {
        EXPECT_NEAR(std::exp(log_probs[i]), probs[i], 1e-5);
    }
}

TEST(Ops, AccuracyComputation) {
    Tensor logits({3, 2}, std::vector<float>{0.9F, 0.1F,  // -> 0
                                             0.2F, 0.8F,  // -> 1
                                             0.6F, 0.4F});  // -> 0
    EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1, 1}), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1, 0}), 1.0);
    EXPECT_THROW(accuracy(logits, {0, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace bayesft
