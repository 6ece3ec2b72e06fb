// Tests for the Tensor value type.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"
#include "utils/rng.hpp"

namespace bayesft {
namespace {

TEST(Tensor, DefaultIsEmpty) {
    Tensor t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.size(), 0U);
    EXPECT_EQ(t.rank(), 0U);
}

TEST(Tensor, ShapeAndSize) {
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.rank(), 3U);
    EXPECT_EQ(t.size(), 24U);
    EXPECT_EQ(t.dim(0), 2U);
    EXPECT_EQ(t.dim(2), 4U);
    EXPECT_THROW(t.dim(3), std::out_of_range);
}

TEST(Tensor, FillConstruction) {
    Tensor t({2, 2}, 3.5F);
    for (std::size_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t[i], 3.5F);
}

/// A for-overwrite tensor has its shape but no fill; in AddressSanitizer
/// builds every element starts as the quiet-NaN poison, so a kernel that
/// leaves one unwritten turns bitwise tests red there.
TEST(Tensor, ForOverwriteKeepsShapeAndPoisonsUnderAsan) {
    const Tensor t({3, 5}, for_overwrite);
    EXPECT_EQ(t.shape(), (std::vector<std::size_t>{3, 5}));
    EXPECT_EQ(t.size(), 15U);
    EXPECT_TRUE(std::isnan(std::bit_cast<float>(kForOverwritePoisonBits)));
    if constexpr (kPoisonForOverwrite) {
        for (std::size_t i = 0; i < t.size(); ++i) {
            EXPECT_EQ(std::bit_cast<std::uint32_t>(t[i]),
                      kForOverwritePoisonBits);
        }
    }
    // A value fill still writes every element.
    const Tensor z({4}, 0.0F);
    for (std::size_t i = 0; i < z.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(z[i]), 0U);
    }
}

TEST(Tensor, ValueConstructionChecksCount) {
    EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
    EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}),
                 std::invalid_argument);
}

TEST(Tensor, RowMajorIndexing) {
    Tensor t({2, 3}, std::vector<float>{0, 1, 2, 3, 4, 5});
    EXPECT_FLOAT_EQ(t(0, 0), 0.0F);
    EXPECT_FLOAT_EQ(t(0, 2), 2.0F);
    EXPECT_FLOAT_EQ(t(1, 0), 3.0F);
    EXPECT_FLOAT_EQ(t(1, 2), 5.0F);
}

TEST(Tensor, FourDimIndexing) {
    Tensor t({2, 3, 4, 5});
    t(1, 2, 3, 4) = 9.0F;
    // Flat index: ((1*3 + 2)*4 + 3)*5 + 4 = 119.
    EXPECT_FLOAT_EQ(t[119], 9.0F);
}

TEST(Tensor, ReshapePreservesData) {
    Tensor t({2, 3}, std::vector<float>{0, 1, 2, 3, 4, 5});
    t.reshape({3, 2});
    EXPECT_EQ(t.dim(0), 3U);
    EXPECT_FLOAT_EQ(t(2, 1), 5.0F);
}

TEST(Tensor, ReshapeInfersDimension) {
    Tensor t({4, 6});
    t.reshape({2, 0});
    EXPECT_EQ(t.dim(1), 12U);
    EXPECT_THROW(t.reshape({0, 0}), std::invalid_argument);
    EXPECT_THROW(t.reshape({5, 0}), std::invalid_argument);
    EXPECT_THROW(t.reshape({23}), std::invalid_argument);
    EXPECT_EQ(t.shape(), (std::vector<std::size_t>{2, 12}));
}

TEST(Tensor, ElementwiseOps) {
    Tensor a({3}, std::vector<float>{1, 2, 3});
    Tensor b({3}, std::vector<float>{4, 5, 6});
    EXPECT_TRUE((a + b).equals(Tensor({3}, std::vector<float>{5, 7, 9})));
    EXPECT_TRUE((b - a).equals(Tensor({3}, std::vector<float>{3, 3, 3})));
    EXPECT_TRUE((a * b).equals(Tensor({3}, std::vector<float>{4, 10, 18})));
    EXPECT_TRUE((a * 2.0F).equals(Tensor({3}, std::vector<float>{2, 4, 6})));
}

TEST(Tensor, ShapeMismatchThrows) {
    Tensor a({3});
    Tensor b({4});
    EXPECT_THROW(a.add_(b), std::invalid_argument);
    EXPECT_THROW(a.mul_(b), std::invalid_argument);
    EXPECT_THROW(a.axpy_(1.0F, b), std::invalid_argument);
}

TEST(Tensor, AxpyAccumulates) {
    Tensor a({2}, std::vector<float>{1, 1});
    Tensor b({2}, std::vector<float>{2, 3});
    a.axpy_(0.5F, b);
    EXPECT_FLOAT_EQ(a[0], 2.0F);
    EXPECT_FLOAT_EQ(a[1], 2.5F);
}

TEST(Tensor, ClampBoundsValues) {
    Tensor a({4}, std::vector<float>{-2, 0.5F, 3, 10});
    a.clamp_(0.0F, 1.0F);
    EXPECT_FLOAT_EQ(a[0], 0.0F);
    EXPECT_FLOAT_EQ(a[1], 0.5F);
    EXPECT_FLOAT_EQ(a[3], 1.0F);
}

TEST(Tensor, Reductions) {
    Tensor a({4}, std::vector<float>{1, -2, 3, 6});
    EXPECT_FLOAT_EQ(a.sum(), 8.0F);
    EXPECT_FLOAT_EQ(a.mean(), 2.0F);
    EXPECT_FLOAT_EQ(a.min(), -2.0F);
    EXPECT_FLOAT_EQ(a.max(), 6.0F);
    EXPECT_FLOAT_EQ(a.squared_norm(), 1 + 4 + 9 + 36);
}

TEST(Tensor, EmptyReductionsThrow) {
    Tensor t;
    EXPECT_THROW(t.mean(), std::domain_error);
    EXPECT_THROW(t.min(), std::domain_error);
    EXPECT_THROW(t.max(), std::domain_error);
}

TEST(Tensor, AllcloseTolerance) {
    Tensor a({2}, std::vector<float>{1.0F, 2.0F});
    Tensor b({2}, std::vector<float>{1.0F + 1e-6F, 2.0F});
    EXPECT_TRUE(a.allclose(b));
    Tensor c({2}, std::vector<float>{1.1F, 2.0F});
    EXPECT_FALSE(a.allclose(c));
    Tensor d({1, 2});
    EXPECT_FALSE(a.allclose(d));  // shape mismatch
}

TEST(Tensor, RandnStats) {
    Rng rng(5);
    const Tensor t = Tensor::randn({10000}, rng, 2.0F);
    EXPECT_NEAR(t.mean(), 0.0F, 0.1F);
    const float var = t.squared_norm() / static_cast<float>(t.size());
    EXPECT_NEAR(var, 4.0F, 0.2F);
}

TEST(Tensor, UniformFactoryRange) {
    Rng rng(6);
    const Tensor t = Tensor::uniform({1000}, rng, -1.0F, 1.0F);
    EXPECT_GE(t.min(), -1.0F);
    EXPECT_LT(t.max(), 1.0F);
}

TEST(Tensor, AtBoundsChecked) {
    Tensor t({3});
    EXPECT_NO_THROW(t.at(2));
    EXPECT_THROW(t.at(3), std::out_of_range);
}

TEST(Tensor, ToStringMentionsShape) {
    Tensor t({2, 2});
    EXPECT_NE(t.to_string().find("[2, 2]"), std::string::npos);
}

}  // namespace
}  // namespace bayesft
