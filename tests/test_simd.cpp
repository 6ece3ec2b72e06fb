// The SIMD dispatch layer's bit-exactness contract (simd/kernels.hpp):
// for identical inputs — including the Rng state — every kernel must
// produce bit-identical results on every tier this build + CPU can run.
// Pinned here for every fault model in the zoo, every activation kind
// (forward and backward), the deterministic quantization kernels, and
// GEMM against an independent per-element fma-chain reference across
// odd/remainder shapes and strided sub-blocks, the f64 multi-RHS solve
// against a multiply-then-subtract reference, the register-tile transpose
// against a naive copy loop; plus the panel-split
// invariance that makes the parallel GEMM driver thread-count independent,
// and fault injection under 1 and 4 evaluation threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fault/drift.hpp"
#include "fault/evaluator.hpp"
#include "fault/model.hpp"
#include "fault/zoo.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "simd/kernels.hpp"
#include "simd_tiers.hpp"
#include "tensor/tensor.hpp"
#include "utils/rng.hpp"

namespace bayesft::simd {
namespace {

using bayesft::testing::runnable_tiers;

/// Deterministic weight-like data with sign changes, zeros, and a wide
/// magnitude range (exercises saturation and sign paths).
std::vector<float> test_weights(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<float> w(n);
    for (std::size_t i = 0; i < n; ++i) {
        const float u = rng.uniform(-1.0, 1.0) < 0.0 ? -1.0F : 1.0F;
        w[i] = u * static_cast<float>(rng.uniform(0.0, 2.0));
        if (i % 17 == 0) w[i] = 0.0F;  // exact zeros stay on the grid
    }
    return w;
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Sizes chosen to straddle every vector width: sub-lane, exactly one
/// 16-lane round, one-past, and large with a ragged tail.
const std::size_t kSpanSizes[] = {1, 5, 16, 17, 31, 33, 64, 257, 1000};

std::vector<std::unique_ptr<fault::FaultModel>> fault_zoo() {
    using namespace fault;
    std::vector<std::unique_ptr<FaultModel>> models;
    models.push_back(std::make_unique<LogNormalDrift>(0.4));
    models.push_back(std::make_unique<GaussianAdditiveDrift>(0.15));
    models.push_back(std::make_unique<UniformScaleDrift>(0.3));
    models.push_back(std::make_unique<StuckAtZeroDrift>(0.2));
    models.push_back(std::make_unique<SignFlipDrift>(0.2));
    models.push_back(std::make_unique<StuckAtFault>(0.15, 0.3));
    models.push_back(std::make_unique<StuckAtFault>(0.5, 0.5, 0.75));
    models.push_back(std::make_unique<BitFlipFault>(0.05, 8));
    models.push_back(std::make_unique<BitFlipFault>(0.02, 12));
    models.push_back(std::make_unique<GaussianVariationFault>(0.25));
    models.push_back(std::make_unique<QuantizationFault>(6));
    models.push_back(fault::dac12_deploy(0.3));
    return models;
}

// ----------------------------------------------------------- dispatch ----

TEST(SimdDispatch, ScalarTierAlwaysAvailable) {
    EXPECT_TRUE(tier_available(Tier::kScalar));
    ASSERT_NE(kernels_for(Tier::kScalar), nullptr);
    EXPECT_STREQ(kernels_for(Tier::kScalar)->name, "scalar");
}

TEST(SimdDispatch, TierOverrideSwitchesAndRestores) {
    const Tier before = active_tier();
    {
        TierOverride scalar(Tier::kScalar);
        EXPECT_EQ(active_tier(), Tier::kScalar);
        EXPECT_STREQ(kernels().name, "scalar");
    }
    EXPECT_EQ(active_tier(), before);
}

TEST(SimdDispatch, EveryAvailableTierHasCompleteTable) {
    for (const Tier t : runnable_tiers()) {
        const KernelTable* kt = kernels_for(t);
        ASSERT_NE(kt, nullptr) << tier_name(t);
        EXPECT_NE(kt->lognormal_mul, nullptr);
        EXPECT_NE(kt->gemm_f32, nullptr);
        EXPECT_NE(kt->qgemm_nt, nullptr);
        EXPECT_NE(kt->transpose_f32, nullptr);
        EXPECT_NE(kt->im2col_f32, nullptr);
        EXPECT_NE(kt->col2im_f32, nullptr);
        EXPECT_NE(kt->solve_lower_multi_f64, nullptr);
        EXPECT_STREQ(kt->name, tier_name(t));
    }
}

// ------------------------------------------- fault-model equivalence ----

/// Every fault model, every span size: identical seed -> bit-identical
/// perturbed weights AND an identical post-call Rng position on every
/// tier (the draw-stream layout is part of the determinism contract).
TEST(SimdBitExact, EveryFaultModelMatchesScalarOnEveryTier) {
    const auto tiers = runnable_tiers();
    for (const auto& model : fault_zoo()) {
        for (const std::size_t n : kSpanSizes) {
            const std::vector<float> base = test_weights(n, 0xF00D + n);

            std::vector<float> scalar_out = base;
            Rng scalar_rng(42);
            {
                TierOverride scalar(Tier::kScalar);
                model->perturb(scalar_out, scalar_rng);
            }
            const std::uint64_t scalar_next = scalar_rng();

            for (const Tier t : tiers) {
                std::vector<float> out = base;
                Rng rng(42);
                {
                    TierOverride override_tier(t);
                    model->perturb(out, rng);
                }
                EXPECT_TRUE(bits_equal(scalar_out, out))
                    << model->describe() << " n=" << n << " tier "
                    << tier_name(t);
                EXPECT_EQ(rng(), scalar_next)
                    << model->describe() << " n=" << n
                    << " draws a different stream length on "
                    << tier_name(t);
            }
        }
    }
}

// --------------------------------------------- activation equivalence ----

TEST(SimdBitExact, EveryActivationMatchesScalarOnEveryTier) {
    struct Case {
        Act kind;
        float param;
    };
    const Case cases[] = {
        {Act::kRelu, 0.0F},    {Act::kLeakyRelu, 0.01F},
        {Act::kElu, 1.0F},     {Act::kElu, 0.5F},
        {Act::kGelu, 0.0F},    {Act::kSigmoid, 0.0F},
        {Act::kTanh, 0.0F},
    };
    const auto tiers = runnable_tiers();
    for (const Case& c : cases) {
        for (const std::size_t n : kSpanSizes) {
            // Inputs span both signs, zeros, and the saturating range.
            std::vector<float> x = test_weights(n, 0xAC7 + n);
            for (std::size_t i = 0; i < n; ++i) x[i] *= 4.0F;
            const std::vector<float> g0 = test_weights(n, 0x9AD + n);

            std::vector<float> fwd_ref(n), bwd_ref(n);
            {
                TierOverride scalar(Tier::kScalar);
                kernels().act_fwd(c.kind, x.data(), fwd_ref.data(), n,
                                  c.param);
                kernels().act_bwd(c.kind, x.data(), g0.data(), bwd_ref.data(),
                                  n, c.param);
            }
            // Every tier, with the destination apart from the source and
            // in place (y == x forward, out == g backward).
            for (const Tier t : tiers) {
                const KernelTable* kt = kernels_for(t);
                std::vector<float> fwd(n), bwd(n);
                std::vector<float> fwd_inplace = x, bwd_inplace = g0;
                kt->act_fwd(c.kind, x.data(), fwd.data(), n, c.param);
                kt->act_fwd(c.kind, fwd_inplace.data(), fwd_inplace.data(), n,
                            c.param);
                kt->act_bwd(c.kind, x.data(), g0.data(), bwd.data(), n,
                            c.param);
                kt->act_bwd(c.kind, x.data(), bwd_inplace.data(),
                            bwd_inplace.data(), n, c.param);
                const std::string what =
                    "kind=" + std::to_string(static_cast<int>(c.kind)) +
                    " n=" + std::to_string(n) + " tier " + tier_name(t);
                EXPECT_TRUE(bits_equal(fwd_ref, fwd)) << "act_fwd " << what;
                EXPECT_TRUE(bits_equal(fwd_ref, fwd_inplace))
                    << "in-place act_fwd " << what;
                EXPECT_TRUE(bits_equal(bwd_ref, bwd)) << "act_bwd " << what;
                EXPECT_TRUE(bits_equal(bwd_ref, bwd_inplace))
                    << "in-place act_bwd " << what;
            }
        }
    }
}

// --------------------------------------------------- GEMM equivalence ----

/// Independent GEMM reference, written without the kernel layer: every
/// element is one std::fma chain that starts from C (or +0 when
/// overwriting) and adds a[i][kk] * b[kk][j] for kk ascending.  This is the
/// per-element contract of simd/kernels.hpp, so every tier must match it
/// bit for bit.
void reference_gemm(const float* a, std::size_t lda, const float* b,
                    std::size_t ldb, float* c, std::size_t ldc, std::size_t m,
                    std::size_t k, std::size_t n, bool accumulate) {
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float acc = accumulate ? c[i * ldc + j] : 0.0F;
            for (std::size_t kk = 0; kk < k; ++kk) {
                acc = std::fma(a[i * lda + kk], b[kk * ldb + j], acc);
            }
            c[i * ldc + j] = acc;
        }
    }
}

/// Shapes straddling every microkernel boundary: sub-tile, exact tiles,
/// row/column remainders, k spanning multiple kGemmPanelK panels, the
/// k == 0 case (accumulate=false must still zero-fill C), the LeNet conv
/// shapes (forward W·cols, dW = G·colsᵀ, dx = Wᵀ·G at batch 32), the MLP
/// output layer, and every m from 1 to 9 against narrow and ragged n.
TEST(SimdBitExact, GemmMatchesFmaChainReferenceOnEveryTier) {
    struct Shape {
        std::size_t m, k, n;
    };
    std::vector<Shape> shapes = {
        {1, 1, 1},     {3, 5, 7},      {8, 16, 32},    {13, 1, 19},
        {6, 0, 4},     {17, 31, 33},   {33, 64, 65},   {2, 259, 9},
        {5, 300, 40},  {6, 8192, 25},  {16, 2048, 54}, {6, 25, 8192},
        {16, 54, 2048}, {25, 6, 8192}, {54, 16, 2048}, {32, 64, 10}};
    for (std::size_t m = 1; m <= 9; ++m) {
        for (const std::size_t n : {1, 7, 9, 15, 17, 31, 33}) {
            shapes.push_back({m, 5, n});
        }
    }
    const auto tiers = runnable_tiers();
    for (const Shape& s : shapes) {
        const std::vector<float> a = test_weights(s.m * s.k, 0xA + s.m);
        const std::vector<float> b = test_weights(s.k * s.n, 0xB + s.n);
        const std::vector<float> c0 = test_weights(s.m * s.n, 0xC + s.k);

        for (const bool accumulate : {false, true}) {
            std::vector<float> ref = c0;
            reference_gemm(a.data(), s.k, b.data(), s.n, ref.data(), s.n,
                           s.m, s.k, s.n, accumulate);
            for (const Tier t : tiers) {
                std::vector<float> c = c0;
                kernels_for(t)->gemm_f32(a.data(), s.k, b.data(), s.n,
                                         c.data(), s.n, s.m, s.k, s.n,
                                         accumulate);
                EXPECT_TRUE(bits_equal(ref, c))
                    << "gemm " << s.m << "x" << s.k << "x" << s.n
                    << " accumulate=" << accumulate << " tier "
                    << tier_name(t);
            }
            if (s.k == 0 && !accumulate) {
                // Overwrite semantics with an empty k: C becomes all-zero.
                for (const float v : ref) EXPECT_EQ(v, 0.0F);
            }
        }
    }
}

/// C as a sub-block of a wider buffer (lda > k, ldb > n, ldc > n), ringed
/// by sentinels.  The edge tiles' partial stores must write exactly the
/// block: gemm_parallel_f32 hands neighbouring column blocks of one C to
/// different threads, so a store that spilled past n would be a data race.
TEST(SimdBitExact, GemmStridedBlockLeavesSentinelsUntouched) {
    struct Shape {
        std::size_t m, k, n;
    };
    const Shape shapes[] = {{11, 37, 25}, {3, 300, 9}, {9, 4, 10},
                            {1, 7, 33},   {8, 2, 1},   {17, 5, 47}};
    constexpr std::size_t kTop = 2, kLeft = 3, kPad = 5;
    constexpr float kSentinel = -12345.5F;
    for (const Shape& s : shapes) {
        const std::size_t lda = s.k + kPad;
        const std::size_t ldb = s.n + kPad;
        const std::size_t ldc = kLeft + s.n + kPad;
        const std::size_t rows = kTop + s.m + kTop;
        const std::vector<float> a = test_weights(s.m * lda, 0x5A + s.m);
        const std::vector<float> b = test_weights(s.k * ldb, 0x5B + s.n);
        std::vector<float> c0(rows * ldc, kSentinel);
        const std::vector<float> fill = test_weights(s.m * s.n, 0x5C + s.k);
        for (std::size_t i = 0; i < s.m; ++i) {
            for (std::size_t j = 0; j < s.n; ++j) {
                c0[(kTop + i) * ldc + kLeft + j] = fill[i * s.n + j];
            }
        }
        const std::size_t offset = kTop * ldc + kLeft;
        for (const bool accumulate : {false, true}) {
            std::vector<float> ref = c0;
            reference_gemm(a.data(), lda, b.data(), ldb, ref.data() + offset,
                           ldc, s.m, s.k, s.n, accumulate);
            for (const Tier t : runnable_tiers()) {
                std::vector<float> c = c0;
                kernels_for(t)->gemm_f32(a.data(), lda, b.data(), ldb,
                                         c.data() + offset, ldc, s.m, s.k,
                                         s.n, accumulate);
                // ref holds the sentinels outside the block, so one
                // bitwise compare covers both the block and its ring.
                EXPECT_TRUE(bits_equal(ref, c))
                    << "strided gemm " << s.m << "x" << s.k << "x" << s.n
                    << " accumulate=" << accumulate << " tier "
                    << tier_name(t);
            }
        }
    }
}

/// The parallel GEMM driver splits C into row/column panels; the split
/// must not change a single bit.  Emulate 4-thread row and column
/// partitions by hand and compare against the one-shot call — this is
/// exactly the invariance that makes any pool width produce identical
/// results.  The uneven column panels put an edge tile at every seam.
TEST(SimdBitExact, GemmPanelSplitIsBitInvariant) {
    const std::size_t m = 37, k = 53, n = 29;
    const std::vector<float> a = test_weights(m * k, 1);
    const std::vector<float> b = test_weights(k * n, 2);

    for (const Tier t : runnable_tiers()) {
        const KernelTable* kt = kernels_for(t);
        std::vector<float> whole(m * n);
        kt->gemm_f32(a.data(), k, b.data(), n, whole.data(), n, m, k, n,
                     false);

        std::vector<float> rows(m * n);
        const std::size_t row_bounds[] = {0, 9, 18, 27, m};
        for (int p = 0; p < 4; ++p) {
            const std::size_t lo = row_bounds[p], hi = row_bounds[p + 1];
            kt->gemm_f32(a.data() + lo * k, k, b.data(), n,
                         rows.data() + lo * n, n, hi - lo, k, n, false);
        }
        EXPECT_TRUE(bits_equal(whole, rows)) << "rows " << tier_name(t);

        // Right to left, so a tail store spilling past its panel would
        // clobber a neighbour already computed.
        std::vector<float> cols(m * n);
        const std::size_t col_bounds[] = {0, 7, 16, 23, n};
        for (int p = 3; p >= 0; --p) {
            const std::size_t lo = col_bounds[p], hi = col_bounds[p + 1];
            kt->gemm_f32(a.data(), k, b.data() + lo, n, cols.data() + lo, n,
                         m, k, hi - lo, false);
        }
        EXPECT_TRUE(bits_equal(whole, cols)) << "columns " << tier_name(t);
    }
}

// ------------------------------------------------ quantization kernels ----

TEST(SimdBitExact, QuantizeAndCodesAgreeAcrossTiers) {
    const auto tiers = runnable_tiers();
    for (const int bits : {4, 8, 12}) {
        for (const std::size_t n : kSpanSizes) {
            const std::vector<float> base = test_weights(n, 0x0DD + n);
            const float qmax =
                static_cast<float>((std::int64_t{1} << (bits - 1)) - 1);
            const float scale =
                kernels_for(Tier::kScalar)->max_abs(base.data(), n) / qmax;
            if (scale == 0.0F) continue;

            std::vector<float> ref = base;
            std::vector<std::int16_t> ref_codes(n);
            {
                const KernelTable* sc = kernels_for(Tier::kScalar);
                sc->quantize(ref.data(), n, bits, scale);
                sc->quantize_codes(base.data(), ref_codes.data(), n, bits,
                                   scale);
            }
            // codes * scale IS the dequantized view (same grid).
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(static_cast<float>(ref_codes[i]) * scale, ref[i])
                    << "bits=" << bits << " i=" << i;
                EXPECT_LE(std::abs(static_cast<float>(ref_codes[i])), qmax);
            }

            for (const Tier t : tiers) {
                std::vector<float> w = base;
                std::vector<std::int16_t> codes(n);
                const KernelTable* kt = kernels_for(t);
                EXPECT_EQ(kt->max_abs(base.data(), n),
                          kernels_for(Tier::kScalar)->max_abs(base.data(), n))
                    << tier_name(t);
                kt->quantize(w.data(), n, bits, scale);
                kt->quantize_codes(base.data(), codes.data(), n, bits,
                                   scale);
                EXPECT_TRUE(bits_equal(ref, w))
                    << "quantize bits=" << bits << " n=" << n << " tier "
                    << tier_name(t);
                EXPECT_EQ(ref_codes, codes)
                    << "quantize_codes bits=" << bits << " n=" << n
                    << " tier " << tier_name(t);
            }
        }
    }
}

TEST(SimdBitExact, QgemmNtMatchesInt64ReferenceOnEveryTier) {
    const std::size_t m = 7, k = 45, n = 11;
    Rng rng(77);
    std::vector<std::int16_t> a(m * k), b(n * k);
    for (auto& v : a) {
        v = static_cast<std::int16_t>(rng.uniform(-2047.0, 2047.0));
    }
    for (auto& v : b) {
        v = static_cast<std::int16_t>(rng.uniform(-2047.0, 2047.0));
    }
    const float scale = 3.0517578e-05F;

    std::vector<float> ref(m * n);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            std::int64_t acc = 0;
            for (std::size_t kk = 0; kk < k; ++kk) {
                acc += static_cast<std::int64_t>(a[i * k + kk]) *
                       static_cast<std::int64_t>(b[j * k + kk]);
            }
            ref[i * n + j] = static_cast<float>(acc) * scale;
        }
    }
    for (const Tier t : runnable_tiers()) {
        std::vector<float> c(m * n, -1.0F);  // must be overwritten
        kernels_for(t)->qgemm_nt(a.data(), b.data(), c.data(), m, k, n,
                                 scale);
        EXPECT_TRUE(bits_equal(ref, c)) << tier_name(t);
    }
}

// ------------------------------------------- f64 multi-RHS solve ----

/// Independent reference for the multi-RHS forward solve, written without
/// the kernel layer: column by column, every element starts from b, takes
/// one multiply and then one subtract per k ascending, then one divide.
/// Like the library, this file builds with -ffp-contract=off, so the
/// product is rounded before the subtract.
void reference_solve(const std::vector<double>& l, std::size_t n,
                     double* b, std::size_t ldb, std::size_t m) {
    for (std::size_t c = 0; c < m; ++c) {
        for (std::size_t i = 0; i < n; ++i) {
            double acc = b[i * ldb + c];
            for (std::size_t k = 0; k < i; ++k) {
                const double product = l[i * n + k] * b[k * ldb + c];
                acc = acc - product;
            }
            b[i * ldb + c] = acc / l[i * n + i];
        }
    }
}

/// Every tier against the reference, at orders around the row loop's edges
/// and column counts around the lane blocks (4, 16 and 32 columns on the
/// scalar, AVX2 and AVX-512 tiers), with sentinel columns past m in every
/// row of the block: a masked tail store must never write there.
TEST(SimdBitExact, SolveLowerMultiMatchesReferenceOnEveryTier) {
    constexpr std::size_t kPad = 3;
    constexpr double kSentinel = -12345.5;
    for (const std::size_t n : {1, 2, 7, 8, 9, 33, 257}) {
        Rng rng(600 + n);
        // Diagonal in [1, 2) and off-diagonal terms shrinking with the row
        // keep every solution O(1) up to n = 257.
        std::vector<double> l(n * n, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            const double shrink = 1.0 / std::sqrt(static_cast<double>(i + 1));
            for (std::size_t k = 0; k < i; ++k) {
                l[i * n + k] = rng.uniform(-0.5, 0.5) * shrink;
            }
            l[i * n + i] = rng.uniform(1.0, 2.0);
        }
        for (const std::size_t m : {1, 7, 31, 32, 33, 640}) {
            const std::size_t ldb = m + kPad;
            std::vector<double> b0(n * ldb, kSentinel);
            for (std::size_t i = 0; i < n; ++i) {
                for (std::size_t c = 0; c < m; ++c) {
                    b0[i * ldb + c] = rng.uniform(-1.0, 1.0);
                }
            }
            std::vector<double> ref = b0;
            reference_solve(l, n, ref.data(), ldb, m);
            for (const Tier t : runnable_tiers()) {
                std::vector<double> b = b0;
                kernels_for(t)->solve_lower_multi_f64(l.data(), n, b.data(),
                                                      ldb, n, m);
                EXPECT_EQ(std::memcmp(ref.data(), b.data(),
                                      ref.size() * sizeof(double)),
                          0)
                    << "solve n=" << n << " m=" << m << " tier "
                    << tier_name(t);
            }
        }
    }
}

// ---------------------------------------------------------- transpose ----

/// Every extent around each tier's tile width W (1, 4, 8, 16 on scalar,
/// NEON, AVX2, AVX-512): empty, 1, 2, W-1, W, W+1 and 2W+1 rows and
/// columns in every combination, so full, edge and corner tiles all run;
/// plus the conv cols^T shapes (25 x 8192, 54 x 2048) and a Linear W^T
/// (64 x 256).  src holds exactly m*n floats (an over-read is a sanitizer
/// error) and carries -0 and a NaN payload, so only a bit-exact copy
/// matches; sentinels past the end of dst must survive.
TEST(SimdBitExact, TransposeMatchesNaiveOnEveryTier) {
    std::vector<std::size_t> extents;
    for (const std::size_t w : {1, 4, 8, 16}) {
        for (const std::size_t e : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, w - 1, w, w + 1,
                                    2 * w + 1}) {
            if (std::find(extents.begin(), extents.end(), e) ==
                extents.end()) {
                extents.push_back(e);
            }
        }
    }
    struct Shape {
        std::size_t m, n;
    };
    std::vector<Shape> shapes = {{25, 8192}, {54, 2048}, {64, 256}};
    for (const std::size_t m : extents) {
        for (const std::size_t n : extents) shapes.push_back({m, n});
    }
    constexpr std::size_t kPad = 17;
    constexpr float kSentinel = -12345.5F;
    for (const Shape& s : shapes) {
        std::vector<float> src = test_weights(s.m * s.n, 0x7A + s.m + s.n);
        if (!src.empty()) {
            src.front() = -0.0F;
            src.back() = std::bit_cast<float>(std::uint32_t{0x7FC01234U});
        }
        std::vector<float> ref(s.m * s.n + kPad, kSentinel);
        for (std::size_t i = 0; i < s.m; ++i) {
            for (std::size_t j = 0; j < s.n; ++j) {
                ref[j * s.m + i] = src[i * s.n + j];
            }
        }
        for (const Tier t : runnable_tiers()) {
            std::vector<float> dst(s.m * s.n + kPad, kSentinel);
            kernels_for(t)->transpose_f32(src.data(), s.m, s.n, dst.data());
            EXPECT_EQ(std::memcmp(ref.data(), dst.data(),
                                  ref.size() * sizeof(float)),
                      0)
                << "transpose " << s.m << "x" << s.n << " tier "
                << tier_name(t);
        }
    }
}

// ------------------------------------------------- thread invariance ----

/// Full-stack check: Monte-Carlo fault evaluation of a real model under 1
/// and 4 evaluation threads must agree with each other and across tiers —
/// the injection loops run inside worker threads, so this exercises the
/// kernels under the pool.
TEST(SimdBitExact, InjectionUnderOneAndFourThreadsEveryTier) {
    Rng init(3);
    nn::Sequential model;
    model.emplace<nn::Linear>(12, 16, init);
    model.emplace<nn::ReLU>();
    model.emplace<nn::Linear>(16, 4, init);

    Rng data_rng(9);
    const Tensor images = Tensor::randn({24, 12}, data_rng);
    std::vector<int> labels(24);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        labels[i] = static_cast<int>(i % 4);
    }
    const fault::LogNormalDrift drift(0.5);

    std::vector<double> reference;
    for (const Tier t : runnable_tiers()) {
        TierOverride override_tier(t);
        for (const std::size_t threads : {1UL, 4UL}) {
            Rng eval_rng(123);
            const auto report = fault::evaluate_under_faults(
                model, images, labels, drift, 8, eval_rng, threads);
            if (reference.empty()) {
                reference = report.samples;
                continue;
            }
            EXPECT_EQ(report.samples, reference)
                << tier_name(t) << " threads=" << threads;
        }
    }
}

}  // namespace
}  // namespace bayesft::simd
