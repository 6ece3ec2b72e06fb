#pragma once
// Cache-tiled, thread-parallel float GEMM behind the tensor ops
// (tensor/ops.cpp).
//
// Layout: all operands are dense row-major with explicit leading dimensions.
//
// The register-tile microkernel lives in the runtime-dispatched SIMD layer
// (src/simd/kernels.hpp, gemm_f32).  The tier is picked per process
// (BAYESFT_SIMD=scalar|avx2|avx512|neon|native); explicit-intrinsic tiles
// are 8x32 floats in 16 zmm on AVX-512, 6x16 in 12 ymm on AVX2, 6x8 on
// NEON, and a 4x2 std::fma tile on the scalar reference tier.  Edge tiles
// run the same tile body: a row remainder uses a tile height equal to it
// (1..MR-1 rows), and a column remainder loads and stores its last vector
// with masked partial ops (AVX-512 mask registers, AVX2
// maskload/maskstore, a small copy on NEON and scalar).  There is no
// scalar remainder loop, so skinny shapes such as the conv weight gradient
// (m=6, n=25, k=8192) run at vector speed.  gemm_f32 also takes an
// `accumulate` flag: false overwrites C in the first k-panel, so callers
// producing a fresh output skip the pre-zero pass entirely.
//
// The kernel streams k-panels of depth 256 (kGemmPanelK in the SIMD layer)
// through the accumulators and writes C back once per panel — O(k / 256)
// C traffic instead of the O(k) of a naive saxpy formulation.
//
// Determinism: for every element C[i][j] the k-summation order is fixed
// (ascending within a panel, panels ascending) and every product-add is
// exactly one fma on every tier and in every edge tile — so results are
// bit-identical for any thread count, any split, and any dispatch tier
// (tile geometry never affects the per-element operation sequence).
// Masked stores write only columns below n, so column splits handed to
// different threads never touch each other's C.

#include <algorithm>
#include <cstddef>

#include "simd/kernels.hpp"
#include "utils/parallel.hpp"

namespace bayesft::detail {

// Split grains of gemm_parallel_f32: row panels of kGemmMr rows, column
// panels of kGemmNr columns, the compile target's tile.  Any split gives
// the same bits; these only keep panels tile-aligned.
#if defined(__AVX512F__)
inline constexpr std::size_t kGemmMr = 8;
inline constexpr std::size_t kGemmNr = 32;
#elif defined(__AVX2__)
inline constexpr std::size_t kGemmMr = 6;
inline constexpr std::size_t kGemmNr = 16;
#else
inline constexpr std::size_t kGemmMr = 4;
inline constexpr std::size_t kGemmNr = 16;
#endif

/// Rounds `value` up to a multiple of `unit` (unit > 0).
inline std::size_t round_up(std::size_t value, std::size_t unit) {
    return ((value + unit - 1) / unit) * unit;
}

/// Float driver over the SIMD-dispatched microkernel: C (+)= A @ B using
/// the global thread pool.  `accumulate` false overwrites C (including
/// zero-filling it when k == 0).  Splits are pure row/column partitions of
/// C, so the per-element arithmetic — and therefore the result bits — are
/// independent of the thread count.
inline void gemm_parallel_f32(const float* a, std::size_t lda, const float* b,
                              std::size_t ldb, float* c, std::size_t ldc,
                              std::size_t m, std::size_t k, std::size_t n,
                              bool accumulate) {
    if (m == 0 || n == 0) return;
    const auto& kt = simd::kernels();
    const std::size_t threads = parallel_thread_count();
    // Below ~64^3 fused multiply-adds the dispatch overhead dominates.
    if (threads == 1 || m * n * k < (std::size_t{1} << 18)) {
        kt.gemm_f32(a, lda, b, ldb, c, ldc, m, k, n, accumulate);
        return;
    }
    if (m >= n) {
        const std::size_t grain = round_up(
            std::max<std::size_t>(kGemmMr, m / (threads * 4)), kGemmMr);
        parallel_for(0, m, grain, [&](std::size_t lo, std::size_t hi) {
            kt.gemm_f32(a + lo * lda, lda, b, ldb, c + lo * ldc, ldc,
                        hi - lo, k, n, accumulate);
        });
    } else {
        const std::size_t grain = round_up(
            std::max<std::size_t>(kGemmNr, n / (threads * 4)), kGemmNr);
        parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
            kt.gemm_f32(a, lda, b + lo, ldb, c + lo, ldc, m, k, hi - lo,
                        accumulate);
        });
    }
}

}  // namespace bayesft::detail
