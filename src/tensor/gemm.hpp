#pragma once
// Cache-tiled, thread-parallel GEMM shared by the float tensor ops
// (tensor/ops.cpp) and the double GP linear algebra (linalg/matrix.cpp).
//
// Layout: all operands are dense row-major with explicit leading dimensions.
//
// Two paths:
//   float  — the register-tile microkernel lives in the runtime-dispatched
//            SIMD layer (src/simd/kernels.hpp, gemm_f32).  The tier is
//            picked per process (BAYESFT_SIMD=scalar|avx2|avx512|neon|
//            native); explicit-intrinsic tiles are 8x32 floats in 16 zmm
//            on AVX-512, 6x16 in 12 ymm on AVX2, 6x8 on NEON, and a 4x2
//            std::fma tile on the scalar reference tier.  Edge tiles run
//            the same tile body: a row remainder uses a tile height equal
//            to it (1..MR-1 rows), and a column remainder loads and stores
//            its last vector with masked partial ops (AVX-512 mask
//            registers, AVX2 maskload/maskstore, a small copy on NEON and
//            scalar).  There is no scalar remainder loop, so skinny shapes
//            such as the conv weight gradient (m=6, n=25, k=8192) run at
//            vector speed.  gemm_f32 also takes an `accumulate` flag: false
//            overwrites C in the first k-panel, so callers producing a
//            fresh output skip the pre-zero pass entirely.
//   double — the portable gemm_block template below; the compiler unrolls
//            the fixed-bound kGemmMr x kGemmNr accumulator tile.
//
// Both stream k-panels of depth 256 (kGemmKc here, kGemmPanelK in the SIMD
// layer) through the accumulators and write C
// back once per panel — O(k / 256) C traffic instead of the O(k) of a
// naive saxpy formulation.
//
// Determinism: for every element C[i][j] the k-summation order is fixed
// (ascending within a panel, panels ascending) and, on the float path,
// every product-add is exactly one fma on every tier and in every edge
// tile — so results are bit-identical for any thread count, any split,
// and any dispatch tier (tile geometry never affects the per-element
// operation sequence).  Masked stores write only columns below n, so
// column splits handed to different threads never touch each other's C.

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "simd/kernels.hpp"
#include "utils/parallel.hpp"

namespace bayesft::detail {

#if defined(__AVX512F__)
inline constexpr std::size_t kGemmMr = 8;
template <typename T>
inline constexpr std::size_t kGemmNr = 128 / sizeof(T);
#elif defined(__AVX2__)
inline constexpr std::size_t kGemmMr = 6;
template <typename T>
inline constexpr std::size_t kGemmNr = 64 / sizeof(T);
#else
inline constexpr std::size_t kGemmMr = 4;
template <typename T>
inline constexpr std::size_t kGemmNr = 64 / sizeof(T);
#endif

inline constexpr std::size_t kGemmKc = 256;  ///< k-panel depth

/// C[0:m, 0:n] += A[0:m, 0:k] @ B[0:k, 0:n], single-threaded.
template <typename T>
void gemm_block(const T* a, std::size_t lda, const T* b, std::size_t ldb,
                T* c, std::size_t ldc, std::size_t m, std::size_t k,
                std::size_t n) {
    constexpr std::size_t kMr = kGemmMr;
    constexpr std::size_t kNr = kGemmNr<T>;
    for (std::size_t k0 = 0; k0 < k; k0 += kGemmKc) {
        const std::size_t k1 = std::min(k, k0 + kGemmKc);
        std::size_t i = 0;
        for (; i + kMr <= m; i += kMr) {
            std::size_t j = 0;
            for (; j + kNr <= n; j += kNr) {
                // Full kMr x kNr register tile.
                T acc[kMr][kNr];
                for (std::size_t r = 0; r < kMr; ++r) {
                    for (std::size_t t = 0; t < kNr; ++t) {
                        acc[r][t] = c[(i + r) * ldc + j + t];
                    }
                }
                for (std::size_t kk = k0; kk < k1; ++kk) {
                    const T* brow = b + kk * ldb + j;
                    for (std::size_t r = 0; r < kMr; ++r) {
                        const T av = a[(i + r) * lda + kk];
                        for (std::size_t t = 0; t < kNr; ++t) {
                            acc[r][t] += av * brow[t];
                        }
                    }
                }
                for (std::size_t r = 0; r < kMr; ++r) {
                    for (std::size_t t = 0; t < kNr; ++t) {
                        c[(i + r) * ldc + j + t] = acc[r][t];
                    }
                }
            }
            if (j < n) {
                // Column remainder (< kNr wide), same k-summation order.
                const std::size_t w = n - j;
                T acc[kMr][kNr];
                for (std::size_t r = 0; r < kMr; ++r) {
                    for (std::size_t t = 0; t < w; ++t) {
                        acc[r][t] = c[(i + r) * ldc + j + t];
                    }
                }
                for (std::size_t kk = k0; kk < k1; ++kk) {
                    const T* brow = b + kk * ldb + j;
                    for (std::size_t r = 0; r < kMr; ++r) {
                        const T av = a[(i + r) * lda + kk];
                        for (std::size_t t = 0; t < w; ++t) {
                            acc[r][t] += av * brow[t];
                        }
                    }
                }
                for (std::size_t r = 0; r < kMr; ++r) {
                    for (std::size_t t = 0; t < w; ++t) {
                        c[(i + r) * ldc + j + t] = acc[r][t];
                    }
                }
            }
        }
        for (; i < m; ++i) {
            // Row remainder (< kMr tall): one register row at a time.
            const T* arow = a + i * lda;
            T* crow = c + i * ldc;
            std::size_t j = 0;
            for (; j + kNr <= n; j += kNr) {
                T acc[kNr];
                for (std::size_t t = 0; t < kNr; ++t) acc[t] = crow[j + t];
                for (std::size_t kk = k0; kk < k1; ++kk) {
                    const T av = arow[kk];
                    const T* brow = b + kk * ldb + j;
                    for (std::size_t t = 0; t < kNr; ++t) {
                        acc[t] += av * brow[t];
                    }
                }
                for (std::size_t t = 0; t < kNr; ++t) crow[j + t] = acc[t];
            }
            if (j < n) {
                const std::size_t w = n - j;
                T acc[kNr] = {};
                for (std::size_t t = 0; t < w; ++t) acc[t] = crow[j + t];
                for (std::size_t kk = k0; kk < k1; ++kk) {
                    const T av = arow[kk];
                    const T* brow = b + kk * ldb + j;
                    for (std::size_t t = 0; t < w; ++t) acc[t] += av * brow[t];
                }
                for (std::size_t t = 0; t < w; ++t) crow[j + t] = acc[t];
            }
        }
    }
}

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
        constexpr std::size_t kNr = kGemmNr<float>;
        const std::size_t grain =
            round_up(std::max<std::size_t>(kNr, n / (threads * 4)), kNr);
        parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
            kt.gemm_f32(a, lda, b + lo, ldb, c + lo, ldc, m, k, hi - lo,
                        accumulate);
        });
    }
}

/// C[0:m, 0:n] += A[0:m, 0:k] @ B[0:k, 0:n] using the global thread pool.
/// Splits C into row panels (or column panels when the matrix is wide and
/// short, as in the batched-conv GEMM) on tile-aligned boundaries.  The
/// float instantiation routes to the SIMD-dispatched microkernel.
template <typename T>
void gemm_parallel(const T* a, std::size_t lda, const T* b, std::size_t ldb,
                   T* c, std::size_t ldc, std::size_t m, std::size_t k,
                   std::size_t n) {
    if constexpr (std::is_same_v<T, float>) {
        gemm_parallel_f32(a, lda, b, ldb, c, ldc, m, k, n, true);
        return;
    } else {
        if (m == 0 || n == 0 || k == 0) return;
        const std::size_t threads = parallel_thread_count();
        // Below ~64^3 fused multiply-adds the dispatch overhead dominates.
        if (threads == 1 || m * n * k < (std::size_t{1} << 18)) {
            gemm_block(a, lda, b, ldb, c, ldc, m, k, n);
            return;
        }
        if (m >= n) {
            const std::size_t grain = round_up(
                std::max<std::size_t>(kGemmMr, m / (threads * 4)), kGemmMr);
            parallel_for(0, m, grain, [&](std::size_t lo, std::size_t hi) {
                gemm_block(a + lo * lda, lda, b, ldb, c + lo * ldc, ldc,
                           hi - lo, k, n);
            });
        } else {
            constexpr std::size_t kNr = kGemmNr<T>;
            const std::size_t grain =
                round_up(std::max<std::size_t>(kNr, n / (threads * 4)), kNr);
            parallel_for(0, n, grain, [&](std::size_t lo, std::size_t hi) {
                gemm_block(a, lda, b + lo, ldb, c + lo, ldc, m, k, hi - lo);
            });
        }
    }
}

}  // namespace bayesft::detail
