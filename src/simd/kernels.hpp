#pragma once
// Runtime-dispatched SIMD kernel layer (docs/performance.md).
//
// Every hot elementwise / GEMM loop in the library routes through the
// function-pointer table returned by `kernels()`.  The table is selected
// once per process from the CPU's capabilities, overridable with
//   BAYESFT_SIMD = scalar | avx2 | avx512 | neon | native
// ("native" = best tier this build + CPU supports; unknown values and
// tiers the CPU cannot run raise std::invalid_argument / runtime_error).
//
// Bit-exactness contract: for identical inputs (including the Rng state),
// every kernel produces bit-identical results on every tier.  This holds
// by construction — all tiers instantiate the same generic kernel
// templates (simd/kernels_generic.inc) over a backend description
// (simd/vec_backends.inc) whose operations are all correctly-rounded IEEE
// ops (add/sub/mul/div/fma/sqrt), and every SIMD translation unit is
// compiled with -ffp-contract=off so the scalar tier fuses exactly where
// the vector tiers do (explicit std::fma) and nowhere else.
// tests/test_simd.cpp pins the contract for every fault model, every
// activation, GEMM edge-tile shapes (against an independent per-element
// fma-chain reference), the f64 multi-RHS solve (against a
// multiply-then-subtract reference), and the transpose (against a naive
// copy loop, at every edge-tile extent); tests/test_ops.cpp pins the conv
// unfold and its adjoint against per-element gather and scatter loops on
// every tier.
//
// RNG stream layout: the fault kernels consume randomness through
// kLanes = 16 deterministic logical lanes derived from the caller's Rng
// (see LaneStates in vec_backends.inc); weight i draws from lane i % 16.
// The layout is part of each fault model's documented determinism
// contract (src/fault/model.hpp) and is identical on every tier — the
// scalar tier simulates the same 16 lanes round-robin.

#include <cstddef>
#include <cstdint>

#include "utils/rng.hpp"

namespace bayesft::simd {

/// Dispatch tiers, ordered by preference ("native" picks the highest
/// available).  kNeon only exists on aarch64 builds, kAvx2/kAvx512 only
/// on x86-64 builds; kScalar always exists.
enum class Tier { kScalar = 0, kAvx2 = 1, kAvx512 = 2, kNeon = 3 };

/// Activation kinds understood by the elementwise activation kernels
/// (mirrors the nn:: activation classes; `param` carries the leaky slope
/// or the ELU alpha, 0 otherwise).
enum class Act { kRelu = 0, kLeakyRelu, kElu, kGelu, kSigmoid, kTanh };

/// One image's conv unfold, as im2col_f32 / col2im_f32 take it: a
/// [channels, in_h, in_w] image swept by a kernel_h x kernel_w window at
/// `stride` with `pad` zeros on every side, at out_h x out_w positions
/// (bayesft::ConvGeometry and its output extents; tensor/ops.cpp fills it).
struct Unfold {
    std::size_t channels, in_h, in_w, kernel_h, kernel_w, stride, pad;
    std::size_t out_h, out_w;
};

/// Number of logical RNG lanes every fault kernel uses, on every tier.
/// Fixed so the draw layout (and therefore every perturbation) is
/// independent of the vector width actually executing.
inline constexpr std::size_t kLanes = 16;

/// The dispatch table.  All pointers are non-null in a constructed table.
struct KernelTable {
    const char* name;  ///< "scalar" | "avx2" | "avx512" | "neon"

    // -- fault / drift elementwise kernels (w[i] updated in place) -------
    /// w *= exp(mu + sigma * z), z ~ N(0,1) (lognormal factor).
    void (*lognormal_mul)(float* w, std::size_t n, Rng& rng, float mu,
                          float sigma);
    /// w += sigma * z, z ~ N(0,1).
    void (*gaussian_add)(float* w, std::size_t n, Rng& rng, float sigma);
    /// w *= lo + (hi - lo) * u, u ~ U[0,1).
    void (*uniform_scale)(float* w, std::size_t n, Rng& rng, float lo,
                          float hi);
    /// With prob `fraction`: stuck-at-one (prob `sa1_share`: w =
    /// copysign(magnitude, w)) else stuck-at-zero (w = 0).
    void (*stuck_at)(float* w, std::size_t n, Rng& rng, double fraction,
                     double sa1_share, float magnitude);
    /// Quantize to `bits` signed symmetric grid with step `scale`, flip
    /// each of the low `bits` code bits independently with prob `p`,
    /// sign-extend, dequantize.
    void (*bit_flip)(float* w, std::size_t n, Rng& rng, double p, int bits,
                     float scale);
    /// With prob p: w = 0.
    void (*stuck_zero)(float* w, std::size_t n, Rng& rng, double p);
    /// With prob p: w = -w.
    void (*sign_flip)(float* w, std::size_t n, Rng& rng, double p);

    // -- deterministic quantization kernels ------------------------------
    /// w = scale * clamp(round_half_away(w / scale), -qmax, qmax),
    /// qmax = 2^(bits-1) - 1.  scale > 0.
    void (*quantize)(float* w, std::size_t n, int bits, float scale);
    /// Same rounding/saturation, but emits the integer codes instead of
    /// dequantizing — the fixed-point forward pass input (nn/quant.hpp).
    void (*quantize_codes)(const float* w, std::int16_t* codes,
                           std::size_t n, int bits, float scale);
    /// max |w[i]| (0 for empty spans).
    float (*max_abs)(const float* w, std::size_t n);

    // -- elementwise activations ----------------------------------------
    /// y[i] = f(x[i]); in-place (y == x) allowed.
    void (*act_fwd)(Act kind, const float* x, float* y, std::size_t n,
                    float param);
    /// out[i] = g[i] * f'(x[i]); in-place (out == g) allowed.
    void (*act_bwd)(Act kind, const float* x, const float* g, float* out,
                    std::size_t n, float param);

    // -- GEMM ------------------------------------------------------------
    /// C (+)= A · B on row-major blocks: A is m×k (leading dim lda), B is
    /// k×n (ldb), C is m×n (ldc).  `accumulate` false overwrites C (no
    /// pre-zero needed).  Each element of C is one fma chain: it starts
    /// from C (or +0) and adds the k products in ascending order (stored
    /// back once per kGemmPanelK panel), on every tier and every edge
    /// tile.  Only C's m×n block is written, never the columns past n.
    void (*gemm_f32)(const float* a, std::size_t lda, const float* b,
                     std::size_t ldb, float* c, std::size_t ldc,
                     std::size_t m, std::size_t k, std::size_t n,
                     bool accumulate);
    /// Fixed-point GEMM on quantized codes: c[i*n+j] =
    /// float(sum_k a[i*k..]·b[j*k..]) * scale (B is pre-transposed —
    /// rows of B are the n dot-product operands, matmul_nt layout).
    /// Integer accumulation is exact, so all tiers agree bit-exactly.
    void (*qgemm_nt)(const std::int16_t* a, const std::int16_t* b,
                     float* c, std::size_t m, std::size_t k, std::size_t n,
                     float scale);
    /// dst[j*m + i] = src[i*n + j] for a dense row-major m×n src (dst is
    /// n×m).  Moves W×W tiles through registers (16×16 on AVX-512, 8×8 on
    /// AVX2, 4×4 on NEON, element by element on scalar); edge tiles use
    /// masked partial loads and stores, so it reads exactly the m×n block
    /// and writes exactly the n×m block.  Bits are copied, never changed.
    void (*transpose_f32)(const float* src, std::size_t m, std::size_t n,
                          float* dst);
    /// Conv unfold of one image into the rows (c, ky, kx) of `out`
    /// (leading dim ld), each out_h*out_w wide: position (oy, ox) of a row
    /// holds image[c][oy*stride + ky - pad][ox*stride + kx - pad], or +0
    /// where that is padding.  Writes exactly those rows' out_h*out_w
    /// floats and reads only the image.  Stride 1 moves each position row
    /// W lanes at a time (one masked load from the shifted image row, one
    /// store), or at W = 1 as one copy of its valid span; other strides
    /// copy element by element.  Bits are copied, never changed.
    void (*im2col_f32)(const float* image, const Unfold& u, float* out,
                       std::size_t ld);
    /// Adjoint of im2col_f32: image[c][iy][ix] += cols[row][oy*out_w + ox]
    /// for every position whose window reads (iy, ix).  Each image element
    /// takes its additions in (ky, kx) order, one IEEE add each, as a
    /// per-element scatter does; an element no position reads keeps its
    /// bits.  Stride 1 holds each image row (c, ky, oy) in registers
    /// across kx and stores it once, or at W = 1 adds each position row's
    /// span into its image row; other strides scatter element by element.
    void (*col2im_f32)(const float* cols, const Unfold& u, float* image,
                       std::size_t ld);

    // -- f64 triangular solve (GP acquisition) ---------------------------
    /// Solves L Y = B in place for the m right-hand sides stored as the
    /// columns of the n×m block B (leading dim ldb >= m); L is n×n lower
    /// triangular (ldl).  Each element is the forward-substitution
    /// recurrence: it starts from b[i][c], subtracts l[i][k]·y[k][c] (one
    /// multiply, then one subtract) for k ascending, then divides once by
    /// l[i][i], on every tier and every column block.  Only B's n×m block
    /// is written, never the columns past m.
    void (*solve_lower_multi_f64)(const double* l, std::size_t ldl,
                                  double* b, std::size_t ldb, std::size_t n,
                                  std::size_t m);
};

/// The active table (env/CPU selected, cached after the first call).
/// Throws std::invalid_argument for an unparsable BAYESFT_SIMD value and
/// std::runtime_error when the requested tier is unavailable.
const KernelTable& kernels();

/// A specific tier's table, or nullptr when this build/CPU lacks it.
const KernelTable* kernels_for(Tier tier);

/// Tier backing `kernels()` right now.
Tier active_tier();

/// True when `kernels_for(tier)` would be non-null.
bool tier_available(Tier tier);

const char* tier_name(Tier tier);

/// Test hook: forces `kernels()` to the given tier until the override is
/// destroyed (throws std::runtime_error if unavailable).  Not thread-safe
/// against concurrent kernel lookups — tests only.
class TierOverride {
public:
    explicit TierOverride(Tier tier);
    ~TierOverride();
    TierOverride(const TierOverride&) = delete;
    TierOverride& operator=(const TierOverride&) = delete;

private:
    Tier previous_;
    bool had_previous_;
};

}  // namespace bayesft::simd
