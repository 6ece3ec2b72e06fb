#pragma once
// Fixed-point inference mode: an int8 / int12 forward path for the layers
// that dominate inference FLOPs (Linear, Conv2d).
//
// Semantics: dynamic per-tensor symmetric quantization.  On every forward
// the weight tensor and the activation tensor are each mapped to signed
// `bits`-bit codes with scale s = max|v| / (2^(bits-1) - 1) — the exact
// grid, rounding, and saturation of fault::QuantizationFault (both run
// through simd::KernelTable::quantize / quantize_codes) — and the product
// is accumulated in integers (qgemm_nt), so the layer computes
//   y = (s_w * s_x) * (codes(W) @ codes(x)^T) + b
// with a single float rounding per output element.  Because the quantized
// view of the weights is bit-identical to QuantizationFault's perturbed
// weights, running the int-b forward is exactly "evaluate the quantized
// deployment" without mutating the model, and the integer accumulation
// makes the result bit-identical across SIMD dispatch tiers for free.
//
// kInt12 matches the DAC'12-profile deployment chain (fault::dac12_deploy):
// 12-bit words are the typical memristor DAC/ADC resolution the paper's
// hardware model assumes.
//
// The mode only changes `forward`; gradients are not defined through the
// integer path (training always runs float32).  docs/performance.md covers
// the mode end to end.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "nn/module.hpp"

namespace bayesft::nn {

/// Numeric mode of the forward pass of fixed-point-capable layers.
enum class InferenceMode {
    kFloat32 = 0,  ///< full float path (default)
    kInt8,         ///< 8-bit symmetric fixed point
    kInt12,        ///< 12-bit symmetric fixed point (DAC'12 profile)
};

/// Word width of a mode: 0 / 8 / 12.
int inference_bits(InferenceMode mode);

/// Stable name: "float32" | "int8" | "int12".
const char* inference_mode_name(InferenceMode mode);

/// Inverse of inference_mode_name; throws std::invalid_argument on
/// anything else.
InferenceMode parse_inference_mode(const std::string& name);

/// Implemented by layers that own a fixed-point forward path (Linear,
/// Conv2d).  Side interface next to Module so the walker can find capable
/// layers in any container without the Module base knowing about
/// quantization.
class FixedPointCapable {
public:
    virtual ~FixedPointCapable() = default;
    virtual void set_inference_mode(InferenceMode mode) = 0;
    virtual InferenceMode inference_mode() const = 0;
};

/// Walks the module tree (nn::visit) and sets `mode` on every
/// FixedPointCapable layer.  Returns how many layers switched.
std::size_t set_inference_mode(Module& root, InferenceMode mode);

/// RAII mode switch: applies `mode` to the tree on construction and
/// restores each layer's previous mode on destruction, so evaluation
/// helpers can run a quantized pass without leaking state into the model.
class ScopedInferenceMode {
public:
    ScopedInferenceMode(Module& root, InferenceMode mode);
    ~ScopedInferenceMode();
    ScopedInferenceMode(const ScopedInferenceMode&) = delete;
    ScopedInferenceMode& operator=(const ScopedInferenceMode&) = delete;

private:
    std::vector<std::pair<FixedPointCapable*, InferenceMode>> saved_;
};

}  // namespace bayesft::nn
