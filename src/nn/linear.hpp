#pragma once
// Fully-connected layer.

#include <cstdint>
#include <vector>

#include "nn/module.hpp"
#include "nn/quant.hpp"
#include "utils/rng.hpp"

namespace bayesft::nn {

/// y = x W^T + b for x:[N, in], W:[out, in], b:[out].
///
/// Fixed-point capable: under InferenceMode::kInt8 / kInt12 the forward
/// quantizes W and x per-tensor to signed codes and accumulates the
/// product in integers (simd qgemm_nt); see nn/quant.hpp for the exact
/// semantics.  Backward always differentiates the float path.
class Linear : public Module, public FixedPointCapable {
public:
    /// Xavier-uniform initialized weights, zero bias.
    Linear(std::size_t in_features, std::size_t out_features, Rng& rng);

    /// Moves the input into its cache (the backward reads it).
    Tensor forward(Tensor input) override;
    Tensor backward(Tensor grad_output) override;
    /// dW and db without the dX product.
    void backward_params(Tensor grad_output) override;
    void collect_parameters(std::vector<Parameter*>& out) override;
    std::unique_ptr<Module> clone() const override;
    std::string name() const override;

    void set_inference_mode(InferenceMode mode) override { mode_ = mode; }
    InferenceMode inference_mode() const override { return mode_; }

    std::size_t in_features() const { return in_features_; }
    std::size_t out_features() const { return out_features_; }
    Parameter& weight() { return weight_; }
    Parameter& bias() { return bias_; }

private:
    /// Clone path: copies parameters without running the (discarded) random
    /// weight initialization.
    struct CloneTag {};
    Linear(const Linear& other, CloneTag);

    Tensor forward_fixed_point(const Tensor& input);

    std::size_t in_features_;
    std::size_t out_features_;
    Parameter weight_;
    Parameter bias_;
    Tensor cached_input_;
    InferenceMode mode_ = InferenceMode::kFloat32;
    // Fixed-point scratch (codes of W and x), grown on demand and reused
    // across calls.
    std::vector<std::int16_t> weight_codes_;
    std::vector<std::int16_t> input_codes_;
};

}  // namespace bayesft::nn
