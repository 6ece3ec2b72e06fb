#pragma once
// Convolution and pooling layers for [N, C, H, W] tensors.

#include <cstdint>

#include "nn/module.hpp"
#include "nn/quant.hpp"
#include "tensor/ops.hpp"
#include "utils/rng.hpp"

namespace bayesft::nn {

/// 2-d convolution via im2col + matrix product.
/// Weight layout: [out_channels, in_channels * kh * kw]; bias: [out_channels].
///
/// Fixed-point capable: under InferenceMode::kInt8 / kInt12 the forward
/// quantizes the weights and, at the input's per-tensor scale, the float
/// unfold to signed codes, and accumulates the products in integers (simd
/// qgemm_nt); see nn/quant.hpp.  Backward always differentiates the float
/// path.
class Conv2d : public Module, public FixedPointCapable {
public:
    Conv2d(std::size_t in_channels, std::size_t out_channels,
           std::size_t kernel, std::size_t stride, std::size_t pad, Rng& rng);

    /// Moves the input into its cache (the backward reads it).
    Tensor forward(Tensor input) override;
    Tensor backward(Tensor grad_output) override;
    /// dW and db without W^T, the dcols GEMM, col2im or the input
    /// gradient.
    void backward_params(Tensor grad_output) override;
    void collect_parameters(std::vector<Parameter*>& out) override;
    std::unique_ptr<Module> clone() const override;
    std::string name() const override;

    void set_inference_mode(InferenceMode mode) override { mode_ = mode; }
    InferenceMode inference_mode() const override { return mode_; }

    Parameter& weight() { return weight_; }
    Parameter& bias() { return bias_; }
    std::size_t out_channels() const { return out_channels_; }

private:
    /// Clone path: copies config and parameters without running the
    /// (discarded) random weight initialization.
    struct CloneTag {};
    Conv2d(const Conv2d& other, CloneTag);

    ConvGeometry geometry_for(const Tensor& input) const;
    /// Accumulates dW and db; folds the input gradient into *grad_input
    /// (zero-filled, the input's shape) unless it is null.
    void backward_into(const Tensor& grad_output, Tensor* grad_input);

    std::size_t in_channels_;
    std::size_t out_channels_;
    std::size_t kernel_;
    std::size_t stride_;
    std::size_t pad_;
    Parameter weight_;
    Parameter bias_;
    Tensor cached_input_;
    InferenceMode mode_ = InferenceMode::kFloat32;
    // Persistent batched-im2col/GEMM scratch, grown on demand and reused
    // across calls so the hot path allocates nothing per batch.
    std::vector<float> cols_scratch_;    // [patch, group*positions]
    // True while cols_scratch_ holds the unfold of cached_input_'s whole
    // batch (a forward that ran as one group); backward then skips its
    // im2col.  Cleared by the backward that overwrites cols_scratch_ with
    // dcols (backward_params leaves it).
    bool cols_hold_input_ = false;
    std::vector<float> gemm_scratch_;    // [out_channels, group*positions]
    std::vector<float> grad_scratch_;    // backward: grad slab [OC, group*P]
    std::vector<float> grad_t_scratch_;  // backward: grad^T [group*P, OC]
    std::vector<float> weight_grad_t_;   // backward: dW^T [patch, OC]
    // Fixed-point scratch: the codes of W and of the transposed unfold.
    std::vector<std::int16_t> weight_codes_;   // [OC, patch]
    std::vector<std::int16_t> colsT_codes_;    // [group*positions, patch]
};

/// Max pooling with square window; stores argmax indices for backward.
class MaxPool2d : public Module {
public:
    explicit MaxPool2d(std::size_t kernel, std::size_t stride = 0);

    Tensor forward(Tensor input) override;
    Tensor backward(Tensor grad_output) override;
    std::unique_ptr<Module> clone() const override;
    std::string name() const override;

private:
    std::size_t kernel_;
    std::size_t stride_;
    std::vector<std::size_t> input_shape_;
    std::vector<std::size_t> argmax_;  // flat input index per output element
};

/// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool : public Module {
public:
    Tensor forward(Tensor input) override;
    Tensor backward(Tensor grad_output) override;
    std::unique_ptr<Module> clone() const override {
        return std::make_unique<GlobalAvgPool>();
    }
    std::string name() const override { return "GlobalAvgPool"; }

private:
    std::vector<std::size_t> input_shape_;
};

/// Average pooling with square window (used by LeNet-style models).
class AvgPool2d : public Module {
public:
    explicit AvgPool2d(std::size_t kernel, std::size_t stride = 0);

    Tensor forward(Tensor input) override;
    Tensor backward(Tensor grad_output) override;
    std::unique_ptr<Module> clone() const override;
    std::string name() const override;

private:
    std::size_t kernel_;
    std::size_t stride_;
    std::vector<std::size_t> input_shape_;
};

}  // namespace bayesft::nn
