#pragma once
// Normalization layers (paper Fig. 2(b), Eq. 2).
//
// GroupNorm is implemented generically; LayerNorm and InstanceNorm are the
// groups=1 and groups=channels special cases (as in Wu & He 2018).
// BatchNorm keeps running statistics for eval mode.
//
// All affine parameters (gamma, beta) are driftable Parameters: the paper's
// explanation for why norms hurt under drift is precisely that gamma/beta
// sit in ReRAM cells and get perturbed, which the normalized activations
// amplify ("Achilles' heel").

#include "nn/module.hpp"

namespace bayesft::nn {

/// Group normalization over [N, C, H, W] or [N, C] inputs.
/// Normalizes each (sample, group) slab to zero mean / unit variance, then
/// applies per-channel affine gamma/beta.
class GroupNorm : public Module {
public:
    GroupNorm(std::size_t num_groups, std::size_t channels,
              float eps = 1e-5F);

    Tensor forward(Tensor input) override;
    Tensor backward(Tensor grad_output) override;
    void collect_parameters(std::vector<Parameter*>& out) override;
    std::unique_ptr<Module> clone() const override;
    std::string name() const override;

    Parameter& gamma() { return gamma_; }
    Parameter& beta() { return beta_; }

protected:
    std::size_t channels() const { return channels_; }
    float eps() const { return eps_; }
    /// Copies affine parameters and the train/eval flag into a fresh norm.
    void copy_norm_state_into(GroupNorm& dst) const {
        dst.gamma_.value = gamma_.value;
        dst.beta_.value = beta_.value;
        dst.training_ = training_;
    }

private:
    std::size_t num_groups_;
    std::size_t channels_;
    float eps_;
    Parameter gamma_;
    Parameter beta_;
    // Cached forward state for backward.
    Tensor normalized_;              // x-hat
    std::vector<float> inv_stddev_;  // per (n, g)
    std::vector<std::size_t> input_shape_;
};

/// Layer normalization = GroupNorm with a single group.
class LayerNorm : public GroupNorm {
public:
    explicit LayerNorm(std::size_t channels, float eps = 1e-5F)
        : GroupNorm(1, channels, eps) {}
    std::unique_ptr<Module> clone() const override {
        auto copy = std::make_unique<LayerNorm>(channels(), eps());
        copy_norm_state_into(*copy);
        return copy;
    }
    std::string name() const override { return "LayerNorm"; }
};

/// Instance normalization = GroupNorm with one group per channel.
class InstanceNorm : public GroupNorm {
public:
    explicit InstanceNorm(std::size_t channels, float eps = 1e-5F)
        : GroupNorm(channels, channels, eps) {}
    std::unique_ptr<Module> clone() const override {
        auto copy = std::make_unique<InstanceNorm>(channels(), eps());
        copy_norm_state_into(*copy);
        return copy;
    }
    std::string name() const override { return "InstanceNorm"; }
};

/// Batch normalization with running statistics (biased variance throughout).
class BatchNorm : public Module {
public:
    explicit BatchNorm(std::size_t channels, float eps = 1e-5F,
                       float momentum = 0.1F);

    Tensor forward(Tensor input) override;
    Tensor backward(Tensor grad_output) override;
    void collect_parameters(std::vector<Parameter*>& out) override;
    void collect_buffers(std::vector<Tensor*>& out) override;
    std::unique_ptr<Module> clone() const override;
    std::string name() const override;

    Parameter& gamma() { return gamma_; }
    Parameter& beta() { return beta_; }
    const Tensor& running_mean() const { return running_mean_; }
    const Tensor& running_var() const { return running_var_; }

private:
    std::size_t channels_;
    float eps_;
    float momentum_;
    Parameter gamma_;
    Parameter beta_;
    Tensor running_mean_;
    Tensor running_var_;
    // Cached state for backward (training mode).
    Tensor normalized_;
    std::vector<float> inv_stddev_;  // per channel
    std::vector<std::size_t> input_shape_;
    bool forward_was_training_ = true;
};

}  // namespace bayesft::nn
