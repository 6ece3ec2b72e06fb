#pragma once
// Spatial transformer network components (Jaderberg et al.), used by the
// traffic-sign model (paper Fig. 3(i)).  The transformer warps its input by
// an affine transform predicted from the input itself, with a differentiable
// bilinear sampler so the whole pipeline trains end-to-end.

#include <memory>

#include "nn/module.hpp"

namespace bayesft::nn {

/// Warps [N, C, H, W] inputs by an affine transform predicted by an owned
/// localization network.
///
/// The localization net must map [N, C, H, W] -> [N, 6]; the 6 outputs are
/// the row-major 2x3 affine matrix theta.  Output coordinates are normalized
/// to [-1, 1] (align-corners convention); samples falling outside the input
/// read as zero and receive no gradient.
class SpatialTransformer : public Module {
public:
    explicit SpatialTransformer(std::unique_ptr<Module> localization_net);

    /// Moves the input into its cache; the localization net reads a copy.
    Tensor forward(Tensor input) override;
    Tensor backward(Tensor grad_output) override;
    void collect_children(std::vector<Module*>& out) override;
    std::unique_ptr<Module> clone() const override;
    std::string name() const override { return "SpatialTransformer"; }

    Module& localization_net() { return *loc_net_; }

private:
    std::unique_ptr<Module> loc_net_;
    Tensor cached_input_;
    Tensor cached_theta_;  // [N, 6]
};

/// Standalone bilinear sampling (exposed for tests): samples `input`
/// [N, C, H, W] at `theta`-transformed grid positions; returns [N, C, H, W].
Tensor affine_grid_sample(const Tensor& input, const Tensor& theta);

/// Gradients of affine_grid_sample w.r.t. input and theta.
struct GridSampleGrads {
    Tensor grad_input;  // [N, C, H, W]
    Tensor grad_theta;  // [N, 6]
};
GridSampleGrads affine_grid_sample_backward(const Tensor& input,
                                            const Tensor& theta,
                                            const Tensor& grad_output);

}  // namespace bayesft::nn
