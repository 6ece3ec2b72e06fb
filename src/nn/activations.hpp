#pragma once
// Elementwise activation functions.  The paper's Fig. 2(d) ablation compares
// ReLU, Leaky ReLU, ELU and GELU; all four are implemented here with exact
// analytic derivatives.

#include "nn/module.hpp"
#include "simd/kernels.hpp"

namespace bayesft::nn {

/// Common base: a training-mode forward moves its input into its cache for
/// the backward pass and writes a fresh output; an eval-mode forward keeps
/// nothing and overwrites its argument in place, and a backward after it
/// throws std::logic_error.  The backward overwrites its gradient argument
/// in place.  The elementwise loops run through the runtime-dispatched
/// SIMD kernels (simd::kernels().act_fwd / act_bwd), each writing its
/// result in one pass from its inputs; a subclass only names its kernel
/// via kind() and supplies the scalar parameter via param().
class Activation : public Module {
public:
    Tensor forward(Tensor input) final;
    Tensor backward(Tensor grad_output) final;

protected:
    /// Which elementwise kernel implements this activation.
    virtual simd::Act kind() const = 0;
    /// The kernel's scalar parameter (leaky slope / ELU alpha).
    virtual float param() const { return 0.0F; }

    /// Helper for subclass clone(): carries the train/eval flag over.
    std::unique_ptr<Module> copy_flags(std::unique_ptr<Activation> c) const {
        c->training_ = training_;
        return c;
    }

private:
    Tensor cached_input_;
};

class ReLU : public Activation {
public:
    std::unique_ptr<Module> clone() const override {
        return copy_flags(std::make_unique<ReLU>());
    }
    std::string name() const override { return "ReLU"; }

protected:
    simd::Act kind() const override { return simd::Act::kRelu; }
};

class LeakyReLU : public Activation {
public:
    explicit LeakyReLU(float negative_slope = 0.01F);
    std::unique_ptr<Module> clone() const override {
        return copy_flags(std::make_unique<LeakyReLU>(slope_));
    }
    std::string name() const override;

protected:
    simd::Act kind() const override { return simd::Act::kLeakyRelu; }
    float param() const override { return slope_; }

private:
    float slope_;
};

class ELU : public Activation {
public:
    explicit ELU(float alpha = 1.0F);
    std::unique_ptr<Module> clone() const override {
        return copy_flags(std::make_unique<ELU>(alpha_));
    }
    std::string name() const override;

protected:
    simd::Act kind() const override { return simd::Act::kElu; }
    float param() const override { return alpha_; }

private:
    float alpha_;
};

/// Exact GELU: x * Phi(x) with Phi the standard normal CDF (erf-based).
class GELU : public Activation {
public:
    std::unique_ptr<Module> clone() const override {
        return copy_flags(std::make_unique<GELU>());
    }
    std::string name() const override { return "GELU"; }

protected:
    simd::Act kind() const override { return simd::Act::kGelu; }
};

class Sigmoid : public Activation {
public:
    std::unique_ptr<Module> clone() const override {
        return copy_flags(std::make_unique<Sigmoid>());
    }
    std::string name() const override { return "Sigmoid"; }

protected:
    simd::Act kind() const override { return simd::Act::kSigmoid; }
};

class Tanh : public Activation {
public:
    std::unique_ptr<Module> clone() const override {
        return copy_flags(std::make_unique<Tanh>());
    }
    std::string name() const override { return "Tanh"; }

protected:
    simd::Act kind() const override { return simd::Act::kTanh; }
};

/// Names usable from configuration strings: "relu", "leaky_relu", "elu",
/// "gelu", "sigmoid", "tanh".  Throws std::invalid_argument on unknown names.
std::unique_ptr<Module> make_activation(const std::string& kind);

}  // namespace bayesft::nn
