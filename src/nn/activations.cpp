#include "nn/activations.hpp"

#include <sstream>
#include <stdexcept>

namespace bayesft::nn {

Tensor Activation::forward(Tensor input) {
    const auto& kt = simd::kernels();
    // Only a training-mode forward is followed by a backward.
    if (!training_) {
        cached_input_ = Tensor();
        kt.act_fwd(kind(), input.data(), input.data(), input.size(), param());
        return input;
    }
    cached_input_ = std::move(input);
    Tensor out(cached_input_.shape(), for_overwrite);
    kt.act_fwd(kind(), cached_input_.data(), out.data(), out.size(), param());
    return out;
}

Tensor Activation::backward(Tensor grad_output) {
    if (cached_input_.rank() == 0) {
        throw std::logic_error(
            "Activation::backward: no training-mode forward to differentiate");
    }
    if (grad_output.shape() != cached_input_.shape()) {
        throw std::invalid_argument("Activation::backward: shape mismatch");
    }
    simd::kernels().act_bwd(kind(), cached_input_.data(), grad_output.data(),
                            grad_output.data(), grad_output.size(), param());
    return grad_output;
}

LeakyReLU::LeakyReLU(float negative_slope) : slope_(negative_slope) {}
std::string LeakyReLU::name() const {
    std::ostringstream os;
    os << "LeakyReLU(" << slope_ << ")";
    return os.str();
}

ELU::ELU(float alpha) : alpha_(alpha) {}
std::string ELU::name() const {
    std::ostringstream os;
    os << "ELU(" << alpha_ << ")";
    return os.str();
}

std::unique_ptr<Module> make_activation(const std::string& kind) {
    if (kind == "relu") return std::make_unique<ReLU>();
    if (kind == "leaky_relu") return std::make_unique<LeakyReLU>();
    if (kind == "elu") return std::make_unique<ELU>();
    if (kind == "gelu") return std::make_unique<GELU>();
    if (kind == "sigmoid") return std::make_unique<Sigmoid>();
    if (kind == "tanh") return std::make_unique<Tanh>();
    throw std::invalid_argument("make_activation: unknown kind '" + kind + "'");
}

}  // namespace bayesft::nn
